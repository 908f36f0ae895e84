//! The metric catalog (names and units, as listed in `BENCHMARK.json`)
//! and the result line every run prints last.

use std::collections::BTreeMap;

use serde::Value;

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("aqv_geomean", "qubit-cycles"),
    ("swaps_geomean", "count"),
    ("gates_geomean", "count"),
];

/// Per-layer metrics, printed by every `--trace 1` run. A layer the
/// workload's path never calls from outside reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("route.replay_ms", "ms"),
    ("route.ns_per_routed_op", "ns"),
    ("route.swaps", "count"),
    ("route.replay_exact_share", "ratio"),
    ("route.replay_excluded_cells", "count"),
    ("lang.parse_ms", "ms"),
    ("lang.source_kb", "KiB"),
    ("qir.validate_ms", "ms"),
    ("qir.lower_mcx_ms", "ms"),
    ("qir.analyze_ms", "ms"),
    ("qir.lowered_ops", "count"),
    ("core.prepare_ms", "ms"),
    ("core.cost_table_ms", "ms"),
    ("arch.topology_ms", "ms"),
    ("core.execute_ms", "ms"),
    ("core.execute_self_ms", "ms"),
    ("core.trace_ops", "count"),
    ("core.cer_hit_ratio", "ratio"),
    ("core.cer_misses", "count"),
    ("bench.report_json_ms", "ms"),
    ("bench.encode_ms", "ms"),
    ("bench.report_kb", "KiB"),
    ("service.proto.request_parse_us", "us"),
    ("service.proto.response_encode_us", "us"),
    ("service.proto.response_kb", "KiB"),
    ("service.reports_hit_ratio", "ratio"),
    ("service.programs_hit_ratio", "ratio"),
    ("service.prepared_hit_ratio", "ratio"),
    ("service.topologies_hit_ratio", "ratio"),
    ("service.coalesced_share", "ratio"),
    ("service.evictions", "count"),
    ("service.compile_source_hit_us", "us"),
    ("service.compile_source_miss_ms", "ms"),
    ("service.server.ping_rtt_us", "us"),
    ("service.server.wire_overhead_us", "us"),
    ("verify.validate_ms", "ms"),
    ("metrics.nisq_success_geomean", "ratio"),
    ("trace.ops", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.attributed_share_p01", "ratio"),
    ("trace.attributed_share_mean", "ratio"),
    ("host.available_parallelism", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted (cells compiled or requests sent).
    pub attempted: u64,
    /// Ops that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// Measured metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with the end-to-end metrics (`trace = false`) or the per-layer
    /// metrics (`trace = true`).
    ///
    /// # Panics
    ///
    /// When an end-to-end metric was not measured or a value is not
    /// finite — a bug in the workload code.
    pub fn to_json(&self, trace: bool, parallelism: usize) -> String {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        let metrics = catalog.iter().map(|&(name, unit)| {
            let value = match (name, self.values.get(name)) {
                ("host.available_parallelism", _) => parallelism as f64,
                (_, Some(&v)) => v,
                (_, None) if trace => 0.0,
                (_, None) => panic!("end-to-end metric `{name}` was not measured"),
            };
            assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
            (
                name,
                Value::map([
                    ("value", Value::Float(value)),
                    ("unit", Value::String(unit.to_string())),
                ]),
            )
        });
        let line = Value::map([
            (
                "correct",
                Value::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::map(metrics)),
        ]);
        serde_json::to_string(&line).expect("result line serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog here and the one in `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn catalog_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(Value::as_seq)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for &(name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = serde_json::from_str(&outcome.to_json(false, 2)).unwrap();
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = line.get("metrics").unwrap();
        for &(name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        }
        let traced = serde_json::from_str(&outcome.to_json(true, 2)).unwrap();
        let parallelism = traced
            .get("metrics")
            .and_then(|m| m.get("host.available_parallelism"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        assert_eq!(parallelism, Some(2.0));
    }
}
