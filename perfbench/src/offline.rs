//! The offline workloads (`arith-route`, `small-cells`): one thread,
//! sequential ops, each a fresh one-shot compile the way
//! `squarec --json` runs it:
//! `parse_program → PreparedProgram::new → ArchSpec::build →
//! compile_prepared_on → report_json → serde_json::to_string`.
//!
//! A run is made of whole passes over the workload's cells, each pass
//! in a seeded order, until the measurement time is used up.

use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use square_arch::Topology;
use square_bench::{report_json, SweepArch};
use square_core::{compile_prepared_on, ModuleCostTable, Policy, PreparedProgram, RouterKind};
use square_qir::{Program, ProgramStats};

use crate::cells::{is_nisq_benchmark, Cell};
use crate::metrics::Outcome;
use crate::oracle::{self, Fingerprint, Reference};
use crate::stats::{geomean, median, peak_rss_mb, ratio, windowed};
use crate::trace::Tracer;
use crate::RunArgs;

/// A run sets its workload up at least this many times, and until the
/// set-ups have taken [`SETUP_MIN_SECONDS`] (at most
/// [`SETUP_MAX_REPEATS`] times); the median is reported as `setup_s`.
pub const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.25;
const SETUP_MAX_REPEATS: usize = 200;

/// What one op produced.
struct OpOutput {
    fingerprint: Fingerprint,
    json: String,
    source_bytes: usize,
    trace_ops: u64,
    cer_hits: u64,
    cer_misses: u64,
}

/// One timed op.
struct OpRecord {
    cell: usize,
    ns: u64,
    result: Result<OpOutput, String>,
}

/// Counts the traced ops add after their timed windows.
#[derive(Default)]
pub struct TracedCounts {
    lowered_ops: u64,
    /// Program gates plus swaps over every replayed op.
    pub routed_ops: u64,
    /// Per distinct cell: `None` until replayed, then whether every
    /// replay reproduced the compile exactly.
    pub replay_exact: Vec<Option<bool>>,
}

impl TracedCounts {
    /// Counts for `cells` distinct cells.
    pub fn new(cells: usize) -> Self {
        TracedCounts {
            replay_exact: vec![None; cells],
            ..TracedCounts::default()
        }
    }

    /// Records one replay of distinct cell `cell`.
    pub fn note_replay(&mut self, cell: usize, routed_ops: u64, exact: bool) {
        self.routed_ops += routed_ops;
        let slot = &mut self.replay_exact[cell];
        *slot = Some(slot.unwrap_or(true) && exact);
    }
}

/// Runs `f` in a span under `root` when tracing, plainly otherwise.
fn stage<T>(
    trace: &mut Option<(&mut Tracer, u64, usize)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        Some((tracer, op, root)) => tracer.span(*op, name, Some(*root), f),
        None => f(),
    }
}

/// One op: `.sq` bytes in, report JSON bytes out. The parsed program
/// is handed back so it is dropped after the op's timed window.
fn compile_op(
    cell: &Cell,
    mut trace: Option<(&mut Tracer, u64, usize)>,
) -> Result<(OpOutput, Program), String> {
    let program = stage(&mut trace, "lang.parse", || {
        square_lang::parse_program(&cell.source)
    })
    .map_err(|d| format!("{} parse errors", d.len()))?;
    let prepared = stage(&mut trace, "core.prepare", || {
        PreparedProgram::new(&program)
    })
    .map_err(|e| e.to_string())?;
    let config = stage(&mut trace, "core.config", || cell.config());
    let topo: Arc<dyn Topology> = stage(&mut trace, "arch.topology", || {
        Arc::from(config.arch.build(prepared.capacity_hint()))
    });
    let report = stage(&mut trace, "core.execute", || {
        compile_prepared_on(&prepared, &[], &config, topo)
    })
    .map_err(|e| e.to_string())?;
    let value = stage(&mut trace, "bench.report_json", || report_json(&report));
    let json = stage(&mut trace, "bench.encode", || serde_json::to_string(&value))
        .map_err(|e| format!("{e:?}"))?;
    // Read the report's counters, then free the report (trace,
    // segments), the prepared program and the JSON value: freeing is
    // part of a one-shot compile's cost.
    let output = stage(&mut trace, "core.drop", move || {
        let output = OpOutput {
            fingerprint: Fingerprint::of(&report),
            json,
            source_bytes: cell.source.len(),
            trace_ops: report.trace.len() as u64,
            cer_hits: report.cer_cache.hits,
            cer_misses: report.cer_cache.misses,
        };
        drop((report, prepared, value));
        output
    });
    Ok((output, program))
}

/// The layer calls a traced op makes after its timed window: the four
/// stages of `PreparedProgram::new` called one by one, and the route
/// replay of the cell's validated trace.
fn after_window(
    tracer: &mut Tracer,
    op: u64,
    (index, cell): (usize, &Cell),
    program: &Program,
    reference: Option<&Reference>,
    counts: &mut TracedCounts,
) {
    // Errors here already failed the op itself; only the time matters.
    let _ = tracer.span(op, "qir.validate", None, || {
        square_qir::validate::validate_program(program)
    });
    let lowered = tracer.span(op, "qir.lower_mcx", None, || square_qir::lower_mcx(program));
    let stats = tracer.span(op, "qir.analyze", None, || ProgramStats::analyze(&lowered));
    tracer.span(op, "core.cost_table", None, || {
        ModuleCostTable::build(&lowered, &stats)
    });
    counts.lowered_ops += lowered
        .modules()
        .iter()
        .map(|m| m.all_stmts().count() as u64)
        .sum::<u64>();
    if let Some(route) = reference.and_then(|r| r.route.as_ref()) {
        let exact = tracer.span(op, "route.replay", None, || oracle::replay(cell, route));
        counts.note_replay(index, route.routed_ops, exact);
    }
}

/// A traced phase's state: the tracer, the validated cells (for the
/// route replay), the counts taken after each op's window, and the
/// untraced twin of every traced op (for the tracing overhead).
struct TraceRun<'a> {
    tracer: Tracer,
    refs: &'a [Result<Reference, String>],
    counts: TracedCounts,
    untraced: Vec<OpRecord>,
}

/// One untraced op, timed from outside.
fn plain_op(cells: &[Cell], i: usize) -> OpRecord {
    let start = Instant::now();
    let result = compile_op(&cells[i], None);
    let ns = start.elapsed().as_nanos() as u64;
    OpRecord {
        cell: i,
        ns,
        result: result.map(|(output, _)| output),
    }
}

/// One traced op (its root span is its time), then its
/// [`after_window`] calls.
fn traced_op(cells: &[Cell], i: usize, op: u64, run: &mut TraceRun) -> OpRecord {
    let root = run.tracer.open(op, "op", None);
    let result = compile_op(&cells[i], Some((&mut run.tracer, op, root)));
    run.tracer.close(root);
    let ns = run.tracer.spans()[root].ns();
    if let Ok((_, program)) = &result {
        let reference = run.refs[i].as_ref().ok();
        after_window(
            &mut run.tracer,
            op,
            (i, &cells[i]),
            program,
            reference,
            &mut run.counts,
        );
    }
    OpRecord {
        cell: i,
        ns,
        result: result.map(|(output, _)| output),
    }
}

/// Whole passes over `cells` in seeded order until `seconds` elapse.
/// When tracing, every op runs twice — untraced, then traced — so the
/// two sides see the same warm state. Returns each pass's wall time.
fn timed_phase(
    cells: &[Cell],
    rng: &mut StdRng,
    seconds: f64,
    mut trace: Option<&mut TraceRun>,
    records: &mut Vec<OpRecord>,
) -> Vec<f64> {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        order.shuffle(rng);
        let pass_start = Instant::now();
        for &i in &order {
            match trace.as_deref_mut() {
                None => records.push(plain_op(cells, i)),
                Some(run) => {
                    run.untraced.push(plain_op(cells, i));
                    let op = records.len() as u64;
                    records.push(traced_op(cells, i, op, run));
                }
            }
        }
        passes.push(pass_start.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            return passes;
        }
    }
}

/// `--one-shot POLICY ARCH ROUTER MBU`: compiles the `.sq` source on
/// stdin once, the way a one-shot `squarec --json` does, and prints
/// this process's peak RSS as `peak_rss_mb X`.
pub fn one_shot(args: &[String]) -> Result<(), String> {
    let [policy, arch, router, mbu] = args else {
        return Err("--one-shot needs POLICY ARCH ROUTER MBU".to_string());
    };
    let mut source = String::new();
    std::io::Read::read_to_string(&mut std::io::stdin(), &mut source)
        .map_err(|e| format!("stdin: {e}"))?;
    let name: Arc<str> = Arc::from("stdin");
    let cell = Cell::new(
        &name,
        &Arc::from(source),
        Policy::parse(policy).ok_or_else(|| format!("unknown policy `{policy}`"))?,
        SweepArch::parse(arch).ok_or_else(|| format!("unknown arch `{arch}`"))?,
        RouterKind::parse(router).ok_or_else(|| format!("unknown router `{router}`"))?,
        mbu == "1",
    );
    compile_op(&cell, None)?;
    println!("peak_rss_mb {}", peak_rss_mb(None)?);
    Ok(())
}

/// The largest peak RSS of a fresh `--one-shot` process over `cells`:
/// the footprint a one-shot compile of the workload's heaviest cell
/// needs.
fn one_shot_peak_rss(cells: &[Cell]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut peak: f64 = 0.0;
    for cell in cells {
        let mut child = Command::new(&exe)
            .arg("--one-shot")
            .args([
                cell.policy.cli_name(),
                &cell.arch.to_string(),
                cell.router.cli_name(),
                if cell.mbu { "1" } else { "0" },
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn one-shot: {e}"))?;
        let written = child
            .stdin
            .take()
            .expect("stdin is piped")
            .write_all(cell.source.as_bytes());
        let output = child
            .wait_with_output()
            .map_err(|e| format!("one-shot: {e}"))?;
        written.map_err(|e| format!("one-shot stdin: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let mb = text
            .lines()
            .find_map(|l| l.strip_prefix("peak_rss_mb "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|_| output.status.success())
            .ok_or_else(|| format!("{}: one-shot failed: {text}", cell.label()))?;
        peak = peak.max(mb);
    }
    Ok(peak)
}

/// Runs `build` repeatedly (see [`SETUP_MIN_REPEATS`]); returns the
/// last build and the median set-up time in seconds. Earlier builds
/// are dropped outside the timed window.
pub fn setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut built = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        let start = Instant::now();
        let value = build()?;
        times.push(start.elapsed().as_secs_f64());
        built = Some(value);
    }
    Ok((built.expect("at least one set-up"), median(&mut times)))
}

/// Counts the ops whose output differs from their validated cell
/// (fingerprint and report bytes), or that failed outright.
fn count_failures(cells: &[Cell], records: &[OpRecord], refs: &[Result<Reference, String>]) -> u64 {
    let mut failed = 0;
    for record in records {
        let verdict = match (&record.result, &refs[record.cell]) {
            (Err(e), _) => Err(format!("op failed: {e}")),
            (_, Err(e)) => Err(e.clone()),
            (Ok(out), Ok(r)) if out.fingerprint != r.fingerprint => Err(format!(
                "fingerprint {:?} != validated {:?}",
                out.fingerprint, r.fingerprint
            )),
            (Ok(out), Ok(r)) if out.json != r.report_bytes => {
                Err("report bytes differ from the validated compile".to_string())
            }
            _ => Ok(()),
        };
        if let Err(why) = verdict {
            if failed < 5 {
                eprintln!("FAILED {}: {why}", cells[record.cell].label());
            }
            failed += 1;
        }
    }
    failed
}

/// The quality metrics over the distinct validated cells: geometric
/// means of AQV and gates, and of `swaps + 1` over swap-chain cells
/// (braiding inserts no swaps).
pub fn set_quality<'a>(
    outcome: &mut Outcome,
    cells: impl Iterator<Item = (&'a Cell, &'a Reference)> + Clone,
) {
    outcome.set(
        "aqv_geomean",
        geomean(cells.clone().map(|(_, r)| r.fingerprint.aqv.max(1) as f64)),
    );
    outcome.set(
        "gates_geomean",
        geomean(
            cells
                .clone()
                .map(|(_, r)| r.fingerprint.gates.max(1) as f64),
        ),
    );
    outcome.set(
        "swaps_geomean",
        geomean(
            cells
                .filter(|(c, _)| !c.arch.is_braided())
                .map(|(_, r)| (r.fingerprint.swaps + 1) as f64),
        ),
    );
}

/// The success-rate estimate over the NISQ-set programs' `nisq` cells.
fn nisq_success<'a>(cells: impl Iterator<Item = (&'a Cell, &'a Reference)>) -> f64 {
    geomean(
        cells
            .filter(|(c, _)| is_nisq_benchmark(&c.program))
            .filter_map(|(_, r)| r.success)
            .filter(|&s| s > 0.0),
    )
}

/// The cells that passed validation, with their reference.
fn validated<'a>(
    cells: &'a [Cell],
    refs: &'a [Result<Reference, String>],
) -> impl Iterator<Item = (&'a Cell, &'a Reference)> + Clone {
    cells
        .iter()
        .zip(refs)
        .filter_map(|(c, r)| r.as_ref().ok().map(|r| (c, r)))
}

/// Runs an offline workload.
pub fn run(
    workload: &str,
    build: fn() -> Result<Vec<Cell>, String>,
    args: &RunArgs,
) -> Result<Outcome, String> {
    let (cells, setup_s) = setup(build)?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut outcome = Outcome::default();
    // One untimed pass first, so the timed passes do not pay for the
    // allocator's and the page cache's first touch.
    timed_phase(&cells, &mut rng, 0.0, None, &mut Vec::new());
    let cell_refs: Vec<&Cell> = cells.iter().collect();

    if !args.trace {
        let mut records = Vec::new();
        let passes = timed_phase(&cells, &mut rng, args.seconds, None, &mut records);
        let refs = oracle::validate_cells(&cell_refs, false);
        outcome.attempted = records.len() as u64;
        outcome.failed = count_failures(&cells, &records, &refs);
        let per_pass = records
            .chunks(cells.len())
            .map(|pass| pass.iter().map(|r| r.ns as f64 / 1e6).collect::<Vec<f64>>());
        let mut windows: Vec<(Vec<f64>, f64)> = per_pass.zip(passes).collect();
        let w = windowed(&mut windows);
        outcome.set("ops_per_s", w.ops_per_s);
        outcome.set("latency_p50_ms", w.p50_ms);
        outcome.set("latency_p90_ms", w.p90_ms);
        outcome.set("latency_p99_ms", w.p99_ms);
        outcome.set("setup_s", setup_s);
        outcome.set("peak_rss_mb", one_shot_peak_rss(&cells)?);
        set_quality(&mut outcome, validated(&cells, &refs));
        return Ok(outcome);
    }

    let refs = oracle::validate_cells(&cell_refs, true);
    let mut run = TraceRun {
        tracer: Tracer::new(),
        refs: &refs,
        counts: TracedCounts::new(cells.len()),
        untraced: Vec::new(),
    };
    let mut traced = Vec::new();
    timed_phase(&cells, &mut rng, args.seconds, Some(&mut run), &mut traced);
    let TraceRun {
        tracer,
        counts,
        untraced,
        ..
    } = run;
    outcome.attempted = (untraced.len() + traced.len()) as u64;
    outcome.failed =
        count_failures(&cells, &untraced, &refs) + count_failures(&cells, &traced, &refs);

    let n = traced.len() as f64;
    let per_op_ms = |name: &str| tracer.total_ns(name) as f64 / 1e6 / n;
    let outputs: Vec<&OpOutput> = traced
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .collect();
    let per_op = |f: &dyn Fn(&OpOutput) -> f64| outputs.iter().map(|o| f(o)).sum::<f64>() / n;
    for (span, metric) in [
        ("lang.parse", "lang.parse_ms"),
        ("core.prepare", "core.prepare_ms"),
        ("qir.validate", "qir.validate_ms"),
        ("qir.lower_mcx", "qir.lower_mcx_ms"),
        ("qir.analyze", "qir.analyze_ms"),
        ("core.cost_table", "core.cost_table_ms"),
        ("arch.topology", "arch.topology_ms"),
        ("core.execute", "core.execute_ms"),
        ("bench.report_json", "bench.report_json_ms"),
        ("bench.encode", "bench.encode_ms"),
        ("route.replay", "route.replay_ms"),
    ] {
        outcome.set(metric, per_op_ms(span));
    }
    outcome.set(
        "core.execute_self_ms",
        per_op_ms("core.execute") - per_op_ms("route.replay"),
    );
    outcome.set(
        "route.ns_per_routed_op",
        ratio(
            tracer.total_ns("route.replay") as f64,
            counts.routed_ops as f64,
        ),
    );
    outcome.set("route.swaps", per_op(&|o| o.fingerprint.swaps as f64));
    let excluded = cells.iter().filter(|c| !c.replayable()).count();
    set_replay_shares(&mut outcome, &counts, excluded);
    outcome.set(
        "lang.source_kb",
        per_op(&|o| o.source_bytes as f64 / 1024.0),
    );
    outcome.set("qir.lowered_ops", counts.lowered_ops as f64 / n);
    outcome.set("core.trace_ops", per_op(&|o| o.trace_ops as f64));
    let cer_hits: u64 = outputs.iter().map(|o| o.cer_hits).sum();
    let cer_misses: u64 = outputs.iter().map(|o| o.cer_misses).sum();
    outcome.set(
        "core.cer_hit_ratio",
        ratio(cer_hits as f64, (cer_hits + cer_misses) as f64),
    );
    outcome.set("core.cer_misses", cer_misses as f64 / n);
    outcome.set("bench.report_kb", per_op(&|o| o.json.len() as f64 / 1024.0));
    set_validation(&mut outcome, validated(&cells, &refs));
    let untraced_mean = untraced.iter().map(|r| r.ns as f64).sum::<f64>() / untraced.len() as f64;
    let traced_mean = traced.iter().map(|r| r.ns as f64).sum::<f64>() / n;
    outcome.set("trace.ops", n);
    outcome.set("trace.overhead_share", traced_mean / untraced_mean - 1.0);
    let (p01_share, mean_share) = tracer.attributed_share("op");
    outcome.set("trace.attributed_share_p01", p01_share);
    outcome.set("trace.attributed_share_mean", mean_share);
    write_spans(&tracer, workload, args)?;
    Ok(outcome)
}

/// `route.replay_exact_share` over the replayed distinct cells, and
/// `route.replay_excluded_cells`: the distinct cells of the run no
/// replay can reproduce (lookahead).
pub fn set_replay_shares(outcome: &mut Outcome, counts: &TracedCounts, excluded: usize) {
    let replayed = counts.replay_exact.iter().flatten().count();
    let exact = counts.replay_exact.iter().flatten().filter(|&&e| e).count();
    outcome.set(
        "route.replay_exact_share",
        ratio(exact as f64, replayed as f64),
    );
    outcome.set("route.replay_excluded_cells", excluded as f64);
}

/// `verify.validate_ms` and the NISQ success estimate.
pub fn set_validation<'a>(
    outcome: &mut Outcome,
    cells: impl Iterator<Item = (&'a Cell, &'a Reference)> + Clone,
) {
    let count = cells.clone().count() as f64;
    let total_ns: u64 = cells.clone().map(|(_, r)| r.validate_ns).sum();
    outcome.set("verify.validate_ms", ratio(total_ns as f64 / 1e6, count));
    outcome.set("metrics.nisq_success_geomean", nisq_success(cells));
}

/// Writes a traced run's spans to `perfbench/out/`.
pub fn write_spans(tracer: &Tracer, workload: &str, args: &RunArgs) -> Result<(), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{}.jsonl", args.seed));
    let header = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"available_parallelism\":{}}}",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    tracer
        .write_jsonl(&path, &header)
        .map_err(|e| format!("{}: {e}", path.display()))
}
