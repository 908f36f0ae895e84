//! `square-perfbench` — the repository benchmark: `.sq` source bytes in,
//! report JSON bytes or a `squared` wire response line out.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload arith-route|small-cells|service-mix \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets the workload up several times (reported as
//! `setup_s`), measures for about `--seconds` seconds, then checks every
//! output against `square_verify::validate` outside the timed phase.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics, timed by spans this benchmark records around its
//! calls into each layer's public functions, next to untraced twins of
//! the same ops for the tracing overhead. The spans of a traced run are
//! kept in memory and written to `perfbench/out/` when it ends.
//!
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The metric names and units are listed in [`metrics`] and must match
//! `BENCHMARK.json`. Two modes are internal: `--serve` runs the
//! `squared` accept loop on an ephemeral port for the `service-mix`
//! workload, and `--one-shot` compiles one cell in a fresh process to
//! measure its peak RSS.

mod cells;
mod metrics;
mod offline;
mod oracle;
mod service_mix;
mod stats;
mod trace;

use std::process::ExitCode;

use metrics::Outcome;

const USAGE: &str = "usage: square-perfbench --workload arith-route|small-cells|service-mix \
     --seed N --seconds S --trace 0|1";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ArithRoute,
    SmallCells,
    ServiceMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "arith-route" => Some(Workload::ArithRoute),
            "small-cells" => Some(Workload::SmallCells),
            "service-mix" => Some(Workload::ServiceMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ArithRoute => "arith-route",
            Workload::SmallCells => "small-cells",
            Workload::ServiceMix => "service-mix",
        }
    }
}

/// Parsed command line of a benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement time of the run.
    pub seconds: f64,
    /// True for the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("{flag}: invalid value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => return service_mix::serve_child(),
        Some("--one-shot") => {
            return match offline::one_shot(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("square-perfbench: {message}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
    }
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The host shape rides along with every run (a comment line: the
    // result object must stay the last line).
    println!(
        "# workload={} seed={} seconds={} trace={} available_parallelism={parallelism}",
        run.workload.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    let outcome: Result<Outcome, String> = match run.workload {
        Workload::ArithRoute => offline::run(run.workload.name(), cells::arith_route, &run),
        Workload::SmallCells => offline::run(run.workload.name(), cells::small_cells, &run),
        Workload::ServiceMix => service_mix::run(&run),
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json(run.trace, parallelism));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("square-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
