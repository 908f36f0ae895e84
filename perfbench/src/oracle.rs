//! The correctness oracle and the route replay.
//!
//! Every distinct cell of a run is compiled once more through
//! `square_verify::validate`, outside the timed phase. Its reference
//! semantics (`square_qir::sem`) is independent of the compiler under
//! test; a validated cell yields the fingerprint and report bytes every
//! timed op of that cell must reproduce.
//!
//! The same validated compile records the placement history, so the
//! route layer can be replayed from outside: a fresh
//! `square_route::Machine` is driven through the executed trace with
//! the recorded placement binds, and the replay must reproduce the
//! compile's swaps and depth exactly.

use std::sync::Arc;
use std::time::Instant;

use square_arch::{NoiseParams, PhysId, Topology};
use square_bench::report_json;
use square_core::{CompileReport, PreparedProgram, RouterKind};
use square_metrics::{success_rate, GateTally};
use square_qir::{TraceOp, VirtId};
use square_route::{Machine, MachineConfig, PlacementEvent, RouteError, RouterConfig};

use crate::cells::Cell;

/// The deterministic identity of a compiled circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Program gates.
    pub gates: u64,
    /// Routing swaps.
    pub swaps: u64,
    /// Schedule depth.
    pub depth: u64,
    /// Physical qubits touched.
    pub qubits: u64,
    /// Active quantum volume.
    pub aqv: u64,
}

impl Fingerprint {
    /// The fingerprint of a compile report.
    pub fn of(report: &CompileReport) -> Fingerprint {
        Fingerprint {
            gates: report.gates,
            swaps: report.swaps,
            depth: report.depth,
            qubits: report.qubits as u64,
            aqv: report.aqv,
        }
    }
}

/// What the route replay needs from a validated compile.
#[derive(Debug)]
pub struct RouteInput {
    trace: Vec<TraceOp>,
    binds: Vec<(VirtId, PhysId)>,
    capacity_hint: usize,
    swaps: u64,
    depth: u64,
    /// Routed ops of the compile: program gates plus swaps.
    pub routed_ops: u64,
}

/// A validated cell.
#[derive(Debug)]
pub struct Reference {
    /// Fingerprint of the validated compile.
    pub fingerprint: Fingerprint,
    /// `serde_json::to_string(report_json(..))` of the validated
    /// compile: the bytes `squarec --json` and `squared` emit.
    pub report_bytes: String,
    /// Worst-case success estimate (`square_metrics::success_rate`,
    /// paper noise parameters) — `nisq` cells only.
    pub success: Option<f64>,
    /// Wall time of the validation, nanoseconds.
    pub validate_ns: u64,
    /// Replay input, kept only when asked for and the cell is
    /// replayable.
    pub route: Option<RouteInput>,
}

/// Validates one cell: parse, compile with schedule recording on, and
/// check the result through all of `square_verify`'s oracle layers.
pub fn validate_cell(cell: &Cell, keep_route: bool) -> Result<Reference, String> {
    let start = Instant::now();
    let program = square_lang::parse_program(&cell.source)
        .map_err(|d| format!("{}: {} parse errors", cell.label(), d.len()))?;
    let config = cell.config();
    let validated = square_verify::validate(&program, &[], &config)
        .map_err(|e| format!("{}: validation failed: {e}", cell.label()))?;
    let validate_ns = start.elapsed().as_nanos() as u64;
    let mut report = validated.report;
    let report_bytes = serde_json::to_string(&report_json(&report))
        .map_err(|e| format!("{}: report does not serialize: {e:?}", cell.label()))?;
    let success = match (&report.schedule, cell.arch) {
        (Some(schedule), square_bench::SweepArch::NisqAuto) => {
            let tally = GateTally::from_gates(schedule.iter().map(|g| &g.gate));
            Some(success_rate(
                &tally,
                report.aqv,
                &NoiseParams::paper_simulation(),
            ))
        }
        _ => None,
    };
    let route = if keep_route && cell.replayable() {
        let binds = report
            .placement_history
            .take()
            .ok_or_else(|| format!("{}: no placement history", cell.label()))?
            .into_iter()
            .filter_map(|ev| match ev {
                PlacementEvent::Place { virt, phys } => Some((virt, phys)),
                _ => None,
            })
            .collect();
        let prepared = PreparedProgram::new(&program)
            .map_err(|e| format!("{}: prepare failed: {e}", cell.label()))?;
        Some(RouteInput {
            trace: std::mem::take(&mut report.trace),
            binds,
            capacity_hint: prepared.capacity_hint(),
            swaps: report.swaps,
            depth: report.depth,
            routed_ops: report.gates + report.swaps,
        })
    } else {
        None
    };
    Ok(Reference {
        fingerprint: Fingerprint::of(&report),
        report_bytes,
        success,
        validate_ns,
        route,
    })
}

/// Validates every cell, spread over the host's cores.
pub fn validate_cells(cells: &[&Cell], keep_route: bool) -> Vec<Result<Reference, String>> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(cells.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<Result<Reference, String>>> = Vec::new();
    results.resize_with(cells.len(), || None);
    let slots = std::sync::Mutex::new(results);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let result = validate_cell(cell, keep_route);
                slots.lock().expect("no validator panicked")[i] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("no validator panicked")
        .into_iter()
        .map(|r| r.expect("every cell validated"))
        .collect()
}

/// Drives a fresh machine through `input`'s trace: `place_at` with the
/// recorded bind for every allocation, `apply` / `measure` /
/// `apply_guarded` for gates, `release` for frees. Returns true when
/// the replay reproduced the compile's swaps and depth exactly.
pub fn replay(cell: &Cell, input: &RouteInput) -> bool {
    let config = cell.config();
    let topo: Arc<dyn Topology> = Arc::from(config.arch.build(input.capacity_hint));
    let router = match config.comm {
        square_arch::CommModel::SwapChains => config.router,
        square_arch::CommModel::Braiding => RouterConfig {
            kind: RouterKind::Greedy,
            ..config.router
        },
    };
    let mut machine = Machine::with_shared(
        topo,
        MachineConfig {
            comm: config.comm,
            record_schedule: false,
            router,
        },
    );
    let driven = drive(&mut machine, input);
    let routed = machine.finish();
    driven.is_ok() && routed.stats.swaps == input.swaps && routed.depth == input.depth
}

fn drive(machine: &mut Machine, input: &RouteInput) -> Result<(), RouteError> {
    let mut binds = input.binds.iter();
    for op in &input.trace {
        match op {
            TraceOp::Alloc(v) => match binds.next() {
                Some(&(virt, phys)) if virt == *v => machine.place_at(*v, phys)?,
                _ => return Err(RouteError::UnplacedQubit { virt: *v }),
            },
            TraceOp::Free(v) => {
                machine.release(*v)?;
            }
            TraceOp::Gate(g) => {
                machine.apply(g)?;
            }
            TraceOp::Measure { qubit, clbit } => {
                machine.measure(*qubit, *clbit)?;
            }
            TraceOp::CondGate { clbit, gate } => {
                machine.apply_guarded(gate, *clbit)?;
            }
        }
        // Routing relocations are the executor's heap bookkeeping;
        // drain them so they do not pile up.
        machine.drain_relocations();
    }
    Ok(())
}
