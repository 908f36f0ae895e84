//! The shared compile path behind every front end.
//!
//! [`CompileService`] owns the four cross-request caches and the
//! in-flight dedupe table. `squared` sessions, `squarec --serve`, the
//! load generator's in-process mode and the service latency gate all
//! call [`CompileService::compile_source`]; the report `Value` it
//! returns is produced by the same [`report_json`] encoder the CLI
//! uses, so a served response serializes byte-identically to a
//! one-shot `squarec --json` compile of the same cell.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use serde::{Serialize, Value};
use square_arch::Topology;
use square_bench::{report_json, SweepArch};
use square_core::{
    compile_prepared_on, CerCacheStats, Policy, PreparedProgram, RecomputeStats, RouterKind,
};
use square_qir::Program;

use crate::cache::{content_hash, CacheStats, LruCache};

/// Cache capacities for a [`CompileService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Parsed-program cache entries (keyed by source hash).
    pub programs_cap: usize,
    /// Prepared-program (lowered QIR + cost table) cache entries.
    pub prepared_cap: usize,
    /// Shared-topology cache entries (keyed by arch + capacity).
    pub topologies_cap: usize,
    /// Finished-report cache entries (keyed by full request cell).
    pub reports_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            programs_cap: 256,
            prepared_cap: 128,
            topologies_cap: 64,
            reports_cap: 512,
        }
    }
}

/// One compile request: a source program plus the cell to compile it
/// under.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// `.sq` source text.
    pub source: String,
    /// Reclamation policy.
    pub policy: Policy,
    /// Target architecture.
    pub arch: SweepArch,
    /// Swap-chain router (normalized to greedy on braided archs,
    /// matching the compiler itself).
    pub router: RouterKind,
    /// Optional `budget:N` hard width cap. Part of the cell identity:
    /// a budgeted compile of the same source is a different cell (and
    /// a different report) from the unbudgeted one.
    pub budget: Option<usize>,
    /// Whether measurement-based uncomputation may replace unitary
    /// inverse blocks. Part of the cell identity, like `budget`: the
    /// MBU compile of a source is a different cell with a different
    /// report.
    pub mbu: bool,
}

/// A served compile result.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// The report, already lowered to the shared JSON data model.
    pub report: Arc<Value>,
    /// Wall-clock milliseconds this cell took to produce when it was
    /// actually compiled (a cache hit reports the original cost).
    pub compile_ms: f64,
    /// FNV-1a content hash of the request source.
    pub program_hash: String,
    /// True when the report came straight from the finished-report
    /// cache.
    pub cached: bool,
    /// True when this request piggybacked on an identical request
    /// already in flight.
    pub coalesced: bool,
}

/// Why a request failed. Errors are never cached: a follower of a
/// failed in-flight leader sees the error once, and the next request
/// for the cell retries from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The source did not parse; carries the fully rendered
    /// multi-error diagnostic listing.
    Parse(String),
    /// The compiler rejected or failed the program.
    Compile(String),
    /// The machine (or the `budget:N` cap) ran out of qubits. Kept
    /// structured — rather than flattened to a message — so front ends
    /// can surface the offending module, the live/capacity split and
    /// the minimum feasible budget as typed fields.
    OutOfQubits(Box<square_core::CompileError>),
    /// The compile panicked. Reported to the leader (by the server's
    /// worker pool, which catches the unwind) and to every coalesced
    /// follower; like every error it is never cached, so the next
    /// identical request compiles from scratch.
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Parse(msg) => write!(f, "parse error: {msg}"),
            ServiceError::Compile(msg) => write!(f, "compile error: {msg}"),
            ServiceError::OutOfQubits(e) => write!(f, "compile error: {e}"),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A snapshot of every cache plus the service-level counters,
/// embedded in each response and served by the `stats` command.
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    /// Parsed-program cache.
    pub programs: CacheStats,
    /// Prepared-program cache.
    pub prepared: CacheStats,
    /// Shared-topology cache.
    pub topologies: CacheStats,
    /// Finished-report cache.
    pub reports: CacheStats,
    /// Total compile requests accepted.
    pub requests: u64,
    /// Requests that ran the compiler (neither cached nor coalesced).
    pub compiles: u64,
    /// Requests coalesced onto an identical in-flight compile.
    pub coalesced: u64,
    /// Cumulative CER decision-memo counters summed over every compile
    /// this service actually ran (cache hits and coalesced followers
    /// add nothing — they did no CER work).
    pub cer_cache: CerCacheStats,
    /// Cumulative budget-driven early-uncompute/recompute counters,
    /// summed the same way.
    pub recompute: RecomputeStats,
}

impl Serialize for ServiceStats {
    fn serialize(&self) -> Value {
        Value::map([
            ("programs", self.programs.serialize()),
            ("prepared", self.prepared.serialize()),
            ("topologies", self.topologies.serialize()),
            ("reports", self.reports.serialize()),
            ("requests", Value::UInt(self.requests)),
            ("compiles", Value::UInt(self.compiles)),
            ("coalesced", Value::UInt(self.coalesced)),
            (
                "cer_cache",
                Value::map([
                    ("hits", Value::UInt(self.cer_cache.hits)),
                    ("misses", Value::UInt(self.cer_cache.misses)),
                    ("invalidations", Value::UInt(self.cer_cache.invalidations)),
                ]),
            ),
            (
                "recompute",
                Value::map([
                    (
                        "early_uncomputed_frames",
                        Value::UInt(self.recompute.early_uncomputed_frames),
                    ),
                    (
                        "early_uncompute_gates",
                        Value::UInt(self.recompute.early_uncompute_gates),
                    ),
                    (
                        "recomputed_frames",
                        Value::UInt(self.recompute.recomputed_frames),
                    ),
                    (
                        "recompute_gates",
                        Value::UInt(self.recompute.recompute_gates),
                    ),
                ]),
            ),
        ])
    }
}

/// The full identity of a compile: same key ⇒ byte-identical report.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CellKey {
    hash: String,
    policy: Policy,
    arch: SweepArch,
    router: RouterKind,
    budget: Option<usize>,
    mbu: bool,
}

/// A finished compile: the shared report plus the leader's compile time.
type CellResult = Result<(Arc<Value>, f64), ServiceError>;

/// A compile in progress. Followers block on the condvar until the
/// leader publishes into `done`.
struct Inflight {
    done: Mutex<Option<CellResult>>,
    cv: Condvar,
}

/// The leader's side of a flight. Dropping it publishes `result` to
/// the followers and unregisters the flight — also when the leader
/// unwinds out of a panicking compile with `result` still unset, in
/// which case the followers get [`ServiceError::Internal`]. Without
/// this, a panic would leave the entry in the table and every
/// follower, present and future, waiting on the condvar forever.
struct Leader<'a> {
    service: &'a CompileService,
    key: &'a CellKey,
    flight: &'a Inflight,
    result: Option<CellResult>,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        let result = self
            .result
            .take()
            .unwrap_or_else(|| Err(ServiceError::Internal("the compile panicked".to_string())));
        // Runs during unwinding too, so a poisoned lock must not
        // panic again (that would abort the process). Publish before
        // unregistering, so a follower that grabbed the flight entry
        // just before removal still wakes with a result.
        *lock(&self.flight.done, keep) = Some(result);
        self.flight.cv.notify_all();
        lock(&self.service.inflight, keep).remove(self.key);
    }
}

/// Locks `mutex`, recovering it when a thread panicked while holding
/// it: `repair` runs once on the recovered value and the poison flag
/// is cleared. Without this, one panic under a lock would fail every
/// later request that touches the same cache or counter. Caches pass
/// [`LruCache::flush`], since their entries are derivable and may be
/// half-written; counters and the in-flight table pass [`keep`].
pub(crate) fn lock<T>(mutex: &Mutex<T>, repair: impl FnOnce(&mut T)) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        repair(&mut guard);
        mutex.clear_poison();
        guard
    })
}

/// The [`lock`] repair for state that stays valid as it is.
pub(crate) fn keep<T>(_: &mut T) {}

/// The concurrent compile service: shared caches + in-flight dedupe
/// around the square-core compile pipeline. Cheap to share as
/// `Arc<CompileService>`; every method takes `&self`.
pub struct CompileService {
    programs: Mutex<LruCache<String, Arc<Program>>>,
    prepared: Mutex<LruCache<String, Arc<PreparedProgram>>>,
    topologies: Mutex<LruCache<(SweepArch, usize), Arc<dyn Topology>>>,
    reports: Mutex<LruCache<CellKey, (Arc<Value>, f64)>>,
    inflight: Mutex<HashMap<CellKey, Arc<Inflight>>>,
    requests: AtomicU64,
    compiles: AtomicU64,
    coalesced: AtomicU64,
    cer_totals: Mutex<CerCacheStats>,
    recompute_totals: Mutex<RecomputeStats>,
    /// Test-only fault injection, called by the leader mid-compile
    /// (after the prefix stages, before the executor).
    #[cfg(test)]
    fault: Option<FaultHook>,
}

#[cfg(test)]
type FaultHook = Box<dyn Fn(&CompileService) + Send + Sync>;

impl CompileService {
    /// Creates a service with the given cache capacities.
    pub fn new(config: ServiceConfig) -> Self {
        CompileService {
            programs: Mutex::new(LruCache::new(config.programs_cap)),
            prepared: Mutex::new(LruCache::new(config.prepared_cap)),
            topologies: Mutex::new(LruCache::new(config.topologies_cap)),
            reports: Mutex::new(LruCache::new(config.reports_cap)),
            inflight: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            cer_totals: Mutex::new(CerCacheStats::default()),
            recompute_totals: Mutex::new(RecomputeStats::default()),
            #[cfg(test)]
            fault: None,
        }
    }

    /// Installs a hook every leader calls mid-compile (tests inject
    /// panics through it).
    #[cfg(test)]
    pub(crate) fn with_fault_hook(
        mut self,
        hook: impl Fn(&CompileService) + Send + Sync + 'static,
    ) -> Self {
        self.fault = Some(Box::new(hook));
        self
    }

    /// Compiles one request, going through the caches:
    ///
    /// 1. finished-report cache — hit returns immediately;
    /// 2. in-flight table — an identical compile already running makes
    ///    this request a follower that waits for the leader's result;
    /// 3. otherwise this request leads: parse, prepare and compile
    ///    (each prefix stage itself cache-assisted), publish to any
    ///    followers and the report cache.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Parse`] with rendered diagnostics when the
    /// source does not parse; [`ServiceError::Compile`] when the
    /// compiler rejects the program; [`ServiceError::Internal`] for a
    /// follower whose leader panicked. Errors are not cached.
    ///
    /// # Panics
    ///
    /// A panicking compile unwinds out of the leader's call (after its
    /// followers have been answered); the server's worker pool turns
    /// that into [`ServiceError::Internal`].
    pub fn compile_source(&self, req: &CompileRequest) -> Result<CompileOutcome, ServiceError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        // The compiler never runs the swap-chain router on braided
        // archs; fold that into the key so `ft`+lookahead and
        // `ft`+greedy share one cell instead of compiling twice.
        let router = if req.arch.is_braided() {
            RouterKind::Greedy
        } else {
            req.router
        };
        let program_hash = content_hash(req.source.as_bytes());
        let key = CellKey {
            hash: program_hash.clone(),
            policy: req.policy,
            arch: req.arch,
            router,
            budget: req.budget,
            mbu: req.mbu,
        };

        if let Some((report, compile_ms)) = lock(&self.reports, LruCache::flush).get(&key) {
            return Ok(CompileOutcome {
                report,
                compile_ms,
                program_hash,
                cached: true,
                coalesced: false,
            });
        }

        let (flight, leader) = {
            let mut inflight = lock(&self.inflight, keep);
            match inflight.get(&key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Inflight {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    inflight.insert(key.clone(), Arc::clone(&flight));
                    (flight, true)
                }
            }
        };

        if !leader {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut done = lock(&flight.done, keep);
            while done.is_none() {
                done = flight.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
            }
            return match done.as_ref().unwrap() {
                Ok((report, compile_ms)) => Ok(CompileOutcome {
                    report: Arc::clone(report),
                    compile_ms: *compile_ms,
                    program_hash,
                    cached: false,
                    coalesced: true,
                }),
                Err(e) => Err(e.clone()),
            };
        }

        let mut leader = Leader {
            service: self,
            key: &key,
            flight: &flight,
            result: None,
        };
        let result = self.compile_cell(req, &key);
        if let Ok((report, compile_ms)) = &result {
            self.compiles.fetch_add(1, Ordering::Relaxed);
            lock(&self.reports, LruCache::flush)
                .insert(key.clone(), (Arc::clone(report), *compile_ms));
        }
        leader.result = Some(result.clone());
        drop(leader);

        result.map(|(report, compile_ms)| CompileOutcome {
            report,
            compile_ms,
            program_hash,
            cached: false,
            coalesced: false,
        })
    }

    /// The leader's actual compile: every prefix stage consults its
    /// shared cache before doing work.
    fn compile_cell(
        &self,
        req: &CompileRequest,
        key: &CellKey,
    ) -> Result<(Arc<Value>, f64), ServiceError> {
        let start = Instant::now();

        // Each lookup binds through a `let` so the guard drops before
        // the miss path re-locks the same cache to insert.
        let cached_program = lock(&self.programs, LruCache::flush).get(&key.hash);
        let program = match cached_program {
            Some(p) => p,
            None => {
                let display = format!("sq:{}", key.hash);
                let parsed = square_lang::parse_program(&req.source).map_err(|diags| {
                    ServiceError::Parse(square_lang::render(&req.source, &display, &diags))
                })?;
                let parsed = Arc::new(parsed);
                lock(&self.programs, LruCache::flush).insert(key.hash.clone(), Arc::clone(&parsed));
                parsed
            }
        };

        let cached_prepared = lock(&self.prepared, LruCache::flush).get(&key.hash);
        let prepared = match cached_prepared {
            Some(p) => p,
            None => {
                let built = PreparedProgram::new(&program)
                    .map_err(|e| ServiceError::Compile(e.to_string()))?;
                let built = Arc::new(built);
                lock(&self.prepared, LruCache::flush).insert(key.hash.clone(), Arc::clone(&built));
                built
            }
        };

        let config = key
            .arch
            .config(key.policy)
            .with_router(key.router)
            .with_budget(key.budget)
            .with_mbu(key.mbu);
        // Fixed-size archs build the same machine for every program;
        // auto-sized ones depend on the program's ancilla footprint.
        // Key accordingly so a fixed arch is one shared entry.
        let capacity = if arch_is_auto_sized(key.arch) {
            prepared.capacity_hint()
        } else {
            0
        };
        let topo_key = (key.arch, capacity);
        let cached_topo = lock(&self.topologies, LruCache::flush).get(&topo_key);
        let topo = match cached_topo {
            Some(t) => t,
            None => {
                let built: Arc<dyn Topology> =
                    Arc::from(config.arch.build(prepared.capacity_hint()));
                lock(&self.topologies, LruCache::flush).insert(topo_key, Arc::clone(&built));
                built
            }
        };

        #[cfg(test)]
        if let Some(hook) = &self.fault {
            hook(self);
        }

        let report = compile_prepared_on(&prepared, &[], &config, topo).map_err(|e| match e {
            e @ square_core::CompileError::OutOfQubits { .. } => {
                ServiceError::OutOfQubits(Box::new(e))
            }
            other => ServiceError::Compile(other.to_string()),
        })?;
        {
            let mut totals = lock(&self.cer_totals, keep);
            totals.hits += report.cer_cache.hits;
            totals.misses += report.cer_cache.misses;
            totals.invalidations += report.cer_cache.invalidations;
        }
        {
            let mut totals = lock(&self.recompute_totals, keep);
            totals.early_uncomputed_frames += report.recompute.early_uncomputed_frames;
            totals.early_uncompute_gates += report.recompute.early_uncompute_gates;
            totals.recomputed_frames += report.recompute.recomputed_frames;
            totals.recompute_gates += report.recompute.recompute_gates;
        }
        let compile_ms = start.elapsed().as_secs_f64() * 1e3;
        Ok((Arc::new(report_json(&report)), compile_ms))
    }

    /// Drops every finished report (counters survive) while leaving
    /// the program/prepared/topology caches warm. The latency gate
    /// uses this to re-measure real compiles under steady-state
    /// prefix caches.
    pub fn flush_reports(&self) {
        lock(&self.reports, LruCache::flush).flush();
    }

    /// A snapshot of all cache and service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            programs: lock(&self.programs, LruCache::flush).stats(),
            prepared: lock(&self.prepared, LruCache::flush).stats(),
            topologies: lock(&self.topologies, LruCache::flush).stats(),
            reports: lock(&self.reports, LruCache::flush).stats(),
            requests: self.requests.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            cer_cache: *lock(&self.cer_totals, keep),
            recompute: *lock(&self.recompute_totals, keep),
        }
    }
}

/// True for the `Auto*` arch variants whose machine size depends on
/// the program being compiled.
fn arch_is_auto_sized(arch: SweepArch) -> bool {
    matches!(
        arch,
        SweepArch::NisqAuto | SweepArch::FtAuto | SweepArch::HeavyHexAuto | SweepArch::RingAuto
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "entry module main(0 params, 3 ancilla) {\n  \
         compute { x a0; cx a0 a1; }\n  store { cx a1 a2; }\n}\n";

    fn request(source: &str) -> CompileRequest {
        CompileRequest {
            source: source.to_string(),
            policy: Policy::Square,
            arch: SweepArch::NisqAuto,
            router: RouterKind::Greedy,
            budget: None,
            mbu: false,
        }
    }

    #[test]
    fn second_identical_request_hits_the_report_cache() {
        let svc = CompileService::new(ServiceConfig::default());
        let first = svc.compile_source(&request(SRC)).unwrap();
        assert!(!first.cached && !first.coalesced);
        let second = svc.compile_source(&request(SRC)).unwrap();
        assert!(second.cached);
        assert_eq!(first.report, second.report);
        assert_eq!(first.program_hash, second.program_hash);
        let stats = svc.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.reports.hits, 1);
    }

    #[test]
    fn flush_reports_keeps_prefix_caches_warm() {
        let svc = CompileService::new(ServiceConfig::default());
        svc.compile_source(&request(SRC)).unwrap();
        svc.flush_reports();
        let again = svc.compile_source(&request(SRC)).unwrap();
        assert!(!again.cached, "flushed report must recompile");
        let stats = svc.stats();
        assert_eq!(stats.compiles, 2);
        assert!(stats.prepared.hits >= 1, "prepared cache stayed warm");
        assert!(stats.topologies.hits >= 1, "topology cache stayed warm");
    }

    #[test]
    fn braided_arch_router_variants_share_one_cell() {
        let svc = CompileService::new(ServiceConfig::default());
        let mut req = request(SRC);
        req.arch = SweepArch::FtAuto;
        req.router = RouterKind::Lookahead;
        let first = svc.compile_source(&req).unwrap();
        req.router = RouterKind::Greedy;
        let second = svc.compile_source(&req).unwrap();
        assert!(second.cached, "ft+lookahead and ft+greedy are one cell");
        assert_eq!(first.report, second.report);
    }

    #[test]
    fn budget_is_part_of_the_cell_key() {
        let svc = CompileService::new(ServiceConfig::default());
        let unbudgeted = svc.compile_source(&request(SRC)).unwrap();
        let mut capped = request(SRC);
        capped.budget = Some(3);
        let budgeted = svc.compile_source(&capped).unwrap();
        assert!(
            !budgeted.cached,
            "a budgeted compile must not hit the unbudgeted cell"
        );
        // The budgeted report carries the budget/recompute fields, the
        // unbudgeted one must not (byte-stability of existing cells).
        assert_eq!(
            budgeted.report.get("budget").and_then(Value::as_u64),
            Some(3)
        );
        assert!(unbudgeted.report.get("budget").is_none());
        // And the budgeted cell caches under its own key.
        let again = svc.compile_source(&capped).unwrap();
        assert!(again.cached);
    }

    const CHILD_SRC: &str = "module fun1(4 params, 1 ancilla) {\n  \
         compute { ccx p0 p1 p2; cx p2 a0; }\n  store { cx a0 p3; }\n}\n\
         entry module main(0 params, 4 ancilla) {\n  \
         compute { call fun1(a0, a1, a2, a3); }\n}\n";

    #[test]
    fn mbu_is_part_of_the_cell_key() {
        let svc = CompileService::new(ServiceConfig::default());
        let plain = svc.compile_source(&request(CHILD_SRC)).unwrap();
        let mut req = request(CHILD_SRC);
        req.mbu = true;
        let mbu = svc.compile_source(&req).unwrap();
        assert!(!mbu.cached, "an MBU compile must not hit the plain cell");
        // The MBU report carries the gated block, the plain one must
        // not (byte-stability of existing cells).
        assert!(mbu.report.get("mbu").is_some());
        assert!(plain.report.get("mbu").is_none());
        // And the MBU cell caches under its own key.
        let again = svc.compile_source(&req).unwrap();
        assert!(again.cached);
    }

    #[test]
    fn stats_accumulate_cer_work_across_compiles() {
        let svc = CompileService::new(ServiceConfig::default());
        // A child-frame program under SQUARE consults CER at frame
        // completion, so the cumulative memo counters move.
        svc.compile_source(&request(CHILD_SRC)).unwrap();
        let first = svc.stats();
        assert!(
            first.cer_cache.hits + first.cer_cache.misses > 0,
            "{:?}",
            first.cer_cache
        );
        // A report-cache hit does no CER work and adds nothing.
        svc.compile_source(&request(CHILD_SRC)).unwrap();
        let second = svc.stats();
        assert_eq!(first.cer_cache, second.cer_cache);
        assert_eq!(first.recompute, second.recompute);
        // Both cumulative blocks ride along in the serialized snapshot.
        let wire = serde_json::to_string(&second.serialize()).unwrap();
        assert!(wire.contains("\"cer_cache\""), "{wire}");
        assert!(wire.contains("\"recompute\""), "{wire}");
    }

    #[test]
    fn out_of_qubits_surfaces_structured() {
        let svc = CompileService::new(ServiceConfig::default());
        let mut req = request(SRC);
        req.budget = Some(1);
        match svc.compile_source(&req).unwrap_err() {
            ServiceError::OutOfQubits(e) => match *e {
                square_core::CompileError::OutOfQubits {
                    budget,
                    min_feasible,
                    ..
                } => {
                    assert_eq!(budget, Some(1));
                    assert!(min_feasible.is_some());
                }
                other => panic!("wrong compile error: {other}"),
            },
            other => panic!("expected structured out-of-qubits, got {other:?}"),
        }
    }

    #[test]
    fn a_poisoned_report_cache_is_flushed_and_keeps_serving() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};

        let svc = Arc::new(CompileService::new(ServiceConfig::default()));
        svc.compile_source(&request(SRC)).unwrap();
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = svc.reports.lock();
                    panic!("injected panic under the report-cache lock");
                })
                .join()
                .is_err()
        });
        assert!(panicked && svc.reports.is_poisoned());

        // The next compile recovers the lock, flushes the cache it may
        // have left half-written, and compiles afresh.
        let next = svc.compile_source(&request(SRC)).unwrap();
        assert!(!next.cached, "the poisoned cache was flushed");
        assert!(!svc.reports.is_poisoned());
        assert_eq!(svc.stats().reports.entries, 1);

        // `{"cmd":"stats"}` over the wire answers too.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            crate::server::serve(listener, server_svc, crate::server::ServerConfig::default())
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"cmd\":\"stats\",\"id\":1}\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        let response: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{line}"
        );
    }

    #[test]
    fn parse_errors_are_rendered_and_not_cached() {
        let svc = CompileService::new(ServiceConfig::default());
        let bad = request("entry module main(0 params, 1 ancilla) { compute { nope; } }");
        let err = svc.compile_source(&bad).unwrap_err();
        match &err {
            ServiceError::Parse(msg) => assert!(!msg.is_empty()),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert_eq!(svc.stats().compiles, 0);
        // Retrying reruns the parse (errors are never cached) and
        // fails the same way.
        assert_eq!(svc.compile_source(&bad).unwrap_err(), err);
    }
}
