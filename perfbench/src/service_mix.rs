//! The `service-mix` workload: a `squared` process under a closed loop
//! of client connections, fed a seeded request stream that reads and
//! writes the service's caches.
//!
//! The server is this benchmark's own executable re-run with `--serve`,
//! which runs `square_service::server::serve` with the default
//! `ServerConfig` and `ServiceConfig` — the code path of the `squared`
//! binary, minus its flag parsing — so its peak RSS is the compiling
//! process's own. The traced run replays the same stream prefix
//! in-process against `CompileService::compile_source`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use square_bench::SweepArch;
use square_core::{Policy, RouterKind};
use square_service::proto::{Request, Response};
use square_service::server::{serve, ServerConfig};
use square_service::{CompileService, ServiceConfig};
use square_workloads::synthetic::{synthesize, SynthParams};
use square_workloads::Benchmark;

use crate::cells::{catalog_program, Cell, NamedSource};
use crate::metrics::Outcome;
use crate::offline::{
    set_quality, set_replay_shares, set_validation, setup, write_spans, TracedCounts,
};
use crate::oracle::{self, Reference};
use crate::stats::{mean, median, peak_rss_mb, ratio, reset_peak_rss, windowed};
use crate::trace::Tracer;
use crate::RunArgs;

/// The `(arch, router)` targets of the cell grid. `ft` has one entry:
/// the compiler never consults the router under braiding.
const TARGETS: [(SweepArch, RouterKind); 5] = [
    (SweepArch::NisqAuto, RouterKind::Greedy),
    (SweepArch::NisqAuto, RouterKind::Lookahead),
    (SweepArch::FtAuto, RouterKind::Greedy),
    (SweepArch::HeavyHexAuto, RouterKind::Greedy),
    (SweepArch::HeavyHexAuto, RouterKind::Lookahead),
];

/// Cells per program: policy × target × mbu.
const GRID: usize = 4 * TARGETS.len() * 2;

/// Repeats draw from this many most recent distinct cells — fewer than
/// the default report-cache capacity (512), so a repeat reads the cache.
const REPEAT_WINDOW: usize = 384;

/// New cells of a known program draw from the corpus and this many most
/// recent synthetic programs (all inside the prefix caches).
const KNOWN_SYNTHETIC: usize = 32;

/// Share of new-cell requests sent as simultaneous identical pairs.
const PAIR_SHARE: f64 = 0.125;

/// Slots generated per second of measurement: the stream is generated
/// ahead of the timed phase, and a run that uses it all up ends early.
const SLOTS_PER_SECOND: f64 = 2500.0;

/// Completions per measurement window of the wire phase: enough that
/// each window's 99th percentile has ten latencies beyond it.
const WINDOW_OPS: usize = 1000;

/// Control requests.
const PING: &str = "{\"v\":1,\"cmd\":\"ping\"}";
const STATS: &str = "{\"v\":1,\"cmd\":\"stats\"}";
const SHUTDOWN: &str = "{\"v\":1,\"cmd\":\"shutdown\"}";

/// One slot of the request stream: a distinct cell, sent once or as a
/// simultaneous identical pair.
#[derive(Debug, Clone, Copy)]
struct Slot {
    cell: usize,
    pair: bool,
}

/// A program the stream knows, with the grid cells not yet requested.
struct Known {
    name: Arc<str>,
    source: Arc<str>,
    /// The source as a JSON string literal, escaped once.
    escaped: String,
    unused: Vec<usize>,
}

impl Known {
    fn new(name: Arc<str>, source: Arc<str>) -> Known {
        let escaped =
            serde_json::to_string(&Value::String(source.to_string())).expect("a string serializes");
        Known {
            name,
            source,
            escaped,
            unused: (0..GRID).collect(),
        }
    }
}

/// The generated request stream. `cells` starts with the corpus grid
/// (every corpus program under every grid cell, in a fixed order —
/// the set the quality metrics are taken over) and grows with the
/// synthetic programs' cells; `lines` holds each cell's wire request.
struct Stream {
    cells: Vec<Cell>,
    lines: Vec<Arc<str>>,
    /// Cells `0..corpus_cells` are the corpus grid.
    corpus_cells: usize,
    slots: Vec<Slot>,
}

/// The fixed corpus: the `examples/sq` programs (flattened to single
/// wire sources) and the NISQ + MODEXP catalog listings.
fn corpus() -> Result<Vec<NamedSource>, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/sq");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "sq"))
        .collect();
    files.sort();
    let mut programs = Vec::new();
    for path in files {
        let stem = path.file_stem().map(|s| s.to_string_lossy().into_owned());
        let source = square_service::gate::wire_source(&path)?;
        programs.push((Arc::from(stem.unwrap_or_default()), Arc::from(source)));
    }
    for bench in Benchmark::NISQ.into_iter().chain([Benchmark::Modexp]) {
        programs.push(catalog_program(bench)?);
    }
    Ok(programs)
}

/// Grid cell `g` of `program`: policy × target × mbu.
fn grid_cell(program: &Known, g: usize) -> Cell {
    let policy = Policy::ALL[g % 4];
    let (arch, router) = TARGETS[(g / 4) % TARGETS.len()];
    let mbu = g >= GRID / 2;
    Cell::new(&program.name, &program.source, policy, arch, router, mbu)
}

impl Stream {
    /// Generates `slots` slots from `seed`: about half repeat a recent
    /// cell, a quarter are new cells of a known program, a quarter are
    /// new synthetic programs; an eighth of the new cells come as pairs.
    fn generate(seed: u64, slots: usize) -> Result<Stream, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut known: Vec<Known> = corpus()?
            .into_iter()
            .map(|(name, source)| Known::new(name, source))
            .collect();
        let corpus_len = known.len();
        let mut stream = Stream {
            cells: Vec::new(),
            lines: Vec::new(),
            corpus_cells: corpus_len * GRID,
            slots: Vec::with_capacity(slots),
        };
        for program in &known {
            for g in 0..GRID {
                stream.register(program, g);
            }
        }
        // Distinct cells in first-request order.
        let mut issued: Vec<usize> = Vec::new();
        while stream.slots.len() < slots {
            let draw = if issued.is_empty() {
                3
            } else {
                rng.gen_range(0..4u32)
            };
            let program = match draw {
                0 | 1 => {
                    let lo = issued.len().saturating_sub(REPEAT_WINDOW);
                    stream.slots.push(Slot {
                        cell: issued[rng.gen_range(lo..issued.len())],
                        pair: false,
                    });
                    continue;
                }
                2 => {
                    let recent = known.len().saturating_sub(KNOWN_SYNTHETIC).max(corpus_len);
                    let candidates: Vec<usize> = (0..corpus_len)
                        .chain(recent..known.len())
                        .filter(|&p| !known[p].unused.is_empty())
                        .collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    candidates[rng.gen_range(0..candidates.len())]
                }
                _ => {
                    known.push(synthetic(&mut rng, known.len() - corpus_len)?);
                    known.len() - 1
                }
            };
            let pick = rng.gen_range(0..known[program].unused.len());
            let g = known[program].unused.swap_remove(pick);
            let cell = if program < corpus_len {
                program * GRID + g
            } else {
                stream.register(&known[program], g)
            };
            issued.push(cell);
            stream.slots.push(Slot {
                cell,
                pair: rng.gen_bool(PAIR_SHARE),
            });
        }
        Ok(stream)
    }

    /// Adds grid cell `g` of `program` with its request line; returns
    /// its index.
    fn register(&mut self, program: &Known, g: usize) -> usize {
        let id = self.cells.len();
        let cell = grid_cell(program, g);
        self.lines
            .push(Arc::from(request_line(id as u64, &program.escaped, &cell)));
        self.cells.push(cell);
        id
    }
}

/// A fresh synthetic program (seeded from the stream; a few ms to
/// compile, between the NISQ set and Jasmine in size).
fn synthetic(rng: &mut StdRng, index: usize) -> Result<Known, String> {
    let params = SynthParams {
        levels: rng.gen_range(2..=4usize),
        max_callees: rng.gen_range(2..=3usize),
        inputs_per_fn: rng.gen_range(4..=8usize),
        max_ancilla: rng.gen_range(2..=4usize),
        max_gates: rng.gen_range(8..=24usize),
        seed: rng.gen(),
    };
    let program = synthesize(&params).map_err(|e| format!("synthesize {params:?}: {e}"))?;
    Ok(Known::new(
        Arc::from(format!("synth-{index}")),
        Arc::from(square_qir::pretty::program_listing(&program)),
    ))
}

/// The wire request for `cell` (protocol v1); `escaped_source` is the
/// cell's source as a JSON string literal.
fn request_line(id: u64, escaped_source: &str, cell: &Cell) -> String {
    format!(
        "{{\"v\":1,\"id\":{id},\"source\":{escaped_source},\"policy\":\"{}\",\"arch\":\"{}\",\"router\":\"{}\"{}}}",
        cell.policy.cli_name(),
        cell.arch,
        cell.router.cli_name(),
        if cell.mbu { ",\"mbu\":true" } else { "" }
    )
}

/// `--serve`: the `squared` accept loop on an ephemeral loopback port,
/// announced as `port N` on stdout.
pub fn serve_child() -> ExitCode {
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let port = match listener.local_addr() {
        Ok(addr) => addr.port(),
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("port {port}");
    if std::io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    let service = Arc::new(CompileService::new(ServiceConfig::default()));
    match serve(listener, service, ServerConfig::default()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The server child process; killed and reaped on drop unless it was
/// shut down cleanly.
struct Server {
    child: Child,
    port: u16,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn() -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--serve")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let port = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("port ")
                .and_then(|p| p.parse().ok()),
            Err(_) => None,
        };
        let mut server = Server {
            child,
            port: 0,
            _stdout: stdout,
        };
        server.port = port.ok_or_else(|| format!("server did not announce a port: `{line}`"))?;
        Ok(server)
    }

    fn connect(&self) -> Result<Client, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", self.port)).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { stream, reader })
    }

    /// Asks the server to stop and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let ack = self.connect()?.call(SHUTDOWN)?;
        if !ack.contains("\"shutdown\":true") {
            return Err(format!("unexpected shutdown ack: {ack}"));
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One protocol connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Sends one request line and reads its response line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("wire: {e}");
        self.stream.write_all(line.as_bytes()).map_err(io)?;
        self.stream.write_all(b"\n").map_err(io)?;
        let mut response = String::new();
        if self.reader.read_line(&mut response).map_err(io)? == 0 {
            return Err("wire: server closed the connection".to_string());
        }
        Ok(response)
    }
}

/// One wire request as measured.
struct WireSample {
    slot: usize,
    ns: u64,
    /// Completion time since the phase started.
    done: std::time::Duration,
    response: Result<String, String>,
}

/// Hands out slots to the connections; the second half of a pair goes
/// to the next free connection, and both halves start together.
struct Dispatch<'a> {
    slots: &'a [Slot],
    next: usize,
    partner: Option<(usize, Arc<Barrier>)>,
    deadline: Instant,
}

impl Dispatch<'_> {
    fn take(&mut self) -> Option<(usize, Option<Arc<Barrier>>)> {
        if let Some((slot, barrier)) = self.partner.take() {
            return Some((slot, Some(barrier)));
        }
        if self.next >= self.slots.len() || Instant::now() >= self.deadline {
            return None;
        }
        let slot = self.next;
        self.next += 1;
        if !self.slots[slot].pair {
            return Some((slot, None));
        }
        let barrier = Arc::new(Barrier::new(2));
        self.partner = Some((slot, Arc::clone(&barrier)));
        Some((slot, Some(barrier)))
    }
}

/// How often the server's peak RSS is sampled (and its mark reset)
/// during the wire phase.
const RSS_INTERVAL: std::time::Duration = std::time::Duration::from_millis(500);

/// What the wire phase measured.
struct WirePhase {
    samples: Vec<WireSample>,
    /// Slots handed out.
    consumed: usize,
    /// The server's peak RSS within each sampling interval, MiB.
    interval_peaks_mb: Vec<f64>,
}

/// The closed loop: every connection sends its next request as soon as
/// the previous response arrived, while a sampler reads the server's
/// peak RSS every [`RSS_INTERVAL`].
fn wire_phase(
    clients: &mut [Client],
    stream: &Stream,
    seconds: f64,
    server_pid: u32,
) -> Result<WirePhase, String> {
    reset_peak_rss(Some(server_pid))?;
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let sampler = std::thread::spawn(move || -> Result<Vec<f64>, String> {
        let mut peaks = Vec::new();
        loop {
            let done = stopped.recv_timeout(RSS_INTERVAL).is_ok();
            peaks.push(peak_rss_mb(Some(server_pid))?);
            reset_peak_rss(Some(server_pid))?;
            if done {
                return Ok(peaks);
            }
        }
    });
    let start = Instant::now();
    let dispatch = Mutex::new(Dispatch {
        slots: &stream.slots,
        next: 0,
        partner: None,
        deadline: start + std::time::Duration::from_secs_f64(seconds),
    });
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let dispatch = &dispatch;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let taken = dispatch.lock().expect("dispatcher lock").take();
                        let Some((slot, barrier)) = taken else { break };
                        if let Some(barrier) = barrier {
                            barrier.wait();
                        }
                        let line = &stream.lines[stream.slots[slot].cell];
                        let t0 = Instant::now();
                        let response = client.call(line);
                        out.push(WireSample {
                            slot,
                            ns: t0.elapsed().as_nanos() as u64,
                            done: start.elapsed(),
                            response,
                        });
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            samples.extend(handle.join().expect("client thread panicked"));
        }
    });
    let consumed = dispatch.into_inner().expect("dispatcher lock").next;
    // The sampler only ends after `stop`, so a send error means it
    // already failed; its result says how.
    let _ = stop.send(());
    let interval_peaks_mb = sampler.join().expect("RSS sampler panicked")?;
    Ok(WirePhase {
        samples,
        consumed,
        interval_peaks_mb,
    })
}

/// A started server with its connections.
struct Ready {
    server: Server,
    clients: Vec<Client>,
    control: Client,
}

/// Starts a server and connects the control and client connections;
/// ready once the server answered a ping.
fn start(connections: usize) -> Result<Ready, String> {
    let server = Server::spawn()?;
    let mut control = server.connect()?;
    let pong = control.call(PING)?;
    if !pong.contains("\"pong\":true") {
        return Err(format!("unexpected ping response: {pong}"));
    }
    let clients = (0..connections)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Ready {
        server,
        clients,
        control,
    })
}

/// Cache and service counters from a `stats` response.
#[derive(Debug, Clone, Copy, Default)]
struct WireStats {
    hits: [u64; 4],
    misses: [u64; 4],
    report_evictions: u64,
    requests: u64,
    coalesced: u64,
}

const CACHES: [&str; 4] = ["reports", "programs", "prepared", "topologies"];

fn wire_stats(control: &mut Client) -> Result<WireStats, String> {
    let line = control.call(STATS)?;
    let value = serde_json::from_str(&line).map_err(|e| format!("stats: {e:?}"))?;
    let cache = value.get("cache").ok_or("stats: no cache block")?;
    let field = |block: &Value, key: &str| {
        block
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("stats: missing `{key}`"))
    };
    let mut stats = WireStats {
        requests: field(cache, "requests")?,
        coalesced: field(cache, "coalesced")?,
        ..WireStats::default()
    };
    for (i, name) in CACHES.iter().enumerate() {
        let block = cache
            .get(name)
            .ok_or_else(|| format!("stats: no `{name}`"))?;
        stats.hits[i] = field(block, "hits")?;
        stats.misses[i] = field(block, "misses")?;
        if i == 0 {
            stats.report_evictions = field(block, "evictions")?;
        }
    }
    Ok(stats)
}

/// Checks one served response against its validated cell: `ok`, and
/// the report bytes identical to `report_json` of the validated compile.
fn check_response(response: &str, reference: &Reference) -> Result<bool, String> {
    if !response.contains("\"ok\":true") {
        return Err(format!("error response: {}", response.trim()));
    }
    let expected = format!("\"report\":{},\"cache\":", reference.report_bytes);
    if !response.contains(&expected) {
        return Err("report bytes differ from the validated compile".to_string());
    }
    Ok(response.contains("\"cached\":true"))
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let connections = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(2);
    let phase_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let stream = Stream::generate(
        args.seed,
        (phase_seconds * SLOTS_PER_SECOND).ceil() as usize,
    )?;
    // Start the server repeatedly and keep the last; dropping an
    // earlier one kills and reaps it.
    let (ready, setup_s) = setup(|| start(connections))?;
    let Ready {
        server,
        mut clients,
        mut control,
    } = ready;

    let mut pings: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            control
                .call(PING)
                .map(|_| t0.elapsed().as_nanos() as f64 / 1e3)
        })
        .collect::<Result<_, _>>()?;
    let before = wire_stats(&mut control)?;
    let WirePhase {
        samples,
        consumed,
        interval_peaks_mb,
    } = wire_phase(&mut clients, &stream, phase_seconds, server.child.id())?;
    let after = wire_stats(&mut control)?;
    drop(clients);
    drop(control);
    server.shutdown()?;

    // The oracle, over the corpus grid and every other cell the run sent.
    let slots = &stream.slots[..consumed];
    let mut distinct: Vec<usize> = (0..stream.corpus_cells)
        .chain(slots.iter().map(|s| s.cell))
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    let checked: Vec<&Cell> = distinct.iter().map(|&c| &stream.cells[c]).collect();
    let validated = oracle::validate_cells(&checked, args.trace);
    let mut refs: Vec<Option<&Result<Reference, String>>> = vec![None; stream.cells.len()];
    for (&c, r) in distinct.iter().zip(&validated) {
        refs[c] = Some(r);
    }

    let mut outcome = Outcome {
        attempted: samples.len() as u64,
        ..Outcome::default()
    };
    // A corpus-grid cell the stream never sent still had to validate:
    // its failure counts as one failed op of its own.
    let mut was_sent = vec![false; stream.cells.len()];
    for slot in slots {
        was_sent[slot.cell] = true;
    }
    for (c, r) in refs.iter().enumerate().take(stream.corpus_cells) {
        if let (false, Some(Err(why))) = (was_sent[c], r) {
            eprintln!("FAILED {}: {why}", stream.cells[c].label());
            outcome.attempted += 1;
            outcome.failed += 1;
        }
    }
    let mut hit_wire_ns = Vec::new();
    for sample in &samples {
        let cell = stream.slots[sample.slot].cell;
        let verdict = match (
            &sample.response,
            refs[cell].expect("sent cells are validated"),
        ) {
            (Err(e), _) => Err(e.clone()),
            (_, Err(e)) => Err(e.clone()),
            (Ok(response), Ok(reference)) => check_response(response, reference),
        };
        match verdict {
            Ok(true) => hit_wire_ns.push(sample.ns as f64),
            Ok(false) => {}
            Err(why) => {
                if outcome.failed < 5 {
                    eprintln!("FAILED {}: {why}", stream.cells[cell].label());
                }
                outcome.failed += 1;
            }
        }
    }
    let ok_cells = |cells: std::ops::Range<usize>| {
        refs[cells.clone()]
            .iter()
            .zip(&stream.cells[cells])
            .filter_map(|(r, c)| r.and_then(|r| r.as_ref().ok()).map(|r| (c, r)))
    };

    if !args.trace {
        // Windows of WINDOW_OPS completions, in completion order; a
        // partial last window is left out.
        let mut by_done: Vec<&WireSample> = samples.iter().collect();
        by_done.sort_by_key(|s| s.done);
        let mut windows: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut opened = std::time::Duration::ZERO;
        for chunk in by_done.chunks_exact(WINDOW_OPS) {
            let closed = chunk[WINDOW_OPS - 1].done;
            let latencies = chunk.iter().map(|s| s.ns as f64 / 1e6).collect();
            windows.push((latencies, (closed - opened).as_secs_f64()));
            opened = closed;
        }
        let w = windowed(&mut windows);
        outcome.set("ops_per_s", w.ops_per_s);
        outcome.set("latency_p50_ms", w.p50_ms);
        outcome.set("latency_p90_ms", w.p90_ms);
        outcome.set("latency_p99_ms", w.p99_ms);
        outcome.set("setup_s", setup_s);
        outcome.set("peak_rss_mb", mean(&interval_peaks_mb));
        set_quality(&mut outcome, ok_cells(0..stream.corpus_cells));
        return Ok(outcome);
    }

    // Cache behaviour of the wire run, from the stats deltas.
    let delta = |f: fn(&WireStats) -> u64| f(&after).saturating_sub(f(&before)) as f64;
    for (i, metric) in [
        "service.reports_hit_ratio",
        "service.programs_hit_ratio",
        "service.prepared_hit_ratio",
        "service.topologies_hit_ratio",
    ]
    .into_iter()
    .enumerate()
    {
        let hits = after.hits[i] - before.hits[i];
        let misses = after.misses[i] - before.misses[i];
        outcome.set(metric, ratio(hits as f64, (hits + misses) as f64));
    }
    outcome.set(
        "service.coalesced_share",
        ratio(delta(|s| s.coalesced), delta(|s| s.requests)),
    );
    outcome.set("service.evictions", delta(|s| s.report_evictions));
    outcome.set("service.server.ping_rtt_us", median(&mut pings));

    // The in-process replay of the same slots, untraced and traced in
    // lockstep; both sides' answers are checked like the wire's.
    let lines: Vec<&str> = slots.iter().map(|s| &*stream.lines[s.cell]).collect();
    let pairs: Vec<bool> = slots.iter().map(|s| s.pair).collect();
    let mut tracer = Tracer::new();
    let (untraced, traced) = replay_in_process(&lines, &pairs, &mut tracer);
    for op in untraced.iter().chain(&traced) {
        let cell = slots[op.slot].cell;
        let verdict = match (&op.response, refs[cell].and_then(|r| r.as_ref().ok())) {
            (Err(e), _) => Err(e.clone()),
            (_, None) => Err("cell failed validation".to_string()),
            (Ok(line), Some(r)) => check_response(line, r).map(|_| ()),
        };
        if let Err(why) = verdict {
            if outcome.failed < 5 {
                eprintln!("FAILED in-process {}: {why}", stream.cells[cell].label());
            }
            outcome.failed += 1;
        }
    }
    // Leaders ran the router; replay their cells from outside.
    let mut counts = TracedCounts::new(stream.cells.len());
    let mut routed_swaps = 0u64;
    for op in traced.iter().filter(|op| op.class == Class::Miss) {
        let cell = slots[op.slot].cell;
        let Some(reference) = refs[cell].and_then(|r| r.as_ref().ok()) else {
            continue;
        };
        routed_swaps += reference.fingerprint.swaps;
        if let Some(route) = &reference.route {
            let exact = tracer.span(op.op, "route.replay", None, || {
                oracle::replay(&stream.cells[cell], route)
            });
            counts.note_replay(cell, route.routed_ops, exact);
        }
    }
    outcome.attempted += (untraced.len() + traced.len()) as u64;
    let n = traced.len() as f64;
    let mean_ns = |class: Class| {
        let ns: Vec<f64> = traced
            .iter()
            .filter(|o| o.class == class)
            .map(|o| o.compile_ns as f64)
            .collect();
        ratio(ns.iter().sum(), ns.len() as f64)
    };
    outcome.set(
        "service.proto.request_parse_us",
        tracer.total_ns("service.proto.request_parse") as f64 / 1e3 / n,
    );
    outcome.set(
        "service.proto.response_encode_us",
        tracer.total_ns("service.proto.response_encode") as f64 / 1e3 / n,
    );
    outcome.set(
        "service.proto.response_kb",
        traced
            .iter()
            .filter_map(|o| o.response.as_ref().ok())
            .map(|l| l.len() as f64 / 1024.0)
            .sum::<f64>()
            / n,
    );
    let hit_in_process_ns = mean_ns(Class::Hit);
    outcome.set("service.compile_source_hit_us", hit_in_process_ns / 1e3);
    outcome.set("service.compile_source_miss_ms", mean_ns(Class::Miss) / 1e6);
    outcome.set(
        "service.server.wire_overhead_us",
        (ratio(hit_wire_ns.iter().sum(), hit_wire_ns.len() as f64) - hit_in_process_ns) / 1e3,
    );
    outcome.set(
        "route.replay_ms",
        tracer.total_ns("route.replay") as f64 / 1e6 / n,
    );
    outcome.set(
        "route.ns_per_routed_op",
        ratio(
            tracer.total_ns("route.replay") as f64,
            counts.routed_ops as f64,
        ),
    );
    outcome.set("route.swaps", routed_swaps as f64 / n);
    let excluded = (0..stream.cells.len())
        .filter(|&c| was_sent[c] && !stream.cells[c].replayable())
        .count();
    set_replay_shares(&mut outcome, &counts, excluded);
    set_validation(&mut outcome, ok_cells(0..stream.cells.len()));
    let untraced_mean =
        untraced.iter().map(|o| o.op_ns as f64).sum::<f64>() / untraced.len() as f64;
    let traced_mean = traced.iter().map(|o| o.op_ns as f64).sum::<f64>() / n;
    outcome.set("trace.ops", n);
    outcome.set("trace.overhead_share", traced_mean / untraced_mean - 1.0);
    let (p01_share, mean_share) = tracer.attributed_share("op");
    outcome.set("trace.attributed_share_p01", p01_share);
    outcome.set("trace.attributed_share_mean", mean_share);
    write_spans(&tracer, "service-mix", args)?;
    Ok(outcome)
}

/// How the service answered an in-process request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Straight from the finished-report cache.
    Hit,
    /// Piggybacked on an identical request in flight.
    Coalesced,
    /// Led a compile (prefix caches may still have hit).
    Miss,
    /// The request failed.
    Failed,
}

/// One in-process request.
struct InProcessOp {
    op: u64,
    slot: usize,
    class: Class,
    op_ns: u64,
    compile_ns: u64,
    response: Result<String, String>,
}

/// The server's request path, called in-process: parse the line,
/// `compile_source`, snapshot the stats, encode the response line.
fn serve_line(
    service: &CompileService,
    line: &str,
    mut trace: Option<(&mut Tracer, u64, usize)>,
) -> (Class, u64, Result<String, String>) {
    let mut stage = |name: &'static str, f: &mut dyn FnMut()| match trace.as_mut() {
        Some((tracer, op, root)) => tracer.span(*op, name, Some(*root), f),
        None => f(),
    };
    let mut parsed = None;
    stage("service.proto.request_parse", &mut || {
        parsed = Some(Request::parse(line))
    });
    let (id, req) = match parsed.expect("stage ran") {
        Ok(Request::Compile { id, req }) => (id, req),
        Ok(_) => return (Class::Failed, 0, Err("not a compile request".to_string())),
        Err(e) => {
            return (
                Class::Failed,
                0,
                Err(format!("request does not parse: {e}")),
            )
        }
    };
    let mut result = None;
    let t0 = Instant::now();
    stage("service.compile_source", &mut || {
        result = Some(service.compile_source(&req))
    });
    let compile_ns = t0.elapsed().as_nanos() as u64;
    let outcome = match result.expect("stage ran") {
        Ok(outcome) => outcome,
        Err(e) => return (Class::Failed, compile_ns, Err(e.to_string())),
    };
    let class = if outcome.cached {
        Class::Hit
    } else if outcome.coalesced {
        Class::Coalesced
    } else {
        Class::Miss
    };
    let mut stats = None;
    stage("service.stats", &mut || stats = Some(service.stats()));
    let response = Response::Compile {
        id,
        req,
        outcome,
        stats: stats.expect("stage ran"),
    };
    let mut encoded = None;
    stage("service.proto.response_encode", &mut || {
        encoded = Some(serde_json::to_string(&response.serialize()));
    });
    let encoded = encoded
        .expect("stage ran")
        .map_err(|e| format!("response does not encode: {e:?}"));
    (class, compile_ns, encoded)
}

/// Serves slot `slot` once (or, for a pair, twice on two threads
/// released together) against `service`; traced when given a tracer.
fn serve_slot(
    service: &CompileService,
    line: &str,
    (slot, pair): (usize, bool),
    op: u64,
    tracer: Option<&mut Tracer>,
) -> Vec<InProcessOp> {
    let one = |op: u64, tracer: Option<&mut Tracer>| {
        let start = Instant::now();
        let (class, compile_ns, response) = match tracer {
            None => serve_line(service, line, None),
            Some(tracer) => {
                let root = tracer.open(op, "op", None);
                let out = serve_line(service, line, Some((&mut *tracer, op, root)));
                tracer.close(root);
                out
            }
        };
        InProcessOp {
            op,
            slot,
            class,
            op_ns: start.elapsed().as_nanos() as u64,
            compile_ns,
            response,
        }
    };
    if !pair {
        return vec![one(op, tracer)];
    }
    let barrier = Barrier::new(2);
    let halves: Vec<(InProcessOp, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|half| {
                let (barrier, one) = (&barrier, &one);
                let mut local = tracer.as_deref().map(Tracer::with_base);
                scope.spawn(move || {
                    barrier.wait();
                    (one(op + half, local.as_mut()), local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pair thread panicked"))
            .collect()
    });
    let mut tracer = tracer;
    halves
        .into_iter()
        .map(|(out, local)| {
            if let (Some(tracer), Some(local)) = (tracer.as_deref_mut(), local) {
                tracer.absorb(local);
            }
            out
        })
        .collect()
}

/// Replays the slots against two fresh in-process services in
/// lockstep — each slot untraced on one, then traced on the other — so
/// both sides see the same cache states and the same warm-up. Returns
/// `(untraced, traced)` ops.
fn replay_in_process(
    lines: &[&str],
    pairs: &[bool],
    tracer: &mut Tracer,
) -> (Vec<InProcessOp>, Vec<InProcessOp>) {
    let plain = CompileService::new(ServiceConfig::default());
    let traced_service = CompileService::new(ServiceConfig::default());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for (slot, (&line, &pair)) in lines.iter().zip(pairs).enumerate() {
        untraced.extend(serve_slot(&plain, line, (slot, pair), 0, None));
        let op = traced.len() as u64;
        traced.extend(serve_slot(
            &traced_service,
            line,
            (slot, pair),
            op,
            Some(tracer),
        ));
    }
    (untraced, traced)
}
