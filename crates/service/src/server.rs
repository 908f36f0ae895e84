//! The TCP front end: sessions, the bounded worker pool, shutdown.
//!
//! Each accepted connection gets a session thread that reads protocol
//! lines and writes one response line per request, in order. Compile
//! work never runs on session threads — it is dispatched to a bounded
//! worker pool, so total concurrent compiles are capped at the worker
//! count no matter how many clients connect, and a full queue applies
//! backpressure to the submitting sessions. A panicking compile is
//! caught at the pool boundary and answered as an `internal` error;
//! the worker survives. Request lines are read with a fixed size cap
//! ([`MAX_REQUEST_LINE`]): a longer line is answered with
//! `request_too_large` and ends the session.
//!
//! All logging goes to **stderr**; stdout is never written, so
//! `squared`'s own output (and anything piping the protocol) stays
//! clean for `jq`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use serde::Value;

use crate::proto::{ErrorKind, Request, Response};
use crate::service::{keep, lock, CompileService, ServiceError};

/// Longest request line (newline excluded) a session buffers: 8 MiB,
/// several times the JSON-escaped source of the largest catalog
/// program (MUL64, about 1 MB).
pub const MAX_REQUEST_LINE: usize = 8 << 20;

/// Worker-pool sizing for a server.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Concurrent compile workers (0 ⇒ available parallelism).
    pub workers: usize,
    /// Bounded job-queue depth (0 ⇒ 4 × workers).
    pub queue_depth: usize,
}

impl ServerConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            thread::available_parallelism().map_or(4, |n| n.get())
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of compile workers fed from one bounded queue.
/// Submission blocks when the queue is full — that is the service's
/// backpressure.
struct WorkerPool {
    sender: Option<SyncSender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(workers: usize, queue_depth: usize) -> Self {
        let (sender, receiver) = sync_channel::<Job>(queue_depth.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..workers.max(1))
            .map(|_| {
                let receiver: Arc<Mutex<Receiver<Job>>> = Arc::clone(&receiver);
                thread::spawn(move || loop {
                    // Hold the lock only to dequeue, never while
                    // running the job.
                    let job = match lock(&receiver, keep).recv() {
                        Ok(job) => job,
                        Err(_) => break,
                    };
                    job();
                })
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Runs `job` on the pool, blocking the caller and returning its
    /// result once a worker has finished it. A panic inside `job` is
    /// caught on the worker (which lives on) and returned as
    /// [`ServiceError::Internal`].
    fn run<T: Send + 'static>(
        &self,
        job: impl FnOnce() -> Result<T, ServiceError> + Send + 'static,
    ) -> Result<T, ServiceError> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.sender
            .as_ref()
            .expect("pool already shut down")
            .send(Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(job))
                    .unwrap_or_else(|panic| Err(ServiceError::Internal(panic_message(&*panic))));
                let _ = tx.send(result);
            }))
            .expect("worker pool hung up");
        rx.recv().unwrap_or_else(|_| {
            Err(ServiceError::Internal(
                "the worker exited without answering".to_string(),
            ))
        })
    }

    /// Workers still running (tests check that panics kill none).
    #[cfg(test)]
    fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.is_finished()).count()
    }
}

/// The text of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("the compile panicked: {text}")
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs the accept loop until a client sends `{"cmd":"shutdown"}`.
/// Session threads are detached; when `serve` returns, in-flight
/// sessions finish their current response and die with the process.
///
/// # Errors
///
/// Propagates listener I/O errors (a failed `accept` on a live
/// listener); per-connection errors only end that session.
pub fn serve(
    listener: TcpListener,
    service: Arc<CompileService>,
    config: ServerConfig,
) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let pool = Arc::new(WorkerPool::new(
        config.resolved_workers(),
        if config.queue_depth > 0 {
            config.queue_depth
        } else {
            config.resolved_workers() * 4
        },
    ));
    let shutdown = Arc::new(AtomicBool::new(false));
    eprintln!(
        "squared: listening on {addr} ({} workers)",
        config.resolved_workers()
    );

    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("squared: accept failed: {e}");
                continue;
            }
        };
        // Responses are single small lines; Nagle + delayed ACK would
        // add ~40ms to every request on loopback.
        let _ = stream.set_nodelay(true);
        let service = Arc::clone(&service);
        let pool = Arc::clone(&pool);
        let shutdown = Arc::clone(&shutdown);
        thread::spawn(move || {
            if let Err(e) = session(&stream, &service, &pool, &shutdown, addr) {
                eprintln!("squared: session ended: {e}");
            }
        });
    }
    eprintln!("squared: shutting down");
    Ok(())
}

/// One bounded read: a complete line, end of input, or a line longer
/// than the cap.
#[derive(Debug, PartialEq)]
enum Line {
    Complete,
    Eof,
    TooLong,
}

/// Reads one `\n`-terminated line into `buf` (cleared first; newline
/// kept), buffering at most `cap` bytes of it. Unterminated input at
/// EOF still counts as a line, as with `BufRead::read_line`.
fn read_bounded_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<Line> {
    buf.clear();
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                Line::Eof
            } else {
                Line::Complete
            });
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let content = newline.unwrap_or(available.len());
        if buf.len() + content > cap {
            return Ok(Line::TooLong);
        }
        let take = newline.map_or(available.len(), |i| i + 1);
        buf.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() {
            return Ok(Line::Complete);
        }
    }
}

/// Ends a session after a fatal response: half-closes so the client
/// sees the response and then EOF, and reads off (a bounded amount of)
/// whatever the client is still sending, so closing the socket with
/// unread input does not reset the connection under the response.
fn close_after_response(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 64 << 10];
    let mut drained = 0;
    let mut reader = stream;
    while drained < 2 * MAX_REQUEST_LINE {
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// One connection: read a line, answer a line, repeat until EOF.
fn session(
    stream: &TcpStream,
    service: &Arc<CompileService>,
    pool: &WorkerPool,
    shutdown: &AtomicBool,
    listen_addr: std::net::SocketAddr,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream.try_clone()?;
    let mut bytes = Vec::new();
    loop {
        match read_bounded_line(&mut reader, &mut bytes, MAX_REQUEST_LINE)? {
            Line::Complete => {}
            Line::Eof => return Ok(()), // client hung up
            Line::TooLong => {
                let refusal = Response::Error {
                    id: Value::Null,
                    kind: ErrorKind::RequestTooLarge,
                    message: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                    detail: None,
                };
                write_line(&mut writer, &refusal.serialize())?;
                close_after_response(stream);
                return Ok(());
            }
        }
        let line = std::str::from_utf8(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::parse(line) {
            Err(e) => Response::parse_error(&Value::Null, &e),
            Ok(Request::Ping { id }) => Response::Pong { id },
            Ok(Request::Stats { id }) => Response::Stats {
                id,
                stats: service.stats(),
            },
            Ok(Request::Shutdown { id }) => {
                let ack = Response::Shutdown { id };
                write_line(&mut writer, &ack.serialize())?;
                shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it observes the flag.
                let _ = TcpStream::connect(listen_addr);
                return Ok(());
            }
            Ok(Request::Compile { id, req }) => {
                let job_service = Arc::clone(service);
                let job_req = req.clone();
                let outcome = pool.run(move || job_service.compile_source(&job_req));
                match outcome {
                    Ok(outcome) => Response::Compile {
                        id,
                        req,
                        outcome,
                        stats: service.stats(),
                    },
                    Err(e) => Response::service_error(&id, &e),
                }
            }
        };
        write_line(&mut writer, &response.serialize())?;
    }
}

fn write_line(writer: &mut TcpStream, value: &Value) -> std::io::Result<()> {
    let text = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use std::net::SocketAddr;
    use std::time::Instant;

    use square_bench::SweepArch;
    use square_core::{Policy, RouterKind};

    use super::*;
    use crate::service::{CompileRequest, ServiceConfig};

    const SRC: &str = "entry module main(0 params, 3 ancilla) {\n  \
         compute { x a0; cx a0 a1; }\n  store { cx a1 a2; }\n}\n";

    fn request() -> CompileRequest {
        CompileRequest {
            source: SRC.to_string(),
            policy: Policy::Square,
            arch: SweepArch::NisqAuto,
            router: RouterKind::Greedy,
            budget: None,
            mbu: false,
        }
    }

    #[test]
    fn panicking_leader_answers_its_follower_and_spares_the_pool() {
        let armed = Arc::new(AtomicBool::new(true));
        let trigger = Arc::clone(&armed);
        let service = CompileService::new(ServiceConfig::default()).with_fault_hook(move |svc| {
            if trigger.swap(false, Ordering::SeqCst) {
                // Hold the flight until the identical request has
                // coalesced onto it, then die mid-compile.
                let deadline = Instant::now() + Duration::from_secs(10);
                while svc.stats().coalesced == 0 && Instant::now() < deadline {
                    thread::sleep(Duration::from_millis(1));
                }
                panic!("injected fault");
            }
        });
        let service = Arc::new(service);
        let pool = Arc::new(WorkerPool::new(2, 4));
        let (tx, rx) = std::sync::mpsc::channel();
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let (service, pool, tx) = (Arc::clone(&service), Arc::clone(&pool), tx.clone());
                thread::spawn(move || {
                    let _ = tx.send(pool.run(move || service.compile_source(&request())));
                })
            })
            .collect();
        for _ in 0..2 {
            let error = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a caller wedged on the panicked flight")
                .unwrap_err();
            assert!(matches!(error, ServiceError::Internal(_)), "{error:?}");
            let wire = Response::service_error(&Value::Null, &error).serialize();
            assert_eq!(
                wire.get("error_kind").and_then(Value::as_str),
                Some("internal")
            );
        }
        for caller in callers {
            caller.join().expect("caller thread");
        }
        assert_eq!(service.stats().coalesced, 1, "the follower coalesced");
        assert!(!armed.load(Ordering::SeqCst));

        // Nothing was cached or left in flight: the next identical
        // request compiles normally.
        let service_again = Arc::clone(&service);
        let next = pool
            .run(move || service_again.compile_source(&request()))
            .expect("the retry compiles");
        assert!(!next.cached && !next.coalesced);
        assert_eq!(service.stats().compiles, 1);
        assert_eq!(pool.live_workers(), 2, "no worker died");
    }

    fn boot_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let service = Arc::new(CompileService::new(ServiceConfig::default()));
        thread::spawn(move || serve(listener, service, ServerConfig::default()));
        addr
    }

    fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        (BufReader::new(stream.try_clone().expect("clone")), stream)
    }

    fn read_response(reader: &mut BufReader<TcpStream>) -> Value {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        serde_json::from_str(&line).expect("valid response JSON")
    }

    fn ping(addr: SocketAddr) -> Value {
        let (mut reader, mut writer) = connect(addr);
        writer.write_all(b"{\"cmd\":\"ping\",\"id\":7}\n").unwrap();
        read_response(&mut reader)
    }

    fn assert_refused_then_closed(reader: &mut BufReader<TcpStream>) {
        let refusal = read_response(reader);
        assert_eq!(
            refusal.get("error_kind").and_then(Value::as_str),
            Some("request_too_large"),
            "{refusal:?}"
        );
        let mut rest = String::new();
        assert!(
            matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
            "session must close after the refusal, got {rest:?}"
        );
    }

    #[test]
    fn endless_client_without_newline_is_refused_and_closed() {
        let addr = boot_server();
        let (mut reader, writer) = connect(addr);
        let flood = thread::spawn(move || {
            let mut writer = writer;
            let chunk = vec![b'x'; 64 << 10];
            let mut sent = 0;
            // Stops when the server hangs up (bounded in case it
            // never does, so a regression fails instead of hanging).
            while sent < 8 * MAX_REQUEST_LINE && writer.write_all(&chunk).is_ok() {
                sent += chunk.len();
            }
            sent
        });
        assert_refused_then_closed(&mut reader);
        let sent = flood.join().expect("flood thread");
        assert!(sent < 8 * MAX_REQUEST_LINE, "server kept reading");
        assert_eq!(ping(addr).get("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn oversized_line_is_refused_while_other_sessions_keep_working() {
        let addr = boot_server();
        let (mut open_reader, mut open_writer) = connect(addr);
        open_writer
            .write_all(b"{\"cmd\":\"ping\",\"id\":1}\n")
            .unwrap();
        assert_eq!(
            read_response(&mut open_reader)
                .get("id")
                .and_then(Value::as_u64),
            Some(1)
        );

        let (mut reader, mut writer) = connect(addr);
        let mut line = vec![b' '; MAX_REQUEST_LINE + 1];
        line.push(b'\n');
        // The server may hang up before taking every byte.
        let _ = writer.write_all(&line);
        assert_refused_then_closed(&mut reader);

        // The session that was open all along still serves compiles.
        let compile = format!(
            "{{\"id\":2,\"source\":{}}}\n",
            serde_json::to_string(&Value::String(SRC.to_string())).unwrap()
        );
        open_writer.write_all(compile.as_bytes()).unwrap();
        let served = read_response(&mut open_reader);
        assert_eq!(
            served.get("ok").and_then(Value::as_bool),
            Some(true),
            "{served:?}"
        );
        assert_eq!(ping(addr).get("id").and_then(Value::as_u64), Some(7));
    }
}
