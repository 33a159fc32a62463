//! The TCP front end: accept loop, per-connection threads, bounded
//! frame reading, and graceful shutdown.
//!
//! ## Thread model
//!
//! One polling acceptor thread, one engine thread (`crate::engine`),
//! and one thread per live connection; the acceptor joins a closed
//! connection's thread on its next poll. Connection threads are
//! synchronous: read one frame, admit it, submit it to the engine
//! queue, wait for the result, write one response frame. One request
//! in flight per connection keeps responses in request order on every
//! connection with zero reordering machinery, and bounds per-connection
//! memory to one frame each way.
//!
//! ## Timeouts never touch response bytes
//!
//! Sockets carry read/write timeouts so blocked threads can observe
//! shutdown, and the acceptor polls. Every timeout affects *when*
//! something happens (latency, shutdown promptness, how long a stalled
//! client is tolerated) — never *what* is answered. Response bytes are
//! produced by the engine from (request, catalog, model) alone; the
//! replay test in `tests/server_determinism.rs` pins this by replaying
//! a fixed request log under different timings and thread counts.
//!
//! ## Failure containment
//!
//! A malformed frame, oversized line, mid-request disconnect, or shed
//! request is handled entirely on the connection thread — the engine
//! never sees it, so catalog, cache, and model state are byte-identical
//! to a history in which the bad request never arrived
//! (`tests/fault_injection.rs`).

use std::io::{self, ErrorKind, Read, Write};
use std::mem;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nlidb_core::Nlidb;
use nlidb_json::{decode_frame, FrameError, Json, ToJson, MAX_FRAME_BYTES};

use crate::admission::{Admission, AdmissionConfig};
use crate::engine::{Engine, EngineConfig, Job, ServeJob};
use crate::protocol::{ErrorCode, Op, Request, Response, WireError};

/// How often the acceptor polls for shutdown between `accept` attempts.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How often blocked connection reads wake to check for shutdown.
const READ_POLL: Duration = Duration::from_millis(25);

/// How long a response write may stall before the connection is dropped
/// (a reader slower than this on a full pipe is shed at the transport; it
/// never affects what bytes were produced).
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration. [`Default`] gives a loopback server on an
/// OS-assigned port with small-batch, low-latency settings.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 = OS-assigned; read
    /// the actual port from [`ServerHandle::addr`]).
    pub addr: String,
    /// Micro-batch size trigger: dispatch as soon as this many
    /// questions are pending.
    pub max_batch_questions: usize,
    /// Micro-batch latency trigger: dispatch at most this long after
    /// the first pending question. Affects latency only, never bytes.
    pub linger: Duration,
    /// Prediction-cache capacity (`0` disables caching).
    pub cache_capacity: usize,
    /// Admission-control bounds.
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_batch_questions: 32,
            linger: Duration::from_millis(2),
            cache_capacity: 1024,
            admission: AdmissionConfig::default(),
        }
    }
}

/// The server entry point (a namespace; state lives in the threads and
/// the returned [`ServerHandle`]).
pub struct Server;

/// State shared by all connection threads.
struct Shared {
    admission: Arc<Admission>,
    /// Responses written across all connections (errors included).
    requests: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds, spawns the engine and acceptor threads, and returns a
    /// handle. The model is *moved in*: the engine thread is its sole
    /// owner for the life of the server (hot-swaps replace it wholesale).
    pub fn start(nlidb: Nlidb, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        // The acceptor polls so shutdown can never hang on a blocked
        // `accept` (accepted sockets are switched back to blocking).
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let admission = Arc::new(Admission::new(cfg.admission));
        let requests = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();

        let engine = Engine::new(
            nlidb,
            Arc::clone(&admission),
            Arc::clone(&requests),
            EngineConfig {
                max_batch_questions: cfg.max_batch_questions.max(1),
                linger: cfg.linger,
                cache_capacity: cfg.cache_capacity,
            },
        );
        let engine_flag = Arc::clone(&shutdown);
        let engine_thread = std::thread::Builder::new()
            .name("nlidb-serve-engine".into())
            .spawn(move || engine.run(jobs_rx, move || engine_flag.store(true, Ordering::SeqCst)))?;

        let shared = Arc::new(Shared {
            admission,
            requests,
            shutdown: Arc::clone(&shutdown),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();

        let accept_conns = Arc::clone(&conns);
        let accept_shared = Arc::clone(&shared);
        let accept_jobs = jobs_tx.clone();
        let accept_thread = std::thread::Builder::new()
            .name("nlidb-serve-accept".into())
            .spawn(move || {
                accept_loop(listener, accept_jobs, accept_shared, accept_conns);
            })?;

        Ok(ServerHandle {
            addr,
            jobs: jobs_tx,
            shutdown,
            engine: Some(engine_thread),
            accept: Some(accept_thread),
            conns,
        })
    }
}

/// A running server. Dropping the handle shuts the server down and
/// joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    jobs: Sender<Job>,
    shutdown: Arc<AtomicBool>,
    engine: Option<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when the config
    /// asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shuts down gracefully: in-flight requests are answered, then the
    /// engine, acceptor, and connection threads exit and are joined.
    /// Also safe (and useful) after a protocol-level `shutdown` — it
    /// then just joins the already-stopping threads.
    pub fn shutdown(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        let (tx, rx) = mpsc::channel();
        if self.jobs.send(Job::Shutdown { reply: tx }).is_ok() {
            // Wait for the engine to drain up to the shutdown job; a
            // bounded wait so a wedged engine cannot hang the caller
            // forever before the joins below.
            let _ = rx.recv_timeout(Duration::from_secs(30));
        }
        // Belt and braces: the engine's shutdown path sets this too.
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles = {
            let mut guard = self.conns.lock().unwrap_or_else(|p| p.into_inner());
            mem::take(&mut *guard)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Polling accept loop: hands each connection its own thread and a
/// cloned job sender, and joins the threads of closed connections.
fn accept_loop(
    listener: TcpListener,
    jobs: Sender<Job>,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        reap_finished(&conns);
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_jobs = jobs.clone();
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("nlidb-serve-conn".into())
                    .spawn(move || handle_conn(stream, conn_jobs, conn_shared));
                if let Ok(handle) = spawned {
                    let mut guard = conns.lock().unwrap_or_else(|p| p.into_inner());
                    guard.push(handle);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                // Transient accept failure (e.g. fd exhaustion): back
                // off instead of spinning.
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// Joins every connection thread that has returned, so a long-lived
/// server holds a handle (and an unjoined thread's stack) only for the
/// connections still open.
fn reap_finished(conns: &Mutex<Vec<JoinHandle<()>>>) {
    let mut guard = conns.lock().unwrap_or_else(|p| p.into_inner());
    let (finished, open): (Vec<_>, Vec<_>) =
        mem::take(&mut *guard).into_iter().partition(JoinHandle::is_finished);
    *guard = open;
    drop(guard);
    for h in finished {
        let _ = h.join();
    }
}

/// One frame-read attempt's outcome.
enum ReadOutcome {
    /// A complete line (terminator included), within the frame bound.
    Frame(String),
    /// The line exceeded [`MAX_FRAME_BYTES`]; the reader discarded
    /// through the terminating newline, so framing is intact.
    TooLong,
    /// The line held invalid UTF-8 (consumed through its newline).
    BadUtf8,
    /// Peer closed the connection (EOF — possibly mid-line; any partial
    /// frame is discarded unprocessed).
    Closed,
    /// The server is shutting down.
    ShuttingDown,
}

/// A bounded, shutdown-aware line reader over a blocking socket with a
/// read timeout. Unlike `BufReader::read_line`, it survives timeouts
/// mid-line, bounds buffered bytes to one frame, and resynchronizes
/// after an oversized line instead of ballooning memory.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
        LineReader { stream, buf: Vec::new() }
    }

    fn read_frame(&mut self, shutdown: &AtomicBool) -> ReadOutcome {
        let mut discarding = false;
        let mut chunk = [0u8; 4096];
        // `buf[..searched]` holds no terminator: each byte is searched
        // once, so a frame spread over many reads costs linear time.
        let mut searched = 0;
        loop {
            // A buffered terminator completes a frame.
            let unsearched = self.buf.get(searched..).unwrap_or_default();
            if let Some(i) = unsearched.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=searched + i).collect();
                return match String::from_utf8(line) {
                    Ok(s) => ReadOutcome::Frame(s),
                    Err(_) => ReadOutcome::BadUtf8,
                };
            }
            searched = self.buf.len();
            // Too much buffered without a terminator: switch to discard
            // mode (drop bytes until the newline) so a runaway line
            // costs one chunk of memory, not unbounded growth.
            if !discarding && self.buf.len() >= MAX_FRAME_BYTES {
                self.buf.clear();
                searched = 0;
                discarding = true;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => {
                    let read = chunk.get(..n).unwrap_or_default();
                    if !discarding {
                        self.buf.extend_from_slice(read);
                    } else if let Some(i) = read.iter().position(|&b| b == b'\n') {
                        self.buf.extend_from_slice(read.get(i + 1..).unwrap_or_default());
                        return ReadOutcome::TooLong;
                    }
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                {
                    if shutdown.load(Ordering::SeqCst) {
                        return ReadOutcome::ShuttingDown;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }
}

/// The per-connection loop: read frame → handle → write response.
fn handle_conn(stream: TcpStream, jobs: Sender<Job>, shared: Arc<Shared>) {
    nlidb_trace::count("server.connections", 1);
    let _ = stream.set_nodelay(true);
    // Accepted sockets must be blocking-with-timeout regardless of what
    // the polling listener's mode was inherited as.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = LineReader::new(stream);
    loop {
        let line = match reader.read_frame(&shared.shutdown) {
            ReadOutcome::Closed | ReadOutcome::ShuttingDown => break,
            ReadOutcome::TooLong => {
                let resp = Response::err(
                    Json::Null,
                    WireError::new(
                        ErrorCode::FrameTooLong,
                        format!("frame exceeds the {MAX_FRAME_BYTES}-byte limit"),
                    ),
                );
                if write_response(&mut writer, &shared, resp) {
                    continue;
                }
                break;
            }
            ReadOutcome::BadUtf8 => {
                let resp = Response::err(
                    Json::Null,
                    WireError::new(ErrorCode::BadFrame, "frame is not valid UTF-8"),
                );
                if write_response(&mut writer, &shared, resp) {
                    continue;
                }
                break;
            }
            ReadOutcome::Frame(line) => line,
        };
        // Blank lines between frames are tolerated (interactive use).
        if line.trim().is_empty() {
            continue;
        }
        let _sp = nlidb_trace::span("server.request");
        let response = match decode_frame(&line) {
            Err(FrameError::TooLong(_)) => Response::err(
                Json::Null,
                WireError::new(
                    ErrorCode::FrameTooLong,
                    format!("frame exceeds the {MAX_FRAME_BYTES}-byte limit"),
                ),
            ),
            Err(FrameError::BadJson(m)) => Response::err(
                Json::Null,
                WireError::new(ErrorCode::BadFrame, format!("frame is not valid JSON: {m}")),
            ),
            Ok(json) => {
                // Echo the id even when the request is otherwise invalid.
                let id = json.get("id").cloned().unwrap_or(Json::Null);
                match Request::decode(&json) {
                    Err(e) => Response::err(id, e),
                    Ok(req) => handle_request(req, &jobs, &shared),
                }
            }
        };
        if !write_response(&mut writer, &shared, response) {
            break;
        }
    }
}

/// Admits (if applicable), submits, and awaits one decoded request.
fn handle_request(req: Request, jobs: &Sender<Job>, shared: &Shared) -> Response {
    let Request { id, tenant, op } = req;
    let (tx, rx) = mpsc::channel();
    let shutting_down =
        |id: Json| Response::err(id, WireError::new(ErrorCode::ShuttingDown, "server is shutting down"));
    let job = match op {
        Op::Ask(item) => match shared.admission.try_admit(&tenant, 1) {
            Some(permit) => {
                Job::Serve(ServeJob { tenant, items: vec![item], wrap_batch: false, reply: tx, permit })
            }
            None => return shed(id, &tenant),
        },
        Op::Batch { items } => match shared.admission.try_admit(&tenant, items.len()) {
            Some(permit) => {
                Job::Serve(ServeJob { tenant, items, wrap_batch: true, reply: tx, permit })
            }
            None => return shed(id, &tenant),
        },
        Op::RegisterTable { table } => Job::Register { tenant, table, reply: tx },
        Op::SwapCheckpoint { path } => Job::Swap { path, reply: tx },
        Op::Stats => Job::Stats { reply: tx },
        Op::Shutdown => Job::Shutdown { reply: tx },
    };
    if jobs.send(job).is_err() {
        return shutting_down(id);
    }
    match rx.recv() {
        Ok(result) => Response { id, result },
        // The engine dropped the queue (shutdown) before answering.
        Err(_) => shutting_down(id),
    }
}

/// The deterministic shed response: its bytes depend only on the
/// request's id and tenant, never on current load.
fn shed(id: Json, tenant: &str) -> Response {
    nlidb_trace::count("server.shed", 1);
    Response::err(
        id,
        WireError::new(
            ErrorCode::Overloaded,
            format!("admission queue full for tenant '{tenant}'; retry later"),
        ),
    )
}

/// Serializes and writes one response frame; returns `false` when the
/// connection should close. Mirrors `nlidb_json::encode_frame` but
/// substitutes a structured error instead of panicking if a response
/// ever exceeds the frame bound.
fn write_response(writer: &mut TcpStream, shared: &Shared, resp: Response) -> bool {
    let mut body = resp.to_json().to_string();
    if body.len() + 1 > MAX_FRAME_BYTES {
        let fallback = Response::err(
            resp.id.clone(),
            WireError::new(
                ErrorCode::ResponseTooLarge,
                "response exceeds the frame limit; narrow the request",
            ),
        );
        body = fallback.to_json().to_string();
    }
    body.push('\n');
    // lint:allow(atomic-ordering): monotonic stats counter bump; nothing synchronizes on it, readers tolerate staleness.
    shared.requests.fetch_add(1, Ordering::Relaxed);
    nlidb_trace::count("server.requests", 1);
    if resp.result.is_err() {
        nlidb_trace::count("server.errors", 1);
    }
    writer.write_all(body.as_bytes()).and_then(|()| writer.flush()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::time::Instant;

    use nlidb_core::{ModelConfig, NlidbOptions};
    use nlidb_data::wikisql::{generate, WikiSqlConfig};

    const STATS: &[u8] = b"{\"v\":1,\"id\":1,\"op\":\"stats\",\"tenant\":\"ops\"}\n";

    /// The number of connection threads the server still holds a handle
    /// to, once it reaches `want` or ten seconds have passed.
    fn held_after_waiting_for(server: &ServerHandle, want: usize) -> usize {
        let held = || server.conns.lock().unwrap_or_else(|p| p.into_inner()).len();
        let deadline = Instant::now() + Duration::from_secs(10);
        while held() != want && Instant::now() < deadline {
            std::thread::sleep(ACCEPT_POLL);
        }
        held()
    }

    /// Sends `stats` on an open connection and returns the reply line.
    fn stats(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> String {
        stream.write_all(STATS).expect("write stats");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read stats reply");
        line
    }

    fn connect(server: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        (stream, reader)
    }

    #[test]
    fn closed_connections_are_joined_while_the_server_runs() {
        let mut data = WikiSqlConfig::tiny(5);
        data.train_tables = 2;
        let ds = generate(&data);
        let mut model = ModelConfig::tiny();
        (model.epochs, model.mention_epochs) = (1, 1);
        let nlidb = Nlidb::train(&ds, NlidbOptions { model, ..NlidbOptions::default() });
        let server = Server::start(nlidb, ServerConfig::default()).expect("start server");

        let (mut kept, mut kept_reader) = connect(&server);
        assert!(stats(&mut kept, &mut kept_reader).contains("\"ok\":true"));
        // One connection at a time, each closed after its answer.
        for i in 0..24 {
            let (mut stream, mut reader) = connect(&server);
            assert!(stats(&mut stream, &mut reader).contains("\"ok\":true"), "connection {i}");
        }
        assert_eq!(
            held_after_waiting_for(&server, 1),
            1,
            "the threads of closed connections are still held"
        );
        let again = stats(&mut kept, &mut kept_reader);
        assert!(again.contains("\"ok\":true"), "the open connection went unanswered: {again}");
        drop((kept, kept_reader));
        assert_eq!(held_after_waiting_for(&server, 0), 0, "the last connection's thread is held");
        server.shutdown();
    }
}
