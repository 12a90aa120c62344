//! The event loop `faild` serves from: one reactor thread multiplexing
//! every connection, plus a bounded worker pool executing queries.
//!
//! # Structure
//!
//! The reactor owns the listener and all client sockets, every one
//! non-blocking, registered with the [`crate::sys::Poller`]
//! (level-triggered epoll on Linux). Each connection is a small state
//! machine:
//!
//! * **read side** — bytes accumulate in `read_buf`; the frame splitter
//!   carves complete NDJSON lines off the front (tracking a scan offset
//!   so dripped bytes are never rescanned) and dispatches each request.
//! * **execution** — `report`/`compare`/`watch` go to the worker pool
//!   (`max_inflight` threads, so the pool *is* the execution bound);
//!   `metrics`, `logs`, `evict`, `ping`, and `shutdown` are cheap and
//!   answered inline on the loop. A query that panics is answered with
//!   a `query panicked` error envelope (counted as
//!   `server.worker_panics`) and its worker keeps serving, so the
//!   connection's ordered responses never stall behind it.
//! * **write side** — responses are emitted strictly in request order
//!   (a per-connection sequence number orders out-of-order worker
//!   completions), appended to `write_buf`, and flushed as far as the
//!   socket allows; partial writes resume when the poller reports the
//!   socket writable again.
//!
//! Workers hand finished responses back through a completion list and
//! wake the loop by writing one byte to a self-pipe (a `UnixStream`
//! pair — the portable cousin of `eventfd`).
//!
//! # Backpressure
//!
//! A connection whose un-flushed response backlog exceeds
//! [`HIGH_WATER`] stops being read (its `EPOLLIN` interest is dropped)
//! until the backlog drains below [`LOW_WATER`]; a client that sends
//! pipelined queries faster than it reads responses throttles itself,
//! not the server. Request lines are capped at [`MAX_LINE`].
//!
//! An accept that fails for lack of resources (`EMFILE`/`ENFILE` when
//! descriptors run out) leaves the connection queued, so the
//! level-triggered listener would report readable again at once and
//! spin the loop. The listener is withdrawn instead (counted as
//! `server.accept_errors`) and re-armed when a connection closes or
//! after [`ACCEPT_BACKOFF`], whichever comes first.
//!
//! # Shutdown
//!
//! The `shutdown` command answers its own request, then drains: the
//! listener is deregistered, no further frames are parsed on any
//! connection, in-flight worker jobs finish and flush, and the loop
//! exits once nothing is pending. The caller persists dirty `.fsidx`
//! snapshots after the loop returns.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use failapi::wire::{self, Command};
use failapi::{QueryEngine, QueryRequest, WatchRequest};
use failtypes::{Error, Result};

use crate::server::{Listener, ServeSummary, Stream};
use crate::sys::{Event, Poller};

/// Poller token of the listening socket.
const LISTENER: u64 = 0;
/// Poller token of the self-pipe's read end.
const WAKER: u64 = 1;
/// First connection token.
const FIRST_CONN: u64 = 2;

/// Hard cap on one request line; a frame this long without a newline
/// is answered with a typed error and the connection is closed (the
/// stream cannot be resynchronized).
const MAX_LINE: usize = 8 * 1024 * 1024;
/// Un-flushed response bytes above which a connection stops being read.
const HIGH_WATER: usize = 1024 * 1024;
/// Backlog below which a paused connection resumes reading.
const LOW_WATER: usize = 64 * 1024;
/// One non-blocking read's scratch size.
const READ_CHUNK: usize = 64 * 1024;
/// Most bytes accepted from one connection per loop visit, so a
/// firehose sender cannot starve its peers (level-triggered polling
/// revisits it immediately).
const READ_BURST: usize = 1024 * 1024;
/// How long the listener stays withdrawn after a failed accept, unless
/// a connection closes (freeing a descriptor) first.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Work shipped to the pool: the queries whose execution cost is
/// unbounded. Everything else is answered inline on the loop.
enum JobCmd {
    Query(QueryRequest),
    Watch(WatchRequest),
}

struct Job {
    conn: u64,
    seq: u64,
    id: u64,
    cmd: JobCmd,
}

/// (connection token, per-connection sequence, encoded response line).
type Completion = (u64, u64, String);

/// The self-pipe's write end, shared by every worker.
struct Waker {
    tx: UnixStream,
}

impl Waker {
    fn wake(&self) {
        // A full pipe means a wake-up is already pending; any error is
        // ignorable for the same reason.
        let _ = (&self.tx).write(&[1]);
    }
}

/// Per-connection state machine.
struct Conn {
    stream: Stream,
    /// Bytes received but not yet carved into frames.
    read_buf: Vec<u8>,
    /// How far `read_buf` has been scanned for a newline.
    scanned: usize,
    /// Encoded responses awaiting the socket.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has been written.
    write_pos: usize,
    /// Next sequence number to assign to an incoming request.
    next_seq: u64,
    /// Next sequence number to emit into `write_buf`.
    next_emit: u64,
    /// Completed responses waiting for their turn in request order.
    done: BTreeMap<u64, String>,
    /// Requests of this connection currently in the worker pool.
    inflight: usize,
    /// The peer closed its write side; drain and close.
    peer_eof: bool,
    /// Unrecoverable I/O state; drop at the next sweep.
    dead: bool,
    /// Close once the write buffer drains (protocol violation).
    close_after_flush: bool,
    /// Reads paused by the high-water mark.
    paused: bool,
    /// Whether the descriptor is currently in the poller. A connection
    /// with no interest at all (peer closed, nothing to write, workers
    /// still busy) is withdrawn entirely — a level-triggered `EPOLLHUP`
    /// cannot be masked and would otherwise spin the loop.
    registered: bool,
    /// Interest currently registered with the poller.
    want_read: bool,
    want_write: bool,
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            next_seq: 0,
            next_emit: 0,
            done: BTreeMap::new(),
            inflight: 0,
            peer_eof: false,
            dead: false,
            close_after_flush: false,
            paused: false,
            registered: true,
            want_read: true,
            want_write: false,
        }
    }

    fn backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn flushed(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }
}

/// One complete frame-extraction step.
enum FrameStep {
    /// No complete line buffered yet.
    Incomplete,
    /// The buffered line is not UTF-8; the connection is unusable.
    Bad,
    /// A line grew past [`MAX_LINE`] without a newline.
    Oversize,
    /// One complete line (newline stripped).
    Line(String),
}

fn take_frame(conn: &mut Conn) -> FrameStep {
    let Some(rel) = conn.read_buf[conn.scanned..]
        .iter()
        .position(|&b| b == b'\n')
    else {
        conn.scanned = conn.read_buf.len();
        if conn.scanned > MAX_LINE {
            return FrameStep::Oversize;
        }
        return FrameStep::Incomplete;
    };
    let end = conn.scanned + rel;
    let step = match std::str::from_utf8(&conn.read_buf[..end]) {
        Ok(line) => FrameStep::Line(line.to_string()),
        Err(_) => FrameStep::Bad,
    };
    conn.read_buf.drain(..=end);
    conn.scanned = 0;
    step
}

pub(crate) fn run(
    listener: Listener,
    engine: QueryEngine,
    max_inflight: usize,
) -> Result<ServeSummary> {
    let setup = |what: &'static str| move |e: std::io::Error| Error::io(what, e);
    listener
        .set_nonblocking(true)
        .map_err(setup("setting the listener non-blocking"))?;
    let poller = Poller::new().map_err(setup("creating the poller"))?;
    let (wake_tx, wake_rx) = UnixStream::pair().map_err(setup("creating the wake pipe"))?;
    wake_tx
        .set_nonblocking(true)
        .map_err(setup("configuring the wake pipe"))?;
    wake_rx
        .set_nonblocking(true)
        .map_err(setup("configuring the wake pipe"))?;
    poller
        .add(listener.as_raw_fd(), LISTENER, true, false)
        .map_err(setup("registering the listener"))?;
    poller
        .add(wake_rx.as_raw_fd(), WAKER, true, false)
        .map_err(setup("registering the wake pipe"))?;

    let engine = Arc::new(engine);
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let waker = Arc::new(Waker { tx: wake_tx });
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers: Vec<_> = (0..max_inflight.max(1))
        .map(|_| {
            let (engine, job_rx) = (Arc::clone(&engine), Arc::clone(&job_rx));
            let (completions, waker) = (Arc::clone(&completions), Arc::clone(&waker));
            std::thread::spawn(move || worker(&engine, &job_rx, &completions, &waker))
        })
        .collect();

    let mut reactor = Reactor {
        poller,
        listener,
        engine,
        waker_rx: wake_rx,
        completions,
        job_tx: Some(job_tx),
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        connections: 0,
        requests: 0,
        jobs_inflight: 0,
        draining: false,
        accept_resume: None,
    };
    reactor.serve();
    drop(reactor.job_tx.take());
    for handle in workers {
        handle.join().ok();
    }
    // Workers are done, so no new dirty entries can appear.
    let snapshots_persisted = reactor.engine.persist_dirty();
    Ok(ServeSummary {
        connections: reactor.connections,
        requests: reactor.requests,
        snapshots_persisted,
    })
}

/// One pool thread: execute jobs until the channel closes. A panicking
/// job still completes, with an error envelope, and the thread lives on.
fn worker(
    engine: &QueryEngine,
    jobs: &Mutex<mpsc::Receiver<Job>>,
    completions: &Mutex<Vec<Completion>>,
    waker: &Waker,
) {
    loop {
        // Holding the lock across `recv` is the shared-receiver idiom:
        // it serializes job pickup, not execution.
        let job = {
            let rx = jobs.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(job) = job else {
            return;
        };
        let Job { conn, seq, id, cmd } = job;
        let line = panic::catch_unwind(AssertUnwindSafe(|| respond(engine, id, cmd)))
            .unwrap_or_else(|payload| {
                let why = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("no message");
                engine.metrics().incr("server.worker_panics", 1);
                engine.metrics().incr("server.errors", 1);
                wire::encode_err(id, &Error::run(format!("query panicked: {why}")))
            });
        completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((conn, seq, line));
        waker.wake();
    }
}

/// Executes one pooled command; errors become typed envelopes.
fn respond(engine: &QueryEngine, id: u64, cmd: JobCmd) -> String {
    #[cfg(test)]
    tests::fault_hook(&cmd);
    let error_line = |e: &Error| {
        engine.metrics().incr("server.errors", 1);
        wire::encode_err(id, e)
    };
    match cmd {
        JobCmd::Query(req) => match engine.execute(&req) {
            Ok(outcome) => wire::encode_ok(id, req_name(&req), outcome.cached, &outcome.output),
            Err(e) => error_line(&e),
        },
        JobCmd::Watch(req) => {
            let mut buf = Vec::new();
            match failapi::watch::run(&req, &mut buf) {
                Ok(_) => match String::from_utf8(buf) {
                    Ok(output) => wire::encode_ok(id, "watch", false, &output),
                    Err(_) => error_line(&Error::run("watch produced non-UTF8 output")),
                },
                Err(e) => error_line(&e),
            }
        }
    }
}

fn req_name(req: &QueryRequest) -> &'static str {
    match req.cmd {
        failapi::QueryCmd::Report(_) => "report",
        failapi::QueryCmd::Compare { .. } => "compare",
    }
}

struct Reactor {
    poller: Poller,
    listener: Listener,
    engine: Arc<QueryEngine>,
    waker_rx: UnixStream,
    completions: Arc<Mutex<Vec<Completion>>>,
    job_tx: Option<mpsc::Sender<Job>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    connections: u64,
    requests: u64,
    jobs_inflight: usize,
    draining: bool,
    /// When a listener withdrawn by a failed accept is re-armed; `None`
    /// while it is armed.
    accept_resume: Option<Instant>,
}

impl Reactor {
    fn serve(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.accept_resume.map_or(-1, |at| {
                // Round up so the loop never wakes just short of `at`.
                let left = at.saturating_duration_since(Instant::now());
                i32::try_from(left.as_millis() + 1).unwrap_or(i32::MAX)
            });
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for &ev in &events {
                match ev.token {
                    LISTENER => self.accept_burst(),
                    WAKER => self.drain_waker(),
                    token => {
                        if ev.readable {
                            self.on_readable(token);
                        }
                        if ev.writable {
                            self.try_flush(token);
                        }
                    }
                }
            }
            self.drain_completions();
            let closed = self.sweep();
            self.rearm_listener(closed);
            let all_flushed = self.conns.values().all(Conn::flushed);
            if self.draining && self.jobs_inflight == 0 && all_flushed {
                break;
            }
        }
    }

    fn accept_burst(&mut self) {
        if self.draining {
            return;
        }
        loop {
            let stream = match self.accept() {
                Ok(s) => s.into_low_latency(),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.engine.metrics().incr("server.accept_errors", 1);
                    if e.kind() == std::io::ErrorKind::ConnectionAborted {
                        // The peer gave up; the next one may be fine.
                        continue;
                    }
                    // Out of descriptors or buffers: the connection
                    // stays queued, so back off instead of spinning.
                    self.poller.remove(self.listener.as_raw_fd()).ok();
                    self.accept_resume = Some(Instant::now() + ACCEPT_BACKOFF);
                    break;
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .add(stream.as_raw_fd(), token, true, false)
                .is_err()
            {
                continue;
            }
            self.connections += 1;
            self.engine.metrics().incr("server.connections", 1);
            self.conns.insert(token, Conn::new(stream));
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        #[cfg(test)]
        tests::accept_fault()?;
        self.listener.accept()
    }

    /// Re-arms a listener withdrawn by a failed accept once a
    /// connection has closed or the back-off has passed.
    fn rearm_listener(&mut self, closed: usize) {
        let Some(at) = self.accept_resume else {
            return;
        };
        if closed == 0 && Instant::now() < at {
            return;
        }
        let fd = self.listener.as_raw_fd();
        self.accept_resume = match self.poller.add(fd, LISTENER, true, false) {
            Ok(()) => None,
            Err(_) => Some(Instant::now() + ACCEPT_BACKOFF),
        };
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn on_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead || conn.peer_eof {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let start = conn.read_buf.len();
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    if conn.read_buf.len() - start >= READ_BURST {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        self.process_frames(token);
    }

    /// Carves complete request lines off a connection's read buffer
    /// and dispatches each one. Stops at the first incomplete frame,
    /// on connection state changes, and during drain (buffered
    /// requests past the shutdown are dropped, matching the
    /// half-close semantics of the threaded server).
    fn process_frames(&mut self, token: u64) {
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.dead || conn.close_after_flush {
                    return;
                }
                if self.draining {
                    conn.read_buf.clear();
                    conn.scanned = 0;
                    return;
                }
                take_frame(conn)
            };
            match step {
                FrameStep::Incomplete => return,
                FrameStep::Bad => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.dead = true;
                    }
                    return;
                }
                FrameStep::Oversize => {
                    let line = wire::encode_err(
                        0,
                        &Error::args(format!("request line exceeds {MAX_LINE} bytes")),
                    );
                    self.count_request();
                    self.engine.metrics().incr("server.errors", 1);
                    let seq = {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            return;
                        };
                        conn.read_buf.clear();
                        conn.scanned = 0;
                        conn.close_after_flush = true;
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        seq
                    };
                    self.complete(token, seq, line);
                    return;
                }
                FrameStep::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.dispatch(token, &line);
                }
            }
        }
    }

    fn count_request(&mut self) {
        self.requests += 1;
        self.engine.metrics().incr("server.requests", 1);
    }

    fn dispatch(&mut self, token: u64, line: &str) {
        let seq = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let seq = conn.next_seq;
            conn.next_seq += 1;
            seq
        };
        self.count_request();
        let (id, cmd) = wire::parse_request(line);
        let response = match cmd {
            Err(e) => {
                self.engine.metrics().incr("server.errors", 1);
                wire::encode_err(id, &e)
            }
            Ok(Command::Query(req)) => {
                self.submit(token, seq, id, JobCmd::Query(req));
                return;
            }
            Ok(Command::Watch(req)) => {
                self.submit(token, seq, id, JobCmd::Watch(req));
                return;
            }
            Ok(Command::Metrics) => {
                wire::encode_ok(id, "metrics", false, &self.engine.metrics().export())
            }
            Ok(Command::Logs) => wire::encode_ok(
                id,
                "logs",
                false,
                &failapi::render_catalog(&self.engine.catalog()),
            ),
            Ok(Command::Evict(source)) => {
                wire::encode_ok(id, "evict", false, &self.engine.evict(&source).render())
            }
            Ok(Command::Ping) => wire::encode_ok(id, "ping", false, "pong\n"),
            Ok(Command::Shutdown) => {
                let line = wire::encode_ok(id, "shutdown", false, "faild: shutting down\n");
                self.complete(token, seq, line);
                self.begin_drain();
                return;
            }
        };
        self.complete(token, seq, response);
    }

    fn submit(&mut self, conn: u64, seq: u64, id: u64, cmd: JobCmd) {
        let sent = self
            .job_tx
            .as_ref()
            .is_some_and(|tx| tx.send(Job { conn, seq, id, cmd }).is_ok());
        if sent {
            self.jobs_inflight += 1;
            if let Some(c) = self.conns.get_mut(&conn) {
                c.inflight += 1;
            }
        } else {
            // The pool is gone (shutdown race); answer in place.
            let line = wire::encode_err(id, &Error::run("faild is shutting down"));
            self.complete(conn, seq, line);
        }
    }

    /// Records one finished response and emits everything now in
    /// order, flushing opportunistically.
    fn complete(&mut self, token: u64, seq: u64, line: String) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.done.insert(seq, line);
            while let Some(next) = conn.done.remove(&conn.next_emit) {
                conn.write_buf.extend_from_slice(next.as_bytes());
                conn.write_buf.push(b'\n');
                conn.next_emit += 1;
            }
        }
        self.try_flush(token);
    }

    fn try_flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        while conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => conn.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.flushed() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        } else if conn.write_pos > LOW_WATER {
            // Reclaim the flushed prefix so the buffer cannot grow
            // without bound across partial writes.
            conn.write_buf.drain(..conn.write_pos);
            conn.write_pos = 0;
        }
        let backlog = conn.backlog();
        if backlog > HIGH_WATER {
            conn.paused = true;
        } else if backlog < LOW_WATER {
            conn.paused = false;
        }
    }

    fn drain_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut list = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *list)
        };
        for (token, seq, line) in done {
            self.jobs_inflight -= 1;
            let alive = match self.conns.get_mut(&token) {
                Some(conn) => {
                    conn.inflight -= 1;
                    true
                }
                // The connection died while its query ran; the
                // response has nowhere to go.
                None => false,
            };
            if alive {
                self.complete(token, seq, line);
            }
        }
    }

    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.accept_resume = None;
        self.poller.remove(self.listener.as_raw_fd()).ok();
        for conn in self.conns.values_mut() {
            conn.read_buf.clear();
            conn.scanned = 0;
        }
    }

    /// Re-registers interest to match each connection's state and
    /// drops finished or dead connections; returns how many it dropped.
    fn sweep(&mut self) -> usize {
        let Reactor {
            poller,
            conns,
            draining,
            ..
        } = self;
        let draining = *draining;
        let mut doomed = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            if conn.dead {
                doomed.push(token);
                continue;
            }
            let settled = conn.flushed() && conn.inflight == 0 && conn.done.is_empty();
            if settled && (conn.peer_eof || conn.close_after_flush || draining) {
                doomed.push(token);
                continue;
            }
            let read = !draining && !conn.peer_eof && !conn.paused && !conn.close_after_flush;
            let write = !conn.flushed();
            let fd = conn.stream.as_raw_fd();
            let ok = if !read && !write {
                // No interest at all: withdraw the descriptor — a
                // level-triggered EPOLLHUP cannot be masked and would
                // spin the loop while workers finish.
                if conn.registered {
                    poller.remove(fd).ok();
                    conn.registered = false;
                }
                true
            } else if !conn.registered {
                let added = poller.add(fd, token, read, write).is_ok();
                conn.registered = added;
                added
            } else if (read, write) != (conn.want_read, conn.want_write) {
                poller.modify(fd, token, read, write).is_ok()
            } else {
                true
            };
            if ok {
                conn.want_read = read;
                conn.want_write = write;
            } else {
                conn.dead = true;
                doomed.push(token);
            }
        }
        for &token in &doomed {
            if let Some(conn) = conns.remove(&token) {
                if conn.registered {
                    poller.remove(conn.stream.as_raw_fd()).ok();
                }
            }
        }
        doomed.len()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::Duration;

    use failapi::wire;
    use failapi::WatchRequest;

    use super::JobCmd;
    use crate::client::Connection;
    use crate::{Endpoint, ServerConfig};

    /// A watch of this source panics inside the worker.
    const PANIC_SOURCE: &str = "sim:panic-in-worker";

    /// The fault hook `respond` runs first in test builds.
    pub(super) fn fault_hook(cmd: &JobCmd) {
        if matches!(cmd, JobCmd::Watch(req) if req.source == PANIC_SOURCE) {
            panic!("injected fault");
        }
    }

    /// Linux's "too many open files".
    const EMFILE: i32 = 24;

    thread_local! {
        /// How many more accepts on this reactor thread fail with
        /// `EMFILE`; installed by the test that runs the reactor here.
        static ACCEPT_FAULTS: RefCell<Option<Arc<AtomicUsize>>> = const { RefCell::new(None) };
    }

    /// The accept hook the reactor runs first in test builds: fails the
    /// accept while the installed fault budget lasts.
    pub(super) fn accept_fault() -> std::io::Result<()> {
        let fail = ACCEPT_FAULTS.with_borrow(|faults| {
            faults.as_ref().is_some_and(|left| {
                left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            })
        });
        if fail {
            return Err(std::io::Error::from_raw_os_error(EMFILE));
        }
        Ok(())
    }

    fn small_watch() -> WatchRequest {
        let mut req = WatchRequest::new("sim:tsubame3");
        req.max_records = Some("30".to_string());
        req
    }

    fn expected_watch(id: u64) -> String {
        let mut out = Vec::new();
        failapi::watch::run(&small_watch(), &mut out).expect("local watch");
        wire::encode_ok(id, "watch", false, &String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn panicking_query_answers_with_an_error_and_keeps_the_worker() {
        let (tx, rx) = mpsc::channel();
        let server = thread::spawn(move || {
            crate::serve(
                ServerConfig {
                    endpoint: Endpoint::tcp("127.0.0.1:0"),
                    max_inflight: 1,
                },
                move |bound| tx.send(bound.clone()).expect("report bound endpoint"),
            )
        });
        let endpoint = rx.recv().expect("server binds");
        let Endpoint::Tcp(addr) = &endpoint else {
            panic!("expected a tcp endpoint, got {endpoint}");
        };

        // Pipeline the panicking query, a pooled query, and an inline
        // one on one connection: each gets its answer, in order.
        let mut stream = TcpStream::connect(addr).expect("connects");
        // A stalled connection fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("sets a deadline");
        let pipelined = [
            wire::encode_watch(1, &WatchRequest::new(PANIC_SOURCE)),
            wire::encode_watch(2, &small_watch()),
            wire::encode_simple(3, "ping"),
        ];
        stream
            .write_all(format!("{}\n", pipelined.join("\n")).as_bytes())
            .expect("sends");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut next_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("reads");
            line.trim_end().to_string()
        };
        let panicked = next_line();
        let err = wire::parse_response(&panicked).expect_err("an error envelope");
        assert_eq!(err.to_string(), "query panicked: injected fault");
        assert!(panicked.contains(r#""id":1"#), "{panicked}");
        assert_eq!(next_line(), expected_watch(2));
        assert_eq!(next_line(), wire::encode_ok(3, "ping", false, "pong\n"));

        // The single worker survived: another connection is served.
        let mut other = Connection::connect(&endpoint).expect("connects");
        let answer = other
            .roundtrip(&wire::encode_watch(4, &small_watch()))
            .expect("answered");
        assert_eq!(
            wire::encode_ok(4, "watch", false, &answer.output),
            expected_watch(4)
        );
        let metrics = other
            .roundtrip(&wire::encode_simple(5, "metrics"))
            .expect("metrics");
        assert!(
            metrics
                .output
                .contains(r#""stage":"server.worker_panics","value":1}"#),
            "{}",
            metrics.output
        );
        other
            .roundtrip(&wire::encode_simple(6, "shutdown"))
            .expect("shuts down");
        drop(stream);
        server.join().expect("server thread").expect("serves");
    }

    #[test]
    fn failed_accepts_back_off_instead_of_spinning() {
        const BUDGET: usize = 1_000_000;
        let faults = Arc::new(AtomicUsize::new(BUDGET));
        let (tx, rx) = mpsc::channel();
        let server = thread::spawn({
            let faults = Arc::clone(&faults);
            move || {
                ACCEPT_FAULTS.set(Some(faults));
                crate::serve(
                    ServerConfig {
                        endpoint: Endpoint::tcp("127.0.0.1:0"),
                        max_inflight: 1,
                    },
                    move |bound| tx.send(bound.clone()).expect("report bound endpoint"),
                )
            }
        });
        let endpoint = rx.recv().expect("server binds");
        let Endpoint::Tcp(addr) = &endpoint else {
            panic!("expected a tcp endpoint, got {endpoint}");
        };

        // The connection queues in the backlog; every accept of it
        // fails while the budget lasts.
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("sets a deadline");
        thread::sleep(Duration::from_millis(200));
        let attempts = BUDGET - faults.swap(0, Ordering::SeqCst);
        // One attempt when the client arrives, then one per 100 ms
        // back-off; a spinning loop makes tens of thousands.
        assert!(
            (1..=5).contains(&attempts),
            "{attempts} accept attempts in 200 ms"
        );

        // Descriptors are back: the queued client is served normally.
        stream
            .write_all(format!("{}\n", wire::encode_simple(1, "ping")).as_bytes())
            .expect("sends");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        assert_eq!(line.trim_end(), wire::encode_ok(1, "ping", false, "pong\n"));

        let mut client = Connection::connect(&endpoint).expect("connects");
        let metrics = client
            .roundtrip(&wire::encode_simple(2, "metrics"))
            .expect("metrics");
        let counter = format!(r#""stage":"server.accept_errors","value":{attempts}}}"#);
        assert!(metrics.output.contains(&counter), "{}", metrics.output);
        client
            .roundtrip(&wire::encode_simple(3, "shutdown"))
            .expect("shuts down");
        drop((stream, reader));
        server.join().expect("server thread").expect("serves");
    }
}
