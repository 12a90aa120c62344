//! `faild-small` and `faild-year`: open-loop load on a seeded schedule
//! against a real `failctl serve --socket` child.
//!
//! One process generates the load with two threads (a sender that writes
//! each request when it falls due, and a receiver that reads and checks
//! responses) over two connections. Latency is counted from each
//! request's due time. The measured run holds the mix's reference rate;
//! the traced run also climbs a ladder of higher fixed rates for the
//! highest rate the daemon sustains.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use failapi::{wire, OutputFormat, QueryEngine, QueryRequest, QuerySource};
use failindex::IndexMode;
use failserver::client::Connection;
use failserver::Endpoint;

use crate::inputs::{self, WorkDir};
use crate::proc::Rng;
use crate::stats::{
    backlog_growing, median, outstanding_at_dues, percentile_sorted, Tail, Timeline,
};
use crate::{Args, Outcome};

/// The nine analysis sections (everything but `metrics`), as in
/// `repro bench`.
pub const ANALYSIS_SECTIONS: &str =
    "header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal";

/// How many daemons set-up starts, warms and stops; `setup_s` is the
/// median of their CPU times.
pub const SETUP_REPS: usize = 11;

/// A request unanswered this long after the rung's last send has failed.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Small,
    Year,
}

/// Rates and the latency limit of one mix.
///
/// No measured request rates for a failure-analysis daemon exist to
/// copy, so the reference rates are assumptions: each is at most a
/// quarter of the highest ladder rate the mix held on a two-vCPU host,
/// low enough that latency measures service rather than queueing.
pub struct Profile {
    /// Reference rate (requests/s).
    pub reference: f64,
    /// Ladder rates for the highest sustained rate, ascending.
    pub ladder: &'static [f64],
    /// The tail-latency limit a ladder rung must meet. It sits far above
    /// the tails host noise causes, so a rung fails on saturation.
    pub limit_ms: f64,
}

impl Mix {
    pub fn profile(self) -> Profile {
        match self {
            Mix::Small => Profile {
                reference: 800.0,
                ladder: &[800.0, 1600.0, 3200.0, 6400.0, 12800.0],
                limit_ms: 200.0,
            },
            Mix::Year => Profile {
                reference: 12.0,
                ladder: &[16.0, 24.0, 32.0, 48.0, 64.0, 96.0],
                limit_ms: 500.0,
            },
        }
    }
}

/// How a response is checked.
#[derive(Debug, Clone)]
pub enum Check {
    /// Must equal these bytes (a fresh local engine's output).
    Fixed(String),
    /// A unique filtered miss on the year: checked after the run against
    /// a fresh local engine.
    Miss,
    /// A query on the growing log: must equal a fresh local engine's
    /// output on one of the log states that existed between send and
    /// receipt.
    Grow,
}

/// One request kind of a mix.
pub struct Kind {
    pub name: &'static str,
    pub req: QueryRequest,
    /// Copies of this kind in each shuffled deck the schedule deals
    /// from, so every run holds the same proportions.
    pub copies: usize,
    pub check: Check,
}

/// The growing second log: the tsubame3 log's header plus a prefix of
/// its rows, extended by atomic replace on a fixed period.
pub struct Grow {
    pub path: String,
    header: String,
    rows: Vec<String>,
    first: usize,
    step: usize,
    pub period: Duration,
    /// The last state published; the file holds it or its predecessor
    /// while a replace is in flight.
    pub state: Arc<AtomicU64>,
}

impl Grow {
    pub fn new(work: &WorkDir, seed: u64, steps: usize, period: Duration) -> Result<Grow, String> {
        let text =
            faillog::to_string(&inputs::model_log("tsubame3", seed)?).map_err(|e| e.to_string())?;
        let mut header = String::new();
        let mut rows = Vec::new();
        for line in text.lines() {
            if rows.is_empty() && (line.starts_with('#') || line.starts_with("id,")) {
                header.push_str(line);
                header.push('\n');
            } else {
                rows.push(format!("{line}\n"));
            }
        }
        let first = rows.len() * 2 / 5;
        let step = ((rows.len() - first) / steps.max(1)).max(1);
        Ok(Grow {
            path: work.file("grow.fslog"),
            header,
            rows,
            first,
            step,
            period,
            state: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The log text at `state`.
    pub fn text(&self, state: u64) -> String {
        let n = (self.first + state as usize * self.step).min(self.rows.len());
        let mut s = self.header.clone();
        for r in &self.rows[..n] {
            s.push_str(r);
        }
        s
    }

    /// Resets the file to state 0 and drops its snapshot.
    pub fn reset(&self) -> Result<(), String> {
        let _ = std::fs::remove_file(failindex::snapshot_path(&self.path));
        self.state.store(0, Ordering::SeqCst);
        self.replace(0)
    }

    /// Publishes the next state, then atomically replaces the file.
    pub fn advance(&self) -> Result<(), String> {
        let next = self.state.load(Ordering::SeqCst) + 1;
        self.state.store(next, Ordering::SeqCst);
        self.replace(next)
    }

    fn replace(&self, state: u64) -> Result<(), String> {
        let tmp = format!("{}.tmp", self.path);
        std::fs::write(&tmp, self.text(state)).map_err(|e| format!("writing {tmp}: {e}"))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| format!("replacing {}: {e}", self.path))
    }
}

/// The inputs and request kinds of one mix.
pub struct Scene {
    pub mix: Mix,
    pub kinds: Vec<Kind>,
    pub grow: Option<Grow>,
    /// What set-up asks each daemon, in order.
    pub warmup: Vec<Warm>,
}

/// One set-up request and the bytes its answer must equal.
pub struct Warm {
    pub kind: usize,
    pub req: QueryRequest,
    pub want: String,
}

fn expected(req: &QueryRequest) -> Result<String, String> {
    QueryEngine::new()
        .execute(req)
        .map(|o| o.output)
        .map_err(|e| e.to_string())
}

fn fixed(name: &'static str, req: QueryRequest, copies: usize) -> Result<Kind, String> {
    let out = expected(&req)?;
    Ok(Kind {
        name,
        req,
        copies,
        check: Check::Fixed(out),
    })
}

impl Scene {
    /// Writes the mix's inputs and computes the expected bytes of every
    /// fixed request. `run` sizes the growing log's schedule.
    pub fn build(mix: Mix, work: &WorkDir, seed: u64, run: Duration) -> Result<Scene, String> {
        let mut scene = match mix {
            Mix::Small => {
                let t2 = work.file("tsubame2.fslog");
                let t3 = work.file("tsubame3.fslog");
                inputs::save(&t2, &inputs::model_log("tsubame2", seed)?)?;
                inputs::save(&t3, &inputs::model_log("tsubame3", seed)?)?;
                let kinds = vec![
                    fixed(
                        "t2_text",
                        QueryRequest::report(QuerySource::file(&t2)).sections(ANALYSIS_SECTIONS),
                        1,
                    )?,
                    fixed(
                        "t3_json",
                        QueryRequest::report(QuerySource::file(&t3))
                            .sections(ANALYSIS_SECTIONS)
                            .format(OutputFormat::Json),
                        1,
                    )?,
                    fixed(
                        "t2_filtered",
                        QueryRequest::report(QuerySource::file(&t2))
                            .sections("tbf,ttr")
                            .where_expr("category == gpu && ttr > 24"),
                        1,
                    )?,
                    fixed("compare", QueryRequest::compare(&t2, &t3), 1)?,
                    fixed(
                        "model_t2",
                        QueryRequest::report(QuerySource::model("tsubame2", seed)),
                        1,
                    )?,
                ];
                Scene {
                    mix,
                    kinds,
                    grow: None,
                    warmup: Vec::new(),
                }
            }
            Mix::Year => {
                let (year, log) = inputs::write_year(work, seed)?;
                failindex::save(
                    failindex::snapshot_path(&year),
                    &failscope::LogView::new(&log),
                    failindex::SourceInfo::of_bytes(
                        &std::fs::read(&year).map_err(|e| e.to_string())?,
                    ),
                )
                .map_err(|e| e.to_string())?;
                drop(log);
                let period = Duration::from_millis(500);
                let steps = (run.as_secs_f64() / period.as_secs_f64()).ceil() as usize + 8;
                let grow = Grow::new(work, seed, steps, period)?;
                grow.reset()?;
                let year_req = |format, index| {
                    QueryRequest::report(QuerySource::file(&year))
                        .format(format)
                        .index(index)
                };
                // The three kinds of request weigh the same: a third
                // hits (the four variants equally), a third misses, a
                // third queries on the growing log. No measured mix
                // exists to copy; equal shares favour no layer.
                let mut kinds = vec![
                    fixed(
                        "year_text_off",
                        year_req(OutputFormat::Text, IndexMode::Off),
                        1,
                    )?,
                    fixed(
                        "year_json_off",
                        year_req(OutputFormat::Json, IndexMode::Off),
                        1,
                    )?,
                    fixed(
                        "year_text_auto",
                        year_req(OutputFormat::Text, IndexMode::Auto),
                        1,
                    )?,
                    fixed(
                        "year_json_auto",
                        year_req(OutputFormat::Json, IndexMode::Auto),
                        1,
                    )?,
                ];
                kinds.push(Kind {
                    name: "year_miss",
                    req: year_req(OutputFormat::Text, IndexMode::Auto),
                    copies: 4,
                    check: Check::Miss,
                });
                kinds.push(Kind {
                    name: "grow",
                    req: QueryRequest::report(QuerySource::file(&grow.path))
                        .sections(ANALYSIS_SECTIONS)
                        .index(IndexMode::Auto),
                    copies: 4,
                    check: Check::Grow,
                });
                Scene {
                    mix,
                    kinds,
                    grow: Some(grow),
                    warmup: Vec::new(),
                }
            }
        };
        scene.warmup = scene.warmup_requests()?;
        Ok(scene)
    }

    /// Every kind of the mix once, in mix order, so the measured phase
    /// starts warm: the repeating requests as the mix sends them, and
    /// one miss with a threshold the schedule never draws.
    fn warmup_requests(&self) -> Result<Vec<Warm>, String> {
        self.kinds
            .iter()
            .enumerate()
            .map(|(kind, k)| {
                let (req, want) = match &k.check {
                    Check::Fixed(want) => (k.req.clone(), want.clone()),
                    Check::Miss => {
                        let req = k.req.clone().where_expr("ttr > 0.5");
                        let want = expected(&req)?;
                        (req, want)
                    }
                    Check::Grow => (k.req.clone(), expected_grow(self, 0)?),
                };
                Ok(Warm { kind, req, want })
            })
            .collect()
    }
}

/// A running `failctl serve` child.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub endpoint: Endpoint,
}

impl Daemon {
    /// Starts the daemon and waits for its ready line.
    pub fn spawn(args: &Args, socket: &str) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let mut child = Command::new(&args.failctl)
            .args(["serve", "--socket", socket])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning faild: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the ready line: {e}"))?;
        if !line.contains("\"ready\":true") {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("faild did not report ready: {line:?}"));
        }
        Ok(Daemon {
            child,
            stdout,
            endpoint: Endpoint::unix(socket),
        })
    }

    /// CPU seconds the daemon has used so far.
    pub fn cpu_s(&self) -> Option<f64> {
        crate::proc::process_cpu_s(self.child.id())
    }

    /// Raw counters from the daemon's `metrics` command.
    pub fn counters(&self) -> Result<HashMap<String, u64>, String> {
        let resp =
            failserver::client::roundtrip(&self.endpoint, &wire::encode_simple(0, "metrics"))
                .map_err(|e| e.to_string())?;
        let mut out = HashMap::new();
        for line in resp.output.lines() {
            let Ok(doc) = failtypes::JsonValue::parse(line) else {
                continue;
            };
            if doc.get("kind").and_then(|k| k.as_str()) == Some("counter") {
                if let (Some(stage), Some(v)) = (
                    doc.get("stage").and_then(|s| s.as_str()),
                    doc.get("value").and_then(|v| v.as_i64()),
                ) {
                    out.insert(stage.to_string(), v as u64);
                }
            }
        }
        Ok(out)
    }

    /// Sends `shutdown`, waits for a clean exit and returns the CPU
    /// seconds and the peak resident set (MiB) of the daemon's whole life
    /// (from `wait4`).
    pub fn shutdown(mut self) -> Result<(f64, f64), String> {
        let sent =
            failserver::client::roundtrip(&self.endpoint, &wire::encode_simple(0, "shutdown"));
        if sent.is_err() {
            let _ = self.child.kill();
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        // Reaped here rather than by `Child::wait`, which reports no
        // resource usage; `Drop` then finds no child left to kill.
        let (exited_zero, cpu_s, peak_rss_mb) =
            crate::proc::reap(self.child.id()).map_err(|e| format!("waiting for faild: {e}"))?;
        match (sent, exited_zero) {
            (Ok(_), true) => Ok((cpu_s, peak_rss_mb)),
            (Err(e), _) => Err(format!("faild shutdown failed: {e}")),
            (Ok(_), false) => Err("faild exited with a non-zero status".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Starts a daemon and asks it the scene's set-up requests, checking the
/// bytes. Returns the daemon and spawn-to-last-answer seconds.
pub fn start_warm(
    args: &Args,
    scene: &Scene,
    socket: &str,
    out: &mut Outcome,
) -> Result<(Daemon, f64), String> {
    if let Some(g) = &scene.grow {
        g.reset()?;
    }
    let start = Instant::now();
    let daemon = Daemon::spawn(args, socket)?;
    let mut conn = Connection::connect(&daemon.endpoint).map_err(|e| e.to_string())?;
    for (n, w) in scene.warmup.iter().enumerate() {
        let name = scene.kinds[w.kind].name;
        match conn.roundtrip(&wire::encode_query(n as u64, &w.req)) {
            Ok(r) => out.check(r.output == w.want, || {
                format!("set-up {name}: response differs from the local engine")
            }),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up {name}: {e}"));
            }
        }
    }
    Ok((daemon, start.elapsed().as_secs_f64()))
}

/// A fresh local engine's output for the growing log at `state`, read
/// from a private copy so the daemon's snapshot is never touched.
pub fn expected_grow(scene: &Scene, state: u64) -> Result<String, String> {
    let grow = scene.grow.as_ref().expect("grow kinds need a growing log");
    let copy = format!("{}.state{state}", grow.path);
    std::fs::write(&copy, grow.text(state)).map_err(|e| e.to_string())?;
    let kind = scene
        .kinds
        .iter()
        .find(|k| matches!(k.check, Check::Grow))
        .expect("mix has a grow kind");
    let mut req = kind.req.clone();
    req.cmd = failapi::QueryCmd::Report(QuerySource::file(&copy));
    req.opts.index = Some(IndexMode::Off);
    let res = expected(&req);
    let _ = std::fs::remove_file(&copy);
    res
}

/// One scheduled request.
struct Planned {
    due: Duration,
    kind: usize,
    line: String,
    /// The request itself, for misses checked after the run.
    req: Option<QueryRequest>,
}

/// What the receiver saw for one request.
#[derive(Default, Clone)]
struct Seen {
    recv: Option<Duration>,
    state_at_recv: u64,
    /// `Some(true)` checked equal, `Some(false)` differs, `None` not
    /// checked yet (the output is kept for the deferred check).
    verdict: Option<bool>,
    output: Option<String>,
    error: Option<String>,
}

/// One rung's measurements.
pub struct Rung {
    /// The instant due and receipt times count from.
    pub origin: Instant,
    pub duration: Duration,
    pub timelines: Vec<Timeline>,
    pub kinds: Vec<usize>,
    pub ok: Vec<bool>,
    pub failed: u64,
}

impl Rung {
    /// Latencies (ms) of every request; failed requests are excluded
    /// here and counted as missing the limit by [`Rung::passes`].
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.timelines
            .iter()
            .zip(&self.ok)
            .filter(|(_, ok)| **ok)
            .filter_map(|(t, _)| t.latency())
            .map(|d| d.as_secs_f64() * 1e3)
            .collect()
    }

    pub fn tail(&self) -> Tail {
        Tail::of(&self.latencies_ms())
    }

    /// Whether the rung met the limit with no failures and no growing
    /// backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.tail().tail <= limit_ms
            && !backlog_growing(&outstanding_at_dues(&self.timelines))
    }

    /// Requests answered correctly per second of schedule.
    pub fn throughput(&self) -> f64 {
        self.ok.iter().filter(|o| **o).count() as f64 / self.duration.as_secs_f64()
    }

    pub fn late_ms(&self) -> Vec<f64> {
        self.timelines
            .iter()
            .map(|t| t.late().as_secs_f64() * 1e3)
            .collect()
    }
}

/// The load generator: two connections, one sender (this thread) and
/// one receiver thread per rung.
pub struct Generator {
    conns: [UnixStream; 2],
    rng: Rng,
    next_id: u64,
    miss_seq: u64,
}

impl Generator {
    pub fn connect(daemon: &Daemon, seed: u64) -> Result<Generator, String> {
        let socket = match &daemon.endpoint {
            Endpoint::Unix(p) => p.clone(),
            other => return Err(format!("unexpected endpoint {other}")),
        };
        let conn = || UnixStream::connect(&socket).map_err(|e| format!("connecting to faild: {e}"));
        Ok(Generator {
            conns: [conn()?, conn()?],
            rng: Rng::new(seed, 0xFA11D),
            next_id: 1,
            miss_seq: 0,
        })
    }

    fn plan(&mut self, scene: &Scene, rate: f64, duration: Duration) -> Vec<Planned> {
        let mut deck: Vec<usize> = (0..scene.kinds.len())
            .flat_map(|k| std::iter::repeat_n(k, scene.kinds[k].copies))
            .collect();
        let mut dealt = deck.len();
        let mut plan = Vec::new();
        let mut t = 0.0;
        loop {
            t += self.rng.exp(rate);
            if t >= duration.as_secs_f64() {
                break;
            }
            if dealt == deck.len() {
                self.rng.shuffle(&mut deck);
                dealt = 0;
            }
            let kind = deck[dealt];
            dealt += 1;
            let id = self.next_id;
            self.next_id += 1;
            let (line, req) = match scene.kinds[kind].check {
                Check::Miss => {
                    // A threshold no earlier request used: a guaranteed
                    // render-cache miss on the year.
                    self.miss_seq += 1;
                    let threshold = 1.0 + self.rng.unit() * 300.0;
                    let req = scene.kinds[kind]
                        .req
                        .clone()
                        .where_expr(format!("ttr > {threshold:.3}{:07}", self.miss_seq));
                    (wire::encode_query(id, &req) + "\n", Some(req))
                }
                _ => (wire::encode_query(id, &scene.kinds[kind].req) + "\n", None),
            };
            plan.push(Planned {
                due: Duration::from_secs_f64(t),
                kind,
                line,
                req,
            });
        }
        plan
    }

    /// Runs one rung at `rate` for `duration`, checking every response.
    pub fn rung(
        &mut self,
        scene: &Scene,
        rate: f64,
        duration: Duration,
        out: &mut Outcome,
    ) -> Result<Rung, String> {
        let plan = self.plan(scene, rate, duration);
        let n = plan.len();
        let first_id = self.next_id - n as u64;
        let fixed: Arc<Vec<Option<String>>> = Arc::new(
            plan.iter()
                .map(|p| match &scene.kinds[p.kind].check {
                    Check::Fixed(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
        );
        let done = Arc::new(AtomicBool::new(false));
        let state = scene
            .grow
            .as_ref()
            .map_or_else(|| Arc::new(AtomicU64::new(0)), |g| Arc::clone(&g.state));
        let readers = [
            self.conns[0].try_clone().map_err(|e| e.to_string())?,
            self.conns[1].try_clone().map_err(|e| e.to_string())?,
        ];
        let origin = Instant::now();
        let receiver = {
            let (fixed, done, state) = (Arc::clone(&fixed), Arc::clone(&done), Arc::clone(&state));
            thread::spawn(move || receive(readers, n, first_id, &fixed, &done, &state, origin))
        };
        let mut sent = Vec::with_capacity(n);
        let mut state_at_send = Vec::with_capacity(n);
        let mut next_growth = scene.grow.as_ref().map(|g| g.period);
        let mut send_err = None;
        for (i, p) in plan.iter().enumerate() {
            loop {
                let now = origin.elapsed();
                let next = next_growth.map_or(p.due, |g| g.min(p.due));
                if now < next {
                    thread::sleep(next - now);
                    continue;
                }
                match (next_growth, &scene.grow) {
                    (Some(g), Some(grow)) if g <= now && g <= p.due => {
                        grow.advance()?;
                        next_growth = Some(g + grow.period);
                    }
                    _ => break,
                }
            }
            state_at_send.push(state.load(Ordering::SeqCst));
            let conn = &mut self.conns[i % 2];
            if let Err(e) = conn.write_all(p.line.as_bytes()) {
                send_err = Some(format!("sending request: {e}"));
                break;
            }
            sent.push(origin.elapsed());
        }
        done.store(true, Ordering::SeqCst);
        let seen = receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string())?;
        if let Some(e) = send_err {
            return Err(e);
        }
        // Deferred checks: misses and the growing log.
        let mut grow_cache: HashMap<u64, Result<String, String>> = HashMap::new();
        let mut ok = Vec::with_capacity(n);
        let mut failed = 0;
        for (i, (p, s)) in plan.iter().zip(&seen).enumerate() {
            let name = scene.kinds[p.kind].name;
            let verdict = match (&s.error, s.verdict, &s.output) {
                (Some(e), _, _) => Err(format!("{name}: {e}")),
                (None, Some(v), _) => v
                    .then_some(())
                    .ok_or_else(|| format!("{name}: response differs from the local engine")),
                (None, None, Some(output)) => {
                    match &scene.kinds[p.kind].check {
                        Check::Miss => {
                            let req = p.req.as_ref().expect("misses keep their request");
                            (expected(req)? == *output).then_some(()).ok_or_else(|| {
                                format!("{name}: response differs from the local engine")
                            })
                        }
                        _ => {
                            let lo = state_at_send[i].saturating_sub(1);
                            let mut matched = false;
                            for st in lo..=s.state_at_recv {
                                let want = grow_cache
                                    .entry(st)
                                    .or_insert_with(|| expected_grow(scene, st));
                                if want.as_ref().map_err(Clone::clone)? == output {
                                    matched = true;
                                    break;
                                }
                            }
                            matched
                            .then_some(())
                            .ok_or_else(|| format!("{name}: response matches no log state between send and receipt"))
                        }
                    }
                }
                (None, None, None) => Err(format!("{name}: no response within the drain deadline")),
            };
            out.attempted += 1;
            match verdict {
                Ok(()) => ok.push(true),
                Err(e) => {
                    out.fail(e);
                    failed += 1;
                    ok.push(false);
                }
            }
        }
        let timelines = plan
            .iter()
            .zip(&sent)
            .zip(&seen)
            .map(|((p, &sent), s)| Timeline {
                due: p.due,
                sent,
                recv: s.recv,
            })
            .collect();
        Ok(Rung {
            origin,
            duration,
            timelines,
            kinds: plan.iter().map(|p| p.kind).collect(),
            ok,
            failed,
        })
    }
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
}

/// Waits up to `timeout_ms` for either stream to become readable;
/// returns which are.
fn wait_readable(streams: &[UnixStream; 2], timeout_ms: i32) -> [bool; 2] {
    let mut fds = [
        PollFd {
            fd: streams[0].as_raw_fd(),
            events: POLLIN,
            revents: 0,
        },
        PollFd {
            fd: streams[1].as_raw_fd(),
            events: POLLIN,
            revents: 0,
        },
    ];
    // SAFETY: `fds` is a live, properly aligned array of two `pollfd`
    // structs whose length is passed as `nfds`; both descriptors are
    // owned by `streams` and stay open for the duration of the call.
    let n = unsafe { poll(fds.as_mut_ptr(), 2, timeout_ms) };
    if n <= 0 {
        return [false, false];
    }
    [fds[0].revents != 0, fds[1].revents != 0]
}

/// Reads responses from both connections until all `n` have arrived or
/// the sender is done and [`DRAIN_DEADLINE`] has passed without them.
fn receive(
    mut streams: [UnixStream; 2],
    n: usize,
    first_id: u64,
    fixed: &[Option<String>],
    done: &AtomicBool,
    state: &AtomicU64,
    origin: Instant,
) -> Vec<Seen> {
    let mut seen = vec![Seen::default(); n];
    let mut bufs: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
    let mut chunk = vec![0u8; 1 << 16];
    let mut received = 0;
    let mut done_at: Option<Instant> = None;
    while received < n {
        if done_at.is_none() && done.load(Ordering::SeqCst) {
            done_at = Some(Instant::now());
        }
        if done_at.is_some_and(|t| t.elapsed() > DRAIN_DEADLINE) {
            break;
        }
        let ready = wait_readable(&streams, 50);
        for c in 0..2 {
            if !ready[c] {
                continue;
            }
            let got = match streams[c].read(&mut chunk) {
                Ok(0) | Err(_) => return seen,
                Ok(k) => k,
            };
            let now = origin.elapsed();
            let at = state.load(Ordering::SeqCst);
            bufs[c].extend_from_slice(&chunk[..got]);
            while let Some(pos) = bufs[c].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = bufs[c].drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                let (idx, entry) = match wire::parse_response(&text) {
                    Ok(resp) => {
                        let Some(idx) = resp
                            .id
                            .checked_sub(first_id)
                            .map(|i| i as usize)
                            .filter(|&i| i < n)
                        else {
                            continue;
                        };
                        let entry = match &fixed[idx] {
                            Some(want) => Seen {
                                verdict: Some(*want == resp.output),
                                ..Seen::default()
                            },
                            None => Seen {
                                output: Some(resp.output),
                                ..Seen::default()
                            },
                        };
                        (idx, entry)
                    }
                    Err(e) => {
                        // Error envelopes carry no output; recover the id
                        // from the raw line.
                        let id = failtypes::JsonValue::parse(&text)
                            .ok()
                            .and_then(|d| d.get("id").and_then(|v| v.as_i64()))
                            .unwrap_or(-1);
                        let Some(idx) = u64::try_from(id)
                            .ok()
                            .and_then(|id| id.checked_sub(first_id))
                            .map(|i| i as usize)
                            .filter(|&i| i < n)
                        else {
                            continue;
                        };
                        (
                            idx,
                            Seen {
                                error: Some(e.to_string()),
                                ..Seen::default()
                            },
                        )
                    }
                };
                if seen[idx].recv.is_none() {
                    received += 1;
                }
                seen[idx] = Seen {
                    recv: Some(now),
                    state_at_recv: at,
                    ..entry
                };
            }
        }
    }
    seen
}

/// The socket a run's daemon listens on: relative to the checkout, so
/// the path stays short.
pub fn socket_path(tag: &str, seed: u64) -> String {
    format!(
        "{}/{tag}-{seed}-{}.sock",
        inputs::WORK_ROOT,
        std::process::id()
    )
}

pub fn run(args: &Args, work: &WorkDir, mix: Mix) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scene = Scene::build(mix, work, args.seed, args.run)?;
    let socket = socket_path(&args.workload, args.seed);
    let setup = measure_setup(args, &scene, &socket, &mut out)?;
    println!(
        "# setup: daemon CPU median {:.4} s, wall median {:.4} s, peak RSS median {:.1} MiB over {SETUP_REPS} daemons",
        setup.cpu_s, setup.wall_s, setup.peak_rss_mb
    );
    out.metric("setup_s", setup.cpu_s, "s");
    let (daemon, _) = start_warm(args, &scene, &socket, &mut out)?;
    let measured = Generator::connect(&daemon, args.seed)
        .and_then(|mut gen| reference(&scene, &daemon, &mut gen, args.run, &mut out));
    let stopped = daemon.shutdown();
    let cpu_ms = measured?;
    let (_, rss) = stopped?;
    println!("# measured daemon: peak RSS {rss:.1} MiB after the reference rate");
    out.metric("cpu_ms_per_op", cpu_ms, "ms");
    out.metric("peak_rss_mb", setup.peak_rss_mb, "MiB");
    Ok(out)
}

/// Medians over [`SETUP_REPS`] daemon lives.
pub struct Setup {
    /// Daemon CPU seconds from spawn through warm-up to exit.
    pub cpu_s: f64,
    /// Wall seconds from spawn to the last warm-up answer.
    pub wall_s: f64,
    /// The daemon's peak resident set, MiB.
    pub peak_rss_mb: f64,
}

/// Starts [`SETUP_REPS`] daemons, warms each and stops it.
pub fn measure_setup(
    args: &Args,
    scene: &Scene,
    socket: &str,
    out: &mut Outcome,
) -> Result<Setup, String> {
    let (mut cpu, mut wall, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (d, t) = start_warm(args, scene, socket, out)?;
        wall.push(t);
        let (c, r) = d.shutdown()?;
        cpu.push(c);
        rss.push(r);
    }
    let ms: Vec<String> = cpu.iter().map(|c| format!("{:.1}", c * 1e3)).collect();
    println!("# setup: daemon CPU per life {} ms", ms.join(" "));
    Ok(Setup {
        cpu_s: median(&cpu),
        wall_s: median(&wall),
        peak_rss_mb: median(&rss),
    })
}

/// Consecutive windows the reference rate is held for; `cpu_ms_per_op`
/// is the median of their CPU per query, so a burst of host contention
/// in one window does not move it.
pub const WINDOWS: u32 = 5;

/// Runs the mix at its reference rate for `duration`, in [`WINDOWS`]
/// rungs, and prints the per-kind and generator figures. Returns the
/// daemon's median CPU milliseconds per correctly answered query.
pub fn reference(
    scene: &Scene,
    daemon: &Daemon,
    gen: &mut Generator,
    duration: Duration,
    out: &mut Outcome,
) -> Result<f64, String> {
    let rate = scene.mix.profile().reference;
    let (mut rungs, mut per_query, mut cpu_total) = (Vec::new(), Vec::new(), 0.0);
    for _ in 0..WINDOWS {
        let before = daemon.cpu_s().ok_or("daemon CPU time unavailable")?;
        let rung = gen.rung(scene, rate, duration / WINDOWS, out)?;
        let cpu = daemon.cpu_s().ok_or("daemon CPU time unavailable")? - before;
        let ok = rung.ok.iter().filter(|o| **o).count();
        per_query.push(cpu / ok.max(1) as f64 * 1e3);
        cpu_total += cpu;
        rungs.push(rung);
    }
    let mut lat: Vec<f64> = rungs.iter().flat_map(Rung::latencies_ms).collect();
    lat.sort_by(f64::total_cmp);
    let t = Tail::of(&lat);
    let late = Tail::of(&rungs.iter().flat_map(Rung::late_ms).collect::<Vec<_>>());
    let windows: Vec<String> = per_query.iter().map(|c| format!("{c:.4}")).collect();
    println!(
        "# reference {rate:.0}/s: p10 {:.3} ms, p25 {:.3} ms, p50 {:.3} ms, {} {:.3} ms; generator late {} {:.3} ms; daemon CPU {cpu_total:.3} s, per query by window {} ms",
        percentile_sorted(&lat, 10.0),
        percentile_sorted(&lat, 25.0),
        t.p50,
        t.label(),
        t.tail,
        late.label(),
        late.tail,
        windows.join(" ")
    );
    for (k, kind) in scene.kinds.iter().enumerate() {
        let lat: Vec<f64> = rungs
            .iter()
            .flat_map(|r| r.timelines.iter().zip(&r.kinds))
            .filter(|(_, &kk)| kk == k)
            .filter_map(|(t, _)| t.latency())
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let t = Tail::of(&lat);
        println!(
            "#   {}: p50 {:.3} ms, {} {:.3} ms",
            kind.name,
            t.p50,
            t.label(),
            t.tail
        );
    }
    Ok(median(&per_query))
}

/// Climbs the mix's rate ladder, `rung_time` per rung, until a rung
/// misses the tail limit, fails a request or grows a backlog. Returns
/// the throughput of the highest rung that held (0 when none did).
pub fn ladder(
    scene: &Scene,
    gen: &mut Generator,
    rung_time: Duration,
    out: &mut Outcome,
) -> Result<f64, String> {
    let profile = scene.mix.profile();
    let mut max_qps = 0.0;
    for &rate in profile.ladder {
        let rung = gen.rung(scene, rate, rung_time, out)?;
        let t = rung.tail();
        let backlog = backlog_growing(&outstanding_at_dues(&rung.timelines));
        let pass = rung.passes(profile.limit_ms);
        println!(
            "# rung {rate:.0}/s: p50 {:.3} ms, {} {:.3} ms (limit {} ms), backlog {}, throughput {:.1}/s, {}",
            t.p50,
            t.label(),
            t.tail,
            profile.limit_ms,
            if backlog { "growing" } else { "steady" },
            rung.throughput(),
            if pass { "pass" } else { "fail" }
        );
        if !pass {
            break;
        }
        max_qps = rung.throughput();
    }
    Ok(max_qps)
}
