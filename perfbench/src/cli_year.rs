//! `cli-year`: what an analyst runs, as child processes, one at a time
//! (closed loop). Four commands over the scaled year load every analysis
//! layer at scale: read, inflate, parse, view build, the ten sections,
//! snapshot decode, and the watch loop.

use std::process::Command;
use std::time::{Duration, Instant};

use failapi::{QueryEngine, QueryRequest, QuerySource, WatchRequest};
use failindex::IndexMode;

use crate::inputs::{self, WorkDir};
use crate::proc::{run_captured, Captured};
use crate::stats::{median, Tail};
use crate::{Args, Outcome};

/// How many times set-up (`failctl index build`) runs; the median of its
/// CPU times is `setup_s`.
pub const SETUP_REPS: usize = 11;

/// A child that takes longer than this is killed and counts as failed.
pub const CHILD_DEADLINE: Duration = Duration::from_secs(60);

/// The scaled year on disk, plain and gzip, with its record count.
pub struct Year {
    pub plain: String,
    pub gz: String,
    pub records: usize,
}

impl Year {
    pub fn write(work: &WorkDir, seed: u64) -> Result<Year, String> {
        let (plain, log) = inputs::write_year(work, seed)?;
        let gz = work.file("year.fslog.gz");
        inputs::save(&gz, &log)?;
        Ok(Year {
            plain,
            gz,
            records: log.len(),
        })
    }
}

/// The four measured commands, in loop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    Cold,
    Gz,
    Warm,
    Watch,
}

pub const CMDS: [Cmd; 4] = [Cmd::Cold, Cmd::Gz, Cmd::Warm, Cmd::Watch];

impl Cmd {
    pub fn metric(self) -> &'static str {
        match self {
            Cmd::Cold => "report_cold_s",
            Cmd::Gz => "report_gz_s",
            Cmd::Warm => "report_warm_s",
            Cmd::Watch => "watch_replay_s",
        }
    }

    pub fn argv(self, year: &Year) -> Vec<String> {
        let v: Vec<&str> = match self {
            Cmd::Cold => vec!["report", &year.plain, "--index", "off"],
            Cmd::Gz => vec!["report", &year.gz],
            Cmd::Warm => vec!["report", &year.plain, "--index", "require"],
            Cmd::Watch => vec!["watch", &year.plain],
        };
        v.into_iter().map(String::from).collect()
    }

    /// The same request executed in this process by a fresh engine (or
    /// the watch runner): the bytes the child must print.
    pub fn expected(self, year: &Year) -> Result<Vec<u8>, String> {
        let report = |path: &str, index: Option<IndexMode>| -> Result<Vec<u8>, String> {
            let mut req = QueryRequest::report(QuerySource::file(path));
            if let Some(mode) = index {
                req = req.index(mode);
            }
            QueryEngine::new()
                .execute(&req)
                .map(|o| o.output.into_bytes())
                .map_err(|e| e.to_string())
        };
        match self {
            Cmd::Cold => report(&year.plain, Some(IndexMode::Off)),
            Cmd::Gz => report(&year.gz, None),
            Cmd::Warm => report(&year.plain, Some(IndexMode::Require)),
            Cmd::Watch => {
                let mut out = Vec::new();
                failapi::watch::run(&WatchRequest::new(year.plain.as_str()), &mut out)
                    .map_err(|e| e.to_string())?;
                Ok(out)
            }
        }
    }
}

/// Runs `failctl ARGV` to completion.
pub fn failctl(args: &Args, argv: &[String]) -> Result<Captured, String> {
    run_captured(Command::new(&args.failctl).args(argv), CHILD_DEADLINE)
        .map_err(|e| format!("spawning failctl: {e}"))
}

/// Checks a child's stdout against `expected`, counting one operation.
pub fn check_child(out: &mut Outcome, what: &str, got: &Captured, expected: &[u8]) {
    out.check(got.ok && got.stdout == expected, || {
        if got.ok {
            format!(
                "{what}: stdout differs from the in-process result ({} vs {} bytes)",
                got.stdout.len(),
                expected.len()
            )
        } else {
            format!("{what}: failed or timed out: {}", got.stderr.trim())
        }
    });
}

/// `failctl index build YEAR`, `SETUP_REPS` times; returns the median
/// CPU time of the child (from `wait4`). Each run must report the year's
/// record count and leave an exact snapshot.
pub fn index_build(args: &Args, year: &Year, out: &mut Outcome) -> Result<f64, String> {
    let argv: Vec<String> = ["index", "build", &year.plain].map(String::from).to_vec();
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let got = failctl(args, &argv)?;
        let spath = failindex::snapshot_path(&year.plain);
        let bytes = std::fs::metadata(&spath).map(|m| m.len()).unwrap_or(0);
        let expected = format!(
            "indexed {} records -> {} ({bytes} bytes)\n",
            year.records,
            spath.display()
        );
        let exact = matches!(
            failindex::probe(&year.plain),
            Ok(failindex::Freshness::Exact)
        );
        check_child(out, "index build", &got, expected.as_bytes());
        out.check(exact, || "index build left no exact snapshot".to_string());
        cpu.push(got.cpu_s);
        wall.push(got.wall.as_secs_f64());
    }
    println!(
        "# setup: index build CPU median {:.4} s, wall median {:.4} s over {SETUP_REPS} runs",
        median(&cpu),
        median(&wall)
    );
    Ok(median(&cpu))
}

/// One analyst session: the four commands in turn.
pub struct Session {
    /// Wall seconds of each command, in [`CMDS`] order.
    pub walls: [f64; 4],
    /// CPU seconds of the four children together.
    pub cpu_s: f64,
    /// The largest peak resident set among them, MiB.
    pub peak_rss_mb: f64,
}

impl Session {
    pub fn wall(&self) -> f64 {
        self.walls.iter().sum()
    }
}

/// Runs sessions until `budget` has passed (at least one), checking every
/// output.
pub fn sessions(
    args: &Args,
    year: &Year,
    budget: Duration,
    out: &mut Outcome,
) -> Result<Vec<Session>, String> {
    let expected: Vec<Vec<u8>> = CMDS
        .iter()
        .map(|c| c.expected(year))
        .collect::<Result<_, _>>()?;
    let argvs: Vec<Vec<String>> = CMDS.iter().map(|c| c.argv(year)).collect();
    let mut done = Vec::new();
    let start = Instant::now();
    while done.is_empty() || start.elapsed() < budget {
        let mut session = Session {
            walls: [0.0; 4],
            cpu_s: 0.0,
            peak_rss_mb: 0.0,
        };
        for (i, cmd) in CMDS.iter().enumerate() {
            let got = failctl(args, &argvs[i])?;
            check_child(out, cmd.metric(), &got, &expected[i]);
            session.walls[i] = got.wall.as_secs_f64();
            session.cpu_s += got.cpu_s;
            session.peak_rss_mb = session.peak_rss_mb.max(got.peak_rss_mb);
        }
        done.push(session);
    }
    Ok(done)
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let year = Year::write(work, args.seed)?;
    let setup = index_build(args, &year, &mut out)?;
    out.metric("setup_s", setup, "s");
    let sessions = sessions(args, &year, args.run, &mut out)?;
    for (i, cmd) in CMDS.iter().enumerate() {
        let walls: Vec<f64> = sessions.iter().map(|s| s.walls[i]).collect();
        println!(
            "# {}: median {:.4} s over {} runs",
            cmd.metric(),
            median(&walls),
            walls.len()
        );
    }
    let walls: Vec<f64> = sessions.iter().map(Session::wall).collect();
    let cpu: Vec<f64> = sessions.iter().map(|s| s.cpu_s).collect();
    let tail = Tail::of(&walls);
    println!(
        "# session: median {:.4} s, {} {:.4} s",
        tail.p50,
        tail.label(),
        tail.tail
    );
    out.metric("cpu_ms_per_op", median(&cpu) * 1e3, "ms");
    let rss: Vec<f64> = sessions.iter().map(|s| s.peak_rss_mb).collect();
    out.metric("peak_rss_mb", median(&rss), "MiB");
    Ok(out)
}
