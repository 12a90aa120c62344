//! The failscope benchmark harness.
//!
//! ```text
//! perfbench --failctl PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//!
//! * `cli-year` — closed loop, one `failctl` child at a time, over the
//!   ~110k-record scaled year: cold, gzip and warm reports, and a watch
//!   replay.
//! * `faild-small` — open loop against a `failctl serve` child over the
//!   canonical tsubame2/tsubame3 logs; every request is a render-cache
//!   hit after warm-up.
//! * `faild-year` — open loop against a `failctl serve` child: repeated
//!   hits on the year, unique filtered misses on it, and queries on a
//!   second log that grows while the run reads it.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! per-layer suite with spans on and prints the per-layer metrics, the
//! named gaps, the reconciliation residuals and the tracing overhead.
//! The last line of stdout is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod cli_year;
mod faild;
mod inputs;
mod layers;
mod proc;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// First few failure descriptions, printed to stderr.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records one failed operation that was already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub failctl: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 3] = ["cli-year", "faild-small", "faild-year"];

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<String, String> {
        let at = raw
            .iter()
            .position(|a| a == &format!("--{name}"))
            .ok_or_else(|| format!("missing --{name}"))?;
        raw.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("--{name} needs a value"))
    };
    let workload = flag("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = flag("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match flag("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let failctl = PathBuf::from(flag("failctl")?);
    if !failctl.is_file() {
        return Err(format!("failctl binary not found at {}", failctl.display()));
    }
    Ok(Args {
        failctl,
        workload,
        seed: flag("seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_string())?,
        run: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Cores, compiler and seed: printed with every result.
fn host_descriptor(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    failtypes::JsonValue::object()
        .field("cores", cores)
        .field("rustc", rustc)
        .field("seed", args.seed)
        .field("workload", args.workload.as_str())
        .field("seconds", args.run.as_secs_f64())
        .field("trace", args.trace)
        .build()
        .render()
}

fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

/// Full-precision JSON number (non-finite values become 0 and are
/// flagged as failures by the caller).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# host {}", host_descriptor(&args));
    let work = inputs::WorkDir::create(&args);
    let work = match work {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.trace {
        layers::run(&args, &work)
    } else {
        match args.workload.as_str() {
            "cli-year" => cli_year::run(&args, &work),
            "faild-small" => faild::run(&args, &work, faild::Mix::Small),
            _ => faild::run(&args, &work, faild::Mix::Year),
        }
    };
    work.finish();
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bad: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in bad {
        outcome.attempted += 1;
        outcome.fail(format!("metric {name} is not a finite number"));
    }
    for e in &outcome.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
