//! The streaming watch runner, extracted from the CLI so bounded watch
//! queries can be served by `faild` as well as run interactively.
//!
//! A [`WatchRequest`] deliberately keeps most values as the **raw
//! strings** they arrived as (flag values or wire fields): watch's
//! flag-combination diagnostics quote the offending value verbatim
//! (`--accel 3 only applies to sim: sources ...`), and keeping the raw
//! form in the request is what lets the CLI and the server reject bad
//! requests with identical messages.

use std::io;

use failindex::IndexMode;
use failsim::{ReplayClock, SystemModel};
use failtrace::Collector;
use failtypes::{Error, Result};
use failwatch::{
    Baseline, DriftConfig, DriftDetector, EventSource, SimSource, StateConfig, TailSource,
    WatchConfig,
};

use crate::engine::{compile_filter, model_by_name};
use crate::request::{parse_chunk_bytes, parse_threads, OutputFormat};

/// A watch query: stream a log file or a simulated replay through the
/// online monitor. See the module docs for why most fields are raw
/// strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchRequest {
    /// The stream source: a log file path or `sim:MODEL`.
    pub source: String,
    /// Keep tailing the file after EOF (file sources only).
    pub follow: bool,
    /// Raw `--accel` value: sim hours per wall second, or `max`.
    pub accel: Option<String>,
    /// Raw `--seed` value (sim sources only).
    pub seed: Option<String>,
    /// Raw `--inject-mttr` factor (sim sources only).
    pub inject_mttr: Option<String>,
    /// Raw `--baseline` model name, or `none`.
    pub baseline: Option<String>,
    /// Raw `--window` size for the online state.
    pub window: Option<String>,
    /// Raw `--refresh` record period for summaries.
    pub refresh: Option<String>,
    /// Raw `--chunk` ingest chunk size in records.
    pub chunk: Option<String>,
    /// Raw `--max-records` stop bound.
    pub max_records: Option<String>,
    /// Raw `--max-idle` poll bound.
    pub max_idle: Option<String>,
    /// Raw `--threads` value: validated, but without effect on watch
    /// (summaries render on the loop thread).
    pub threads: Option<String>,
    /// Raw `--where` filter expression scoping the monitor.
    pub where_expr: Option<String>,
    /// Raw `--parse-chunk` read-buffer size (file sources only).
    pub parse_chunk: Option<String>,
    /// Raw `--sections` summary selection.
    pub sections: Option<String>,
    /// Output format (json = pure NDJSON stream).
    pub format: OutputFormat,
    /// Explicit `.fsidx` policy: `auto` persists the accumulated index
    /// on clean shutdown (file sources only). `None` = flag absent.
    pub index: Option<IndexMode>,
}

impl WatchRequest {
    /// A watch over `source` with every option defaulted.
    pub fn new(source: impl Into<String>) -> Self {
        WatchRequest {
            source: source.into(),
            ..WatchRequest::default()
        }
    }
}

/// Runs a watch to completion, streaming alerts and summaries to `out`
/// as they happen. Returns the run's trace collector (for `--trace`
/// exports and server metrics).
///
/// # Errors
///
/// Propagates flag validation, source, and stream errors with the same
/// messages the CLI `watch` command always produced.
pub fn run(req: &WatchRequest, out: &mut dyn io::Write) -> Result<Collector> {
    let source_arg = req.source.as_str();
    let filter = compile_filter(req.where_expr.as_deref(), None, None)?;
    let persist_index = match req.index.unwrap_or(IndexMode::Off) {
        IndexMode::Off => false,
        IndexMode::Auto => true,
        IndexMode::Require => {
            return Err(Error::args(
                "watch supports --index auto or off (snapshots are written, never read)",
            ))
        }
    };
    if persist_index {
        if let Some(expr) = &req.where_expr {
            // Snapshots must cover the whole log; a watch scoped by a
            // predicate accumulates filtered state that must never be
            // persisted as an index.
            return Err(Error::args(format!(
                "--index auto cannot persist an index scoped by `--where {expr}`; drop one of the two flags"
            )));
        }
    }

    let mut source: Box<dyn EventSource> = if let Some(name) = source_arg.strip_prefix("sim:") {
        let clock = match req.accel.as_deref().unwrap_or("max") {
            "max" => ReplayClock::unpaced(),
            raw => {
                let rate: f64 = raw.parse().map_err(|_| {
                    Error::args(format!(
                        "invalid --accel value `{raw}` (sim hours per wall second, or `max`)"
                    ))
                })?;
                ReplayClock::new(rate)
            }
        };
        if let Some(bytes) = &req.parse_chunk {
            return Err(Error::args(format!(
                "--parse-chunk {bytes} only applies to file sources (sim:{name} is generated in-process)"
            )));
        }
        if let Some(mode) = req.index {
            return Err(Error::args(format!(
                "--index {mode} only applies to file sources (sim:{name} has no log to snapshot)"
            )));
        }
        let seed = parse_raw_flag(&req.seed, "seed", 42u64)?;
        let mut src = SimSource::new(model_by_name(name)?, seed, clock)?;
        if let Some(raw) = &req.inject_mttr {
            let factor: f64 = raw
                .parse()
                .map_err(|_| Error::args(format!("invalid --inject-mttr value `{raw}`")))?;
            if !(factor.is_finite() && factor > 0.0) {
                return Err(Error::args("--inject-mttr must be positive"));
            }
            // The canonical regression scenario: repairs slow down by
            // `factor` halfway through the replay.
            src = src.with_mttr_injection(factor, 0.5);
        }
        Box::new(src)
    } else {
        for (flag, value) in [
            ("accel", &req.accel),
            ("seed", &req.seed),
            ("inject-mttr", &req.inject_mttr),
        ] {
            if let Some(value) = value {
                return Err(Error::args(format!(
                    "--{flag} {value} only applies to sim: sources (`{source_arg}` is a file)"
                )));
            }
        }
        let capacity = match &req.parse_chunk {
            Some(_) => Some(parse_chunk_bytes(req.parse_chunk.as_deref())?),
            None => None,
        };
        Box::new(TailSource::open_with_capacity(
            source_arg, req.follow, capacity,
        )?)
    };

    let baseline = match req.baseline.as_deref() {
        Some("none") => None,
        Some(name) => Some(Baseline::from_model(model_by_name(name)?, 1)?),
        // Default: the calibrated model matching the stream's system
        // generation, so drift means "unlike the paper's machine".
        None => Some(Baseline::from_model(
            SystemModel::for_generation(source.generation()),
            1,
        )?),
    };
    let detector = baseline.map(|b| DriftDetector::new(b, DriftConfig::default()));

    let trace = Collector::new();
    let state = StateConfig::builder()
        .window(parse_raw_flag(
            &req.window,
            "window",
            StateConfig::default().window,
        )?)
        .build()?;
    let mut builder = WatchConfig::builder()
        .state(state)
        .refresh_every(parse_raw_flag(&req.refresh, "refresh", 100)?)
        .ingest_chunk(parse_raw_flag(
            &req.chunk,
            "chunk",
            WatchConfig::default().ingest_chunk,
        )?)
        .json_summaries(req.format == OutputFormat::Json)
        .trace(trace.clone());
    // `--threads` is parsed and validated as it always was, but has no
    // effect on watch: summaries render in order on the loop thread.
    let threads = parse_threads(req.threads.as_deref())?;
    if let Some(pred) = filter {
        builder = builder.filter(pred);
    }
    if let Some(raw) = &req.max_idle {
        let polls: u64 = raw
            .parse()
            .map_err(|_| Error::args(format!("invalid --max-idle value `{raw}`")))?;
        builder = builder.max_idle_polls(polls);
    }
    if let Some(raw) = &req.max_records {
        let records: usize = raw
            .parse()
            .map_err(|_| Error::args(format!("invalid --max-records value `{raw}`")))?;
        builder = builder.max_records(records);
    }
    if let Some(spec) = &req.sections {
        builder = builder.summary_sections(failwatch::select_watch_sections(spec)?);
    }
    let config = builder.build()?;
    if threads == 0 {
        return Err(Error::config(
            "watch loop",
            "summary rendering needs at least 1 worker thread",
        ));
    }
    if req.format == OutputFormat::Json {
        // The stream's schema header: versions every NDJSON line that
        // follows (summary sections and alerts).
        writeln!(out, "{{\"v\":1,\"kind\":\"watch\"}}")
            .map_err(|e| Error::io("writing watch stream", e))?;
    }
    let outcome = failwatch::run(source.as_mut(), detector, &config, out)?;
    // Clean shutdown: persist the accumulated index so a later
    // `report --index auto` on the same log starts warm. The source's
    // progress fingerprint covers exactly the bytes whose records the
    // state ingested, so a bounded run (--max-records) snapshots a
    // valid prefix of the file.
    if persist_index {
        if let Some((log_path, progress)) = source.snapshot_target() {
            let source_info = failindex::SourceInfo {
                bytes: progress.bytes,
                crc32: progress.crc32,
                lines: progress.lines,
            };
            failindex::save_traced(
                failindex::snapshot_path(&log_path),
                outcome.state.view(),
                source_info,
                Some(&trace),
            )
            .ok();
        }
    }
    Ok(trace)
}

/// Parses an optional raw flag value with the canonical
/// `invalid value ... for --flag` message.
fn parse_raw_flag<T: std::str::FromStr>(
    raw: &Option<String>,
    flag: &str,
    default: T,
) -> Result<T> {
    match raw {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| Error::args(format!("invalid value `{raw}` for --{flag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_watch_streams_and_versions_json() {
        let mut req = WatchRequest::new("sim:tsubame3");
        req.max_records = Some("50".to_string());
        req.format = OutputFormat::Json;
        let mut buf = Vec::new();
        run(&req, &mut buf).expect("watches");
        let text = String::from_utf8(buf).expect("utf8");
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("{\"v\":1,\"kind\":\"watch\"}"));
        assert!(text.lines().all(|l| l.starts_with('{')), "{text}");
    }

    #[test]
    fn threads_are_validated_but_do_not_change_the_stream() {
        let run_with = |threads: &str, format: OutputFormat| {
            let mut req = WatchRequest::new("sim:tsubame3");
            req.threads = Some(threads.to_string());
            req.refresh = Some("40".to_string());
            req.format = format;
            let mut buf = Vec::new();
            run(&req, &mut buf).map(|_| buf)
        };
        for format in [OutputFormat::Text, OutputFormat::Json] {
            let one = run_with("1", format).expect("watches");
            assert_eq!(one, run_with("4", format).expect("watches"));
            assert!(one.len() > 1000, "the run prints summaries");
        }
        let err = run_with("0", OutputFormat::Text).unwrap_err().to_string();
        assert!(err.contains("at least 1 worker thread"), "{err}");
        let err = run_with("many", OutputFormat::Text)
            .unwrap_err()
            .to_string();
        assert_eq!(err, "invalid value `many` for --threads");
    }

    #[test]
    fn rejections_quote_the_raw_values() {
        let mut req = WatchRequest::new("sim:tsubame3");
        req.parse_chunk = Some("512".to_string());
        let err = run(&req, &mut Vec::new()).unwrap_err().to_string();
        assert!(err.contains("--parse-chunk 512"), "{err}");
        let mut req = WatchRequest::new("sim:tsubame3");
        req.index = Some(IndexMode::Off);
        let err = run(&req, &mut Vec::new()).unwrap_err().to_string();
        assert!(err.contains("--index off"), "{err}");
        let mut req = WatchRequest::new("some-file.fslog");
        req.accel = Some("3".to_string());
        let err = run(&req, &mut Vec::new()).unwrap_err().to_string();
        assert!(
            err.contains("--accel 3") && err.contains("some-file.fslog"),
            "{err}"
        );
        let mut req = WatchRequest::new("sim:tsubame3");
        req.index = Some(IndexMode::Require);
        let err = run(&req, &mut Vec::new()).unwrap_err().to_string();
        assert!(err.contains("watch supports --index auto or off"), "{err}");
    }
}
