//! The traced run: times the calls into each layer from outside, with
//! spans, reconciles the layer times against the workload's end-to-end
//! figures, and measures what tracing itself costs.
//!
//! Every traced run reports the same per-layer metrics, whatever the
//! workload; the workload decides which end-to-end figures are
//! reconciled, which loop the tracing overhead is measured on, and what
//! `bench.latency_ms`, `bench.tail_ms` and `bench.max_rate_per_s`
//! describe.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use failapi::{wire, OutputFormat, QueryEngine, QueryRequest, QuerySource, WatchRequest};
use failindex::{IndexMode, IndexedLoad, SourceInfo};
use failscope::{LogView, SectionCtx, StreamView, SECTIONS};
use failserver::client::Connection;
use failtrace::Collector;
use failwatch::{
    Baseline, DriftConfig, DriftDetector, EventSource, StateConfig, TailSource, WatchConfig,
};

use crate::cli_year::{self, Cmd, Year, CMDS};
use crate::faild::{self, Check, Daemon, Mix, Scene, ANALYSIS_SECTIONS};
use crate::inputs::{self, WorkDir};
use crate::spans::{self_cpu, self_seconds_by_name, self_times, Recorder};
use crate::stats::{median, Tail};
use crate::{Args, Outcome};

/// Repetitions of each fast layer call; metrics are medians.
pub const REPS: usize = 5;

/// Untraced/traced rung pairs in a faild workload's traced pass.
const PAIRS: usize = 4;

/// Repetitions of the watch replay and of each `failctl` command.
pub const SLOW_REPS: usize = 3;

/// The filter pushed into the parser and applied to views.
pub const FILTER: &str = "ttr > 24";

/// Records dropped from the year's end to make a prefix snapshot for the
/// extension measurement.
const EXTEND_TAIL: usize = 1000;

fn e<E: std::fmt::Display>(err: E) -> String {
    err.to_string()
}

/// Spans of the layer suite plus the request counter.
struct Suite<'a> {
    rec: &'a Recorder,
    next: u64,
}

impl Suite<'_> {
    /// Runs `f` in a span under a fresh request id.
    fn call<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.next += 1;
        self.rec.span(name, self.next, f)
    }
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rec = Recorder::new();
    let mut suite = Suite { rec: &rec, next: 0 };

    let year = Year::write(work, args.seed)?;
    let t2 = work.file("tsubame2.fslog");
    inputs::save(&t2, &inputs::model_log("tsubame2", args.seed)?)?;
    layer_suite(&mut suite, work, &year, &t2, &mut out)?;
    let (summaries, alerts) = watch_suite(&mut suite, &year, &mut out)?;
    let counts = daemon_suite(&mut suite, args, &year, &t2, &mut out)?;
    let child_cpu = cli_suite(&mut suite, args, &year, &mut out)?;

    // The workload's own loop, untraced and traced, for the overhead
    // and the end-to-end figures to reconcile.
    let budget = args.run.mul_f64(0.15);
    let e2e = match args.workload.as_str() {
        "cli-year" => cli_e2e(&mut suite, args, &year, budget, &mut out)?,
        "faild-small" => faild_e2e(&mut suite, args, work, Mix::Small, budget, &mut out)?,
        // The year mix runs at a few requests per second: twice the
        // time gives its rungs enough requests for a median each.
        _ => faild_e2e(&mut suite, args, work, Mix::Year, budget * 2, &mut out)?,
    };

    let spans = rec.spans();
    let t = Times {
        wall: self_seconds_by_name(&spans, &self_times(&spans)),
        cpu: self_seconds_by_name(&spans, &self_cpu(&spans)),
    };
    let layer: BTreeMap<&str, f64> = LAYER_SPANS.iter().map(|&n| (n, t.wall(n))).collect();
    let gaps = Gaps {
        process: layer["failctl.report_cold_s"] - layer["failapi.execute_cold_s"],
        process_cpu: child_cpu["report_cold_s"] - t.cpu("failapi.execute_cold_s"),
        wire_small: t.wall("failapi.wire_small"),
        transport: layer["failserver.roundtrip_hit_small_s"]
            - layer["failapi.execute_hit_small_s"]
            - t.wall("failapi.wire_small"),
    };

    let targets = targets()?;
    println!("# per-layer medians (self time over {REPS} calls; {SLOW_REPS} for watch runs and failctl commands) -> target (metric@workload):");
    for (name, v) in &layer {
        println!(
            "#   {name:<40} {:>10.3} ms -> {}",
            v * 1e3,
            targets.get(*name).map_or("?", String::as_str)
        );
    }
    println!("# named gaps:");
    println!(
        "#   failctl.process_gap_s = failctl.report_cold {:.3} ms - execute_cold {:.3} ms = {:.3} ms (CPU: child {:.3} ms - in process {:.3} ms = {:.3} ms)",
        layer["failctl.report_cold_s"] * 1e3,
        layer["failapi.execute_cold_s"] * 1e3,
        gaps.process * 1e3,
        child_cpu["report_cold_s"] * 1e3,
        t.cpu("failapi.execute_cold_s") * 1e3,
        gaps.process_cpu * 1e3
    );
    println!(
        "#   failserver.transport_gap_s = roundtrip_hit_small {:.3} ms - execute_hit_small {:.3} ms - small wire {:.3} ms = {:.3} ms",
        layer["failserver.roundtrip_hit_small_s"] * 1e3,
        layer["failapi.execute_hit_small_s"] * 1e3,
        gaps.wire_small * 1e3,
        gaps.transport * 1e3
    );
    println!("#   bench.gen_late_ms = {:.3} ms", e2e.gen_late_ms);
    println!(
        "#   bench.trace_overhead_frac = {:.4} (traced / untraced {})",
        e2e.overhead, e2e.overhead_of
    );
    let residual = reconcile(&args.workload, &t, &e2e, &gaps);

    for (name, v) in &layer {
        out.metric(*name, *v, "s");
    }
    out.metric(
        "failapi.cache_hit_ratio",
        counts.cache_hits as f64 / counts.cache_lookups.max(1) as f64,
        "ratio",
    );
    out.metric(
        "failapi.cache_lookups",
        counts.cache_lookups as f64,
        "count",
    );
    out.metric(
        "failapi.log_cache_hit_ratio",
        counts.log_hits as f64 / counts.log_lookups.max(1) as f64,
        "ratio",
    );
    out.metric(
        "failapi.log_cache_lookups",
        counts.log_lookups as f64,
        "count",
    );
    out.metric("failwatch.summaries", summaries as f64, "count");
    out.metric("failwatch.alerts", alerts as f64, "count");
    out.metric("failctl.process_gap_s", gaps.process, "s");
    out.metric("failserver.transport_gap_s", gaps.transport, "s");
    out.metric("bench.gen_late_ms", e2e.gen_late_ms, "ms");
    out.metric("bench.trace_overhead_frac", e2e.overhead, "ratio");
    out.metric("bench.residual_s", residual, "s");
    out.metric("bench.tail_ms", e2e.tail_ms, "ms");
    out.metric("bench.max_rate_per_s", e2e.max_rate, "1/s");
    out.metric("bench.latency_ms", e2e.latency_ms, "ms");
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    out.check(
        names.len() == targets.len() && names.iter().all(|n| targets.contains_key(*n)),
        || "per-layer metrics and targets.json disagree".to_string(),
    );

    let spans_path = work
        .results
        .join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
    std::fs::write(&spans_path, rec.to_ndjson())
        .map_err(|err| format!("writing {}: {err}", spans_path.display()))?;
    println!(
        "# {} spans written to {}",
        spans.len(),
        spans_path.display()
    );
    Ok(out)
}

/// Span self times and self CPU times by name, in seconds.
struct Times {
    wall: BTreeMap<String, Vec<f64>>,
    cpu: BTreeMap<String, Vec<f64>>,
}

impl Times {
    /// Median self time of the spans named `name`.
    fn wall(&self, name: &str) -> f64 {
        self.wall.get(name).map_or(f64::NAN, |v| median(v))
    }

    /// Median self CPU time of the spans named `name`.
    fn cpu(&self, name: &str) -> f64 {
        self.cpu.get(name).map_or(f64::NAN, |v| median(v))
    }

    /// Mean self time (or CPU time) of the spans named `name`: the mix
    /// helpers are averaged, as the mean latency they explain is.
    fn mean(map: &BTreeMap<String, Vec<f64>>, name: &str) -> f64 {
        map.get(name)
            .map_or(f64::NAN, |v| v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// The named gaps, in seconds.
struct Gaps {
    /// `failctl report` process wall time minus the same query executed
    /// in process: spawn, dynamic loading, output and exit.
    process: f64,
    /// The same difference in CPU time: the child's CPU (from `wait4`)
    /// minus the in-process call's.
    process_cpu: f64,
    /// Encode and parse of the small hit's request and response.
    wire_small: f64,
    /// A small round trip minus its execute and wire time: socket,
    /// reactor and worker hand-off.
    transport: f64,
}

/// Each per-layer metric's target: the end-to-end metrics and workloads
/// it should move, as `metric@workload` lists keyed by metric name.
pub fn targets() -> Result<BTreeMap<String, String>, String> {
    let doc = failtypes::JsonValue::parse(include_str!("../targets.json")).map_err(e)?;
    let mut out = BTreeMap::new();
    for (name, pairs) in doc.as_object().ok_or("targets.json is not an object")? {
        let list: Vec<String> = pairs
            .as_array()
            .ok_or("a target list is not an array")?
            .iter()
            .map(|p| match p.as_array() {
                Some([m, w]) => Ok(format!(
                    "{}@{}",
                    m.as_str().unwrap_or("?"),
                    w.as_str().unwrap_or("?")
                )),
                _ => Err(format!("{name}: a target is not a [metric, workload] pair")),
            })
            .collect::<Result<_, _>>()?;
        let list = if list.is_empty() {
            "(harness health)".to_string()
        } else {
            list.join(", ")
        };
        if out.insert(name.clone(), list).is_some() {
            return Err(format!("{name} appears twice in targets.json"));
        }
    }
    Ok(out)
}

/// Span names reported as per-layer metrics (self time, seconds).
const LAYER_SPANS: &[&str] = &[
    "faillog.read_s",
    "faillog.inflate_s",
    "faillog.parse_s",
    "faillog.parse_filtered_s",
    "failscope.logview_build_s",
    "failscope.streamview_build_s",
    "failscope.section.header_s",
    "failscope.section.categories_s",
    "failscope.section.spatial_s",
    "failscope.section.involvement_s",
    "failscope.section.tbf_s",
    "failscope.section.ttr_s",
    "failscope.section.availability_s",
    "failscope.section.survival_s",
    "failscope.section.seasonal_s",
    "failscope.section.metrics_s",
    "failscope.render_text_s",
    "failscope.render_json_s",
    "failindex.save_s",
    "failindex.open_exact_s",
    "failindex.probe_s",
    "failindex.open_extended_s",
    "failfilter.view_filter_s",
    "failapi.fingerprint_s",
    "failapi.execute_cold_s",
    "failapi.execute_hit_year_s",
    "failapi.execute_hit_small_s",
    "failapi.execute_miss_year_s",
    "failapi.wire_request_s",
    "failapi.wire_response_s",
    "failserver.ping_rtt_s",
    "failserver.roundtrip_hit_small_s",
    "failserver.roundtrip_hit_year_s",
    "failwatch.run_s",
    "failwatch.run_nosummary_s",
    "failwatch.render_summary_s",
    "failctl.report_cold_s",
    "failctl.report_gz_s",
    "failctl.report_warm_s",
    "failctl.watch_replay_s",
];

/// faillog, failscope, failindex, failfilter and failapi on the year.
fn layer_suite(
    s: &mut Suite,
    work: &WorkDir,
    year: &Year,
    t2: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let threads = failapi::parse_threads(None).map_err(e)?;
    let pred = failfilter::compile(FILTER).map_err(e)?;
    let gz_raw = std::fs::read(&year.gz).map_err(e)?;
    let (text, _) = faillog::read_input(&year.plain).map_err(e)?;
    let log = faillog::from_str_with(&text, &faillog::ParseOptions::default()).map_err(e)?;
    let source = SourceInfo::of_bytes(text.as_bytes());
    let all: Vec<&failscope::Section> = SECTIONS.iter().collect();

    // A prefix snapshot of the year, for the extension measurement: the
    // full year at its own path with a snapshot of all but its tail.
    let ext = work.file("extend.fslog");
    std::fs::write(&ext, &text).map_err(e)?;
    let prefix_snapshot = {
        let keep = log.len() - EXTEND_TAIL.min(log.len() / 2);
        let cut = text
            .match_indices('\n')
            .nth(keep + 6)
            .map_or(text.len(), |(i, _)| i + 1);
        let prefix =
            faillog::from_str_with(&text[..cut], &faillog::ParseOptions::default()).map_err(e)?;
        let tmp = work.file("prefix.fsidx");
        failindex::save(
            &tmp,
            &LogView::new(&prefix),
            SourceInfo::of_bytes(&text.as_bytes()[..cut]),
        )
        .map_err(e)?;
        std::fs::read(&tmp).map_err(e)?
    };

    let cold_req = QueryRequest::report(QuerySource::file(&year.plain)).index(IndexMode::Off);
    let small_req = QueryRequest::report(QuerySource::file(t2)).sections(ANALYSIS_SECTIONS);
    let json_req = QueryRequest::report(QuerySource::file(&year.plain))
        .format(OutputFormat::Json)
        .index(IndexMode::Off);
    let warm_engine = QueryEngine::new();
    let cold_expected = QueryEngine::new().execute(&cold_req).map_err(e)?.output;
    warm_engine.execute(&cold_req).map_err(e)?;
    warm_engine.execute(&small_req).map_err(e)?;
    let largest = warm_engine.execute(&json_req).map_err(e)?.output;
    let mut miss_seq = 0u64;

    for _ in 0..REPS {
        let (read, _) = s
            .call("faillog.read_s", || faillog::read_input(&year.plain))
            .map_err(e)?;
        out.check(read == text, || {
            "read_input returned different text".to_string()
        });
        let inflated = s
            .call("faillog.inflate_s", || faillog::gzip_decompress(&gz_raw))
            .map_err(e)?;
        out.check(inflated == text.as_bytes(), || {
            "gzip_decompress differs from the plain year".to_string()
        });
        let parsed = s
            .call("faillog.parse_s", || {
                faillog::from_str_with(&text, &faillog::ParseOptions::default())
            })
            .map_err(e)?;
        out.check(parsed == log, || "parse differs".to_string());
        let opts = faillog::ParseOptions::default().filter(pred.clone());
        let filtered = s
            .call("faillog.parse_filtered_s", || {
                faillog::from_str_with(&text, &opts)
            })
            .map_err(e)?;
        let (spec, window) = (log.spec().clone(), log.window());
        out.check(
            filtered == log.filtered(|r| pred.matches(r, &spec, window)),
            || "filtered parse differs from post-hoc filtering".to_string(),
        );

        let view = s.call("failscope.logview_build_s", || LogView::new(&log));
        let stream = s.call("failscope.streamview_build_s", || {
            let mut v = StreamView::for_log(&log);
            v.extend(log.iter().cloned()).map(|_| {
                v.materialize();
                v
            })
        });
        let stream = stream.map_err(e)?;
        let trace = Collector::new();
        let ctx = SectionCtx::with_trace(&view, &trace);
        let mut sections = String::new();
        for section in SECTIONS {
            let name = format!("failscope.section.{}_s", section.id);
            sections.push_str(&s.call(&name, || black_box((section.text)(&ctx))));
        }
        let text_out = s.call("failscope.render_text_s", || {
            failscope::render_text_sections(&all, &ctx, threads)
        });
        out.check(!text_out.is_empty() && !sections.is_empty(), || {
            "empty render".to_string()
        });
        black_box(s.call("failscope.render_json_s", || {
            failscope::render_json_sections(&all, &ctx, threads)
        }));

        let spath = failindex::snapshot_path(&year.plain);
        s.call("failindex.save_s", || {
            failindex::save(&spath, &view, source)
        })
        .map_err(e)?;
        let exact = s
            .call("failindex.open_exact_s", || {
                failindex::open_indexed(&year.plain, None)
            })
            .map_err(e)?;
        out.check(matches!(exact, IndexedLoad::Exact(_)), || {
            "open_indexed missed an exact snapshot".to_string()
        });
        let probe = s
            .call("failindex.probe_s", || failindex::probe(&year.plain))
            .map_err(e)?;
        out.check(probe == failindex::Freshness::Exact, || {
            format!("probe returned {probe:?}")
        });
        std::fs::write(failindex::snapshot_path(&ext), &prefix_snapshot).map_err(e)?;
        let extended = s
            .call("failindex.open_extended_s", || {
                failindex::open_indexed(&ext, None)
            })
            .map_err(e)?;
        out.check(matches!(extended, IndexedLoad::Extended { .. }), || {
            "open_indexed did not extend the prefix snapshot".to_string()
        });

        let kept = s.call("failfilter.view_filter_s", || {
            stream.filtered(|r| pred.matches(r, &spec, window))
        });
        out.check(kept.len() == filtered.len(), || {
            "filtered view and filtered parse disagree".to_string()
        });

        let info = s
            .call("failapi.fingerprint_s", || {
                std::fs::read(&year.plain).map(|raw| SourceInfo::of_bytes(&raw))
            })
            .map_err(e)?;
        out.check(info == source, || "fingerprint differs".to_string());
        let cold = s
            .call("failapi.execute_cold_s", || {
                QueryEngine::new().execute(&cold_req)
            })
            .map_err(e)?;
        out.check(cold.output == cold_expected, || {
            "cold execute differs".to_string()
        });
        let hit = s
            .call("failapi.execute_hit_year_s", || {
                warm_engine.execute(&cold_req)
            })
            .map_err(e)?;
        out.check(hit.cached && hit.output == cold_expected, || {
            "year hit missed or differs".to_string()
        });
        let hit = s
            .call("failapi.execute_hit_small_s", || {
                warm_engine.execute(&small_req)
            })
            .map_err(e)?;
        out.check(hit.cached, || "small hit missed".to_string());
        let small_out = hit.output;
        miss_seq += 1;
        let miss_req = QueryRequest::report(QuerySource::file(&year.plain))
            .index(IndexMode::Auto)
            .where_expr(format!("ttr > 24.{miss_seq:04}"));
        let miss = s
            .call("failapi.execute_miss_year_s", || {
                warm_engine.execute(&miss_req)
            })
            .map_err(e)?;
        let fresh = QueryEngine::new().execute(&miss_req).map_err(e)?;
        out.check(!miss.cached && miss.output == fresh.output, || {
            "year miss was cached or differs".to_string()
        });

        let line = s.call("failapi.wire_request_s", || {
            let line = wire::encode_query(7, &json_req);
            let _ = black_box(wire::parse_request(&line));
            line
        });
        out.check(matches!(wire::parse_request(&line), (7, Ok(_))), || {
            "request did not round-trip".to_string()
        });
        let resp = s
            .call("failapi.wire_response_s", || {
                wire::parse_response(&wire::encode_ok(7, "report", true, &largest))
            })
            .map_err(e)?;
        out.check(resp.output == largest, || {
            "response did not round-trip".to_string()
        });
        // The small hit's own wire cost, for the transport gap.
        let resp = s.call("failapi.wire_small", || {
            let _ = black_box(wire::parse_request(&wire::encode_query(8, &small_req)));
            wire::parse_response(&wire::encode_ok(8, "report", true, &small_out))
        });
        out.check(resp.is_ok_and(|r| r.output == small_out), || {
            "small response did not round-trip".to_string()
        });
    }
    Ok(())
}

/// Render- and log-cache counters read from the daemon.
struct Counts {
    cache_hits: u64,
    cache_lookups: u64,
    log_hits: u64,
    log_lookups: u64,
}

/// The watch runner on the year: as `failctl watch` runs it, with
/// periodic summaries off, and one summary render of the final state.
/// Returns the summaries and alerts the CLI's replay prints.
fn watch_suite(s: &mut Suite, year: &Year, out: &mut Outcome) -> Result<(u64, u64), String> {
    let expected = Cmd::Watch.expected(year)?;
    let mut quiet = WatchRequest::new(year.plain.as_str());
    quiet.refresh = Some("1000000000".to_string());
    let threads = failapi::parse_threads(None).map_err(e)?;
    for _ in 0..SLOW_REPS {
        let mut buf = Vec::new();
        s.call("failwatch.run_s", || {
            failapi::watch::run(&WatchRequest::new(year.plain.as_str()), &mut buf)
        })
        .map_err(e)?;
        out.check(buf == expected, || {
            "watch run differs from the reference run".to_string()
        });
        let mut sink = Vec::new();
        s.call("failwatch.run_nosummary_s", || {
            failapi::watch::run(&quiet, &mut sink)
        })
        .map_err(e)?;
    }
    // The final state, for the summary render.
    let mut source = TailSource::open_with_capacity(&year.plain, false, None).map_err(e)?;
    let baseline =
        Baseline::from_model(failsim::SystemModel::for_generation(source.generation()), 1)
            .map_err(e)?;
    let config = WatchConfig::builder()
        .state(StateConfig::default())
        .refresh_every(1_000_000_000)
        .build()
        .map_err(e)?;
    let outcome = failwatch::run(
        &mut source,
        Some(DriftDetector::new(baseline, DriftConfig::default())),
        &config,
        &mut Vec::new(),
    )
    .map_err(e)?;
    for _ in 0..REPS {
        black_box(s.call("failwatch.render_summary_s", || {
            failwatch::render_summary(&outcome.state, threads)
        }));
    }
    let text = String::from_utf8_lossy(&expected);
    let summaries = text
        .lines()
        .filter(|l| l.starts_with("# summary @"))
        .count();
    let alerts = text.lines().filter(|l| l.starts_with('{')).count();
    println!(
        "# watch: {} records, {summaries} summaries, {alerts} alerts",
        outcome.records
    );
    Ok((summaries as u64, alerts as u64))
}

/// faild round trips over one connection and the daemon's cache
/// counters.
fn daemon_suite(
    s: &mut Suite,
    args: &Args,
    year: &Year,
    t2: &str,
    out: &mut Outcome,
) -> Result<Counts, String> {
    let socket = faild::socket_path("layers", args.seed);
    let daemon = Daemon::spawn(args, &socket)?;
    let small_req = QueryRequest::report(QuerySource::file(t2)).sections(ANALYSIS_SECTIONS);
    let year_req = QueryRequest::report(QuerySource::file(&year.plain)).index(IndexMode::Off);
    let small_expected = QueryEngine::new().execute(&small_req).map_err(e)?.output;
    let year_expected = QueryEngine::new().execute(&year_req).map_err(e)?.output;
    let result = (|| -> Result<Counts, String> {
        let mut conn = Connection::connect(&daemon.endpoint).map_err(e)?;
        let mut id = 0u64;
        let mut trip = |conn: &mut Connection, req: Option<&QueryRequest>| {
            id += 1;
            let line = req.map_or_else(
                || wire::encode_simple(id, "ping"),
                |r| wire::encode_query(id, r),
            );
            conn.roundtrip(&line)
        };
        // The second year request renders other sections from the same
        // parsed log: a render-cache miss that the log cache answers.
        let year_sections = year_req.clone().sections("header,tbf");
        for req in [&small_req, &year_req, &year_sections] {
            trip(&mut conn, Some(req)).map_err(e)?;
        }
        for _ in 0..REPS * 4 {
            s.call("failserver.ping_rtt_s", || trip(&mut conn, None))
                .map_err(e)?;
            let r = s
                .call("failserver.roundtrip_hit_small_s", || {
                    trip(&mut conn, Some(&small_req))
                })
                .map_err(e)?;
            out.check(r.cached && r.output == small_expected, || {
                "small round trip missed or differs".to_string()
            });
        }
        for _ in 0..REPS {
            let r = s
                .call("failserver.roundtrip_hit_year_s", || {
                    trip(&mut conn, Some(&year_req))
                })
                .map_err(e)?;
            out.check(r.cached && r.output == year_expected, || {
                "year round trip missed or differs".to_string()
            });
        }
        let c = daemon.counters()?;
        let get = |k: &str| c.get(k).copied().unwrap_or(0);
        println!(
            "# faild counters: cache.hits {} cache.misses {} engine.log_cache.hit {} engine.log_cache.miss {}",
            get("cache.hits"),
            get("cache.misses"),
            get("engine.log_cache.hit"),
            get("engine.log_cache.miss")
        );
        Ok(Counts {
            cache_hits: get("cache.hits"),
            cache_lookups: get("cache.hits") + get("cache.misses"),
            log_hits: get("engine.log_cache.hit"),
            log_lookups: get("engine.log_cache.hit") + get("engine.log_cache.miss"),
        })
    })();
    let stopped = daemon.shutdown();
    let counts = result?;
    stopped?;
    Ok(counts)
}

/// Each `failctl` command of `cli-year`, timed as a whole process.
/// Returns each command's median child CPU seconds, by metric name.
fn cli_suite(
    s: &mut Suite,
    args: &Args,
    year: &Year,
    out: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut cpu = BTreeMap::new();
    for cmd in CMDS {
        let argv = cmd.argv(year);
        let expected = cmd.expected(year)?;
        let mut times = Vec::new();
        for _ in 0..SLOW_REPS {
            let got = s.call(&format!("failctl.{}", cmd.metric()), || {
                cli_year::failctl(args, &argv)
            })?;
            cli_year::check_child(out, cmd.metric(), &got, &expected);
            times.push(got.cpu_s);
        }
        cpu.insert(cmd.metric(), median(&times));
    }
    Ok(cpu)
}

/// The workload's end-to-end figures from the traced pass, and what
/// tracing cost.
struct E2e {
    /// Figures to reconcile, in seconds, by name.
    figures: BTreeMap<String, f64>,
    /// faild: each request kind's share of the traced requests and its
    /// mean latency in seconds.
    shares: Vec<(&'static str, f64, f64)>,
    /// faild: the kinds set-up asks the daemon, in order.
    setup_kinds: Vec<&'static str>,
    /// Median session or query latency.
    latency_ms: f64,
    gen_late_ms: f64,
    overhead: f64,
    /// What `overhead` compares.
    overhead_of: &'static str,
    tail_ms: f64,
    max_rate: f64,
}

/// Analyst sessions, alternating untraced and traced so both see the
/// same host conditions, after the set-up `index build` runs.
fn cli_e2e(
    s: &mut Suite,
    args: &Args,
    year: &Year,
    budget: Duration,
    out: &mut Outcome,
) -> Result<E2e, String> {
    let setup = cli_year::index_build(args, year, out)?;
    let expected: Vec<Vec<u8>> = CMDS
        .iter()
        .map(|c| c.expected(year))
        .collect::<Result<_, _>>()?;
    let argvs: Vec<Vec<String>> = CMDS.iter().map(|c| c.argv(year)).collect();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut session_cpu = Vec::new();
    let mut per_cmd: Vec<Vec<f64>> = vec![Vec::new(); CMDS.len()];
    // The closed loop's own lateness: from one child's end of output to
    // the next child's spawn (reaping and checking in between).
    let mut gaps_ms = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < budget * 2 {
        let mut session = 0.0;
        for (i, cmd) in CMDS.iter().enumerate() {
            let got = cli_year::failctl(args, &argvs[i])?;
            cli_year::check_child(out, cmd.metric(), &got, &expected[i]);
            session += got.wall.as_secs_f64();
        }
        plain.push(session);
        s.next += 1;
        let request = s.next;
        let (session, cpu) =
            s.rec
                .span("cli.session", request, || -> Result<(f64, f64), String> {
                    let (mut session, mut cpu) = (0.0, 0.0);
                    let mut last_end: Option<Instant> = None;
                    for (i, cmd) in CMDS.iter().enumerate() {
                        let spawned = Instant::now();
                        if let Some(end) = last_end {
                            gaps_ms
                                .push(spawned.saturating_duration_since(end).as_secs_f64() * 1e3);
                        }
                        let got = s.rec.span(&format!("cli.{}", cmd.metric()), request, || {
                            cli_year::failctl(args, &argvs[i])
                        })?;
                        last_end = Some(spawned + got.wall);
                        cli_year::check_child(out, cmd.metric(), &got, &expected[i]);
                        session += got.wall.as_secs_f64();
                        cpu += got.cpu_s;
                        per_cmd[i].push(got.wall.as_secs_f64());
                    }
                    Ok((session, cpu))
                })?;
        traced.push(session);
        session_cpu.push(cpu);
    }
    let mut figures: BTreeMap<String, f64> = CMDS
        .iter()
        .zip(&per_cmd)
        .map(|(c, t)| (c.metric().to_string(), median(t)))
        .collect();
    figures.insert("latency_s".to_string(), median(&traced));
    figures.insert("cpu_ms_per_op".to_string(), median(&session_cpu));
    figures.insert("setup_s".to_string(), setup);
    let tail = Tail::of(&traced);
    Ok(E2e {
        figures,
        shares: Vec::new(),
        setup_kinds: Vec::new(),
        latency_ms: median(&traced) * 1e3,
        gen_late_ms: Tail::of(&gaps_ms).tail,
        overhead: median(&traced) / median(&plain),
        overhead_of: "median session",
        tail_ms: tail.tail * 1e3,
        // A closed loop has no ladder: its highest rate is one session
        // after another, the reciprocal of the mean session time.
        max_rate: traced.len() as f64 / traced.iter().sum::<f64>(),
    })
}

/// Set-up measured as `faild-*` measures it, the mix's reference rung
/// untraced and traced, the mix replayed in process, then the rate
/// ladder.
fn faild_e2e(
    s: &mut Suite,
    args: &Args,
    work: &WorkDir,
    mix: Mix,
    budget: Duration,
    out: &mut Outcome,
) -> Result<E2e, String> {
    let scene = Scene::build(mix, work, args.seed, budget * 4)?;
    let socket = faild::socket_path("e2e", args.seed);
    let setup = faild::measure_setup(args, &scene, &socket, out)?;
    let (daemon, _) = faild::start_warm(args, &scene, &socket, out)?;
    // What set-up asks the daemon, asked of a fresh engine in process.
    let fresh = QueryEngine::new();
    let mut setup_kinds = Vec::new();
    for w in &scene.warmup {
        let name = scene.kinds[w.kind].name;
        let got = s
            .call(&format!("failapi.setup.{name}"), || fresh.execute(&w.req))
            .map_err(e)?;
        out.check(got.output == w.want, || {
            format!("set-up {name}: in-process execute differs")
        });
        setup_kinds.push(name);
    }
    let result = (|| -> Result<E2e, String> {
        let mut gen = faild::Generator::connect(&daemon, args.seed)?;
        // Untraced and traced rungs alternate, so both see the same
        // host conditions.
        let rate = mix.profile().reference;
        let (mut plain, mut traced, mut lat, mut late) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut counts = vec![0usize; scene.kinds.len()];
        let mut kind_lat = vec![Vec::new(); scene.kinds.len()];
        let mut answered = 0;
        let cpu_before = daemon.cpu_s().ok_or("daemon CPU time unavailable")?;
        for _ in 0..PAIRS {
            let rung = gen.rung(&scene, rate, budget / PAIRS as u32, out)?;
            answered += rung.ok.iter().filter(|o| **o).count();
            plain.push(rung.tail().p50);
            let rung = gen.rung(&scene, rate, budget / PAIRS as u32, out)?;
            answered += rung.ok.iter().filter(|o| **o).count();
            // Each request becomes a span from its due time to its
            // receipt, under its own request id.
            for ((t, &k), &ok) in rung.timelines.iter().zip(&rung.kinds).zip(&rung.ok) {
                s.next += 1;
                counts[k] += 1;
                if let (true, Some(l)) = (ok, t.latency()) {
                    kind_lat[k].push(l.as_secs_f64());
                }
                if let Some(recv) = t.recv {
                    s.rec.record(
                        "faild.request",
                        s.next,
                        rung.origin,
                        t.due.as_nanos() as u64,
                        recv.as_nanos() as u64,
                    );
                }
            }
            traced.push(rung.tail().p50);
            lat.extend(rung.latencies_ms());
            late.extend(rung.late_ms());
        }
        let cpu = daemon.cpu_s().ok_or("daemon CPU time unavailable")? - cpu_before;
        let total = counts.iter().sum::<usize>().max(1) as f64;
        let shares: Vec<(&'static str, f64, f64)> = scene
            .kinds
            .iter()
            .zip(&counts)
            .zip(&kind_lat)
            .map(|((k, &c), l)| {
                let mean = l.iter().sum::<f64>() / l.len().max(1) as f64;
                (k.name, c as f64 / total, mean)
            })
            .collect();
        mix_suite(s, &scene, work, rate, &shares, out)?;
        let max_rate = faild::ladder(&scene, &mut gen, budget.div_f64(3.0), out)?;
        let q = Tail::of(&lat);
        let late = Tail::of(&late);
        let mut figures = BTreeMap::new();
        figures.insert(
            "latency_mean_s".to_string(),
            lat.iter().sum::<f64>() / lat.len().max(1) as f64 / 1e3,
        );
        figures.insert("cpu_ms_per_op".to_string(), cpu / answered.max(1) as f64);
        figures.insert("setup_s".to_string(), setup.cpu_s);
        Ok(E2e {
            figures,
            shares,
            setup_kinds: setup_kinds.clone(),
            latency_ms: q.p50,
            gen_late_ms: late.tail,
            overhead: median(&traced) / median(&plain),
            overhead_of: "query p50",
            tail_ms: q.tail,
            max_rate,
        })
    })();
    let stopped = daemon.shutdown();
    let e2e = result?;
    stopped?;
    Ok(e2e)
}

/// Each kind of the mix executed by a warm engine in process, as the
/// daemon executes it (spans `failapi.execute.KIND`), and its request
/// and response through the wire codec (`failapi.wire.KIND`). The
/// growing log is replayed on a private copy, queried as often per
/// growth step as the schedule queries it.
fn mix_suite(
    s: &mut Suite,
    scene: &Scene,
    work: &WorkDir,
    rate: f64,
    shares: &[(&'static str, f64, f64)],
    out: &mut Outcome,
) -> Result<(), String> {
    let engine = QueryEngine::new();
    let mut wire_of = |s: &mut Suite, name: &str, req: &QueryRequest, output: &str| {
        let resp = s.call(&format!("failapi.wire.{name}"), || {
            let _ = black_box(wire::parse_request(&wire::encode_query(1, req)));
            wire::parse_response(&wire::encode_ok(1, "report", true, output))
        });
        out.check(resp.is_ok_and(|r| r.output == output), || {
            format!("{name}: response did not round-trip")
        });
    };
    let mut checks = Vec::new();
    for (k, kind) in scene.kinds.iter().enumerate() {
        let name = format!("failapi.execute.{}", kind.name);
        match &kind.check {
            Check::Fixed(want) => {
                engine.execute(&kind.req).map_err(e)?;
                for _ in 0..REPS {
                    let got = s.call(&name, || engine.execute(&kind.req)).map_err(e)?;
                    checks.push((got.cached && got.output == *want, kind.name));
                    wire_of(s, kind.name, &kind.req, &got.output);
                }
            }
            Check::Miss => {
                for i in 0..REPS {
                    let req = kind.req.clone().where_expr(format!("ttr > 99.{i:04}"));
                    let got = s.call(&name, || engine.execute(&req)).map_err(e)?;
                    let want = QueryEngine::new().execute(&req).map_err(e)?.output;
                    checks.push((!got.cached && got.output == want, kind.name));
                    wire_of(s, kind.name, &req, &got.output);
                }
            }
            Check::Grow => {
                let grow = scene.grow.as_ref().ok_or("grow kind without a log")?;
                let per_step = (rate * shares[k].1 * grow.period.as_secs_f64()).round();
                let path = work.file("grow-replay.fslog");
                let mut req = kind.req.clone();
                req.cmd = failapi::QueryCmd::Report(QuerySource::file(&path));
                for state in 0..REPS as u64 {
                    let tmp = format!("{path}.tmp");
                    std::fs::write(&tmp, grow.text(state)).map_err(e)?;
                    std::fs::rename(&tmp, &path).map_err(e)?;
                    let want = faild::expected_grow(scene, state)?;
                    for _ in 0..(per_step as usize).max(1) {
                        let got = s.call(&name, || engine.execute(&req)).map_err(e)?;
                        checks.push((got.output == want, kind.name));
                        wire_of(s, kind.name, &req, &got.output);
                    }
                }
            }
        }
    }
    for (ok, name) in checks {
        out.check(ok, || {
            format!("{name}: in-process execute differs or missed the cache")
        });
    }
    Ok(())
}

/// One reconciliation row: an end-to-end figure, its named terms, and
/// the residual nothing names.
fn print_row(metric: &str, total: f64, terms: &[(String, f64)]) -> f64 {
    let residual = total - terms.iter().map(|(_, v)| v).sum::<f64>();
    let parts: Vec<String> = terms.iter().map(|(n, v)| format!("{n} {v:.6}")).collect();
    println!(
        "#   {metric} {total:.6} = {} + residual {residual:.6}",
        parts.join(" + ")
    );
    residual
}

/// Prints each end-to-end figure of the workload, in wall time and in
/// CPU time, as the sum of layer self times and named gaps plus the
/// residual; returns the residual of the latency row.
fn reconcile(workload: &str, t: &Times, e2e: &E2e, gaps: &Gaps) -> f64 {
    let fig = |n: &str| e2e.figures.get(n).copied().unwrap_or(f64::NAN);
    let w = |n: &str| (n.to_string(), t.wall(n));
    let c = |n: &str| (format!("{n}(cpu)"), t.cpu(n));
    println!("# reconciliation (seconds; residual = end-to-end - sum):");
    if workload == "cli-year" {
        let cold = ["failapi.fingerprint_s", "faillog.read_s", "faillog.parse_s"];
        let view = ["failscope.logview_build_s", "failscope.render_text_s"];
        let per_cmd: [(Cmd, Vec<&str>); 4] = [
            (Cmd::Cold, [&cold[..], &view[..]].concat()),
            (
                Cmd::Gz,
                [&cold[..], &["faillog.inflate_s"], &view[..]].concat(),
            ),
            (
                Cmd::Warm,
                vec![
                    "failapi.fingerprint_s",
                    "failindex.probe_s",
                    "failindex.open_exact_s",
                    "failscope.render_text_s",
                ],
            ),
            (Cmd::Watch, vec!["failwatch.run_s"]),
        ];
        let process = ("failctl.process_gap_s".to_string(), gaps.process);
        let process_cpu = ("failctl.process_gap_s(cpu)".to_string(), gaps.process_cpu);
        for (cmd, names) in &per_cmd {
            let mut terms: Vec<(String, f64)> = names.iter().map(|n| w(n)).collect();
            terms.push(process.clone());
            print_row(cmd.metric(), fig(cmd.metric()), &terms);
        }
        let residual = print_row(
            "latency_s",
            fig("latency_s"),
            &CMDS
                .iter()
                .map(|c| w(&format!("failctl.{}", c.metric())))
                .collect::<Vec<_>>(),
        );
        // A session's CPU: every layer call of its four commands, and
        // four process gaps.
        let mut terms: BTreeMap<String, f64> = BTreeMap::new();
        for (_, names) in &per_cmd {
            for n in names {
                let (name, v) = c(n);
                *terms.entry(name).or_default() += v;
            }
        }
        *terms.entry(process_cpu.0.clone()).or_default() += 4.0 * process_cpu.1;
        print_row(
            "cpu_ms_per_op",
            fig("cpu_ms_per_op"),
            &terms.into_iter().collect::<Vec<_>>(),
        );
        print_row(
            "setup_s",
            fig("setup_s"),
            &[
                c("failapi.fingerprint_s"),
                c("faillog.read_s"),
                c("faillog.parse_s"),
                c("failscope.logview_build_s"),
                c("failindex.save_s"),
                process_cpu,
            ],
        );
        return residual;
    }
    // faild-*: a request of each kind costs its in-process execute and
    // wire codec plus the transport gap; the mean latency and the CPU
    // per request weigh the kinds by their share of the traced traffic.
    let transport = ("failserver.transport_gap_s".to_string(), gaps.transport);
    for (name, share, latency) in &e2e.shares {
        print_row(
            &format!("{name} (share {share:.3}) latency_mean_s"),
            *latency,
            &[
                (
                    format!("failapi.execute.{name}"),
                    Times::mean(&t.wall, &format!("failapi.execute.{name}")),
                ),
                (
                    format!("failapi.wire.{name}"),
                    Times::mean(&t.wall, &format!("failapi.wire.{name}")),
                ),
                transport.clone(),
            ],
        );
    }
    let weighted = |map: &BTreeMap<String, Vec<f64>>, what: &str, suffix: &str| {
        let v: f64 = e2e
            .shares
            .iter()
            .map(|(name, share, _)| share * Times::mean(map, &format!("failapi.{what}.{name}")))
            .sum();
        (format!("failapi.{what}[mix]{suffix}"), v)
    };
    let residual = print_row(
        "latency_mean_s",
        fig("latency_mean_s"),
        &[
            weighted(&t.wall, "execute", ""),
            weighted(&t.wall, "wire", ""),
            transport,
        ],
    );
    print_row(
        "cpu_ms_per_op",
        fig("cpu_ms_per_op"),
        &[
            weighted(&t.cpu, "execute", "(cpu)"),
            weighted(&t.cpu, "wire", "(cpu)"),
        ],
    );
    print_row(
        "setup_s",
        fig("setup_s"),
        &e2e.setup_kinds
            .iter()
            .map(|k| c(&format!("failapi.setup.{k}")))
            .collect::<Vec<_>>(),
    );
    residual
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_metric_has_a_target_on_a_known_workload() {
        let targets = targets().expect("targets.json parses");
        for name in LAYER_SPANS {
            assert!(targets.contains_key(*name), "{name} has no target");
        }
        let e2e = ["setup_s", "cpu_ms_per_op", "peak_rss_mb"];
        for (name, list) in &targets {
            if list.starts_with('(') {
                continue;
            }
            for pair in list.split(", ") {
                let (metric, workload) = pair.split_once('@').expect("metric@workload");
                assert!(e2e.contains(&metric), "{name}: unknown metric {metric}");
                assert!(
                    crate::WORKLOADS.contains(&workload),
                    "{name}: unknown workload {workload}"
                );
            }
        }
    }
}
