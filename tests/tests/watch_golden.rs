//! Byte lock on `failwatch::run` over a stream long enough to leave the
//! sketches' exact mode.
//!
//! The scenario (1408 nodes, system MTBF 0.8 h, 365 days, seed 3 — the
//! model `failctl scenario --nodes 1408 --mtbf 0.8 --days 365` builds)
//! replays ~11k records, so the gap and TTR sketches compact several
//! times and most periodic summaries come from the weighted-rank path.
//! The text and NDJSON streams must match the checked-in files under
//! `golden/` byte for byte; the NDJSON carries every sketched quantile
//! and mean at full precision.

use failsim::{ReplayClock, ScenarioBuilder, SystemModel};
use failwatch::{Baseline, DriftConfig, DriftDetector, EventSource, SimSource, WatchConfig};

const GOLDEN_TEXT: &str = include_str!("golden/watch_scenario_1408n_seed3.txt");
const GOLDEN_JSON: &str = include_str!("golden/watch_scenario_1408n_seed3.ndjson");

/// Runs the scenario through the watch loop with a summary every 1000
/// records and the generation's calibrated baseline.
fn watch_scenario(json: bool) -> String {
    let model = ScenarioBuilder::new("failctl-scenario")
        .nodes(1408)
        .system_mtbf_hours(0.8)
        .window_days(365)
        .build()
        .expect("valid scenario");
    let mut source = SimSource::new(model, 3, ReplayClock::unpaced()).expect("simulates");
    let baseline = Baseline::from_model(SystemModel::for_generation(source.generation()), 1)
        .expect("baseline");
    let config = WatchConfig::builder()
        .refresh_every(1000)
        .json_summaries(json)
        .build()
        .expect("valid config");
    let mut out = Vec::new();
    let outcome = failwatch::run(
        &mut source,
        Some(DriftDetector::new(baseline, DriftConfig::default())),
        &config,
        &mut out,
    )
    .expect("watch runs");
    assert!(outcome.records > 10_000, "{} records", outcome.records);
    assert!(!outcome.state.sketches_exact(), "the stream must compact");
    String::from_utf8(out).expect("utf8")
}

#[test]
fn compacting_watch_text_matches_golden() {
    let text = watch_scenario(false);
    assert!(text.contains("(sketched)"));
    assert_eq!(text, GOLDEN_TEXT, "watch text drifted from golden");
}

#[test]
fn compacting_watch_ndjson_matches_golden() {
    let json = watch_scenario(true);
    assert!(json.contains(r#""exact":false"#));
    assert_eq!(json, GOLDEN_JSON, "watch NDJSON drifted from golden");
}
