//! `failwatch` — streaming ingestion and online analytics over failure
//! streams, with drift alerting against a calibrated baseline.
//!
//! The batch pipeline (`faillog` → `failscope`) answers questions about
//! a *finished* log. This crate answers the operator's question: what
//! does the failure behaviour of the machine look like *right now*, one
//! record at a time, and when does it stop looking like the calibrated
//! models of the source paper (Tsubame 2.5/3.0, DSN 2021)?
//!
//! The subsystem is built from four layers:
//!
//! * **Sources** ([`EventSource`]): a tailed `failscope-log v1` file
//!   ([`TailSource`], optionally followed as it grows) or a calibrated
//!   simulation replay ([`SimSource`]) paced by a
//!   [`failsim::ReplayClock`] — real-time-scaled or fully accelerated.
//! * **Online state** ([`WatchState`]): an incremental
//!   [`failscope::StreamView`] index plus [`QuantileSketch`]es over
//!   gaps/TTRs, trailing-window samples, and per-category [`Ewma`]s.
//!   While the sketches are in exact mode every headline number is
//!   **bit-identical** to the batch pipeline; past the exactness
//!   capacity quantiles carry a small documented rank error.
//! * **Drift detection** ([`DriftDetector`]): edge-triggered checks of
//!   the live window against a [`Baseline`] (category-mix shift via
//!   total-variation distance, MTTR regression corroborated by a
//!   two-sample KS test, GPU-slot skew, multi-GPU bursts), emitting
//!   structured [`failtypes::Alert`]s as NDJSON.
//! * **The loop** ([`run`]): ties the three together behind
//!   `failctl watch`, rendering periodic summaries in order on the loop
//!   thread.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod drift;
mod estimators;
mod ingest;
mod sketch;
mod state;
mod watch;

pub use drift::{Baseline, DriftConfig, DriftConfigBuilder, DriftDetector};
pub use estimators::{Ewma, RateWindow, WindowMean};
pub use ingest::{ChunkEnd, EventSource, SimSource, TailSource};
pub use sketch::{QuantileSketch, DEFAULT_SKETCH_CAPACITY};
pub use state::{StateConfig, StateConfigBuilder, WatchState};
pub use watch::{
    render_summary, render_summary_sections, run, select_watch_sections, watch_section_by_id,
    WatchConfig, WatchConfigBuilder, WatchOutcome, WatchSection, WATCH_SECTIONS,
};

/// One-stop imports for driving the watch loop.
///
/// Errors across the crate are the unified [`failtypes::Error`]
/// (re-exported here with its `Result` alias), so a whole
/// source → state → detector → loop pipeline propagates with `?`.
///
/// # Examples
///
/// ```
/// use failwatch::prelude::*;
///
/// let mut source = SimSource::new(
///     failsim::SystemModel::tsubame3(),
///     7,
///     failsim::ReplayClock::unpaced(),
/// )?;
/// let config = WatchConfig::builder().max_records(30).build()?;
/// let mut out = Vec::new();
/// let outcome = run(&mut source, None, &config, &mut out)?;
/// assert_eq!(outcome.records, 30);
/// # Ok::<(), failwatch::prelude::Error>(())
/// ```
pub mod prelude {
    pub use crate::drift::{Baseline, DriftConfig, DriftConfigBuilder, DriftDetector};
    pub use crate::ingest::{ChunkEnd, EventSource, SimSource, TailSource};
    pub use crate::sketch::{QuantileSketch, DEFAULT_SKETCH_CAPACITY};
    pub use crate::state::{StateConfig, StateConfigBuilder, WatchState};
    pub use crate::watch::{
        render_summary, render_summary_sections, run, select_watch_sections,
        watch_section_by_id, WatchConfig, WatchConfigBuilder, WatchOutcome, WatchSection,
        WATCH_SECTIONS,
    };
    pub use failtypes::{Error, Result};
}
