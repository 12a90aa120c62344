//! `failscope` — failure and repair analysis for supercomputers with
//! multi-GPU compute nodes.
//!
//! This crate is the primary contribution of the workspace: a toolkit
//! that answers the five research questions of the DSN 2021 field study
//! *"Examining Failures and Repairs on Supercomputers with Multi-GPU
//! Compute Nodes"* (Taherin, Patel, Georgakoudis, Laguna, Tiwari) on any
//! [`failtypes::FailureLog`]:
//!
//! | RQ | Question | Entry points |
//! |----|----------|--------------|
//! | RQ1 | Which failure types dominate? (Figs. 2-3) | [`CategoryBreakdown`], [`DomainBreakdown`], [`LocusBreakdown`] |
//! | RQ2 | Do some nodes/GPU slots fail more? (Figs. 4-5) | [`NodeDistribution`], [`SlotDistribution`] |
//! | RQ3 | Do multiple GPUs fail simultaneously? (Table III) | [`InvolvementTable`] |
//! | RQ4 | How are failures spaced in time? (Figs. 6-8) | [`TbfAnalysis`], [`per_category_tbf`], [`MultiGpuTemporal`] |
//! | RQ5 | How long does recovery take? (Figs. 9-12) | [`TtrAnalysis`], [`per_category_ttr`], [`SeasonalAnalysis`] |
//!
//! plus the paper's proposed metric, performance-error-proportionality
//! ([`Pep`] / [`PepComparison`]), and plain-text report rendering
//! ([`render_report`] / [`render_comparison`]).
//!
//! # Examples
//!
//! Answer RQ1 and RQ4 on a generated Tsubame-3 log:
//!
//! ```
//! use failscope::{CategoryBreakdown, TbfAnalysis};
//! use failsim::{Simulator, SystemModel};
//!
//! let log = Simulator::new(SystemModel::tsubame3(), 43).generate().unwrap();
//!
//! // Index the log once (moving its records in), then run any analysis.
//! let view = failscope::StreamView::from_log(log, None);
//! let cats = CategoryBreakdown::from_index(&view);
//! assert!(cats.shares()[0].fraction > 0.5); // software dominates
//!
//! let tbf = TbfAnalysis::from_index(&view).unwrap();
//! assert!(tbf.mtbf_hours() > 70.0); // "more than 70 hours"
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod availability;
mod categories;
mod multigpu;
mod rates;
mod survival;
mod pep;
mod report;
mod seasonal;
mod spatial;
mod streamview;
mod tbf;
mod temporal;
mod ttr;

pub use availability::AvailabilityAnalysis;
pub use categories::{
    CategoryBreakdown, CategoryShare, ClassBreakdown, DomainBreakdown, LocusBreakdown, LocusShare,
};
pub use rates::{laplace_trend, rolling_rate, LaplaceTrend, RateBin};
pub use survival::{node_lifetimes, node_lifetimes_index, NodeSurvival};
pub use multigpu::{InvolvementRow, InvolvementTable};
pub use pep::{Pep, PepComparison};
pub use report::{
    render_comparison, render_comparison_json, render_json_sections, render_report,
    render_report_json, render_text_sections, section_by_id, select_sections, Section, SectionCtx,
    METRICS_SECTION_ID, SECTIONS,
};
pub use seasonal::{MonthBucket, SeasonalAnalysis};
pub use spatial::{NodeDistribution, RackDistribution, RackShare, SlotDistribution, SlotShare};
pub use streamview::{StreamView, StreamViewError, ViewParts};
pub use tbf::{
    class_mtbf_hours, class_mtbf_hours_index, gpu_involvement_mtbf_hours,
    gpu_involvement_mtbf_hours_index, per_category_tbf, per_category_tbf_index, CategoryTbf,
    TbfAnalysis,
};
pub use temporal::MultiGpuTemporal;
pub use ttr::{
    domain_ttr_spread, domain_ttr_spread_index, per_category_ttr, per_category_ttr_index,
    rare_but_costly, rare_but_costly_index, CategoryTtr, TtrAnalysis,
};

/// The name the frozen benchmark harness (`perfbench/`) builds views
/// under; it exists only for that harness. Everything else names
/// [`StreamView`] directly.
pub type LogView = StreamView;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CategoryBreakdown>();
        assert_send_sync::<NodeDistribution>();
        assert_send_sync::<InvolvementTable>();
        assert_send_sync::<TbfAnalysis>();
        assert_send_sync::<TtrAnalysis>();
        assert_send_sync::<SeasonalAnalysis>();
        assert_send_sync::<PepComparison>();
    }
}
