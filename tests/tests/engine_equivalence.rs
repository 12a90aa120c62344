//! Determinism guarantees of the parallel execution engine.
//!
//! Three layers, three contracts:
//!
//! 1. **Batch-view equivalence** — every `from_index` analysis over a
//!    one-pass `StreamView::from_log` build equals its `from_log`
//!    convenience, on canonical and on arbitrary seeds
//!    (property-tested).
//! 2. **Thread-count invariance** — the threaded report renderer and
//!    the sharded seed sweeps return bit-identical results at any
//!    worker count.
//! 3. **Shared-store invariance** — experiments built from the shared
//!    `LogStore` match experiments built from freshly simulated logs.

use failbench::experiments;
use failbench::runner;
use failscope::{
    class_mtbf_hours, class_mtbf_hours_index, gpu_involvement_mtbf_hours,
    gpu_involvement_mtbf_hours_index, per_category_tbf, per_category_tbf_index, per_category_ttr,
    per_category_ttr_index, render_report, AvailabilityAnalysis,
    CategoryBreakdown, ClassBreakdown, DomainBreakdown, LocusBreakdown, MultiGpuTemporal,
    NodeDistribution, RackDistribution, SeasonalAnalysis, SlotDistribution, StreamView,
    TbfAnalysis, TtrAnalysis,
};
use failsim::{Simulator, SystemModel};
use failtypes::{ComponentClass, FailureLog};
use proptest::prelude::*;

fn assert_view_matches_log(log: &FailureLog) {
    let view = StreamView::from_log(log.clone(), None);

    assert_eq!(CategoryBreakdown::from_index(&view), CategoryBreakdown::from_log(log));
    assert_eq!(ClassBreakdown::from_index(&view), ClassBreakdown::from_log(log));
    assert_eq!(DomainBreakdown::from_index(&view), DomainBreakdown::from_log(log));
    assert_eq!(LocusBreakdown::from_index(&view), LocusBreakdown::from_log(log));

    assert_eq!(NodeDistribution::from_index(&view), NodeDistribution::from_log(log));
    assert_eq!(SlotDistribution::from_index(&view), SlotDistribution::from_log(log));
    assert_eq!(RackDistribution::from_index(&view), RackDistribution::from_log(log));

    assert_eq!(TbfAnalysis::from_index(&view), TbfAnalysis::from_log(log));
    assert_eq!(TtrAnalysis::from_index(&view), TtrAnalysis::from_log(log));
    assert_eq!(per_category_tbf_index(&view, 5), per_category_tbf(log, 5));
    assert_eq!(per_category_ttr_index(&view), per_category_ttr(log));
    for class in [ComponentClass::Gpu, ComponentClass::Cpu, ComponentClass::Storage] {
        assert_eq!(
            class_mtbf_hours_index(&view, class),
            class_mtbf_hours(log, class)
        );
    }
    assert_eq!(
        gpu_involvement_mtbf_hours_index(&view),
        gpu_involvement_mtbf_hours(log)
    );

    assert_eq!(
        MultiGpuTemporal::from_index(&view, 96.0),
        MultiGpuTemporal::from_log(log, 96.0)
    );
    assert_eq!(
        AvailabilityAnalysis::from_index(&view),
        AvailabilityAnalysis::from_log(log)
    );
    assert_eq!(SeasonalAnalysis::from_index(&view), SeasonalAnalysis::from_log(log));
}

#[test]
fn logview_matches_from_log_on_canonical_logs() {
    let (t2, t3) = experiments::standard_logs();
    assert_view_matches_log(&t2);
    assert_view_matches_log(&t3);
}

#[test]
fn logview_matches_on_degenerate_logs() {
    let (_, t3) = experiments::standard_logs();
    // Empty log.
    assert_view_matches_log(&t3.filtered(|_| false));
    // Single-category slice.
    assert_view_matches_log(&t3.filtered(|r| r.category().is_gpu()));
}

#[test]
fn report_is_identical_at_every_thread_count() {
    let (t2, t3) = experiments::standard_logs();
    for log in [&*t2, &*t3] {
        let serial = render_report(log, 1);
        for threads in 1..=8 {
            assert_eq!(
                serial,
                render_report(log, threads),
                "report diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn seed_sweeps_are_bit_identical_across_thread_counts() {
    let mtbf = |log: &FailureLog| {
        TbfAnalysis::from_log(log).map_or(0.0, |t| t.mtbf_hours())
    };
    let serial = experiments::seed_average_with(SystemModel::tsubame3, 7000, 6, 1, mtbf);
    for threads in [2, 3, 4, 8] {
        let parallel =
            experiments::seed_average_with(SystemModel::tsubame3, 7000, 6, threads, mtbf);
        assert_eq!(serial.to_bits(), parallel.to_bits(), "threads = {threads}");
    }
}

#[test]
fn parallel_catalog_run_matches_serial_byte_for_byte() {
    // A representative slice: cheap figures plus one seed-sweep-heavy one.
    let catalog = experiments::catalog();
    let slice: Vec<_> = catalog
        .into_iter()
        .filter(|(id, _)| ["table1", "fig2", "fig5", "fig9", "pep"].contains(id))
        .collect();
    let serial = runner::run_catalog_with(&slice, 1);
    let parallel = runner::run_catalog_with(&slice, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.render(), p.render(), "{} diverged across thread counts", s.id);
    }
}

#[test]
fn store_backed_logs_equal_fresh_simulations() {
    let (t2, t3) = experiments::standard_logs();
    let fresh2 = Simulator::new(SystemModel::tsubame2(), experiments::T2_SEED)
        .generate()
        .unwrap();
    let fresh3 = Simulator::new(SystemModel::tsubame3(), experiments::T3_SEED)
        .generate()
        .unwrap();
    assert_eq!(*t2, fresh2);
    assert_eq!(*t3, fresh3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn logview_equivalence_holds_for_arbitrary_seeds(seed in 0u64..10_000) {
        let log = Simulator::new(SystemModel::tsubame3(), seed).generate().unwrap();
        assert_view_matches_log(&log);
    }

    #[test]
    fn threaded_report_is_deterministic_for_arbitrary_seeds(
        seed in 0u64..10_000,
        threads in 1usize..6,
    ) {
        let log = Simulator::new(SystemModel::tsubame3(), seed).generate().unwrap();
        prop_assert_eq!(render_report(&log, 1), render_report(&log, threads));
    }
}
