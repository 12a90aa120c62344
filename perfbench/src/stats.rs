//! Order statistics, due-time latency accounting and backlog detection:
//! the harness's own logic, kept free of I/O so it can be unit-tested.

use std::time::Duration;

/// Percentiles a tail figure may be reported at, lowest first.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest tail percentile reported: tails are named `p99`.
pub const TAIL_CAP: f64 = 99.0;

/// A tail percentile is only reported when at least this many samples
/// lie beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (the mean of the two middle values for an even
/// count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps `99.9% of 10000` from rounding up past 9990).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of [`PERCENTILES`] that has at least [`MIN_BEYOND`]
/// samples ranked above it among `n` samples, or `None` when even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of already sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// The median and tail of one latency sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_percentile`], capped at
    /// [`TAIL_CAP`] (`None` when the set is too small for any).
    pub tail_p: Option<f64>,
    /// The value at `tail_p`, or the maximum when `tail_p` is `None`.
    pub tail: f64,
}

impl Tail {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Tail {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(v.len()).map(|p| p.min(TAIL_CAP));
        let tail = match tail_p {
            Some(p) => percentile_sorted(&v, p),
            None => v.last().copied().unwrap_or(f64::NAN),
        };
        Tail {
            n: v.len(),
            p50: percentile_sorted(&v, 50.0),
            tail_p,
            tail,
        }
    }

    /// `p99.0 of 1234` style label for logs.
    pub fn label(&self) -> String {
        match self.tail_p {
            Some(p) => format!("p{p} of {}", self.n),
            None => format!("max of {}", self.n),
        }
    }
}

/// One open-loop request's timeline, relative to the run's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeline {
    /// When the schedule said the request was due.
    pub due: Duration,
    /// When the generator actually wrote it.
    pub sent: Duration,
    /// When its response was read, if it was.
    pub recv: Option<Duration>,
}

impl Timeline {
    /// Latency counted from the due time, so a stall in the generator or
    /// the server is charged to every request it delayed.
    pub fn latency(&self) -> Option<Duration> {
        self.recv.map(|r| r.saturating_sub(self.due))
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// How many requests were outstanding (due, not yet answered) at each
/// due instant, in schedule order. A request is outstanding at `t` when
/// it was due at or before `t` and answered after `t` (or never), so a
/// generator that falls behind its schedule counts as backlog too.
pub fn outstanding_at_dues(timelines: &[Timeline]) -> Vec<usize> {
    let mut sends: Vec<Duration> = timelines.iter().map(|t| t.due).collect();
    sends.sort();
    let mut recvs: Vec<Duration> = timelines.iter().filter_map(|t| t.recv).collect();
    recvs.sort();
    let mut out = Vec::with_capacity(sends.len());
    let mut answered = 0;
    for (i, &s) in sends.iter().enumerate() {
        while answered < recvs.len() && recvs[answered] <= s {
            answered += 1;
        }
        out.push((i + 1).saturating_sub(answered));
    }
    out
}

/// Whether the outstanding-request count grows across a rung: the mean
/// over its last quarter exceeds twice the mean over its first quarter
/// plus a slack of [`BACKLOG_SLACK`] requests. A server that keeps up
/// holds the count near rate × latency for the whole rung; one that
/// falls behind accumulates work linearly.
pub fn backlog_growing(outstanding: &[usize]) -> bool {
    let q = outstanding.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let first = mean(&outstanding[..q]);
    let last = mean(&outstanding[outstanding.len() - q..]);
    last > 2.0 * first + BACKLOG_SLACK
}

/// Requests a backlog must grow by before it counts, so short bursts of
/// a Poisson schedule do not.
pub const BACKLOG_SLACK: f64 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        // 20 samples: the median (rank 10) has 10 beyond it.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_reports_the_rule_percentile_and_count() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Tail::of(&values);
        assert_eq!(
            (t.n, t.tail_p, t.tail, t.p50),
            (1000, Some(99.0), 990.0, 500.0)
        );
        assert_eq!(t.label(), "p99 of 1000");
        // Too few for p99: the rule falls back to p95.
        let t = Tail::of(&values[..500]);
        assert_eq!((t.tail_p, t.tail), (Some(95.0), 475.0));
        // The cap holds even with samples enough for p99.9.
        let many: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(Tail::of(&many).tail_p, Some(99.0));
        let t = Tail::of(&[3.0, 1.0]);
        assert_eq!(
            (t.tail_p, t.tail, t.label()),
            (None, 3.0, "max of 2".to_string())
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn latency_is_counted_from_the_due_time() {
        // The generator stalled 30 ms: the request went out late, and
        // the stall is part of the latency it reports.
        let t = Timeline {
            due: ms(100),
            sent: ms(130),
            recv: Some(ms(135)),
        };
        assert_eq!(t.late(), ms(30));
        assert_eq!(t.latency(), Some(ms(35)));
        let unanswered = Timeline {
            due: ms(100),
            sent: ms(100),
            recv: None,
        };
        assert_eq!(unanswered.latency(), None);
        assert_eq!(unanswered.late(), ms(0));
    }

    #[test]
    fn outstanding_counts_due_but_unanswered() {
        let t = |sent, recv| Timeline {
            due: ms(sent),
            sent: ms(sent),
            recv,
        };
        let lines = [
            t(0, Some(ms(5))),
            t(10, Some(ms(30))),
            t(20, None),
            t(40, Some(ms(41))),
        ];
        assert_eq!(outstanding_at_dues(&lines), vec![1, 1, 2, 2]);
    }

    #[test]
    fn backlog_detection_separates_steady_from_growing() {
        // Keeping up: the count hovers around rate x latency.
        let steady: Vec<usize> = (0..400).map(|i| 3 + i % 4).collect();
        assert!(!backlog_growing(&steady));
        // Falling behind: one request in five never drains.
        let growing: Vec<usize> = (0..400).map(|i| 2 + i / 5).collect();
        assert!(backlog_growing(&growing));
        // A burst in the middle of a rung is not growth.
        let mut burst = steady.clone();
        for v in &mut burst[180..220] {
            *v += 30;
        }
        assert!(!backlog_growing(&burst));
        assert!(!backlog_growing(&[9, 9, 9]));
    }
}
