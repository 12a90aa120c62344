//! A streaming quantile sketch with an exactness fallback.
//!
//! Up to `capacity` observations the sketch simply buffers everything,
//! and its quantiles and mean are computed from the memoized sorted
//! order (below) with the *same* type-7 interpolation and left-to-right
//! sorted summation as [`failstats::Ecdf`] — so while in exact mode the
//! results are **bit-identical** to the batch pipeline, which is what
//! the streaming equivalence suite asserts (field logs at Tsubame scale
//! fit easily).
//!
//! Past `capacity` the sketch switches to deterministic KLL-style level
//! compaction: the buffer is sorted and every second item survives to
//! the next level with doubled weight, the parity of the surviving
//! offset alternating per level across compactions so no half of the
//! data is systematically favored. Capacities are rounded up to even so
//! every compaction halves an even-length buffer and total weight is
//! preserved exactly. Quantiles then come from the weighted rank over
//! all levels; the normalized rank error stays small (the unit tests
//! enforce ≤ 0.025 at n = 200 000 with the default capacity) and the
//! mean degrades to the weighted mean of the retained items.
//!
//! # Cost model
//!
//! Reads never sort what they already sorted, and pushes never sort for
//! readers. The first read after a push builds every retained item's
//! order with cumulative weights and memoizes it until the next push —
//! so a periodic summary's median, p90, and mean share one build, and
//! each quantile is a binary search on cumulative weight. The next
//! push keeps that order as a base: a later read sorts only the pushes
//! since, and merges them in with one O(retained) pass. Compaction
//! drops the base (levels above the intake changed), so the first read
//! after it sorts everything retained, about once per `capacity`
//! pushes; ingest alone pays nothing. The compacted-mode mean is one
//! pass over the levels and needs no order at all.

use std::sync::OnceLock;

use failstats::quantile_sorted;

/// Default number of buffered observations before compaction begins.
pub const DEFAULT_SKETCH_CAPACITY: usize = 4096;

/// Streaming quantile/mean sketch (see the module docs).
///
/// # Examples
///
/// ```
/// use failwatch::QuantileSketch;
///
/// let mut s = QuantileSketch::default();
/// for x in [4.0, 1.0, 3.0, 2.0] {
///     s.push(x);
/// }
/// assert!(s.is_exact());
/// assert_eq!(s.quantile(0.5), Some(2.5));
/// assert_eq!(s.mean(), Some(2.5));
/// assert_eq!(s.len(), 4);
/// ```
#[derive(Debug)]
pub struct QuantileSketch {
    capacity: usize,
    /// `levels[i]` holds items of weight `2^i`; level 0 is the intake.
    levels: Vec<Vec<f64>>,
    parity: Vec<bool>,
    count: u64,
    min: f64,
    max: f64,
    compactions: u64,
    /// The last read's order, kept by `push` as the base the next read
    /// merges into; `None` before any read and after a compaction.
    base: Option<Order>,
    /// Every retained item in ascending order, built by the first read
    /// after a push.
    order: OnceLock<Order>,
}

/// Retained items in ascending order, with cumulative weights.
#[derive(Debug)]
struct Order {
    values: Vec<f64>,
    /// `cum[i]` is the total weight of `values[..=i]`.
    cum: Vec<u64>,
    /// How many level-0 items (a prefix) the order covers; it covers
    /// every level above.
    intake: usize,
}

impl Clone for QuantileSketch {
    /// Clones the observations; the memoized order is rebuilt on demand.
    fn clone(&self) -> Self {
        QuantileSketch {
            capacity: self.capacity,
            levels: self.levels.clone(),
            parity: self.parity.clone(),
            count: self.count,
            min: self.min,
            max: self.max,
            compactions: self.compactions,
            base: None,
            order: OnceLock::new(),
        }
    }
}

impl PartialEq for QuantileSketch {
    /// Compares the observations: a sketch that has been read equals
    /// one that has not.
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.levels == other.levels
            && self.parity == other.parity
            && self.count == other.count
            && self.min == other.min
            && self.max == other.max
            && self.compactions == other.compactions
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new(DEFAULT_SKETCH_CAPACITY)
    }
}

impl QuantileSketch {
    /// A sketch that stays exact until `capacity` observations
    /// (rounded up to an even minimum of 8).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_multiple_of(2);
        QuantileSketch {
            capacity,
            levels: vec![Vec::new()],
            parity: vec![false],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            compactions: 0,
            base: None,
            order: OnceLock::new(),
        }
    }

    /// Observes one finite value.
    ///
    /// # Panics
    ///
    /// Panics on NaN (quantiles over NaN are meaningless).
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "sketch values must not be NaN");
        if let Some(order) = self.order.take() {
            self.base = Some(order);
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.levels[0].push(x);
        let mut level = 0;
        while self.levels[level].len() >= self.capacity {
            self.compact(level);
            level += 1;
        }
        if level > 0 {
            self.base = None;
        }
    }

    /// Compacts one full level: sort, keep alternating halves with
    /// doubled weight one level up. Length is always even here.
    fn compact(&mut self, level: usize) {
        self.compactions += 1;
        if self.levels.len() == level + 1 {
            self.levels.push(Vec::new());
            self.parity.push(false);
        }
        let mut buf = std::mem::take(&mut self.levels[level]);
        buf.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN in sketch"));
        let offset = usize::from(self.parity[level]);
        self.parity[level] = !self.parity[level];
        self.levels[level + 1]
            .extend(buf.into_iter().skip(offset).step_by(2));
    }

    /// The memoized order: on the first read after a push, sorts what
    /// the base does not cover (every level when there is no base) and
    /// merges it into the base with cumulative weights.
    fn order(&self) -> &Order {
        self.order.get_or_init(|| {
            let (base_values, base_cum, seen): (&[f64], &[u64], usize) = match &self.base {
                Some(base) => (&base.values, &base.cum, base.intake),
                None => (&[], &[], 0),
            };
            let mut fresh: Vec<(f64, u64)> =
                self.levels[0][seen..].iter().map(|&x| (x, 1)).collect();
            if self.base.is_none() {
                for (level, buf) in self.levels.iter().enumerate().skip(1) {
                    fresh.extend(buf.iter().map(|&x| (x, 1u64 << level)));
                }
            }
            fresh.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

            let len = base_values.len() + fresh.len();
            let (mut values, mut cum) = (Vec::with_capacity(len), Vec::with_capacity(len));
            let mut total = 0u64;
            let mut append = |x: f64, w: u64| {
                total += w;
                values.push(x);
                cum.push(total);
            };
            let mut fresh = fresh.into_iter().peekable();
            let mut prev = 0;
            for (&x, &c) in base_values.iter().zip(base_cum) {
                while let Some((y, w)) = fresh.next_if(|&(y, _)| y < x) {
                    append(y, w);
                }
                append(x, c - prev);
                prev = c;
            }
            fresh.for_each(|(y, w)| append(y, w));
            Order {
                values,
                cum,
                intake: self.levels[0].len(),
            }
        })
    }

    /// Total observations pushed.
    pub const fn len(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been pushed.
    pub const fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// `true` while no compaction has happened — quantiles and mean are
    /// bit-identical to the batch [`failstats::Ecdf`] on the same data.
    pub const fn is_exact(&self) -> bool {
        self.compactions == 0
    }

    /// Number of level compactions performed so far (zero while the
    /// sketch is exact). Surfaced through watch tracing as the
    /// `watch.sketch_compactions` counter.
    pub const fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Smallest observation (always exact).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (always exact).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `p`-quantile (`p` in `[0, 1]`).
    ///
    /// Exact mode matches [`failstats::quantile_sorted`] bitwise; in
    /// compacted mode the weighted-rank estimate carries the documented
    /// rank error.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let Order { values, cum, .. } = self.order();
        if self.is_exact() {
            return quantile_sorted(values, p);
        }
        // The first item whose cumulative weight reaches the rank.
        let total = *cum.last().expect("a non-empty sketch retains items");
        debug_assert_eq!(total, self.count, "compaction preserves total weight");
        let target = p * total as f64;
        let i = cum.partition_point(|&c| (c as f64) < target);
        values.get(i).or(values.last()).copied()
    }

    /// The mean: bit-identical to [`failstats::Ecdf::mean`] in exact
    /// mode (sorted left-to-right summation), weighted mean of retained
    /// items after compaction.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.is_exact() {
            let values = &self.order().values;
            return Some(values.iter().sum::<f64>() / values.len() as f64);
        }
        let mut sum = 0.0;
        let mut weight = 0u64;
        for (level, buf) in self.levels.iter().enumerate() {
            let w = 1u64 << level;
            weight += w * buf.len() as u64;
            sum += buf.iter().sum::<f64>() * w as f64;
        }
        Some(sum / weight as f64)
    }

    /// Number of values currently retained across all levels.
    pub fn retained(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failstats::Ecdf;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Deterministic pseudo-random stream (SplitMix64 → uniform [0,1)).
    fn uniform_stream(n: usize, mut seed: u64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn exact_mode_is_bitwise_equal_to_ecdf() {
        let data = uniform_stream(1500, 9);
        let mut sketch = QuantileSketch::new(4096);
        for &x in &data {
            sketch.push(x);
        }
        assert!(sketch.is_exact());
        let ecdf = Ecdf::new(data.clone()).unwrap();
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                sketch.quantile(p).unwrap().to_bits(),
                ecdf.quantile(p).to_bits(),
                "p = {p}"
            );
        }
        assert_eq!(sketch.mean().unwrap().to_bits(), ecdf.mean().to_bits());
        assert_eq!(sketch.min(), Some(ecdf.min()));
        assert_eq!(sketch.max(), Some(ecdf.max()));
    }

    #[test]
    fn compacted_mode_rank_error_is_bounded() {
        // The documented bound: normalized rank error <= 0.025 at
        // n = 200_000 with capacity 1024.
        let n = 200_000;
        let data = uniform_stream(n, 4242);
        let mut sketch = QuantileSketch::new(1024);
        for &x in &data {
            sketch.push(x);
        }
        assert!(!sketch.is_exact());
        // ~log2(n/capacity) levels of < capacity items each.
        assert!(sketch.retained() < 10 * 1024, "sketch stays bounded");
        let mut sorted = data;
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = sketch.quantile(p).unwrap();
            // Normalized rank of the estimate in the true data.
            let rank = sorted.partition_point(|&x| x <= est) as f64 / n as f64;
            assert!(
                (rank - p).abs() <= 0.025,
                "p = {p}: estimate {est} has rank {rank}"
            );
        }
        // Uniform data: the weighted mean stays close to 0.5.
        assert!((sketch.mean().unwrap() - 0.5).abs() < 0.01);
        // Min/max stay exact through compaction.
        assert_eq!(sketch.min(), sorted.first().copied());
        assert_eq!(sketch.max(), sorted.last().copied());
    }

    #[test]
    fn compaction_preserves_total_weight() {
        let mut sketch = QuantileSketch::new(16);
        for i in 0..10_000 {
            sketch.push(i as f64);
        }
        assert_eq!(sketch.len(), 10_000);
        let total: u64 = sketch
            .levels
            .iter()
            .enumerate()
            .map(|(level, buf)| (1u64 << level) * buf.len() as u64)
            .sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn empty_sketch_returns_none() {
        let s = QuantileSketch::default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        QuantileSketch::default().push(f64::NAN);
    }

    /// The sketch's reads as computed before memoization: clone and
    /// sort every retained item on each call.
    fn oracle_quantile(s: &QuantileSketch, p: f64) -> Option<f64> {
        if s.count == 0 {
            return None;
        }
        if s.is_exact() {
            let mut sorted = s.levels[0].clone();
            sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
            return quantile_sorted(&sorted, p);
        }
        let mut items: Vec<(f64, u64)> = Vec::new();
        for (level, buf) in s.levels.iter().enumerate() {
            items.extend(buf.iter().map(|&x| (x, 1u64 << level)));
        }
        items.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let target = p * total as f64;
        let mut cum = 0u64;
        for &(x, w) in &items {
            cum += w;
            if cum as f64 >= target {
                return Some(x);
            }
        }
        items.last().map(|&(x, _)| x)
    }

    fn oracle_mean(s: &QuantileSketch) -> Option<f64> {
        if s.count == 0 {
            return None;
        }
        if s.is_exact() {
            let mut sorted = s.levels[0].clone();
            sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
            return Some(sorted.iter().sum::<f64>() / sorted.len() as f64);
        }
        let mut sum = 0.0;
        let mut weight = 0u64;
        for (level, buf) in s.levels.iter().enumerate() {
            weight += (1u64 << level) * buf.len() as u64;
            sum += buf.iter().sum::<f64>() * (1u64 << level) as f64;
        }
        Some(sum / weight as f64)
    }

    /// Every read of `s`, bit for bit against the oracle. Reading leaves
    /// the sketch equal to a clone taken before the read.
    fn check_reads(s: &QuantileSketch) -> Result<(), TestCaseError> {
        let unread = s.clone();
        for p in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            prop_assert_eq!(
                s.quantile(p).map(f64::to_bits),
                oracle_quantile(s, p).map(f64::to_bits),
                "p = {} after {} pushes",
                p,
                s.len()
            );
        }
        prop_assert_eq!(
            s.mean().map(f64::to_bits),
            oracle_mean(s).map(f64::to_bits),
            "mean after {} pushes",
            s.len()
        );
        prop_assert_eq!(s, &unread);
        prop_assert_eq!(&s.clone(), &unread);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Small capacities compact many times; reads between pushes
        // invalidate the memoized order both by plain pushes and by
        // compactions. Values are drawn so ties are common (-0.0 is
        // never produced: it ties with +0.0 and either may be returned).
        #[test]
        fn memoized_reads_match_clone_and_sort(
            capacity in 8usize..=64,
            pushes in proptest::collection::vec((0u32..300, 0u32..1000, 0u32..4), 1..700),
        ) {
            let mut sketch = QuantileSketch::new(capacity);
            for &(coarse, fine, read) in &pushes {
                let x = if fine % 3 == 0 {
                    f64::from(coarse % 16)
                } else {
                    f64::from(coarse) - 100.0 + f64::from(fine) / 1000.0
                };
                sketch.push(x);
                if read == 0 {
                    check_reads(&sketch)?;
                }
            }
            check_reads(&sketch)?;
        }
    }

    #[test]
    fn tiny_capacity_is_rounded_up() {
        let mut s = QuantileSketch::new(1);
        for i in 0..7 {
            s.push(i as f64);
        }
        assert!(s.is_exact(), "minimum capacity is 8");
        s.push(7.0);
        assert!(!s.is_exact());
        assert!(s.quantile(0.5).is_some());
    }
}
