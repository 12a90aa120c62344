//! Periodic GPU rearrangement during maintenance.
//!
//! RQ2's second implication: "the operations staff could also mitigate
//! this [non-uniform per-slot failure rates] by rearranging the GPUs
//! periodically during maintenance". If failure pressure is a property of
//! the *slot* (cooling position, PCIe riser, power phase), rotating the
//! physical cards through the slots equalizes the accumulated wear per
//! card. This module computes the per-card exposure with and without
//! rotation.

use failtypes::GpuSlot;

use crate::scheduler::SlotRiskModel;

/// Per-card accumulated failure exposure over a planning horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct RotationOutcome {
    /// Expected failures accumulated by each card (indexed by its
    /// starting slot).
    pub exposure_per_card: Vec<f64>,
    /// Number of maintenance rotations performed.
    pub rotations: u32,
}

impl RotationOutcome {
    /// Largest-to-smallest exposure ratio (1.0 = perfectly equalized).
    ///
    /// Returns `None` when a card has zero exposure.
    pub fn imbalance(&self) -> Option<f64> {
        let max = self.exposure_per_card.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.exposure_per_card.iter().cloned().fold(f64::MAX, f64::min);
        (min > 0.0).then(|| max / min)
    }

    /// Mean exposure across cards (invariant under rotation — rotation
    /// redistributes risk, it does not remove it).
    pub fn mean_exposure(&self) -> f64 {
        self.exposure_per_card.iter().sum::<f64>() / self.exposure_per_card.len().max(1) as f64
    }
}

/// Simulates card exposure over `horizon_hours` with a maintenance
/// rotation every `rotation_period_hours` (cards advance one slot
/// cyclically each rotation). A period of `f64::INFINITY` means "never
/// rotate".
///
/// # Panics
///
/// Panics if the horizon or period is not positive.
pub fn rotate_exposure(
    model: &SlotRiskModel,
    horizon_hours: f64,
    rotation_period_hours: f64,
) -> RotationOutcome {
    assert!(horizon_hours > 0.0, "horizon must be positive");
    assert!(rotation_period_hours > 0.0, "period must be positive");
    let n = model.slots();
    let mut exposure = vec![0.0; n];
    let mut t = 0.0;
    let mut rotations = 0u32;
    while t < horizon_hours {
        let span = rotation_period_hours.min(horizon_hours - t);
        for (card, e) in exposure.iter_mut().enumerate() {
            // After `rotations` rotations, the card that started in slot
            // `card` sits in slot `(card + rotations) % n`.
            let slot = (card + rotations as usize) % n;
            *e += model.rate(GpuSlot::new(slot as u8)) * span;
        }
        t += span;
        if t < horizon_hours {
            rotations += 1;
        }
    }
    RotationOutcome {
        exposure_per_card: exposure,
        rotations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_model() -> SlotRiskModel {
        // Tsubame-3-like: outer slots are the hot ones.
        SlotRiskModel::new(vec![2e-5, 1e-5, 1e-5, 2e-5]).expect("valid rates")
    }

    #[test]
    fn no_rotation_preserves_slot_skew() {
        let model = skewed_model();
        let out = rotate_exposure(&model, 8760.0, f64::INFINITY);
        assert_eq!(out.rotations, 0);
        assert!((out.imbalance().expect("positive exposure") - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quarterly_rotation_equalizes_exposure() {
        let model = skewed_model();
        // Four quarters over a year on a 4-slot node: each card visits
        // every slot once.
        let out = rotate_exposure(&model, 8760.0, 8760.0 / 4.0);
        assert_eq!(out.rotations, 3);
        assert!(
            (out.imbalance().expect("positive exposure") - 1.0).abs() < 1e-9,
            "imbalance {:?}",
            out.imbalance()
        );
    }

    #[test]
    fn rotation_preserves_total_risk() {
        let model = skewed_model();
        let never = rotate_exposure(&model, 8760.0, f64::INFINITY);
        let often = rotate_exposure(&model, 8760.0, 100.0);
        assert!((never.mean_exposure() - often.mean_exposure()).abs() < 1e-12);
    }

    #[test]
    fn partial_rotation_reduces_but_does_not_eliminate_imbalance() {
        let model = skewed_model();
        let never = rotate_exposure(&model, 8760.0, f64::INFINITY);
        let halfway = rotate_exposure(&model, 8760.0, 8760.0 / 2.0);
        let quarterly = rotate_exposure(&model, 8760.0, 8760.0 / 4.0);
        let i_never = never.imbalance().expect("positive");
        let i_half = halfway.imbalance().expect("positive");
        let i_quarter = quarterly.imbalance().expect("positive");
        assert!(i_half <= i_never);
        assert!(i_quarter <= i_half);
    }

    #[test]
    fn uniform_rates_are_rotation_invariant() {
        let model = SlotRiskModel::new(vec![1e-5; 4]).expect("valid rates");
        let out = rotate_exposure(&model, 1000.0, 100.0);
        assert!((out.imbalance().expect("positive") - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn rejects_zero_horizon() {
        let _ = rotate_exposure(&skewed_model(), 0.0, 1.0);
    }
}
