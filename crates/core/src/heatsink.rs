//! TDP → heatsink mass (paper Fig. 12).
//!
//! Skyline couples the onboard computer's thermal design power to payload
//! weight through a heatsink sizing calculator: a 30 W part needs a 162 g
//! natural-convection heatsink, a 15 W part roughly half that, and a
//! ~1.5 W part only ~10 g. The paper observes "~20× in TDP → ~16.2× in
//! heatsink weight", i.e. a slightly sub-linear power law. This module fits
//! `mass = k · TDP^p` through the paper's anchor points.

use f1_units::{Grams, Watts};

use crate::ModelError;

/// A heatsink sizing model mapping TDP to heatsink mass.
///
/// # Examples
///
/// ```
/// use f1_model::heatsink::HeatsinkModel;
/// use f1_units::Watts;
///
/// let hs = HeatsinkModel::paper_calibrated();
/// // Paper Fig. 12 anchors.
/// let agx30 = hs.mass_for(Watts::new(30.0));
/// assert!((agx30.get() - 162.0).abs() < 1.0);
/// let agx15 = hs.mass_for(Watts::new(15.0));
/// assert!((agx15.get() - 81.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatsinkModel {
    /// Multiplier `k` in grams.
    scale: f64,
    /// Exponent `p` (1.0 = linear; the paper's data is slightly sub-linear).
    exponent: f64,
    /// TDP below which no heatsink is fitted (sub-1 W sticks like the Intel
    /// NCS, or the 64 mW PULP-DroNet, are passively cooled by their cases).
    threshold: Watts,
}

impl HeatsinkModel {
    /// The model calibrated to the paper's Fig. 12 anchors:
    /// (30 W, 162 g) and (1.5 W, 10 g) ⇒ `p ≈ 0.930`, `k ≈ 6.86`.
    ///
    /// The third anchor (15 W, 81 g) is then reproduced within ~5 %.
    #[must_use]
    pub fn paper_calibrated() -> Self {
        // p = ln(162/10) / ln(30/1.5), k = 162 / 30^p.
        let p = (162.0f64 / 10.0).ln() / (30.0f64 / 1.5).ln();
        let k = 162.0 / 30.0f64.powf(p);
        Self {
            scale: k,
            exponent: p,
            threshold: Watts::new(1.0),
        }
    }

    /// A custom power-law model `mass = k · TDP^p`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] unless `k ≥ 0` and `p > 0` and
    /// both are finite.
    pub fn power_law(scale_g: f64, exponent: f64) -> Result<Self, ModelError> {
        if !(scale_g.is_finite() && scale_g >= 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "heatsink scale k",
                value: scale_g,
                expected: "finite and >= 0",
            });
        }
        if !(exponent.is_finite() && exponent > 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "heatsink exponent p",
                value: exponent,
                expected: "finite and > 0",
            });
        }
        Ok(Self {
            scale: scale_g,
            exponent,
            threshold: Watts::new(1.0),
        })
    }

    /// A simple linear model, `mass = g_per_watt · TDP`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if `g_per_watt` is negative or
    /// non-finite.
    pub fn linear(g_per_watt: f64) -> Result<Self, ModelError> {
        Self::power_law(g_per_watt, 1.0)
    }

    /// Returns a copy with a different no-heatsink threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: Watts) -> Self {
        self.threshold = threshold;
        self
    }

    /// The TDP below which no heatsink mass is added.
    #[must_use]
    pub fn threshold(&self) -> Watts {
        self.threshold
    }

    /// Heatsink mass required to dissipate the given TDP.
    ///
    /// TDPs at or below the threshold need no heatsink. Negative TDPs are
    /// clamped to zero.
    #[must_use]
    pub fn mass_for(&self, tdp: Watts) -> Grams {
        let w = tdp.get().max(0.0);
        if w <= self.threshold.get() {
            return Grams::ZERO;
        }
        Grams::new(self.scale * w.powf(self.exponent))
    }

    /// The TDP that a heatsink of the given mass can dissipate — the inverse
    /// of [`mass_for`](Self::mass_for), used when back-solving a weight
    /// budget into a power budget.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] for negative masses or when the
    /// model has zero scale (no well-defined inverse).
    pub fn tdp_for(&self, mass: Grams) -> Result<Watts, ModelError> {
        if mass.get() < 0.0 {
            return Err(ModelError::OutOfDomain {
                parameter: "heatsink mass",
                value: mass.get(),
                expected: ">= 0",
            });
        }
        if self.scale <= 0.0 {
            return Err(ModelError::OutOfDomain {
                parameter: "heatsink scale k",
                value: self.scale,
                expected: "> 0 for inversion",
            });
        }
        Ok(Watts::new(
            (mass.get() / self.scale).powf(1.0 / self.exponent),
        ))
    }
}

impl Default for HeatsinkModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_30w() {
        let hs = HeatsinkModel::paper_calibrated();
        assert!((hs.mass_for(Watts::new(30.0)).get() - 162.0).abs() < 1e-6);
    }

    #[test]
    fn paper_anchor_1_5w() {
        let hs = HeatsinkModel::paper_calibrated();
        assert!((hs.mass_for(Watts::new(1.5)).get() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn paper_anchor_15w_within_5_percent() {
        // §VI-A: halving TDP from 30 W roughly halves heatsink weight
        // (162 g → 81 g). The power-law fit lands within 5 %.
        let hs = HeatsinkModel::paper_calibrated();
        let m = hs.mass_for(Watts::new(15.0)).get();
        assert!((m - 81.0).abs() / 81.0 < 0.05, "{m}");
    }

    #[test]
    fn twenty_x_tdp_is_16x_weight() {
        // Fig. 12's headline: ~20× in TDP ⇒ ~16.2× in heatsink weight.
        let hs = HeatsinkModel::paper_calibrated();
        let lo = hs.mass_for(Watts::new(1.5)).get();
        let hi = hs.mass_for(Watts::new(30.0)).get();
        let ratio = hi / lo;
        assert!((ratio - 16.2).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn sub_threshold_parts_need_no_heatsink() {
        let hs = HeatsinkModel::paper_calibrated();
        // Intel NCS (< 1 W) and PULP-DroNet (64 mW).
        assert_eq!(hs.mass_for(Watts::new(0.9)), Grams::ZERO);
        assert_eq!(hs.mass_for(Watts::new(0.064)), Grams::ZERO);
        assert_eq!(hs.mass_for(Watts::new(-1.0)), Grams::ZERO);
    }

    #[test]
    fn monotone_in_tdp() {
        let hs = HeatsinkModel::paper_calibrated();
        let mut prev = Grams::ZERO;
        for w in 1..=60 {
            let m = hs.mass_for(Watts::new(w as f64));
            assert!(m >= prev);
            prev = m;
        }
    }

    #[test]
    fn inverse_round_trips() {
        let hs = HeatsinkModel::paper_calibrated();
        for &w in &[2.0, 7.5, 15.0, 30.0, 60.0] {
            let m = hs.mass_for(Watts::new(w));
            let back = hs.tdp_for(m).unwrap();
            assert!((back.get() - w).abs() < 1e-9, "w = {w}");
        }
    }

    #[test]
    fn linear_model() {
        let hs = HeatsinkModel::linear(5.0)
            .unwrap()
            .with_threshold(Watts::ZERO);
        assert!((hs.mass_for(Watts::new(10.0)).get() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(HeatsinkModel::power_law(-1.0, 1.0).is_err());
        assert!(HeatsinkModel::power_law(1.0, 0.0).is_err());
        assert!(HeatsinkModel::power_law(f64::NAN, 1.0).is_err());
        assert!(HeatsinkModel::linear(-2.0).is_err());
    }

    #[test]
    fn inverse_rejects_bad_inputs() {
        let hs = HeatsinkModel::paper_calibrated();
        assert!(hs.tdp_for(Grams::new(-1.0)).is_err());
        let flat = HeatsinkModel::power_law(0.0, 1.0).unwrap();
        assert!(flat.tdp_for(Grams::new(10.0)).is_err());
    }
}
