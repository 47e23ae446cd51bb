//! Synthetic catalog generation for scale testing.
//!
//! The paper's catalog is tiny — ~10² characterized candidates per
//! airframe — which cannot stress the DSE engine's batched evaluation
//! path or justify an O(n log n) skyline. [`Catalog::synthesize`]
//! generates arbitrarily large catalogs with physically plausible (if
//! fictional) parts: masses, TDPs, thrust budgets and throughputs all
//! land in the ranges the real Table I parts span, so feasibility splits
//! and frontier shapes look like scaled-up versions of the paper's
//! design space rather than white noise.
//!
//! Generation is **deterministic per seed** (the workspace's xoshiro-
//! based [`StdRng`]): the same `(seed, n_per_family)` always produces an
//! identical catalog, so benchmarks and tests are reproducible.

use rand::{rngs::StdRng, Rng, SeedableRng};

use f1_units::{Grams, Hertz, Meters, MilliampHours, Millimeters, Watts};

use crate::{
    Airframe, AutonomyAlgorithm, Battery, Catalog, ComputeKind, ComputePlatform, Sensor,
    SensorModality,
};

/// Draws from a log-uniform distribution over `[lo, hi]` — component
/// characteristics (TDP, throughput, capacity) span orders of magnitude,
/// so uniform sampling would crowd the top decade.
fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    rng.gen_range(lo.ln()..hi.ln()).exp()
}

impl Catalog {
    /// Generates a synthetic catalog with `n_per_family` airframes,
    /// sensors, compute platforms, algorithms and batteries, and a
    /// **dense** throughput matrix (every platform × algorithm pair
    /// characterized). The characterized candidate count per airframe is
    /// therefore `n_per_family³`: 22 per family ≈ 10⁴ candidates, 47 per
    /// family ≈ 10⁵, 100 per family = 10⁶, and 216 per family ≈ 1.007 ×
    /// 10⁷ — the scale the sharded tier-1 executor
    /// (`f1-skyline`'s `shard` module) is sized for, where materializing
    /// every point stops being an option.
    ///
    /// Deterministic: equal `(seed, n_per_family)` yields an identical
    /// catalog (`PartialEq`).
    ///
    /// # Panics
    ///
    /// Panics if `n_per_family` is zero or large enough to overflow the
    /// name width (> 999 999).
    #[must_use]
    pub fn synthesize(seed: u64, n_per_family: usize) -> Self {
        assert!(
            (1..=999_999).contains(&n_per_family),
            "n_per_family must be in 1..=999999, got {n_per_family}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cat = Self::new();

        for i in 0..n_per_family {
            // Thrust budget 1.3–3.0× the base mass keeps every frame
            // hover-capable empty with a real payload allowance, like the
            // calibrated paper frames.
            let base = log_uniform(&mut rng, 50.0, 2500.0);
            let rotors = [4u8, 4, 4, 6, 8][rng.gen_range(0usize..5)];
            let pull_per_rotor = base * rng.gen_range(1.3..3.0) / f64::from(rotors);
            let frame_size = base.sqrt() * rng.gen_range(8.0..16.0);
            cat.add_airframe(
                Airframe::builder(format!("Synth Frame {i:06}"))
                    .base_mass(Grams::new(base))
                    .rotor_count(rotors)
                    .rotor_pull_gf(pull_per_rotor)
                    .frame_size(Millimeters::new(frame_size))
                    .build()
                    .expect("synthetic airframe parameters are in-domain"),
            )
            .expect("synthetic airframe names are unique");
        }

        const MODALITIES: [SensorModality; 5] = [
            SensorModality::RgbCamera,
            SensorModality::RgbdCamera,
            SensorModality::StereoCamera,
            SensorModality::Lidar,
            SensorModality::Radar,
        ];
        for i in 0..n_per_family {
            let modality = MODALITIES[rng.gen_range(0usize..MODALITIES.len())];
            cat.add_sensor(
                Sensor::new(
                    format!("Synth Sensor {i:06}"),
                    modality,
                    Hertz::new(rng.gen_range(10.0..240.0)),
                    Meters::new(log_uniform(&mut rng, 1.0, 50.0)),
                    Grams::new(log_uniform(&mut rng, 1.0, 300.0)),
                )
                .expect("synthetic sensor parameters are in-domain"),
            )
            .expect("synthetic sensor names are unique");
        }

        const KINDS: [ComputeKind; 5] = [
            ComputeKind::Microcontroller,
            ComputeKind::SingleBoard,
            ComputeKind::EmbeddedGpu,
            ComputeKind::VisionAccelerator,
            ComputeKind::Asic,
        ];
        let mut tdps = Vec::with_capacity(n_per_family);
        for i in 0..n_per_family {
            // Mass loosely tracks TDP (a 60 W module is never 2 g), with
            // occasional support mass like the Ras-Pi's dedicated battery.
            let tdp = log_uniform(&mut rng, 0.05, 60.0);
            let mass = 2.0 + tdp * rng.gen_range(2.0..12.0);
            let support = if rng.gen_bool(0.2) {
                rng.gen_range(30.0..700.0)
            } else {
                0.0
            };
            cat.add_compute(
                ComputePlatform::builder(format!("Synth Compute {i:06}"))
                    .kind(KINDS[rng.gen_range(0usize..KINDS.len())])
                    .mass(Grams::new(mass))
                    .tdp(Watts::new(tdp))
                    .support_mass(Grams::new(support))
                    .build()
                    .expect("synthetic compute parameters are in-domain"),
            )
            .expect("synthetic compute names are unique");
            tdps.push(tdp);
        }

        for i in 0..n_per_family {
            cat.add_algorithm(
                AutonomyAlgorithm::end_to_end(format!("Synth Algorithm {i:06}"))
                    .expect("synthetic algorithm parameters are in-domain"),
            )
            .expect("synthetic algorithm names are unique");
        }

        for i in 0..n_per_family {
            let voltage = [3.7, 7.4, 11.1, 14.8, 22.2][rng.gen_range(0usize..5)];
            let capacity = log_uniform(&mut rng, 150.0, 10_000.0);
            // Li-Po packs run ~130–220 Wh/kg ⇒ ~4.5–8 g per Wh.
            let mass = capacity / 1000.0 * voltage * rng.gen_range(4.5..8.0);
            cat.add_battery(
                Battery::new(
                    format!("Synth Battery {i:06}"),
                    MilliampHours::new(capacity),
                    voltage,
                    Grams::new(mass),
                )
                .expect("synthetic battery parameters are in-domain"),
            )
            .expect("synthetic battery names are unique");
        }

        // Dense characterization: throughput spans DroNet-class CNNs down
        // to SPA pipelines, scaled by how beefy the platform is.
        for (p, tdp) in tdps.iter().enumerate() {
            let platform_factor = (tdp / 15.0).powf(0.5).clamp(0.05, 3.0);
            for a in 0..n_per_family {
                let rate = log_uniform(&mut rng, 0.2, 400.0) * platform_factor;
                cat.matrix_mut()
                    .insert(
                        format!("Synth Compute {p:06}"),
                        format!("Synth Algorithm {a:06}"),
                        Hertz::new(rate),
                    )
                    .expect("synthetic matrix entries are unique");
            }
        }

        debug_assert!(cat.validate().is_ok());
        cat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_counts_and_density() {
        let cat = Catalog::synthesize(42, 7);
        assert_eq!(cat.airframe_count(), 7);
        assert_eq!(cat.sensor_count(), 7);
        assert_eq!(cat.compute_count(), 7);
        assert_eq!(cat.algorithm_count(), 7);
        assert_eq!(cat.battery_count(), 7);
        assert_eq!(cat.matrix().len(), 49);
        assert_eq!(cat.throughput_table().len(), 49);
        assert!(cat.validate().is_ok());
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        assert_eq!(Catalog::synthesize(1, 5), Catalog::synthesize(1, 5));
        assert_ne!(Catalog::synthesize(1, 5), Catalog::synthesize(2, 5));
    }

    #[test]
    fn frames_have_payload_allowance() {
        let cat = Catalog::synthesize(3, 20);
        for frame in cat.airframes() {
            assert!(
                frame.payload_capacity().get() > 0.0,
                "{} has no payload capacity",
                frame.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "n_per_family")]
    fn zero_families_rejected() {
        let _ = Catalog::synthesize(0, 0);
    }
}
