//! The sensor→compute→control pipeline bounds (paper Eq. 1–3).
//!
//! The decision-making ("action") rate of an autonomous UAV is the
//! throughput of a three-stage pipeline: the sensor samples the world, the
//! onboard computer runs the autonomy algorithm, and the flight controller
//! turns high-level actions into actuation. When the stages run
//! concurrently the pipeline's period is bounded below by the slowest stage
//! (Eq. 1); when they run back-to-back it is bounded above by the sum of
//! the stage latencies (Eq. 2). The paper's bottleneck analysis (Eq. 3)
//! uses the optimistic bound:
//!
//! ```text
//! f_action = min(f_sensor, f_compute, f_control)
//! ```

use f1_units::{Hertz, Seconds};

use crate::ModelError;

/// One stage of the sensor→compute→control pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// The sensing stage (camera / lidar / RGB-D sampling).
    Sensor,
    /// The compute stage (the autonomy algorithm on the onboard computer).
    Compute,
    /// The control stage (flight-controller actuation loop).
    Control,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 3] = [Stage::Sensor, Stage::Compute, Stage::Control];
}

impl core::fmt::Display for Stage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Stage::Sensor => "sensor",
            Stage::Compute => "compute",
            Stage::Control => "control",
        })
    }
}

/// Per-stage latencies `T_sensor`, `T_compute`, `T_control`.
///
/// # Examples
///
/// ```
/// use f1_model::pipeline::StageLatencies;
/// use f1_units::Seconds;
///
/// // 60 FPS camera, DroNet on TX2 (178 Hz), 1 kHz flight controller.
/// let lat = StageLatencies::new(
///     Seconds::new(1.0 / 60.0),
///     Seconds::new(1.0 / 178.0),
///     Seconds::new(1.0 / 1000.0),
/// )?;
/// // The sensor is the slowest stage, so it sets the action rate.
/// assert!((lat.action_throughput().get() - 60.0).abs() < 1e-9);
/// # Ok::<(), f1_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageLatencies {
    sensor: Seconds,
    compute: Seconds,
    control: Seconds,
}

impl StageLatencies {
    /// Creates a stage-latency triple.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if any latency is non-positive or
    /// non-finite.
    pub fn new(sensor: Seconds, compute: Seconds, control: Seconds) -> Result<Self, ModelError> {
        for (name, v) in [
            ("T_sensor", sensor),
            ("T_compute", compute),
            ("T_control", control),
        ] {
            if !(v.get().is_finite() && v.get() > 0.0) {
                return Err(ModelError::OutOfDomain {
                    parameter: name,
                    value: v.get(),
                    expected: "finite and > 0",
                });
            }
        }
        Ok(Self {
            sensor,
            compute,
            control,
        })
    }

    /// Sensor stage latency.
    #[must_use]
    pub fn sensor(&self) -> Seconds {
        self.sensor
    }

    /// Compute stage latency.
    #[must_use]
    pub fn compute(&self) -> Seconds {
        self.compute
    }

    /// Control stage latency.
    #[must_use]
    pub fn control(&self) -> Seconds {
        self.control
    }

    /// The latency of a given stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Seconds {
        match stage {
            Stage::Sensor => self.sensor,
            Stage::Compute => self.compute,
            Stage::Control => self.control,
        }
    }

    /// Paper Eq. 1 (lower bound): with fully-overlapped stages the pipeline
    /// period can never be smaller than the slowest stage.
    #[must_use]
    pub fn period_lower_bound(&self) -> Seconds {
        self.sensor.max(self.compute).max(self.control)
    }

    /// Paper Eq. 2 (upper bound): with no overlap the pipeline period can
    /// never exceed the sum of the stage latencies.
    #[must_use]
    pub fn period_upper_bound(&self) -> Seconds {
        self.sensor + self.compute + self.control
    }

    /// Whether a measured action period is consistent with Eq. 1–2.
    #[must_use]
    pub fn envelope_contains(&self, t_action: Seconds) -> bool {
        let eps = 1e-12;
        t_action.get() >= self.period_lower_bound().get() - eps
            && t_action.get() <= self.period_upper_bound().get() + eps
    }

    /// Paper Eq. 3: the optimistic action throughput,
    /// `min(1/T_sensor, 1/T_compute, 1/T_control)`.
    #[must_use]
    pub fn action_throughput(&self) -> Hertz {
        self.period_lower_bound().frequency()
    }

    /// The pessimistic action throughput, `1 / (T_s + T_c + T_ctl)` — the
    /// sequential-execution floor implied by Eq. 2.
    #[must_use]
    pub fn sequential_throughput(&self) -> Hertz {
        self.period_upper_bound().frequency()
    }

    /// The stage with the largest latency — the pipeline bottleneck.
    ///
    /// Ties are broken in pipeline order (sensor, then compute, then
    /// control), matching the paper's bound precedence where the sensor
    /// ceiling is drawn before the compute ceiling.
    #[must_use]
    pub fn bottleneck(&self) -> Stage {
        let mut best = Stage::Sensor;
        for stage in [Stage::Compute, Stage::Control] {
            if self.stage(stage) > self.stage(best) {
                best = stage;
            }
        }
        best
    }

    /// Converts to per-stage rates.
    #[must_use]
    pub fn rates(&self) -> StageRates {
        StageRates {
            sensor: self.sensor.frequency(),
            compute: self.compute.frequency(),
            control: self.control.frequency(),
        }
    }
}

/// Per-stage throughputs `f_sensor`, `f_compute`, `f_control`.
///
/// This is the form the paper's case studies use (sensor FPS, algorithm FPS
/// on a platform, control-loop frequency).
///
/// # Examples
///
/// ```
/// use f1_model::pipeline::{Stage, StageRates};
/// use f1_units::Hertz;
///
/// // §VI-B: SPA on TX2 runs at 1.1 Hz — hopelessly compute-bound.
/// let rates = StageRates::new(Hertz::new(60.0), Hertz::new(1.1), Hertz::new(1000.0))?;
/// assert_eq!(rates.bottleneck(), Stage::Compute);
/// assert!((rates.action_throughput().get() - 1.1).abs() < 1e-12);
/// # Ok::<(), f1_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRates {
    sensor: Hertz,
    compute: Hertz,
    control: Hertz,
}

impl StageRates {
    /// Creates a stage-rate triple.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if any rate is non-positive or
    /// non-finite.
    pub fn new(sensor: Hertz, compute: Hertz, control: Hertz) -> Result<Self, ModelError> {
        for (name, v) in [
            ("f_sensor", sensor),
            ("f_compute", compute),
            ("f_control", control),
        ] {
            if !(v.get().is_finite() && v.get() > 0.0) {
                return Err(ModelError::OutOfDomain {
                    parameter: name,
                    value: v.get(),
                    expected: "finite and > 0",
                });
            }
        }
        Ok(Self {
            sensor,
            compute,
            control,
        })
    }

    /// Sensor throughput.
    #[must_use]
    pub fn sensor(&self) -> Hertz {
        self.sensor
    }

    /// Compute throughput.
    #[must_use]
    pub fn compute(&self) -> Hertz {
        self.compute
    }

    /// Control throughput.
    #[must_use]
    pub fn control(&self) -> Hertz {
        self.control
    }

    /// The rate of a given stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Hertz {
        match stage {
            Stage::Sensor => self.sensor,
            Stage::Compute => self.compute,
            Stage::Control => self.control,
        }
    }

    /// Returns a copy with the compute rate replaced (the most common
    /// what-if in the paper's case studies).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if the rate is non-positive.
    pub fn with_compute(&self, compute: Hertz) -> Result<Self, ModelError> {
        Self::new(self.sensor, compute, self.control)
    }

    /// Returns a copy with the sensor rate replaced.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if the rate is non-positive.
    pub fn with_sensor(&self, sensor: Hertz) -> Result<Self, ModelError> {
        Self::new(sensor, self.compute, self.control)
    }

    /// Paper Eq. 3: `f_action = min(f_sensor, f_compute, f_control)`.
    #[must_use]
    pub fn action_throughput(&self) -> Hertz {
        self.sensor.min(self.compute).min(self.control)
    }

    /// The stage with the smallest throughput — the pipeline bottleneck.
    ///
    /// Ties are broken in pipeline order (sensor, compute, control).
    #[must_use]
    pub fn bottleneck(&self) -> Stage {
        let mut best = Stage::Sensor;
        for stage in [Stage::Compute, Stage::Control] {
            if self.stage(stage) < self.stage(best) {
                best = stage;
            }
        }
        best
    }

    /// Converts to per-stage latencies.
    #[must_use]
    pub fn latencies(&self) -> StageLatencies {
        StageLatencies {
            sensor: self.sensor.period(),
            compute: self.compute.period(),
            control: self.control.period(),
        }
    }
}

impl core::fmt::Display for StageRates {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "sensor {:.1}, compute {:.1}, control {:.1}",
            self.sensor, self.compute, self.control
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typical() -> StageLatencies {
        // 60 FPS sensor, 178 Hz DroNet-on-TX2, 1 kHz control.
        StageLatencies::new(
            Seconds::new(1.0 / 60.0),
            Seconds::new(1.0 / 178.0),
            Seconds::new(1.0 / 1000.0),
        )
        .unwrap()
    }

    #[test]
    fn rejects_invalid_latencies() {
        let good = Seconds::new(0.01);
        assert!(StageLatencies::new(Seconds::ZERO, good, good).is_err());
        assert!(StageLatencies::new(good, Seconds::new(-0.1), good).is_err());
        assert!(StageLatencies::new(good, good, good).is_ok());
    }

    #[test]
    fn eq1_eq2_envelope() {
        let lat = typical();
        let lower = lat.period_lower_bound();
        let upper = lat.period_upper_bound();
        assert!(lower <= upper);
        assert!((lower.get() - 1.0 / 60.0).abs() < 1e-12);
        assert!((upper.get() - (1.0 / 60.0 + 1.0 / 178.0 + 1e-3)).abs() < 1e-12);
        assert!(lat.envelope_contains(lower));
        assert!(lat.envelope_contains(upper));
        assert!(!lat.envelope_contains(lower * 0.5));
        assert!(!lat.envelope_contains(upper * 1.5));
    }

    #[test]
    fn eq3_is_min_rule() {
        let lat = typical();
        assert!((lat.action_throughput().get() - 60.0).abs() < 1e-9);
        let rates = lat.rates();
        assert!((rates.action_throughput().get() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_throughput_below_pipelined() {
        let lat = typical();
        assert!(lat.sequential_throughput() < lat.action_throughput());
    }

    #[test]
    fn bottleneck_attribution() {
        let lat = typical();
        assert_eq!(lat.bottleneck(), Stage::Sensor);

        // SPA on TX2 at 1.1 Hz: compute dominates.
        let spa = StageRates::new(Hertz::new(60.0), Hertz::new(1.1), Hertz::new(1000.0)).unwrap();
        assert_eq!(spa.bottleneck(), Stage::Compute);
        assert!((spa.action_throughput().get() - 1.1).abs() < 1e-12);

        // A degenerate 5 Hz flight controller would be control-bound.
        let ctl = StageRates::new(Hertz::new(60.0), Hertz::new(178.0), Hertz::new(5.0)).unwrap();
        assert_eq!(ctl.bottleneck(), Stage::Control);
    }

    #[test]
    fn tie_breaks_in_pipeline_order() {
        let rates = StageRates::new(Hertz::new(60.0), Hertz::new(60.0), Hertz::new(60.0)).unwrap();
        assert_eq!(rates.bottleneck(), Stage::Sensor);
        let lat = rates.latencies();
        assert_eq!(lat.bottleneck(), Stage::Sensor);
    }

    #[test]
    fn rates_latencies_round_trip() {
        let lat = typical();
        let back = lat.rates().latencies();
        assert!((back.sensor().get() - lat.sensor().get()).abs() < 1e-12);
        assert!((back.compute().get() - lat.compute().get()).abs() < 1e-12);
        assert!((back.control().get() - lat.control().get()).abs() < 1e-12);
    }

    #[test]
    fn with_mutators() {
        let rates = typical().rates();
        let faster = rates.with_compute(Hertz::new(230.0)).unwrap();
        assert!((faster.compute().get() - 230.0).abs() < 1e-12);
        assert!(rates.with_compute(Hertz::ZERO).is_err());
        let slower_sensor = rates.with_sensor(Hertz::new(30.0)).unwrap();
        assert!((slower_sensor.action_throughput().get() - 30.0).abs() < 1e-9);
        assert!(rates.with_sensor(Hertz::new(-2.0)).is_err());
    }

    #[test]
    fn stage_display_and_all() {
        assert_eq!(Stage::ALL.len(), 3);
        assert_eq!(Stage::Sensor.to_string(), "sensor");
        assert_eq!(Stage::Compute.to_string(), "compute");
        assert_eq!(Stage::Control.to_string(), "control");
    }

    #[test]
    fn action_throughput_within_envelope_rates() {
        // Eq. 3's optimistic rate must always be achievable per Eq. 1, i.e.
        // its period equals the lower bound.
        let lat = typical();
        let t = lat.action_throughput().period();
        assert!((t.get() - lat.period_lower_bound().get()).abs() < 1e-12);
    }
}
