//! The Skyline user knobs (paper Table II).

use f1_units::{Grams, Hertz, Meters, Seconds, Watts};

use crate::SkylineError;

/// Description of one knob, as listed in paper Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobDescription {
    /// Knob name.
    pub parameter: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Description from the paper.
    pub description: &'static str,
}

/// The raw user-defined UAV parameters (paper Table II), for exploratory
/// studies that bypass the component catalog.
///
/// # Examples
///
/// ```
/// use f1_skyline::Knobs;
/// use f1_units::*;
///
/// let knobs = Knobs {
///     sensor_framerate: Hertz::new(60.0),
///     sensor_range: Meters::new(5.0),
///     compute_tdp: Watts::new(15.0),
///     compute_runtime: Seconds::new(1.0 / 178.0),
///     drone_weight: Grams::new(300.0),
///     rotor_pull: Grams::new(800.0),
///     payload_weight: Grams::new(150.0),
/// };
/// assert!(knobs.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Throughput of the sensor (Hz).
    pub sensor_framerate: Hertz,
    /// Maximum range of the sensor (m).
    pub sensor_range: Meters,
    /// Maximum TDP of the onboard compute (W). Used to size the heatsink.
    pub compute_tdp: Watts,
    /// Latency of the autonomy algorithm (s). Used to calculate compute
    /// throughput.
    pub compute_runtime: Seconds,
    /// Maximum weight of the UAV without any extra payload (g).
    pub drone_weight: Grams,
    /// Total thrust produced by the rotor propulsion, as equivalent mass (g).
    pub rotor_pull: Grams,
    /// Total weight of the payload including onboard compute, sensors,
    /// battery etc. (g).
    pub payload_weight: Grams,
}

impl Knobs {
    /// The Table II knob inventory.
    #[must_use]
    pub fn table2() -> Vec<KnobDescription> {
        vec![
            KnobDescription {
                parameter: "Sensor Framerate",
                unit: "Hz",
                description: "Throughput of the sensor.",
            },
            KnobDescription {
                parameter: "Compute TDP",
                unit: "W",
                description: "Maximum TDP of the onboard compute. Used to design the heatsink.",
            },
            KnobDescription {
                parameter: "Autonomy Algorithm",
                unit: "N/A",
                description: "Select a pre-configured autonomy algorithm.",
            },
            KnobDescription {
                parameter: "Compute Runtime",
                unit: "s",
                description: "Measures the latency of the autonomy algorithm. Used to calculate compute throughput.",
            },
            KnobDescription {
                parameter: "Sensor Range",
                unit: "m",
                description: "Maximum range of the sensor.",
            },
            KnobDescription {
                parameter: "Drone Weight",
                unit: "g",
                description: "Maximum weight of the UAV without any extra payload.",
            },
            KnobDescription {
                parameter: "Rotor Pull",
                unit: "g",
                description: "Measures the thrust produced by the rotor propulsion.",
            },
            KnobDescription {
                parameter: "Payload Weight",
                unit: "g",
                description: "Total weight of the payload including onboard compute, sensors, battery etc.",
            },
        ]
    }

    /// Validates every knob's domain.
    ///
    /// # Errors
    ///
    /// Returns [`SkylineError::Model`] naming the first out-of-domain knob.
    pub fn validate(&self) -> Result<(), SkylineError> {
        let positive = [
            ("sensor_framerate", self.sensor_framerate.get()),
            ("sensor_range", self.sensor_range.get()),
            ("compute_runtime", self.compute_runtime.get()),
            ("drone_weight", self.drone_weight.get()),
            ("rotor_pull", self.rotor_pull.get()),
        ];
        for (name, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                return Err(SkylineError::Model(f1_model::ModelError::OutOfDomain {
                    parameter: match name {
                        "sensor_framerate" => "sensor_framerate",
                        "sensor_range" => "sensor_range",
                        "compute_runtime" => "compute_runtime",
                        "drone_weight" => "drone_weight",
                        _ => "rotor_pull",
                    },
                    value: v,
                    expected: "finite and > 0",
                }));
            }
        }
        for (name, v) in [
            ("compute_tdp", self.compute_tdp.get()),
            ("payload_weight", self.payload_weight.get()),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(SkylineError::Model(f1_model::ModelError::OutOfDomain {
                    parameter: if name == "compute_tdp" {
                        "compute_tdp"
                    } else {
                        "payload_weight"
                    },
                    value: v,
                    expected: "finite and >= 0",
                }));
            }
        }
        Ok(())
    }

    /// The compute throughput implied by the runtime knob.
    #[must_use]
    pub fn compute_throughput(&self) -> Hertz {
        self.compute_runtime.frequency()
    }
}

impl Default for Knobs {
    /// A DJI-Spark-like default configuration.
    fn default() -> Self {
        Self {
            sensor_framerate: Hertz::new(60.0),
            sensor_range: Meters::new(5.0),
            compute_tdp: Watts::new(15.0),
            compute_runtime: Seconds::new(1.0 / 178.0),
            drone_weight: Grams::new(300.0),
            rotor_pull: Grams::new(800.0),
            payload_weight: Grams::new(150.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_eight_knobs() {
        let rows = Knobs::table2();
        assert_eq!(rows.len(), 8);
        let names: Vec<&str> = rows.iter().map(|r| r.parameter).collect();
        for expected in [
            "Sensor Framerate",
            "Compute TDP",
            "Autonomy Algorithm",
            "Compute Runtime",
            "Sensor Range",
            "Drone Weight",
            "Rotor Pull",
            "Payload Weight",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn default_is_valid() {
        assert!(Knobs::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_values() {
        let k = Knobs {
            sensor_framerate: Hertz::ZERO,
            ..Knobs::default()
        };
        assert!(k.validate().is_err());

        let k = Knobs {
            compute_tdp: Watts::new(-1.0),
            ..Knobs::default()
        };
        assert!(k.validate().is_err());

        // NaN is already caught at Grams construction time:
        assert!(f1_units::Grams::try_new(f64::NAN).is_err());
        let k = Knobs {
            payload_weight: Grams::new(-5.0),
            ..Knobs::default()
        };
        assert!(k.validate().is_err());
    }

    #[test]
    fn throughput_from_runtime() {
        let k = Knobs::default();
        assert!((k.compute_throughput().get() - 178.0).abs() < 1e-9);
    }
}
