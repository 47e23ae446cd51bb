//! Autonomy algorithm records: paradigm and pipeline structure.

use crate::ComponentError;

/// The two autonomy paradigms of paper §II-E.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// "Sense-Plan-Act": distinct mapping, planning and control stages.
    SensePlanAct,
    /// "End-to-End Learning": a neural network maps sensor data directly to
    /// actions.
    EndToEnd,
}

impl core::fmt::Display for Paradigm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::SensePlanAct => "Sense-Plan-Act",
            Self::EndToEnd => "End-to-End Learning",
        })
    }
}

/// A named stage of a Sense-Plan-Act pipeline with its share of the
/// end-to-end compute latency.
///
/// Used by the §VII Navion study: replacing only the SLAM stage with a
/// 172 FPS accelerator leaves the mapping/planning stages dominating the
/// 810 ms end-to-end latency.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaStage {
    /// Stage name (e.g. "SLAM", "OctoMap", "path planner").
    pub name: String,
    /// The stage's share of end-to-end latency, in `(0, 1]`. Shares across
    /// an algorithm's stages sum to 1.
    pub latency_share: f64,
}

/// An autonomy algorithm.
///
/// Throughput is *not* a property of the algorithm alone — it depends on
/// the platform — so it lives in
/// [`ThroughputMatrix`](crate::ThroughputMatrix).
///
/// # Examples
///
/// ```
/// use f1_components::{AutonomyAlgorithm, Paradigm};
///
/// let dronet = AutonomyAlgorithm::end_to_end("DroNet")?;
/// assert_eq!(dronet.paradigm(), Paradigm::EndToEnd);
/// assert!(dronet.stages().is_empty());
/// # Ok::<(), f1_components::ComponentError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AutonomyAlgorithm {
    name: String,
    paradigm: Paradigm,
    stages: Vec<SpaStage>,
}

impl AutonomyAlgorithm {
    /// Creates an end-to-end learning algorithm (no internal stages).
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the name is empty.
    pub fn end_to_end(name: impl Into<String>) -> Result<Self, ComponentError> {
        let name = Self::validate_name(name.into())?;
        Ok(Self {
            name,
            paradigm: Paradigm::EndToEnd,
            stages: Vec::new(),
        })
    }

    /// Creates a Sense-Plan-Act algorithm with named stages whose latency
    /// shares must sum to 1 (±1e-6).
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the name is empty, any
    /// stage share is outside `(0, 1]`, or the shares don't sum to 1.
    pub fn sense_plan_act(
        name: impl Into<String>,
        stages: Vec<SpaStage>,
    ) -> Result<Self, ComponentError> {
        let name = Self::validate_name(name.into())?;
        if stages.is_empty() {
            return Err(ComponentError::InvalidField {
                field: "stages",
                reason: "an SPA algorithm needs at least one stage".into(),
            });
        }
        let mut total = 0.0;
        for s in &stages {
            if !(s.latency_share.is_finite() && s.latency_share > 0.0 && s.latency_share <= 1.0) {
                return Err(ComponentError::InvalidField {
                    field: "stages",
                    reason: format!(
                        "stage {:?} has latency share {} outside (0, 1]",
                        s.name, s.latency_share
                    ),
                });
            }
            total += s.latency_share;
        }
        if (total - 1.0).abs() > 1e-6 {
            return Err(ComponentError::InvalidField {
                field: "stages",
                reason: format!("latency shares sum to {total}, expected 1"),
            });
        }
        Ok(Self {
            name,
            paradigm: Paradigm::SensePlanAct,
            stages,
        })
    }

    fn validate_name(name: String) -> Result<String, ComponentError> {
        if name.trim().is_empty() {
            Err(ComponentError::InvalidField {
                field: "name",
                reason: "must not be empty".into(),
            })
        } else {
            Ok(name)
        }
    }

    /// The algorithm's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The paradigm.
    #[must_use]
    pub fn paradigm(&self) -> Paradigm {
        self.paradigm
    }

    /// SPA stages (empty for end-to-end algorithms).
    #[must_use]
    pub fn stages(&self) -> &[SpaStage] {
        &self.stages
    }

    /// The end-to-end latency share *not* covered by the named stage — used
    /// when a single stage is replaced by an accelerator (§VII's Navion
    /// what-if).
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::UnknownComponent`] if no stage has that
    /// name.
    pub fn residual_share_without(&self, stage_name: &str) -> Result<f64, ComponentError> {
        let stage = self
            .stages
            .iter()
            .find(|s| s.name == stage_name)
            .ok_or_else(|| ComponentError::UnknownComponent {
                family: "SPA stage",
                name: stage_name.into(),
            })?;
        Ok((1.0 - stage.latency_share).max(0.0))
    }
}

impl core::fmt::Display for AutonomyAlgorithm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} ({})", self.name, self.paradigm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spa() -> AutonomyAlgorithm {
        AutonomyAlgorithm::sense_plan_act(
            "MAVBench package delivery",
            vec![
                SpaStage {
                    name: "SLAM".into(),
                    latency_share: 0.35,
                },
                SpaStage {
                    name: "OctoMap".into(),
                    latency_share: 0.30,
                },
                SpaStage {
                    name: "path planner".into(),
                    latency_share: 0.35,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_has_no_stages() {
        let a = AutonomyAlgorithm::end_to_end("TrailNet").unwrap();
        assert_eq!(a.paradigm(), Paradigm::EndToEnd);
        assert!(a.stages().is_empty());
        assert_eq!(a.name(), "TrailNet");
    }

    #[test]
    fn spa_requires_shares_summing_to_one() {
        let bad = AutonomyAlgorithm::sense_plan_act(
            "x",
            vec![SpaStage {
                name: "only".into(),
                latency_share: 0.5,
            }],
        );
        assert!(bad.is_err());
        let exact = AutonomyAlgorithm::sense_plan_act(
            "y",
            vec![SpaStage {
                name: "only".into(),
                latency_share: 1.0,
            }],
        );
        assert!(exact.is_ok());
    }

    #[test]
    fn spa_rejects_bad_shares_and_empty() {
        assert!(AutonomyAlgorithm::sense_plan_act("x", vec![]).is_err());
        let neg = AutonomyAlgorithm::sense_plan_act(
            "x",
            vec![
                SpaStage {
                    name: "a".into(),
                    latency_share: -0.5,
                },
                SpaStage {
                    name: "b".into(),
                    latency_share: 1.5,
                },
            ],
        );
        assert!(neg.is_err());
    }

    #[test]
    fn rejects_empty_names() {
        assert!(AutonomyAlgorithm::end_to_end("").is_err());
        assert!(AutonomyAlgorithm::end_to_end("   ").is_err());
    }

    #[test]
    fn residual_share_for_accelerated_stage() {
        // Accelerating SLAM leaves the other 65 % of latency in place.
        let a = spa();
        let residual = a.residual_share_without("SLAM").unwrap();
        assert!((residual - 0.65).abs() < 1e-12);
        assert!(a.residual_share_without("nonexistent").is_err());
    }

    #[test]
    fn display_forms() {
        assert!(spa().to_string().contains("Sense-Plan-Act"));
        assert_eq!(Paradigm::EndToEnd.to_string(), "End-to-End Learning");
    }
}
