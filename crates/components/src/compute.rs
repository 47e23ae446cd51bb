//! Onboard compute platform records: kind, mass, TDP.

use f1_units::{Grams, Watts};

use crate::ComponentError;

/// The class of an onboard computing platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ComputeKind {
    /// A bare microcontroller (e.g. Arm Cortex-M4 on a nano-UAV).
    Microcontroller,
    /// A general-purpose single-board computer (Ras-Pi 4, UpBoard).
    SingleBoard,
    /// An embedded GPU module (Jetson TX2, Xavier AGX).
    EmbeddedGpu,
    /// A USB-attached vision accelerator (Intel NCS).
    VisionAccelerator,
    /// A domain-specific ASIC built for UAV autonomy (Navion, PULP-DroNet).
    Asic,
}

impl core::fmt::Display for ComputeKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::Microcontroller => "microcontroller",
            Self::SingleBoard => "single-board computer",
            Self::EmbeddedGpu => "embedded GPU",
            Self::VisionAccelerator => "vision accelerator",
            Self::Asic => "domain-specific ASIC",
        })
    }
}

/// An onboard computing platform.
///
/// The *bare* mass excludes the heatsink; Skyline derives the heatsink mass
/// from the TDP via [`f1_model::heatsink::HeatsinkModel`], exactly as the
/// paper's tool does (§VI-A: "The tool internally calculates the heatsink
/// weight, which for a 30 W TDP is 162 g").
///
/// # Examples
///
/// ```
/// use f1_components::{ComputeKind, ComputePlatform};
/// use f1_units::{Grams, Watts};
///
/// let agx = ComputePlatform::builder("Nvidia AGX")
///     .kind(ComputeKind::EmbeddedGpu)
///     .mass(Grams::new(280.0))
///     .tdp(Watts::new(30.0))
///     .build()?;
/// assert_eq!(agx.tdp(), Watts::new(30.0));
/// # Ok::<(), f1_components::ComponentError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComputePlatform {
    name: String,
    kind: ComputeKind,
    mass: Grams,
    tdp: Watts,
    /// Extra support mass required to field the platform (dedicated battery,
    /// carrier board, cabling) — the paper's Ras-Pi 4 and UpBoard builds
    /// carry a separate battery that dominates their payload weight.
    support_mass: Grams,
}

impl ComputePlatform {
    /// Starts building a platform record.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ComputePlatformBuilder {
        ComputePlatformBuilder {
            name: name.into(),
            kind: ComputeKind::SingleBoard,
            mass: None,
            tdp: None,
            support_mass: Grams::ZERO,
        }
    }

    /// The platform's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The platform class.
    #[must_use]
    pub fn kind(&self) -> ComputeKind {
        self.kind
    }

    /// Bare module/board mass (no heatsink).
    #[must_use]
    pub fn mass(&self) -> Grams {
        self.mass
    }

    /// Thermal design power.
    #[must_use]
    pub fn tdp(&self) -> Watts {
        self.tdp
    }

    /// Support mass (dedicated battery, carrier, cabling).
    #[must_use]
    pub fn support_mass(&self) -> Grams {
        self.support_mass
    }

    /// Bare + support mass, before heatsink.
    #[must_use]
    pub fn fielded_mass(&self) -> Grams {
        self.mass + self.support_mass
    }

    /// Returns a copy with a scaled TDP (the paper's §VI-A what-if: "reduce
    /// the TDP of AGX from 30 W to 15 W using any architectural
    /// optimization").
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the factor is not in
    /// `(0, ∞)`.
    pub fn with_tdp_scaled(&self, factor: f64) -> Result<Self, ComponentError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(ComponentError::InvalidField {
                field: "tdp factor",
                reason: format!("must be positive and finite, got {factor}"),
            });
        }
        let mut out = self.clone();
        out.tdp = Watts::new(self.tdp.get() * factor);
        Ok(out)
    }
}

impl core::fmt::Display for ComputePlatform {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} ({}, {:.0}, {:.1})",
            self.name, self.kind, self.mass, self.tdp
        )
    }
}

/// Builder for [`ComputePlatform`].
#[derive(Debug, Clone)]
pub struct ComputePlatformBuilder {
    name: String,
    kind: ComputeKind,
    mass: Option<Grams>,
    tdp: Option<Watts>,
    support_mass: Grams,
}

impl ComputePlatformBuilder {
    /// Sets the platform class.
    #[must_use]
    pub fn kind(mut self, kind: ComputeKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the bare module mass.
    #[must_use]
    pub fn mass(mut self, mass: Grams) -> Self {
        self.mass = Some(mass);
        self
    }

    /// Sets the thermal design power.
    #[must_use]
    pub fn tdp(mut self, tdp: Watts) -> Self {
        self.tdp = Some(tdp);
        self
    }

    /// Sets extra support mass (dedicated battery, carrier board).
    #[must_use]
    pub fn support_mass(mut self, mass: Grams) -> Self {
        self.support_mass = mass;
        self
    }

    /// Finishes the record.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the name is empty, mass
    /// or TDP are missing/negative, or support mass is negative.
    pub fn build(self) -> Result<ComputePlatform, ComponentError> {
        if self.name.trim().is_empty() {
            return Err(ComponentError::InvalidField {
                field: "name",
                reason: "must not be empty".into(),
            });
        }
        let mass = self.mass.ok_or(ComponentError::InvalidField {
            field: "mass",
            reason: "is required".into(),
        })?;
        if mass.get() < 0.0 || !mass.get().is_finite() {
            return Err(ComponentError::InvalidField {
                field: "mass",
                reason: format!("must be non-negative, got {mass}"),
            });
        }
        let tdp = self.tdp.ok_or(ComponentError::InvalidField {
            field: "tdp",
            reason: "is required".into(),
        })?;
        if tdp.get() < 0.0 || !tdp.get().is_finite() {
            return Err(ComponentError::InvalidField {
                field: "tdp",
                reason: format!("must be non-negative, got {tdp}"),
            });
        }
        if self.support_mass.get() < 0.0 || !self.support_mass.get().is_finite() {
            return Err(ComponentError::InvalidField {
                field: "support_mass",
                reason: format!("must be non-negative, got {}", self.support_mass),
            });
        }
        Ok(ComputePlatform {
            name: self.name,
            kind: self.kind,
            mass,
            tdp,
            support_mass: self.support_mass,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agx() -> ComputePlatform {
        ComputePlatform::builder("Nvidia AGX")
            .kind(ComputeKind::EmbeddedGpu)
            .mass(Grams::new(280.0))
            .tdp(Watts::new(30.0))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_happy_path() {
        let p = agx();
        assert_eq!(p.name(), "Nvidia AGX");
        assert_eq!(p.kind(), ComputeKind::EmbeddedGpu);
        assert_eq!(p.mass(), Grams::new(280.0));
        assert_eq!(p.tdp(), Watts::new(30.0));
        assert_eq!(p.support_mass(), Grams::ZERO);
        assert_eq!(p.fielded_mass(), Grams::new(280.0));
    }

    #[test]
    fn builder_requires_mass_and_tdp() {
        assert!(matches!(
            ComputePlatform::builder("x").tdp(Watts::new(1.0)).build(),
            Err(ComponentError::InvalidField { field: "mass", .. })
        ));
        assert!(matches!(
            ComputePlatform::builder("x").mass(Grams::new(1.0)).build(),
            Err(ComponentError::InvalidField { field: "tdp", .. })
        ));
    }

    #[test]
    fn builder_rejects_empty_name_and_negatives() {
        assert!(ComputePlatform::builder("")
            .mass(Grams::new(1.0))
            .tdp(Watts::new(1.0))
            .build()
            .is_err());
        assert!(ComputePlatform::builder("x")
            .mass(Grams::new(-1.0))
            .tdp(Watts::new(1.0))
            .build()
            .is_err());
        assert!(ComputePlatform::builder("x")
            .mass(Grams::new(1.0))
            .tdp(Watts::new(-1.0))
            .build()
            .is_err());
        assert!(ComputePlatform::builder("x")
            .mass(Grams::new(1.0))
            .tdp(Watts::new(1.0))
            .support_mass(Grams::new(-5.0))
            .build()
            .is_err());
    }

    #[test]
    fn support_mass_contributes_to_fielded_mass() {
        // The paper's Ras-Pi 4 build: board + dedicated battery = 590 g.
        let raspi = ComputePlatform::builder("Ras-Pi 4")
            .kind(ComputeKind::SingleBoard)
            .mass(Grams::new(46.0))
            .tdp(Watts::new(6.0))
            .support_mass(Grams::new(544.0))
            .build()
            .unwrap();
        assert_eq!(raspi.fielded_mass(), Grams::new(590.0));
    }

    #[test]
    fn tdp_scaling_what_if() {
        // §VI-A: AGX 30 W → 15 W.
        let optimized = agx().with_tdp_scaled(0.5).unwrap();
        assert_eq!(optimized.tdp(), Watts::new(15.0));
        assert_eq!(optimized.mass(), agx().mass());
        assert!(agx().with_tdp_scaled(0.0).is_err());
        assert!(agx().with_tdp_scaled(f64::NAN).is_err());
    }

    #[test]
    fn kind_display() {
        assert_eq!(ComputeKind::Asic.to_string(), "domain-specific ASIC");
        assert!(agx().to_string().contains("embedded GPU"));
    }
}
