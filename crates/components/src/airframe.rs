//! Airframe records: frame, motors, thrust budget and control loop.

use f1_model::physics::{BodyDynamics, PitchPolicy};
use f1_model::ModelError;
use f1_units::GramForce;
use f1_units::{Grams, Hertz, Kilograms, Millimeters, Newtons};

use crate::{ComponentError, SizeClass};

/// An airframe: the mechanical platform (frame + motors + ESCs) without
/// payload.
///
/// The airframe contributes the *base mass* and the *thrust budget*; adding
/// payload (compute, sensors, batteries, heatsinks) yields a
/// [`BodyDynamics`] whose `a_max` sets the roofline's physics roof.
///
/// # Examples
///
/// ```
/// use f1_components::Airframe;
/// use f1_units::Grams;
///
/// // Table I: S500 frame, base 1030 g, 4 × 435 gf motors.
/// let s500 = Airframe::builder("Custom S500")
///     .base_mass(Grams::new(1030.0))
///     .rotor_pull_gf(470.0)
///     .rotor_count(4)
///     .build()?;
/// let dynamics = s500.loaded_dynamics(Grams::new(590.0))?;
/// assert!(dynamics.can_hover());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Airframe {
    name: String,
    size_class: SizeClass,
    frame_size: Millimeters,
    base_mass: Grams,
    rotor_count: u8,
    rotor_pull: GramForce,
    control_rate: Hertz,
    pitch_policy: PitchPolicy,
}

impl Airframe {
    /// Starts building an airframe record.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> AirframeBuilder {
        AirframeBuilder {
            name: name.into(),
            size_class: None,
            frame_size: Millimeters::new(350.0),
            base_mass: None,
            rotor_count: 4,
            rotor_pull: None,
            control_rate: Hertz::new(1000.0),
            pitch_policy: PitchPolicy::VerticalMargin,
        }
    }

    /// The airframe's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The size class.
    #[must_use]
    pub fn size_class(&self) -> SizeClass {
        self.size_class
    }

    /// Diagonal frame size.
    #[must_use]
    pub fn frame_size(&self) -> Millimeters {
        self.frame_size
    }

    /// Frame + motors + ESC mass, without payload.
    #[must_use]
    pub fn base_mass(&self) -> Grams {
        self.base_mass
    }

    /// Number of rotors.
    #[must_use]
    pub fn rotor_count(&self) -> u8 {
        self.rotor_count
    }

    /// Thrust ("pull") per rotor.
    #[must_use]
    pub fn rotor_pull(&self) -> GramForce {
        self.rotor_pull
    }

    /// Total thrust budget across all rotors.
    #[must_use]
    pub fn total_thrust(&self) -> Newtons {
        (self.rotor_pull * f64::from(self.rotor_count)).to_newtons()
    }

    /// Flight-controller inner-loop rate (`f_control`), typically ~1 kHz
    /// (§II-D).
    #[must_use]
    pub fn control_rate(&self) -> Hertz {
        self.control_rate
    }

    /// The pitch policy used when estimating `a_max`.
    #[must_use]
    pub fn pitch_policy(&self) -> PitchPolicy {
        self.pitch_policy
    }

    /// Take-off mass with the given payload.
    #[must_use]
    pub fn takeoff_mass(&self, payload: Grams) -> Kilograms {
        (self.base_mass + payload).to_kilograms()
    }

    /// Builds the loaded body dynamics for a payload mass.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the payload makes the take-off mass
    /// non-positive (impossible for non-negative payloads).
    pub fn loaded_dynamics(&self, payload: Grams) -> Result<BodyDynamics, ModelError> {
        BodyDynamics::new(
            self.takeoff_mass(payload),
            self.total_thrust(),
            self.pitch_policy,
        )
    }

    /// The maximum payload the airframe can carry while retaining hover
    /// margin, in grams: `total_thrust − base_mass` (as equivalent mass).
    #[must_use]
    pub fn payload_capacity(&self) -> Grams {
        let thrust_mass = (self.rotor_pull * f64::from(self.rotor_count)).equivalent_mass();
        Grams::new((thrust_mass.get() - self.base_mass.get()).max(0.0))
    }

    /// Returns a copy with a scaled base (frame + motors + ESC) mass —
    /// paper Table II's "Drone Weight" knob. Payload is unaffected: a
    /// lighter frame buys acceleration headroom, not cargo.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the factor is not in
    /// `(0, ∞)`, or if the scaled mass overflows to a non-finite value.
    pub fn with_base_mass_scaled(&self, factor: f64) -> Result<Self, ComponentError> {
        let scaled = self.base_mass.get() * factor;
        // Validate the product too: a finite factor can still overflow
        // the mass, and the unit constructor panics on non-finite.
        if !(factor.is_finite() && factor > 0.0 && scaled.is_finite()) {
            return Err(ComponentError::InvalidField {
                field: "base mass factor",
                reason: format!(
                    "must scale to a positive finite mass, got {factor} (×{})",
                    self.base_mass
                ),
            });
        }
        let mut out = self.clone();
        out.base_mass = Grams::new(scaled);
        Ok(out)
    }

    /// Returns a copy with the per-rotor pull scaled — paper Table II's
    /// "Rotor Pull" knob (a motor/prop upgrade or derating; the rotor
    /// count is unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the factor is not in
    /// `(0, ∞)`, or if the scaled pull overflows to a non-finite value.
    pub fn with_rotor_pull_scaled(&self, factor: f64) -> Result<Self, ComponentError> {
        let scaled = self.rotor_pull.get() * factor;
        // Same product guard as `with_base_mass_scaled`.
        if !(factor.is_finite() && factor > 0.0 && scaled.is_finite()) {
            return Err(ComponentError::InvalidField {
                field: "rotor pull factor",
                reason: format!(
                    "must scale to a positive finite pull, got {factor} (×{})",
                    self.rotor_pull
                ),
            });
        }
        let mut out = self.clone();
        out.rotor_pull = GramForce::new(scaled);
        Ok(out)
    }
}

impl core::fmt::Display for Airframe {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} ({}, base {:.0}, {}×{:.0})",
            self.name, self.size_class, self.base_mass, self.rotor_count, self.rotor_pull
        )
    }
}

/// Builder for [`Airframe`].
#[derive(Debug, Clone)]
pub struct AirframeBuilder {
    name: String,
    size_class: Option<SizeClass>,
    frame_size: Millimeters,
    base_mass: Option<Grams>,
    rotor_count: u8,
    rotor_pull: Option<GramForce>,
    control_rate: Hertz,
    pitch_policy: PitchPolicy,
}

impl AirframeBuilder {
    /// Sets the size class explicitly (otherwise inferred from frame size).
    #[must_use]
    pub fn size_class(mut self, class: SizeClass) -> Self {
        self.size_class = Some(class);
        self
    }

    /// Sets the diagonal frame size (default 350 mm).
    #[must_use]
    pub fn frame_size(mut self, size: Millimeters) -> Self {
        self.frame_size = size;
        self
    }

    /// Sets the frame + motors + ESC mass.
    #[must_use]
    pub fn base_mass(mut self, mass: Grams) -> Self {
        self.base_mass = Some(mass);
        self
    }

    /// Sets the number of rotors (default 4).
    #[must_use]
    pub fn rotor_count(mut self, count: u8) -> Self {
        self.rotor_count = count;
        self
    }

    /// Sets the per-rotor pull in gram-force.
    #[must_use]
    pub fn rotor_pull_gf(mut self, pull: f64) -> Self {
        self.rotor_pull = Some(GramForce::new(pull));
        self
    }

    /// Sets the flight-controller loop rate (default 1 kHz).
    #[must_use]
    pub fn control_rate(mut self, rate: Hertz) -> Self {
        self.control_rate = rate;
        self
    }

    /// Sets the pitch policy used for `a_max` (default
    /// [`PitchPolicy::VerticalMargin`]).
    #[must_use]
    pub fn pitch_policy(mut self, policy: PitchPolicy) -> Self {
        self.pitch_policy = policy;
        self
    }

    /// Finishes the record.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the name is empty, base
    /// mass or rotor pull are missing/non-positive, the rotor count is
    /// zero, the frame size is non-positive, or the control rate is
    /// non-positive.
    pub fn build(self) -> Result<Airframe, ComponentError> {
        if self.name.trim().is_empty() {
            return Err(ComponentError::InvalidField {
                field: "name",
                reason: "must not be empty".into(),
            });
        }
        let base_mass = self.base_mass.ok_or(ComponentError::InvalidField {
            field: "base_mass",
            reason: "is required".into(),
        })?;
        if base_mass.get() <= 0.0 || !base_mass.get().is_finite() {
            return Err(ComponentError::InvalidField {
                field: "base_mass",
                reason: format!("must be positive, got {base_mass}"),
            });
        }
        let rotor_pull = self.rotor_pull.ok_or(ComponentError::InvalidField {
            field: "rotor_pull",
            reason: "is required".into(),
        })?;
        if rotor_pull.get() <= 0.0 || !rotor_pull.get().is_finite() {
            return Err(ComponentError::InvalidField {
                field: "rotor_pull",
                reason: format!("must be positive, got {rotor_pull}"),
            });
        }
        if self.rotor_count == 0 {
            return Err(ComponentError::InvalidField {
                field: "rotor_count",
                reason: "must be at least 1".into(),
            });
        }
        if self.frame_size.get() <= 0.0 || !self.frame_size.get().is_finite() {
            return Err(ComponentError::InvalidField {
                field: "frame_size",
                reason: format!("must be positive, got {}", self.frame_size),
            });
        }
        if self.control_rate.get() <= 0.0 || !self.control_rate.get().is_finite() {
            return Err(ComponentError::InvalidField {
                field: "control_rate",
                reason: format!("must be positive, got {}", self.control_rate),
            });
        }
        let size_class = self
            .size_class
            .unwrap_or_else(|| SizeClass::from_frame_size(self.frame_size));
        Ok(Airframe {
            name: self.name,
            size_class,
            frame_size: self.frame_size,
            base_mass,
            rotor_count: self.rotor_count,
            rotor_pull,
            control_rate: self.control_rate,
            pitch_policy: self.pitch_policy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s500() -> Airframe {
        Airframe::builder("Custom S500")
            .base_mass(Grams::new(1030.0))
            .rotor_pull_gf(470.0)
            .rotor_count(4)
            .frame_size(Millimeters::new(500.0))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_happy_path() {
        let a = s500();
        assert_eq!(a.name(), "Custom S500");
        assert_eq!(a.rotor_count(), 4);
        assert_eq!(a.size_class(), SizeClass::Mini);
        assert!((a.total_thrust().get() - 4.0 * 0.470 * 9.80665).abs() < 1e-9);
        assert_eq!(a.control_rate(), Hertz::new(1000.0));
    }

    #[test]
    fn builder_validation() {
        assert!(Airframe::builder("")
            .base_mass(Grams::new(1.0))
            .rotor_pull_gf(1.0)
            .build()
            .is_err());
        assert!(Airframe::builder("x").rotor_pull_gf(1.0).build().is_err());
        assert!(Airframe::builder("x")
            .base_mass(Grams::new(1.0))
            .build()
            .is_err());
        assert!(Airframe::builder("x")
            .base_mass(Grams::ZERO)
            .rotor_pull_gf(1.0)
            .build()
            .is_err());
        assert!(Airframe::builder("x")
            .base_mass(Grams::new(1.0))
            .rotor_pull_gf(-1.0)
            .build()
            .is_err());
        assert!(Airframe::builder("x")
            .base_mass(Grams::new(1.0))
            .rotor_pull_gf(1.0)
            .rotor_count(0)
            .build()
            .is_err());
        assert!(Airframe::builder("x")
            .base_mass(Grams::new(1.0))
            .rotor_pull_gf(1.0)
            .control_rate(Hertz::ZERO)
            .build()
            .is_err());
    }

    #[test]
    fn takeoff_mass_and_capacity() {
        let a = s500();
        assert!((a.takeoff_mass(Grams::new(590.0)).get() - 1.62).abs() < 1e-12);
        // 4 × 470 gf = 1880 gf of thrust; 1880 − 1030 = 850 g of payload
        // capacity with hover margin.
        assert!((a.payload_capacity().get() - 850.0).abs() < 1e-9);
    }

    #[test]
    fn loaded_dynamics_hover_check() {
        let a = s500();
        let light = a.loaded_dynamics(Grams::new(590.0)).unwrap();
        assert!(light.can_hover());
        assert!(light.a_max().is_ok());
        // Past the payload capacity the margin is gone.
        let heavy = a.loaded_dynamics(Grams::new(900.0)).unwrap();
        assert!(!heavy.can_hover());
        assert!(heavy.a_max().is_err());
    }

    #[test]
    fn heavier_payload_means_less_acceleration() {
        let a = s500();
        let d1 = a
            .loaded_dynamics(Grams::new(500.0))
            .unwrap()
            .a_max()
            .unwrap();
        let d2 = a
            .loaded_dynamics(Grams::new(700.0))
            .unwrap()
            .a_max()
            .unwrap();
        assert!(d2 < d1);
    }

    #[test]
    fn scaled_variants_shift_mass_and_thrust() {
        let a = s500();
        let light = a.with_base_mass_scaled(0.8).unwrap();
        assert!((light.base_mass().get() - 824.0).abs() < 1e-9);
        assert_eq!(light.rotor_pull(), a.rotor_pull());
        // A lighter frame carries more payload within the same thrust.
        assert!(light.payload_capacity() > a.payload_capacity());

        let strong = a.with_rotor_pull_scaled(1.25).unwrap();
        assert!((strong.rotor_pull().get() - 587.5).abs() < 1e-9);
        assert_eq!(strong.base_mass(), a.base_mass());
        assert!(strong.total_thrust() > a.total_thrust());

        // Invalid factors — and finite factors whose product overflows —
        // are errors, never unit-constructor panics.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e306] {
            assert!(a.with_base_mass_scaled(bad).is_err(), "{bad}");
            assert!(a.with_rotor_pull_scaled(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn size_class_explicit_override() {
        let a = Airframe::builder("weird")
            .base_mass(Grams::new(100.0))
            .rotor_pull_gf(100.0)
            .frame_size(Millimeters::new(500.0))
            .size_class(SizeClass::Micro)
            .build()
            .unwrap();
        assert_eq!(a.size_class(), SizeClass::Micro);
    }

    #[test]
    fn display() {
        assert!(s500().to_string().contains("mini-UAV"));
    }
}
