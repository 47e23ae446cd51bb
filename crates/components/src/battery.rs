//! Battery records.

use f1_units::{Grams, MilliampHours};

use crate::ComponentError;

/// A flight battery.
///
/// # Examples
///
/// ```
/// use f1_components::Battery;
/// use f1_units::{Grams, MilliampHours};
///
/// // Table I: 3S 5000 mAh, 11.1 V.
/// let b = Battery::new("3S 5000", MilliampHours::new(5000.0), 11.1, Grams::new(390.0))?;
/// assert!((b.energy_watt_hours() - 55.5).abs() < 1e-9);
/// # Ok::<(), f1_components::ComponentError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    name: String,
    capacity: MilliampHours,
    voltage: f64,
    mass: Grams,
}

impl Battery {
    /// Creates a battery record.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the name is empty, the
    /// capacity/voltage are non-positive, or the mass is negative.
    pub fn new(
        name: impl Into<String>,
        capacity: MilliampHours,
        voltage: f64,
        mass: Grams,
    ) -> Result<Self, ComponentError> {
        let name = name.into();
        if name.trim().is_empty() {
            return Err(ComponentError::InvalidField {
                field: "name",
                reason: "must not be empty".into(),
            });
        }
        if capacity.get() <= 0.0 || !capacity.get().is_finite() {
            return Err(ComponentError::InvalidField {
                field: "capacity",
                reason: format!("must be positive, got {capacity}"),
            });
        }
        if !(voltage.is_finite() && voltage > 0.0) {
            return Err(ComponentError::InvalidField {
                field: "voltage",
                reason: format!("must be positive, got {voltage}"),
            });
        }
        if mass.get() < 0.0 || !mass.get().is_finite() {
            return Err(ComponentError::InvalidField {
                field: "mass",
                reason: format!("must be non-negative, got {mass}"),
            });
        }
        Ok(Self {
            name,
            capacity,
            voltage,
            mass,
        })
    }

    /// The battery's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity.
    #[must_use]
    pub fn capacity(&self) -> MilliampHours {
        self.capacity
    }

    /// Nominal pack voltage.
    #[must_use]
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Mass (contributes to payload weight).
    #[must_use]
    pub fn mass(&self) -> Grams {
        self.mass
    }

    /// Energy content in watt-hours.
    #[must_use]
    pub fn energy_watt_hours(&self) -> f64 {
        self.capacity.energy_watt_hours(self.voltage)
    }

    /// Rough endurance in minutes at a constant power draw, assuming an
    /// 80 % usable depth of discharge.
    ///
    /// This underlies the Fig. 2b endurance column: smaller batteries mean
    /// shorter missions.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the draw is non-positive.
    pub fn endurance_minutes(&self, draw_watts: f64) -> Result<f64, ComponentError> {
        if !(draw_watts.is_finite() && draw_watts > 0.0) {
            return Err(ComponentError::InvalidField {
                field: "draw_watts",
                reason: format!("must be positive, got {draw_watts}"),
            });
        }
        Ok(self.energy_watt_hours() * 0.8 / draw_watts * 60.0)
    }
}

impl core::fmt::Display for Battery {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} ({:.0}, {:.1} V, {:.0})",
            self.name, self.capacity, self.voltage, self.mass
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1() -> Battery {
        Battery::new(
            "3S 5000",
            MilliampHours::new(5000.0),
            11.1,
            Grams::new(390.0),
        )
        .unwrap()
    }

    #[test]
    fn energy_content() {
        assert!((table1().energy_watt_hours() - 55.5).abs() < 1e-9);
    }

    #[test]
    fn endurance_scales_inversely_with_draw() {
        let b = table1();
        let low = b.endurance_minutes(100.0).unwrap();
        let high = b.endurance_minutes(200.0).unwrap();
        assert!((low / high - 2.0).abs() < 1e-9);
        assert!(b.endurance_minutes(0.0).is_err());
        assert!(b.endurance_minutes(-5.0).is_err());
    }

    #[test]
    fn validation() {
        assert!(Battery::new("", MilliampHours::new(100.0), 3.7, Grams::new(10.0)).is_err());
        assert!(Battery::new("x", MilliampHours::ZERO, 3.7, Grams::new(10.0)).is_err());
        assert!(Battery::new("x", MilliampHours::new(100.0), 0.0, Grams::new(10.0)).is_err());
        assert!(Battery::new("x", MilliampHours::new(100.0), 3.7, Grams::new(-1.0)).is_err());
    }

    #[test]
    fn display() {
        assert!(table1().to_string().contains("3S 5000"));
    }
}
