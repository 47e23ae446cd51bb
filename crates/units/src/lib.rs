//! Typed physical quantities for the F-1 UAV roofline model.
//!
//! The F-1 model ties together heterogeneous quantities — sensor rates in
//! hertz, latencies in seconds, distances in meters, payload masses in grams,
//! thermal design power in watts, thrust in newtons — and most historical
//! modelling mistakes in this domain are unit mix-ups (a throughput used as a
//! latency, grams used as kilograms, gram-force used as newtons). This crate
//! provides zero-cost `f64` newtypes ([C-NEWTYPE]) so that those mistakes are
//! compile errors instead.
//!
//! # Examples
//!
//! ```
//! use f1_units::{Hertz, Seconds, Meters, MetersPerSecond};
//!
//! let sensor = Hertz::new(60.0);
//! let latency: Seconds = sensor.period();
//! assert!((latency.get() - 1.0 / 60.0).abs() < 1e-12);
//!
//! // Distance covered between two decisions at a given velocity:
//! let v = MetersPerSecond::new(2.0);
//! let d: Meters = v * latency;
//! assert!(d.get() > 0.033 && d.get() < 0.034);
//! ```
//!
//! All quantity types are `Copy`, ordered and hashable via
//! [`total_bits`].
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html
//! [`total_bits`]: crate::Quantity::total_bits

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod angle;
mod error;
mod force;
mod macros;
mod mass;
mod power;
mod space;
mod time;

pub use angle::{Degrees, Radians};
pub use error::UnitError;
pub use force::Newtons;
pub use mass::{GramForce, Grams, Kilograms};
pub use power::{MilliampHours, Watts};
pub use space::{Meters, MetersPerSecond, MetersPerSecondSquared, Millimeters};
pub use time::{Hertz, Minutes, Seconds};

/// Standard gravitational acceleration in m/s², used for gram-force ↔ newton
/// conversions and for hover-thrust computations in the physics model.
pub const STANDARD_GRAVITY: f64 = 9.80665;

/// Common behaviour shared by every scalar quantity newtype in this crate.
///
/// The trait is sealed: it exists so that generic helpers (sweep generators,
/// plot series builders) can accept any quantity, not so that downstream
/// crates can add new quantities with conflicting semantics.
pub trait Quantity: Copy + PartialOrd + sealed::Sealed {
    /// Unit suffix used by `Display`, e.g. `"Hz"`.
    const SUFFIX: &'static str;

    /// Returns the raw `f64` magnitude.
    fn get(self) -> f64;

    /// Builds the quantity from a raw magnitude without validation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite (all public constructors uphold
    /// the finite invariant).
    fn from_raw(value: f64) -> Self;

    /// A total-order bit pattern usable as a hash/sort key.
    ///
    /// Finite values are guaranteed by construction, so this yields a
    /// consistent total order matching `PartialOrd`.
    fn total_bits(self) -> u64 {
        let bits = self.get().to_bits();
        // Flip the bits of negative floats so the integer order matches the
        // numeric order (IEEE 754 trick).
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        }
    }

    /// Returns `true` if the magnitude is negative.
    fn is_negative(self) -> bool {
        self.get() < 0.0
    }

    /// Clamps the magnitude into `[lo, hi]`.
    fn clamp_between(self, lo: Self, hi: Self) -> Self {
        Self::from_raw(self.get().clamp(lo.get(), hi.get()))
    }
}

mod sealed {
    pub trait Sealed {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_bits_orders_like_partial_ord() {
        let values = [-5.0, -1.0, -0.0, 0.0, 0.5, 1.0, 100.0];
        let mut as_units: Vec<Meters> = values.iter().map(|&v| Meters::from_raw(v)).collect();
        as_units.sort_by_key(|m| m.total_bits());
        for w in as_units.windows(2) {
            assert!(w[0].get() <= w[1].get());
        }
    }

    #[test]
    fn clamp_between_bounds() {
        let v = Hertz::new(500.0);
        let clamped = v.clamp_between(Hertz::new(1.0), Hertz::new(100.0));
        assert_eq!(clamped, Hertz::new(100.0));
    }

    #[test]
    fn gravity_is_standard() {
        assert!((STANDARD_GRAVITY - 9.80665).abs() < 1e-12);
    }
}
