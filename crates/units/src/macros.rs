//! Internal macro that stamps out scalar quantity newtypes.

/// Defines an `f64` newtype quantity with the full arithmetic and trait
/// surface expected by the rest of the workspace.
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $suffix:literal
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Zero magnitude.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw magnitude.
            ///
            /// # Panics
            ///
            /// Panics if `value` is NaN or infinite. Use
            /// [`try_new`](Self::try_new) for fallible construction.
            #[must_use]
            pub fn new(value: f64) -> Self {
                match Self::try_new(value) {
                    Ok(v) => v,
                    Err(e) => panic!("{}::new: {e}", stringify!($name)),
                }
            }

            /// Fallible constructor that rejects NaN and infinite magnitudes.
            ///
            /// # Errors
            ///
            /// Returns [`UnitError::NotFinite`](crate::UnitError::NotFinite)
            /// when `value` is NaN or infinite.
            pub fn try_new(value: f64) -> Result<Self, $crate::UnitError> {
                if value.is_finite() {
                    Ok(Self(value))
                } else {
                    Err($crate::UnitError::NotFinite {
                        quantity: stringify!($name),
                        value,
                    })
                }
            }

            /// Fallible constructor that additionally rejects negative
            /// magnitudes, for quantities that are physically non-negative in
            /// a given context (rates, distances, masses, power).
            ///
            /// # Errors
            ///
            /// Returns [`UnitError::NotFinite`](crate::UnitError::NotFinite)
            /// for NaN/infinite values and
            /// [`UnitError::Negative`](crate::UnitError::Negative) for
            /// negative ones.
            pub fn try_non_negative(value: f64) -> Result<Self, $crate::UnitError> {
                let v = Self::try_new(value)?;
                if v.0 < 0.0 {
                    Err($crate::UnitError::Negative {
                        quantity: stringify!($name),
                        value,
                    })
                } else {
                    Ok(v)
                }
            }

            /// Fallible constructor that requires a strictly positive
            /// magnitude (e.g. a sensing range or throughput that must be
            /// non-zero for the model to be well defined).
            ///
            /// # Errors
            ///
            /// Returns [`UnitError::NotPositive`](crate::UnitError::NotPositive)
            /// for zero or negative values, and
            /// [`UnitError::NotFinite`](crate::UnitError::NotFinite) for
            /// NaN/infinite ones.
            pub fn try_positive(value: f64) -> Result<Self, $crate::UnitError> {
                let v = Self::try_new(value)?;
                if v.0 <= 0.0 {
                    Err($crate::UnitError::NotPositive {
                        quantity: stringify!($name),
                        value,
                    })
                } else {
                    Ok(v)
                }
            }

            /// Returns the raw magnitude.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Linear interpolation between `self` (t = 0) and `other`
            /// (t = 1). `t` outside `[0, 1]` extrapolates.
            #[must_use]
            pub fn lerp(self, other: Self, t: f64) -> Self {
                Self(self.0 + (other.0 - self.0) * t)
            }
        }

        impl $crate::sealed::Sealed for $name {}

        impl $crate::Quantity for $name {
            const SUFFIX: &'static str = $suffix;

            fn get(self) -> f64 {
                self.0
            }

            fn from_raw(value: f64) -> Self {
                Self::new(value)
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Dividing two like quantities yields a dimensionless ratio.
        impl core::ops::Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, x| acc + x)
            }
        }

        impl From<$name> for f64 {
            fn from(v: $name) -> f64 {
                v.0
            }
        }

        /// Parses `"12.5"` or `"12.5 <suffix>"` (the unit suffix, if
        /// present, must match).
        impl core::str::FromStr for $name {
            type Err = $crate::UnitError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                let trimmed = s.trim();
                let numeric = trimmed
                    .strip_suffix($suffix)
                    .map_or(trimmed, str::trim_end);
                let value: f64 = numeric.trim().parse().map_err(|_| {
                    $crate::UnitError::NotFinite {
                        quantity: stringify!($name),
                        value: f64::NAN,
                    }
                })?;
                Self::try_new(value)
            }
        }
    };
}

pub(crate) use quantity;
