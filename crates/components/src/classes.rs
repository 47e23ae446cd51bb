//! UAV size classes (paper Fig. 2b).
//!
//! Endurance and energy vary drastically with size: a mini-UAV carries a
//! 3830 mAh pack and flies ~30 minutes, a nano-UAV a 240 mAh pack for ~7
//! minutes. The class also determines what onboard compute is feasible
//! (§II-C: microcontrollers on nano-UAVs, Intel NUC-class computers on
//! mini-UAVs).

use f1_units::{Grams, MilliampHours, Millimeters, Minutes};

/// The UAV size classes of paper Fig. 2b.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeClass {
    /// ~7 mm-class frames, 240 mAh, ~7 min endurance (e.g. CrazyFlie).
    Nano,
    /// ~250 mm frames, 1300 mAh, ~15 min endurance (e.g. DJI Spark).
    Micro,
    /// ≥335 mm frames, 3830 mAh, ~30 min endurance (e.g. AscTec Pelican).
    Mini,
}

impl SizeClass {
    /// All classes, smallest first.
    pub const ALL: [SizeClass; 3] = [SizeClass::Nano, SizeClass::Micro, SizeClass::Mini];

    /// Representative frame size (Fig. 2b x-axis).
    #[must_use]
    pub fn typical_frame_size(self) -> Millimeters {
        Millimeters::new(match self {
            Self::Nano => 7.0,
            Self::Micro => 250.0,
            Self::Mini => 335.0,
        })
    }

    /// Representative battery capacity (Fig. 2b).
    #[must_use]
    pub fn typical_battery_capacity(self) -> MilliampHours {
        MilliampHours::new(match self {
            Self::Nano => 240.0,
            Self::Micro => 1300.0,
            Self::Mini => 3830.0,
        })
    }

    /// Representative flight endurance (Fig. 2b).
    #[must_use]
    pub fn typical_endurance(self) -> Minutes {
        Minutes::new(match self {
            Self::Nano => 7.0,
            Self::Micro => 15.0,
            Self::Mini => 30.0,
        })
    }

    /// A representative maximum payload budget for the class, used for
    /// feasibility warnings in Skyline.
    #[must_use]
    pub fn typical_payload_budget(self) -> Grams {
        Grams::new(match self {
            Self::Nano => 10.0,
            Self::Micro => 150.0,
            Self::Mini => 900.0,
        })
    }

    /// Classifies a frame size into the closest class.
    #[must_use]
    pub fn from_frame_size(size: Millimeters) -> Self {
        let mm = size.get();
        if mm < 100.0 {
            Self::Nano
        } else if mm < 300.0 {
            Self::Micro
        } else {
            Self::Mini
        }
    }
}

impl core::fmt::Display for SizeClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::Nano => "nano-UAV",
            Self::Micro => "micro-UAV",
            Self::Mini => "mini-UAV",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2b_rows() {
        // The three (size, capacity, endurance) rows of Fig. 2b.
        let rows: Vec<(f64, f64, f64)> = SizeClass::ALL
            .iter()
            .map(|c| {
                (
                    c.typical_frame_size().get(),
                    c.typical_battery_capacity().get(),
                    c.typical_endurance().get(),
                )
            })
            .collect();
        assert_eq!(rows[0], (7.0, 240.0, 7.0));
        assert_eq!(rows[1], (250.0, 1300.0, 15.0));
        assert_eq!(rows[2], (335.0, 3830.0, 30.0));
    }

    #[test]
    fn capacity_and_endurance_grow_with_size() {
        for w in SizeClass::ALL.windows(2) {
            assert!(w[1].typical_battery_capacity() > w[0].typical_battery_capacity());
            assert!(w[1].typical_endurance() > w[0].typical_endurance());
            assert!(w[1].typical_payload_budget() > w[0].typical_payload_budget());
        }
    }

    #[test]
    fn classification_from_frame_size() {
        assert_eq!(
            SizeClass::from_frame_size(Millimeters::new(7.0)),
            SizeClass::Nano
        );
        assert_eq!(
            SizeClass::from_frame_size(Millimeters::new(250.0)),
            SizeClass::Micro
        );
        assert_eq!(
            SizeClass::from_frame_size(Millimeters::new(500.0)),
            SizeClass::Mini
        );
    }

    #[test]
    fn display() {
        assert_eq!(SizeClass::Nano.to_string(), "nano-UAV");
        assert_eq!(SizeClass::Mini.to_string(), "mini-UAV");
    }
}
