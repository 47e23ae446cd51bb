//! The paper's parts bin: every component its case studies use.
//!
//! Values come from the paper where stated (Table I specs; §VI throughputs:
//! DroNet at 178/230/150 Hz on TX2/AGX/NCS; TrailNet at 55 Hz on TX2; SPA
//! at 1.1 Hz on TX2; PULP-DroNet at 6 Hz; §VI-D's Ras-Pi improvement
//! factors 3.3×/110×/660× against the 43 Hz Pelican knee, which pin the
//! Ras-Pi throughputs at 13 / 0.39 / 0.065 Hz). Values the paper does not
//! state (masses of sensors, Spark/Pelican/nano thrust budgets) are
//! engineering estimates calibrated so the resulting rooflines land near
//! the paper's reported knees; every such calibration is recorded in
//! `EXPERIMENTS.md`.

use std::collections::BTreeMap;

use f1_units::{Grams, Hertz, Meters, MilliampHours, Millimeters, Watts};

use crate::{
    Airframe, AirframeId, AlgorithmId, AutonomyAlgorithm, Battery, BatteryId, ComponentError,
    ComputeId, ComputeKind, ComputePlatform, Sensor, SensorId, SensorModality, SpaStage,
    ThroughputMatrix, ThroughputTable,
};

/// Canonical component names, so lookups cannot drift out of sync with the
/// catalog entries.
pub mod names {
    /// Ras-Pi 4 single-board computer (Table I).
    pub const RAS_PI4: &str = "Ras-Pi 4";
    /// Intel UpBoard (Up Squared) single-board computer (Table I).
    pub const UPBOARD: &str = "Intel UpBoard";
    /// Nvidia Jetson TX2 module.
    pub const TX2: &str = "Nvidia TX2";
    /// Nvidia Xavier AGX module.
    pub const AGX: &str = "Nvidia AGX";
    /// Intel Neural Compute Stick.
    pub const NCS: &str = "Intel NCS";
    /// PULP-DroNet nano-UAV accelerator SoC (§VII).
    pub const PULP: &str = "PULP-DroNet SoC";
    /// Navion visual-inertial odometry accelerator (§VII).
    pub const NAVION: &str = "Navion";
    /// Arm Cortex-M4 microcontroller (nano-UAV flight computers, §II-C).
    pub const CORTEX_M4: &str = "Arm Cortex-M4";

    /// DroNet end-to-end CNN.
    pub const DRONET: &str = "DroNet";
    /// TrailNet end-to-end CNN.
    pub const TRAILNET: &str = "TrailNet";
    /// CAD2RL reinforcement-learning policy.
    pub const CAD2RL: &str = "CAD2RL";
    /// VGG16 backbone (Fig. 15's heavyweight E2E point).
    pub const VGG16: &str = "VGG16";
    /// The MAVBench "package delivery" Sense-Plan-Act application.
    pub const MAVBENCH_PD: &str = "MAVBench Package Delivery";
    /// The custom MAVROS velocity controller of the §IV validation drones.
    pub const MAVROS_CONTROLLER: &str = "MAVROS Controller";

    /// The §IV custom validation airframe (S500 quadcopter frame).
    pub const CUSTOM_S500: &str = "Custom S500";
    /// DJI Spark micro-UAV.
    pub const DJI_SPARK: &str = "DJI Spark";
    /// AscTec Pelican mini-UAV.
    pub const ASCTEC_PELICAN: &str = "AscTec Pelican";
    /// The §VII nano-UAV.
    pub const NANO_UAV: &str = "Nano-UAV";

    /// 60 FPS RGB camera, 5 m range (Spark-class).
    pub const RGB_60: &str = "RGB 60FPS";
    /// 60 FPS RGB-D camera, 4.5 m range (§VI-C).
    pub const RGBD_60: &str = "RGB-D 60FPS";
    /// 60 FPS nano camera, 2 m range (§VII).
    pub const NANO_CAM_60: &str = "Nano RGB 60FPS";
    /// The §IV validation setup: obstacle at 3 m, sensing distance ≥ 3 m.
    pub const VALIDATION_SENSOR: &str = "Validation sensor 3m";

    /// Table I battery: 3S 5000 mAh, 11.1 V.
    pub const BATTERY_3S_5000: &str = "3S 5000";
    /// DJI Spark battery.
    pub const BATTERY_SPARK: &str = "Spark 1480";
    /// AscTec Pelican battery.
    pub const BATTERY_PELICAN: &str = "Pelican 6250";
    /// Nano-UAV cell.
    pub const BATTERY_NANO: &str = "Nano 240";
}

/// One of the four §IV validation drones (Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationUav {
    /// The drone's label, `'A'`–`'D'`.
    pub label: char,
    /// The onboard compute platform name.
    pub compute: String,
    /// Total payload mass (onboard computer + its battery + calibration
    /// weights), per Table I.
    pub payload: Grams,
    /// The safe velocity the paper's F-1 model predicts for this drone.
    pub paper_predicted_vsafe: f64,
    /// The error between model and real flight the paper reports (%).
    pub paper_error_percent: f64,
}

/// The component catalog: airframes, sensors, compute platforms,
/// algorithms, batteries, and the throughput matrix.
///
/// Storage is **ID-interned**: each family lives in a dense `Vec` with a
/// name → id map on the side. String lookups (`airframe("AscTec
/// Pelican")`) resolve through the map once; hot paths hold typed ids
/// ([`AirframeId`], [`SensorId`], [`ComputeId`], [`AlgorithmId`],
/// [`BatteryId`]) and resolve them with a plain array index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    airframes: Registry<Airframe>,
    sensors: Registry<Sensor>,
    computes: Registry<ComputePlatform>,
    algorithms: Registry<AutonomyAlgorithm>,
    batteries: Registry<Battery>,
    throughput: ThroughputMatrix,
}

/// Dense storage for one component family: items in insertion (= id)
/// order plus a name → id index.
///
/// NOTE: no serialization derives on purpose. A future serde adoption
/// should give this a logical representation (a name → item map) so the
/// dense layout stays an in-memory detail and deserialization cannot
/// smuggle in out-of-range ids.
#[derive(Debug, Clone)]
struct Registry<T> {
    items: Vec<T>,
    ids: BTreeMap<String, u32>,
    /// Retirement tombstones, aligned with `items`. A retired component
    /// keeps its id (so interned ids stay stable across catalog epochs
    /// and cached results remain resolvable) but is excluded from
    /// iteration — and therefore from DSE enumeration.
    retired: Vec<bool>,
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            ids: BTreeMap::new(),
            retired: Vec::new(),
        }
    }
}

/// Logical equality: same **active** named items, regardless of
/// insertion order or retired tombstones.
impl<T: PartialEq> PartialEq for Registry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.active_len() == other.active_len() && self.iter_named().eq(other.iter_named())
    }
}

/// Outcome of a [`Registry::retire`] call, converted into errors by the
/// per-family wrappers (which know the family name).
enum RetireOutcome {
    Retired,
    AlreadyRetired,
    Unknown,
}

impl<T> Registry<T> {
    fn add(&mut self, name: String, item: T) -> Option<u32> {
        if self.ids.contains_key(&name) {
            return None;
        }
        let id = u32::try_from(self.items.len()).expect("registry larger than u32::MAX");
        self.ids.insert(name, id);
        self.items.push(item);
        self.retired.push(false);
        Some(id)
    }

    fn retire(&mut self, name: &str) -> RetireOutcome {
        match self.ids.get(name) {
            None => RetireOutcome::Unknown,
            Some(&id) if self.retired[id as usize] => RetireOutcome::AlreadyRetired,
            Some(&id) => {
                self.retired[id as usize] = true;
                RetireOutcome::Retired
            }
        }
    }

    fn id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.id(name).map(|id| &self.items[id as usize])
    }

    #[inline]
    fn by_index(&self, index: usize) -> &T {
        &self.items[index]
    }

    #[inline]
    fn is_active(&self, index: usize) -> bool {
        !self.retired[index]
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn active_len(&self) -> usize {
        self.retired.iter().filter(|&&r| !r).count()
    }

    /// `(name, item)` pairs of the **active** components, in name order.
    fn iter_named(&self) -> impl Iterator<Item = (&str, &T)> {
        self.ids
            .iter()
            .filter(|&(_, &id)| !self.retired[id as usize])
            .map(|(name, &id)| (name.as_str(), &self.items[id as usize]))
    }

    /// `(id, item)` pairs of the **active** components, in name order.
    fn entries(&self) -> impl Iterator<Item = (u32, &T)> {
        self.ids
            .values()
            .filter(|&&id| !self.retired[id as usize])
            .map(|&id| (id, &self.items[id as usize]))
    }
}

macro_rules! family_methods {
    (
        $add:ident, $get:ident, $iter:ident, $id_fn:ident, $by_id:ident,
        $entries:ident, $count:ident, $field:ident, $ty:ty, $idty:ty, $family:literal
    ) => {
        /// Adds a component, rejecting duplicates.
        ///
        /// # Errors
        ///
        /// Returns [`ComponentError::DuplicateEntry`] if a component with
        /// the same name exists.
        pub fn $add(&mut self, item: $ty) -> Result<(), ComponentError> {
            let name = item.name().to_owned();
            if self.$field.add(name.clone(), item).is_none() {
                return Err(ComponentError::DuplicateEntry {
                    family: $family,
                    name,
                });
            }
            Ok(())
        }

        /// Looks a component up by name.
        ///
        /// # Errors
        ///
        /// Returns [`ComponentError::UnknownComponent`] if absent.
        pub fn $get(&self, name: &str) -> Result<&$ty, ComponentError> {
            self.$field
                .get(name)
                .ok_or_else(|| ComponentError::UnknownComponent {
                    family: $family,
                    name: name.to_owned(),
                })
        }

        /// Iterates over all components of this family in name order.
        pub fn $iter(&self) -> impl Iterator<Item = &$ty> {
            self.$field.iter_named().map(|(_, item)| item)
        }

        /// Resolves a name to this catalog's interned id.
        ///
        /// # Errors
        ///
        /// Returns [`ComponentError::UnknownComponent`] if absent.
        pub fn $id_fn(&self, name: &str) -> Result<$idty, ComponentError> {
            self.$field
                .id(name)
                .map(|id| <$idty>::from_index(id as usize))
                .ok_or_else(|| ComponentError::UnknownComponent {
                    family: $family,
                    name: name.to_owned(),
                })
        }

        /// Resolves an interned id to its component — a plain array index,
        /// no string hashing.
        ///
        /// # Panics
        ///
        /// Panics if the id was minted by a different catalog and is out
        /// of range here.
        #[must_use]
        pub fn $by_id(&self, id: $idty) -> &$ty {
            self.$field.by_index(id.index())
        }

        /// Iterates `(id, component)` pairs in name order.
        pub fn $entries(&self) -> impl Iterator<Item = ($idty, &$ty)> {
            self.$field
                .entries()
                .map(|(id, item)| (<$idty>::from_index(id as usize), item))
        }

        /// Size of this family's **id space**: every slot ever minted,
        /// including retired components (whose ids stay resolvable).
        /// Use the iterator count for the number of active components.
        #[must_use]
        pub fn $count(&self) -> usize {
            self.$field.len()
        }
    };
}

macro_rules! family_lifecycle_methods {
    ($retire:ident, $is_active:ident, $active_count:ident, $field:ident, $idty:ty, $family:literal) => {
        /// Retires a component: it keeps its interned id (cached plans
        /// and result sets stay resolvable, and its name can never be
        /// reused), but it disappears from iteration — and therefore
        /// from design-space enumeration. Retirement is permanent.
        ///
        /// # Errors
        ///
        /// Returns [`ComponentError::UnknownComponent`] for an unknown
        /// name and [`ComponentError::DuplicateEntry`] when the
        /// component is already retired.
        pub fn $retire(&mut self, name: &str) -> Result<(), ComponentError> {
            match self.$field.retire(name) {
                RetireOutcome::Retired => Ok(()),
                RetireOutcome::Unknown => Err(ComponentError::UnknownComponent {
                    family: $family,
                    name: name.to_owned(),
                }),
                RetireOutcome::AlreadyRetired => Err(ComponentError::DuplicateEntry {
                    family: concat!("retired ", $family),
                    name: name.to_owned(),
                }),
            }
        }

        /// Whether the id refers to an active (non-retired) component.
        ///
        /// # Panics
        ///
        /// Panics if the id was minted by a different catalog and is out
        /// of range here.
        #[must_use]
        pub fn $is_active(&self, id: $idty) -> bool {
            self.$field.is_active(id.index())
        }

        /// Number of active (non-retired) components in this family.
        #[must_use]
        pub fn $active_count(&self) -> usize {
            self.$field.active_len()
        }
    };
}

impl Catalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    family_methods!(
        add_airframe,
        airframe,
        airframes,
        airframe_id,
        airframe_by_id,
        airframe_entries,
        airframe_count,
        airframes,
        Airframe,
        AirframeId,
        "airframe"
    );
    family_methods!(
        add_sensor,
        sensor,
        sensors,
        sensor_id,
        sensor_by_id,
        sensor_entries,
        sensor_count,
        sensors,
        Sensor,
        SensorId,
        "sensor"
    );
    family_methods!(
        add_compute,
        compute,
        computes,
        compute_id,
        compute_by_id,
        compute_entries,
        compute_count,
        computes,
        ComputePlatform,
        ComputeId,
        "compute platform"
    );
    family_methods!(
        add_algorithm,
        algorithm,
        algorithms,
        algorithm_id,
        algorithm_by_id,
        algorithm_entries,
        algorithm_count,
        algorithms,
        AutonomyAlgorithm,
        AlgorithmId,
        "autonomy algorithm"
    );
    family_methods!(
        add_battery,
        battery,
        batteries,
        battery_id,
        battery_by_id,
        battery_entries,
        battery_count,
        batteries,
        Battery,
        BatteryId,
        "battery"
    );

    family_lifecycle_methods!(
        retire_airframe,
        airframe_is_active,
        airframe_active_count,
        airframes,
        AirframeId,
        "airframe"
    );
    family_lifecycle_methods!(
        retire_sensor,
        sensor_is_active,
        sensor_active_count,
        sensors,
        SensorId,
        "sensor"
    );
    family_lifecycle_methods!(
        retire_compute,
        compute_is_active,
        compute_active_count,
        computes,
        ComputeId,
        "compute platform"
    );
    family_lifecycle_methods!(
        retire_algorithm,
        algorithm_is_active,
        algorithm_active_count,
        algorithms,
        AlgorithmId,
        "autonomy algorithm"
    );
    family_lifecycle_methods!(
        retire_battery,
        battery_is_active,
        battery_active_count,
        batteries,
        BatteryId,
        "battery"
    );

    /// The characterized throughput of an algorithm on a platform.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::MissingThroughput`] for uncharacterized
    /// pairs.
    pub fn throughput(&self, platform: &str, algorithm: &str) -> Result<Hertz, ComponentError> {
        self.throughput.get(platform, algorithm)
    }

    /// The characterized throughput for interned ids — a thin resolving
    /// wrapper over the string API; use [`throughput_table`] for hot
    /// paths.
    ///
    /// [`throughput_table`]: Self::throughput_table
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::MissingThroughput`] for uncharacterized
    /// pairs.
    ///
    /// # Panics
    ///
    /// Panics if the ids were minted by a different catalog and are out
    /// of range here.
    pub fn throughput_by_id(
        &self,
        compute: ComputeId,
        algorithm: AlgorithmId,
    ) -> Result<Hertz, ComponentError> {
        self.throughput.get(
            self.compute_by_id(compute).name(),
            self.algorithm_by_id(algorithm).name(),
        )
    }

    /// Snapshots the characterization matrix into a dense
    /// `computes × algorithms` table indexed by this catalog's ids.
    ///
    /// Lookups against the table do zero string hashing and zero
    /// allocation — this is what the DSE hot loop uses. Matrix entries
    /// naming components absent from the catalog (see [`validate`]) are
    /// skipped; rebuild the snapshot after mutating the catalog.
    ///
    /// [`validate`]: Self::validate
    #[must_use]
    pub fn throughput_table(&self) -> ThroughputTable {
        ThroughputTable::build(
            self.compute_count(),
            self.algorithm_count(),
            self.throughput.iter().filter_map(|(p, a, f)| {
                Some((self.compute_id(p).ok()?, self.algorithm_id(a).ok()?, f))
            }),
        )
    }

    /// The throughput matrix.
    #[must_use]
    pub fn matrix(&self) -> &ThroughputMatrix {
        &self.throughput
    }

    /// Mutable access to the throughput matrix (to add characterizations).
    pub fn matrix_mut(&mut self) -> &mut ThroughputMatrix {
        &mut self.throughput
    }

    /// The four §IV validation drones (Table I), with the paper's predicted
    /// safe velocities and reported model errors.
    #[must_use]
    pub fn validation_uavs() -> Vec<ValidationUav> {
        vec![
            ValidationUav {
                label: 'A',
                compute: names::RAS_PI4.into(),
                payload: Grams::new(590.0),
                paper_predicted_vsafe: 2.13,
                paper_error_percent: 9.5,
            },
            ValidationUav {
                label: 'B',
                compute: names::UPBOARD.into(),
                payload: Grams::new(800.0),
                paper_predicted_vsafe: 1.51,
                paper_error_percent: 7.2,
            },
            ValidationUav {
                label: 'C',
                compute: names::RAS_PI4.into(),
                payload: Grams::new(640.0),
                paper_predicted_vsafe: 1.58,
                paper_error_percent: 5.1,
            },
            ValidationUav {
                label: 'D',
                compute: names::RAS_PI4.into(),
                payload: Grams::new(690.0),
                paper_predicted_vsafe: 1.53,
                paper_error_percent: 6.45,
            },
        ]
    }

    /// Checks referential integrity: every throughput-matrix entry must
    /// name a compute platform and an algorithm that exist in the catalog.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::UnknownComponent`] naming the first
    /// dangling reference.
    pub fn validate(&self) -> Result<(), ComponentError> {
        for (platform, algorithm, _) in self.throughput.iter() {
            if self.computes.id(platform).is_none() {
                return Err(ComponentError::UnknownComponent {
                    family: "compute platform (referenced by throughput matrix)",
                    name: platform.to_owned(),
                });
            }
            if self.algorithms.id(algorithm).is_none() {
                return Err(ComponentError::UnknownComponent {
                    family: "autonomy algorithm (referenced by throughput matrix)",
                    name: algorithm.to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Builds the paper's full catalog.
    ///
    /// # Panics
    ///
    /// Never panics in practice: all entries are statically known-valid and
    /// covered by tests.
    #[must_use]
    pub fn paper() -> Self {
        let mut cat = Self::new();
        cat.populate_airframes();
        cat.populate_sensors();
        cat.populate_computes();
        cat.populate_algorithms();
        cat.populate_batteries();
        cat.populate_throughput();
        cat
    }

    fn populate_airframes(&mut self) {
        // §IV validation frame. The paper rates the ReadytoSky 2210 motors
        // at ≈435 gf of pull each; with that figure the heaviest validation
        // build (UAV-B, 1830 g take-off) would have no hover margin, so the
        // catalog uses 470 gf — the smallest round figure that keeps every
        // Table I configuration flyable. Recorded in EXPERIMENTS.md.
        self.add_airframe(
            Airframe::builder(names::CUSTOM_S500)
                .base_mass(Grams::new(1030.0))
                .rotor_count(4)
                .rotor_pull_gf(470.0)
                .frame_size(Millimeters::new(500.0))
                .build()
                .expect("static catalog entry"),
        )
        .expect("no duplicates");
        // DJI Spark: 300 g airframe, thrust budget calibrated so the §VI-A
        // NCS/AGX study reproduces the paper's ordering and the §VI-D knee
        // lands near 30 Hz.
        self.add_airframe(
            Airframe::builder(names::DJI_SPARK)
                .base_mass(Grams::new(300.0))
                .rotor_count(4)
                .rotor_pull_gf(200.0)
                .frame_size(Millimeters::new(170.0))
                .build()
                .expect("static catalog entry"),
        )
        .expect("no duplicates");
        // AscTec Pelican: 1.3 kg class research quad. The 640 gf per-rotor
        // pull is calibrated so that the §VI-B build (TX2 + heatsink +
        // RGB-D payload ≈ 200 g) lands its knee at the paper's 43 Hz.
        self.add_airframe(
            Airframe::builder(names::ASCTEC_PELICAN)
                .base_mass(Grams::new(1300.0))
                .rotor_count(4)
                .rotor_pull_gf(640.0)
                .frame_size(Millimeters::new(651.0))
                .build()
                .expect("static catalog entry"),
        )
        .expect("no duplicates");
        // §VII nano-UAV: CrazyFlie-class. 7.5 gf per rotor is calibrated
        // so the PULP-DroNet build (7 g payload) lands its knee at the
        // paper's 26 Hz.
        self.add_airframe(
            Airframe::builder(names::NANO_UAV)
                .base_mass(Grams::new(20.0))
                .rotor_count(4)
                .rotor_pull_gf(7.5)
                .frame_size(Millimeters::new(92.0))
                .build()
                .expect("static catalog entry"),
        )
        .expect("no duplicates");
    }

    fn populate_sensors(&mut self) {
        for s in [
            Sensor::new(
                names::RGB_60,
                SensorModality::RgbCamera,
                Hertz::new(60.0),
                Meters::new(5.0),
                Grams::new(20.0),
            ),
            Sensor::new(
                names::RGBD_60,
                SensorModality::RgbdCamera,
                Hertz::new(60.0),
                Meters::new(4.5),
                Grams::new(30.0),
            ),
            Sensor::new(
                names::NANO_CAM_60,
                SensorModality::RgbCamera,
                Hertz::new(60.0),
                Meters::new(2.0),
                Grams::new(2.0),
            ),
            Sensor::new(
                names::VALIDATION_SENSOR,
                SensorModality::RgbCamera,
                Hertz::new(60.0),
                Meters::new(3.0),
                Grams::new(0.0),
            ),
        ] {
            self.add_sensor(s.expect("static catalog entry"))
                .expect("no duplicates");
        }
    }

    fn populate_computes(&mut self) {
        for c in [
            // Table I: the Ras-Pi 4 "requires a separate onboard battery…
            // weighing 590 g" in total.
            ComputePlatform::builder(names::RAS_PI4)
                .kind(ComputeKind::SingleBoard)
                .mass(Grams::new(46.0))
                .tdp(Watts::new(6.0))
                .support_mass(Grams::new(544.0)),
            // "The Intel UpBoard onboard computer and battery for its power
            // supply weigh around 800 g."
            ComputePlatform::builder(names::UPBOARD)
                .kind(ComputeKind::SingleBoard)
                .mass(Grams::new(90.0))
                .tdp(Watts::new(12.0))
                .support_mass(Grams::new(710.0)),
            ComputePlatform::builder(names::TX2)
                .kind(ComputeKind::EmbeddedGpu)
                .mass(Grams::new(85.0))
                .tdp(Watts::new(15.0)),
            // §VI-A: "The Nvidia AGX module without a heatsink weighs 280 g"
            // at 30 W TDP.
            ComputePlatform::builder(names::AGX)
                .kind(ComputeKind::EmbeddedGpu)
                .mass(Grams::new(280.0))
                .tdp(Watts::new(30.0)),
            // §VI-A: "Intel NCS … is a sub-1 W compute system that weighs
            // around 47 g."
            ComputePlatform::builder(names::NCS)
                .kind(ComputeKind::VisionAccelerator)
                .mass(Grams::new(47.0))
                .tdp(Watts::new(1.0)),
            // §VII: 64 mW PULP-DroNet SoC.
            ComputePlatform::builder(names::PULP)
                .kind(ComputeKind::Asic)
                .mass(Grams::new(5.0))
                .tdp(Watts::new(0.064)),
            // §VII: 2 mW Navion VIO accelerator. It accelerates only the
            // SLAM stage; the rest of the SPA pipeline needs a small host
            // board, modelled as 3 g of support mass.
            ComputePlatform::builder(names::NAVION)
                .kind(ComputeKind::Asic)
                .mass(Grams::new(2.0))
                .tdp(Watts::new(0.002))
                .support_mass(Grams::new(3.0)),
            ComputePlatform::builder(names::CORTEX_M4)
                .kind(ComputeKind::Microcontroller)
                .mass(Grams::new(1.0))
                .tdp(Watts::new(0.1)),
        ] {
            self.add_compute(c.build().expect("static catalog entry"))
                .expect("no duplicates");
        }
    }

    fn populate_algorithms(&mut self) {
        for a in [
            AutonomyAlgorithm::end_to_end(names::DRONET),
            AutonomyAlgorithm::end_to_end(names::TRAILNET),
            AutonomyAlgorithm::end_to_end(names::CAD2RL),
            AutonomyAlgorithm::end_to_end(names::VGG16),
            AutonomyAlgorithm::end_to_end(names::MAVROS_CONTROLLER),
            // Stage shares sized so that replacing SLAM with Navion's
            // 172 FPS accelerator leaves the §VII 810 ms residual:
            // SLAM ≈ 11 % of the 909 ms end-to-end latency on TX2.
            AutonomyAlgorithm::sense_plan_act(
                names::MAVBENCH_PD,
                vec![
                    SpaStage {
                        name: "SLAM".into(),
                        latency_share: 0.11,
                    },
                    SpaStage {
                        name: "OctoMap".into(),
                        latency_share: 0.33,
                    },
                    SpaStage {
                        name: "path planner".into(),
                        latency_share: 0.56,
                    },
                ],
            ),
        ] {
            self.add_algorithm(a.expect("static catalog entry"))
                .expect("no duplicates");
        }
    }

    fn populate_batteries(&mut self) {
        for b in [
            Battery::new(
                names::BATTERY_3S_5000,
                MilliampHours::new(5000.0),
                11.1,
                Grams::new(390.0),
            ),
            Battery::new(
                names::BATTERY_SPARK,
                MilliampHours::new(1480.0),
                11.4,
                Grams::new(95.0),
            ),
            Battery::new(
                names::BATTERY_PELICAN,
                MilliampHours::new(6250.0),
                11.1,
                Grams::new(470.0),
            ),
            Battery::new(
                names::BATTERY_NANO,
                MilliampHours::new(240.0),
                3.7,
                Grams::new(7.0),
            ),
        ] {
            self.add_battery(b.expect("static catalog entry"))
                .expect("no duplicates");
        }
    }

    fn populate_throughput(&mut self) {
        let entries: [(&str, &str, f64); 13] = [
            // §VI-B / §VI-C / §VI-D on TX2.
            (names::TX2, names::DRONET, 178.0),
            (names::TX2, names::TRAILNET, 55.0),
            (names::TX2, names::MAVBENCH_PD, 1.1),
            // VGG16 on TX2: ~10 FPS (engineering estimate for Fig. 15's
            // heavyweight point; the paper plots but does not quote it).
            (names::TX2, names::VGG16, 10.0),
            // CAD2RL on TX2: scaled from its Ras-Pi figure by the same
            // ~13.7× TX2:Ras-Pi ratio DroNet exhibits (documented estimate).
            (names::TX2, names::CAD2RL, 0.9),
            // §VI-A on DJI Spark.
            (names::AGX, names::DRONET, 230.0),
            (names::NCS, names::DRONET, 150.0),
            // §VI-D: Ras-Pi must improve 3.3×/110×/660× against the 43 Hz
            // Pelican knee ⇒ 13 / 0.39 / 0.065 Hz.
            (names::RAS_PI4, names::DRONET, 13.0),
            (names::RAS_PI4, names::TRAILNET, 0.39),
            (names::RAS_PI4, names::CAD2RL, 0.065),
            // §IV: the MAVROS loop rate is set to 10 Hz on both validation
            // platforms.
            (names::RAS_PI4, names::MAVROS_CONTROLLER, 10.0),
            (names::UPBOARD, names::MAVROS_CONTROLLER, 10.0),
            // §VII: PULP-DroNet achieves 6 FPS at 64 mW.
            (names::PULP, names::DRONET, 6.0),
        ];
        for (p, a, f) in entries {
            self.throughput
                .insert(p, a, Hertz::new(f))
                .expect("no duplicate static entries");
        }
        // §VII: the full SPA pipeline with Navion's SLAM stage still takes
        // 810 ms end-to-end ⇒ 1.23 Hz.
        self.throughput
            .insert(names::NAVION, names::MAVBENCH_PD, Hertz::new(1.23))
            .expect("no duplicate static entries");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_is_complete() {
        let cat = Catalog::paper();
        assert_eq!(cat.airframes().count(), 4);
        assert_eq!(cat.sensors().count(), 4);
        assert_eq!(cat.computes().count(), 8);
        assert_eq!(cat.algorithms().count(), 6);
        assert_eq!(cat.batteries().count(), 4);
        assert_eq!(cat.matrix().len(), 14);
    }

    #[test]
    fn paper_throughputs_match_quoted_numbers() {
        let cat = Catalog::paper();
        let cases = [
            (names::TX2, names::DRONET, 178.0),
            (names::TX2, names::TRAILNET, 55.0),
            (names::TX2, names::MAVBENCH_PD, 1.1),
            (names::AGX, names::DRONET, 230.0),
            (names::NCS, names::DRONET, 150.0),
            (names::PULP, names::DRONET, 6.0),
            (names::NAVION, names::MAVBENCH_PD, 1.23),
        ];
        for (p, a, f) in cases {
            let got = cat.throughput(p, a).unwrap();
            assert!((got.get() - f).abs() < 1e-9, "{p} × {a}: {got}");
        }
    }

    #[test]
    fn agx_is_1_5x_ncs_on_dronet() {
        // §VI-A: "Nvidia AGX (230 FPS) can achieve 1.5× more compute
        // throughput than Intel NCS (150 FPS) running DroNet."
        let cat = Catalog::paper();
        let agx = cat.throughput(names::AGX, names::DRONET).unwrap();
        let ncs = cat.throughput(names::NCS, names::DRONET).unwrap();
        assert!((agx / ncs - 230.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn table1_payloads() {
        let uavs = Catalog::validation_uavs();
        assert_eq!(uavs.len(), 4);
        let payloads: Vec<f64> = uavs.iter().map(|u| u.payload.get()).collect();
        assert_eq!(payloads, vec![590.0, 800.0, 640.0, 690.0]);
        // UpBoard payload − Ras-Pi payload = 210 g (paper §IV).
        assert!((payloads[1] - payloads[0] - 210.0).abs() < 1e-9);
    }

    #[test]
    fn validation_drones_all_hover_in_catalog() {
        // The catalog's 470 gf rotor rating keeps every Table I build
        // flyable (the point of the calibration note in the module docs).
        let cat = Catalog::paper();
        let s500 = cat.airframe(names::CUSTOM_S500).unwrap();
        for uav in Catalog::validation_uavs() {
            let dynamics = s500.loaded_dynamics(uav.payload).unwrap();
            assert!(dynamics.can_hover(), "UAV-{} cannot hover", uav.label);
            assert!(dynamics.a_max().is_ok(), "UAV-{} has no margin", uav.label);
        }
    }

    #[test]
    fn unknown_lookups_fail() {
        let cat = Catalog::paper();
        assert!(cat.airframe("Ingenuity").is_err());
        assert!(cat.compute("TPU v9").is_err());
        assert!(cat.sensor("sonar").is_err());
        assert!(cat.algorithm("PilotNet").is_err());
        assert!(cat.battery("6S 9000").is_err());
        assert!(cat.throughput(names::NCS, names::TRAILNET).is_err());
    }

    #[test]
    fn duplicate_adds_rejected() {
        let mut cat = Catalog::paper();
        let dup = cat.compute(names::TX2).unwrap().clone();
        assert!(matches!(
            cat.add_compute(dup),
            Err(ComponentError::DuplicateEntry { .. })
        ));
    }

    #[test]
    fn mavbench_slam_share_reproduces_navion_residual() {
        // Replacing SLAM (11 % of 909 ms) with a 172 FPS accelerator leaves
        // ~815 ms ⇒ ~1.23 Hz, the paper's Navion end-to-end figure.
        let cat = Catalog::paper();
        let spa = cat.algorithm(names::MAVBENCH_PD).unwrap();
        let total_latency = 1.0 / 1.1; // 909 ms on TX2
        let residual = spa.residual_share_without("SLAM").unwrap() * total_latency;
        let navion_slam = 1.0 / 172.0;
        let end_to_end = residual + navion_slam;
        let rate = 1.0 / end_to_end;
        assert!((rate - 1.23).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn nano_uav_payload_capacity_fits_accelerators() {
        let cat = Catalog::paper();
        let nano = cat.airframe(names::NANO_UAV).unwrap();
        let cap = nano.payload_capacity();
        let pulp = cat.compute(names::PULP).unwrap();
        assert!(pulp.fielded_mass() < cap);
        let navion = cat.compute(names::NAVION).unwrap();
        assert!(navion.fielded_mass() < cap);
        // But an AGX obviously doesn't fit a nano-UAV.
        let agx = cat.compute(names::AGX).unwrap();
        assert!(agx.fielded_mass() > cap);
    }

    #[test]
    fn paper_catalog_passes_validation() {
        assert!(Catalog::paper().validate().is_ok());
    }

    #[test]
    fn dangling_matrix_entry_fails_validation() {
        let mut cat = Catalog::paper();
        cat.matrix_mut()
            .insert("TPU v9", names::DRONET, Hertz::new(500.0))
            .unwrap();
        let err = cat.validate().unwrap_err();
        assert!(matches!(err, ComponentError::UnknownComponent { .. }));
        assert!(err.to_string().contains("TPU v9"));

        let mut cat2 = Catalog::paper();
        cat2.matrix_mut()
            .insert(names::TX2, "PilotNet", Hertz::new(20.0))
            .unwrap();
        assert!(cat2.validate().is_err());
    }

    #[test]
    fn interned_ids_resolve_to_the_named_components() {
        let cat = Catalog::paper();
        assert_eq!(cat.compute_count(), cat.computes().count());
        for compute in cat.computes() {
            let id = cat.compute_id(compute.name()).unwrap();
            assert_eq!(cat.compute_by_id(id).name(), compute.name());
        }
        for airframe in cat.airframes() {
            let id = cat.airframe_id(airframe.name()).unwrap();
            assert_eq!(cat.airframe_by_id(id).name(), airframe.name());
        }
        for sensor in cat.sensors() {
            let id = cat.sensor_id(sensor.name()).unwrap();
            assert_eq!(cat.sensor_by_id(id).name(), sensor.name());
        }
        for algorithm in cat.algorithms() {
            let id = cat.algorithm_id(algorithm.name()).unwrap();
            assert_eq!(cat.algorithm_by_id(id).name(), algorithm.name());
        }
        for battery in cat.batteries() {
            let id = cat.battery_id(battery.name()).unwrap();
            assert_eq!(cat.battery_by_id(id).name(), battery.name());
        }
        assert!(cat.compute_id("TPU v9").is_err());
        assert!(cat.airframe_id("Ingenuity").is_err());
    }

    #[test]
    fn entries_iterate_in_name_order() {
        let cat = Catalog::paper();
        let names: Vec<&str> = cat.compute_entries().map(|(_, c)| c.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(cat.compute_entries().count(), cat.compute_count());
    }

    #[test]
    fn throughput_table_matches_string_lookups_over_whole_catalog() {
        // Acceptance: ID-interned lookups are equivalent to string-keyed
        // lookups for every compute × algorithm pair in the paper catalog.
        let cat = Catalog::paper();
        let table = cat.throughput_table();
        let mut characterized = 0;
        for (cid, compute) in cat.compute_entries() {
            for (aid, algorithm) in cat.algorithm_entries() {
                let by_string = cat.throughput(compute.name(), algorithm.name()).ok();
                let by_id = table.get(cid, aid);
                assert_eq!(
                    by_string,
                    by_id,
                    "{} × {}",
                    compute.name(),
                    algorithm.name()
                );
                assert_eq!(cat.throughput_by_id(cid, aid).ok(), by_string);
                if by_id.is_some() {
                    characterized += 1;
                }
            }
        }
        assert_eq!(characterized, cat.matrix().len());
        assert_eq!(table.len(), cat.matrix().len());
    }

    #[test]
    fn throughput_table_skips_dangling_matrix_entries() {
        let mut cat = Catalog::paper();
        cat.matrix_mut()
            .insert("TPU v9", names::DRONET, Hertz::new(500.0))
            .unwrap();
        // The dangling row cannot be represented by ids; the table holds
        // only resolvable pairs.
        assert_eq!(cat.throughput_table().len(), cat.matrix().len() - 1);
    }

    #[test]
    fn retirement_keeps_ids_stable_and_hides_from_iteration() {
        let mut cat = Catalog::paper();
        let tx2 = cat.compute_id(names::TX2).unwrap();
        assert!(cat.compute_is_active(tx2));
        cat.retire_compute(names::TX2).unwrap();
        // The id space is unchanged; the id still resolves …
        assert_eq!(cat.compute_count(), 8);
        assert_eq!(cat.compute_by_id(tx2).name(), names::TX2);
        assert!(!cat.compute_is_active(tx2));
        // … but iteration, entries and the active count skip it.
        assert_eq!(cat.compute_active_count(), 7);
        assert_eq!(cat.computes().count(), 7);
        assert!(cat.compute_entries().all(|(id, _)| id != tx2));
        // Later additions mint fresh ids after the tombstone.
        cat.add_compute(
            ComputePlatform::builder("TPU v9")
                .kind(ComputeKind::Asic)
                .mass(Grams::new(10.0))
                .tdp(Watts::new(2.0))
                .build()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(cat.compute_id("TPU v9").unwrap().index(), 8);
        assert_eq!(cat.compute_count(), 9);
        assert_eq!(cat.compute_active_count(), 8);
    }

    #[test]
    fn retirement_errors_and_name_permanence() {
        let mut cat = Catalog::paper();
        assert!(matches!(
            cat.retire_sensor("sonar"),
            Err(ComponentError::UnknownComponent { .. })
        ));
        cat.retire_sensor(names::RGB_60).unwrap();
        assert!(matches!(
            cat.retire_sensor(names::RGB_60),
            Err(ComponentError::DuplicateEntry { .. })
        ));
        // A retired name can never be reused: ids must stay unambiguous.
        let dup = Sensor::new(
            names::RGB_60,
            SensorModality::RgbCamera,
            Hertz::new(30.0),
            Meters::new(4.0),
            Grams::new(25.0),
        )
        .unwrap();
        assert!(matches!(
            cat.add_sensor(dup),
            Err(ComponentError::DuplicateEntry { .. })
        ));
        // Name lookups still resolve the retired part (for display and
        // validation); activity is a separate question.
        assert!(cat.sensor(names::RGB_60).is_ok());
    }

    #[test]
    fn equality_compares_active_views() {
        let mut a = Catalog::paper();
        let b = Catalog::paper();
        assert_eq!(a, b);
        a.retire_airframe(names::DJI_SPARK).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn iteration_is_name_sorted() {
        let cat = Catalog::paper();
        let platform_names: Vec<&str> = cat.computes().map(|c| c.name()).collect();
        let mut sorted = platform_names.clone();
        sorted.sort_unstable();
        assert_eq!(platform_names, sorted);
    }
}
