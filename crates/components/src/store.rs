//! Versioned catalog storage: copy-on-write epochs over an evolving
//! parts bin.
//!
//! The paper treats the airframe × sensor × compute × algorithm catalog
//! as fixed, but its own premise — rapidly evolving UAV compute and
//! sensor hardware — means a long-lived DSE service must absorb catalog
//! changes without invalidating everything computed so far. This module
//! makes the catalog a first-class **versioned** entity:
//!
//! * [`CatalogStore`] — a copy-on-write store producing immutable
//!   `Arc<Catalog>` **epochs**. Applying a [`CatalogDelta`] clones the
//!   current catalog, applies the delta, validates the result, and
//!   publishes it under the next [`CatalogEpoch`]; every prior epoch
//!   stays resolvable, so sessions can pin, compare and incrementally
//!   repair across versions.
//! * [`CatalogDelta`] — a batched edit: add parts, retire parts (ids
//!   stay stable; see [`Catalog::retire_compute`] and friends), patch
//!   throughput characterizations. Deltas are all-or-nothing: a delta
//!   that fails validation publishes no epoch.
//! * Each epoch carries a **structural digest** ([`EpochSnapshot::digest`]):
//!   equal content hashes equal, so a no-op delta advances the epoch
//!   counter while the digest stays put — observable catalog identity
//!   for caches and logs.
//! * [`EpochSink`] — an ordered observer of epoch publication. A
//!   durability layer (the `f1-store` crate) attaches a sink and sees
//!   every `(delta, snapshot)` pair *before* the epoch becomes visible
//!   to readers; a sink error vetoes publication, which is exactly
//!   write-ahead-log ordering.
//! * [`CatalogDelta::rebuild`] / [`CatalogDelta::to_json`] — the
//!   snapshot wire form: any catalog can be serialized as the delta
//!   that rebuilds it from empty (id-order replay re-mints identical
//!   dense ids).
//!
//! ```
//! use f1_components::{names, Catalog, CatalogDelta, CatalogStore};
//! use f1_units::Hertz;
//!
//! let store = CatalogStore::new(Catalog::paper());
//! let genesis = store.current();
//! let next = store.apply(
//!     &CatalogDelta::new()
//!         .patch_throughput(names::TX2, names::DRONET, Hertz::new(200.0))
//!         .retire_compute(names::UPBOARD),
//! )?;
//! assert_eq!(next.epoch().get(), genesis.epoch().get() + 1);
//! assert_ne!(next.digest(), genesis.digest());
//! // The genesis catalog is untouched and still resolvable.
//! assert_eq!(
//!     store.at(genesis.epoch()).unwrap().catalog().throughput(names::TX2, names::DRONET)?,
//!     Hertz::new(178.0)
//! );
//! # Ok::<(), f1_components::ComponentError>(())
//! ```

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use f1_model::physics::PitchPolicy;
use f1_units::{Grams, Hertz, Meters, MilliampHours, Millimeters, Radians, Watts};

use crate::{
    json, Airframe, AirframeId, AlgorithmId, AutonomyAlgorithm, Battery, BatteryId, Catalog,
    ComponentError, ComputeId, ComputeKind, ComputePlatform, Sensor, SensorId, SensorModality,
    SizeClass, SpaStage,
};

/// Monotonically increasing identity of one immutable catalog version
/// within its [`CatalogStore`]. Epochs are only meaningful in the store
/// that minted them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CatalogEpoch(u64);

impl CatalogEpoch {
    /// The first epoch of every store.
    pub const GENESIS: Self = Self(0);

    /// Wraps a raw epoch counter (e.g. parsed from a cache key or log
    /// line). Not validated — resolve it through [`CatalogStore::at`].
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw epoch counter.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }

    fn next(self) -> Self {
        // analyze::allow(panic, reason = "u64 epoch counter cannot overflow in practice; checked_add keeps the impossible case loud instead of wrapping")
        Self(self.0.checked_add(1).expect("epoch counter overflow"))
    }
}

impl core::fmt::Display for CatalogEpoch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// One published catalog version: the epoch id, the immutable catalog,
/// and its structural digest. Cloning is cheap (`Arc` inside).
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    epoch: CatalogEpoch,
    catalog: Arc<Catalog>,
    digest: u64,
}

impl EpochSnapshot {
    /// The epoch id.
    #[must_use]
    pub fn epoch(&self) -> CatalogEpoch {
        self.epoch
    }

    /// The immutable catalog of this epoch.
    #[must_use]
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The structural digest of this epoch's catalog content: equal
    /// content produces an equal digest, so repeated no-op deltas keep
    /// the digest stable while the epoch counter advances. (FNV-1a over
    /// the catalog's deterministic debug representation — an identity
    /// fingerprint for logs and cache keys, not a cryptographic hash.)
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// Structural digest of a catalog: FNV-1a 64 over its deterministic
/// debug representation (registries iterate `BTreeMap`s and dense
/// `Vec`s — no hash-map iteration order anywhere).
#[must_use]
pub fn catalog_digest(catalog: &Catalog) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let repr = format!("{catalog:?}");
    let mut hash = OFFSET;
    for byte in repr.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// An ordered observer of epoch publication, called by
/// [`CatalogStore::apply`] for every successful delta *before* the new
/// epoch becomes visible to readers.
///
/// This is the write-ahead hook a durability layer needs: the sink can
/// persist the `(delta, snapshot)` pair, and if it fails the epoch is
/// **not** published — readers never observe an epoch that was not made
/// durable first.
///
/// # Lock-order contract
///
/// `publish` runs while the store's internal epoch-list mutex is held
/// (that is what makes the callback *ordered*: sinks observe epochs in
/// exactly publication order, with no interleaving). Implementations
/// therefore must not call back into the [`CatalogStore`] that invoked
/// them — `current`/`at`/`apply` on the same store would self-deadlock —
/// and must not acquire any lock that can be held while calling
/// `CatalogStore` methods. File I/O and sink-private locks are fine;
/// the intended lock order is strictly `store.epochs → sink internals`,
/// never the reverse.
pub trait EpochSink: Send + Sync {
    /// Persists (or otherwise observes) one epoch publication.
    ///
    /// # Errors
    ///
    /// Any error vetoes the publication: [`CatalogStore::apply`] returns
    /// it and the store stays on the previous epoch.
    fn publish(&self, delta: &CatalogDelta, snapshot: &EpochSnapshot)
        -> Result<(), ComponentError>;
}

/// A copy-on-write, thread-safe store of immutable catalog epochs.
///
/// See the [`CatalogDelta`] docs for the epoch/delta model. The store
/// retains every epoch it published (catalog metadata is small next to
/// the result sets computed from it), so readers can pin any version
/// back to the store's base epoch — [`CatalogStore::GENESIS`](CatalogEpoch::GENESIS)
/// for fresh stores, the snapshot's epoch for stores restored via
/// [`CatalogStore::resume`].
pub struct CatalogStore {
    /// Raw epoch number of `epochs[0]` — 0 for fresh stores, the
    /// restored snapshot's epoch after `resume`.
    base: u64,
    epochs: Mutex<Vec<EpochSnapshot>>,
    sink: OnceLock<Arc<dyn EpochSink>>,
}

impl core::fmt::Debug for CatalogStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CatalogStore")
            .field("base", &self.base)
            .field("epochs", &self.lock().len())
            .field("sink", &self.sink.get().map(|_| "attached"))
            .finish()
    }
}

impl CatalogStore {
    /// Opens a store whose genesis epoch is `catalog`.
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        Self::from_shared(Arc::new(catalog))
    }

    /// Opens a store whose genesis epoch is an already-shared catalog.
    #[must_use]
    pub fn from_shared(catalog: Arc<Catalog>) -> Self {
        Self::resume(CatalogEpoch::GENESIS, catalog)
    }

    /// Opens a store that *resumes* at `epoch` with `catalog` as its
    /// first resolvable version — the restore constructor for a store
    /// rebuilt from a persisted snapshot plus a log tail. Epochs older
    /// than `epoch` are not resolvable ([`CatalogStore::at`] returns
    /// `None` for them); sessions pinned there fall back to cold runs.
    #[must_use]
    pub fn resume(epoch: CatalogEpoch, catalog: Arc<Catalog>) -> Self {
        let digest = catalog_digest(&catalog);
        Self {
            base: epoch.get(),
            epochs: Mutex::new(vec![EpochSnapshot {
                epoch,
                catalog,
                digest,
            }]),
            sink: OnceLock::new(),
        }
    }

    /// Attaches the epoch-publication sink. At most one sink can ever
    /// be attached; it observes every subsequent [`CatalogStore::apply`]
    /// under the ordering contract documented on [`EpochSink`].
    ///
    /// # Errors
    ///
    /// [`ComponentError::InvalidField`] (field `"sink"`) if a sink is
    /// already attached.
    pub fn set_sink(&self, sink: Arc<dyn EpochSink>) -> Result<(), ComponentError> {
        self.sink
            .set(sink)
            .map_err(|_| ComponentError::InvalidField {
                field: "sink",
                reason: "an epoch sink is already attached".into(),
            })
    }

    /// The oldest epoch this store can resolve: genesis for fresh
    /// stores, the restored snapshot's epoch after
    /// [`CatalogStore::resume`].
    #[must_use]
    pub fn base_epoch(&self) -> CatalogEpoch {
        CatalogEpoch::from_raw(self.base)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<EpochSnapshot>> {
        self.epochs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The latest published epoch.
    #[must_use]
    pub fn current(&self) -> EpochSnapshot {
        // analyze::allow(panic, reason = "constructor seeds the genesis epoch; the list is never empty")
        self.lock().last().expect("stores hold >= 1 epoch").clone()
    }

    /// The latest epoch id.
    #[must_use]
    pub fn current_epoch(&self) -> CatalogEpoch {
        self.current().epoch
    }

    /// Resolves a pinned epoch, if this store holds it (published here,
    /// or at/after the snapshot a [`CatalogStore::resume`]d store was
    /// restored from).
    #[must_use]
    pub fn at(&self, epoch: CatalogEpoch) -> Option<EpochSnapshot> {
        let index = usize::try_from(epoch.0.checked_sub(self.base)?).ok()?;
        self.lock().get(index).cloned()
    }

    /// Number of published epochs (genesis included).
    #[must_use]
    pub fn epoch_count(&self) -> usize {
        self.lock().len()
    }

    /// Applies a delta copy-on-write: clones the current catalog,
    /// applies every operation, validates referential integrity, and
    /// publishes the result as the next epoch. All-or-nothing — on
    /// error, no epoch is published and the current catalog is
    /// untouched.
    ///
    /// # Errors
    ///
    /// Any [`ComponentError`] from the delta's operations (duplicate
    /// names, unknown retirement targets, invalid throughputs), from
    /// [`Catalog::validate`] on the patched result, or from the attached
    /// [`EpochSink`] — a sink error means the epoch was *not* made
    /// durable, so it is not published either.
    pub fn apply(&self, delta: &CatalogDelta) -> Result<EpochSnapshot, ComponentError> {
        let mut epochs = self.lock();
        // analyze::allow(panic, reason = "constructor seeds the genesis epoch; the list is never empty")
        let current = epochs.last().expect("stores hold >= 1 epoch");
        let mut next = Catalog::clone(&current.catalog);
        delta.apply_to(&mut next)?;
        next.validate()?;
        let snapshot = EpochSnapshot {
            epoch: current.epoch.next(),
            digest: catalog_digest(&next),
            catalog: Arc::new(next),
        };
        // Write-ahead ordering: the sink persists the epoch before any
        // reader can observe it, and its error vetoes publication.
        if let Some(sink) = self.sink.get() {
            sink.publish(delta, &snapshot)?;
        }
        epochs.push(snapshot.clone());
        Ok(snapshot)
    }
}

/// A batched catalog edit: parts to add, parts to retire, throughput
/// characterizations to patch (upsert). Built fluently and applied
/// atomically by [`CatalogStore::apply`].
///
/// Adds run first, then retirements, then throughput patches — so one
/// delta can introduce a part *and* characterize it. Names are
/// permanent: adding a part under a retired name is rejected as a
/// duplicate (ids must stay unambiguous across epochs).
#[derive(Debug, Clone, Default)]
pub struct CatalogDelta {
    add_airframes: Vec<Airframe>,
    add_sensors: Vec<Sensor>,
    add_computes: Vec<ComputePlatform>,
    add_algorithms: Vec<AutonomyAlgorithm>,
    add_batteries: Vec<Battery>,
    retire_airframes: Vec<String>,
    retire_sensors: Vec<String>,
    retire_computes: Vec<String>,
    retire_algorithms: Vec<String>,
    retire_batteries: Vec<String>,
    throughput: Vec<(String, String, Hertz)>,
}

impl CatalogDelta {
    /// Starts an empty delta.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an airframe.
    #[must_use]
    pub fn add_airframe(mut self, airframe: Airframe) -> Self {
        self.add_airframes.push(airframe);
        self
    }

    /// Adds a sensor.
    #[must_use]
    pub fn add_sensor(mut self, sensor: Sensor) -> Self {
        self.add_sensors.push(sensor);
        self
    }

    /// Adds a compute platform.
    #[must_use]
    pub fn add_compute(mut self, compute: ComputePlatform) -> Self {
        self.add_computes.push(compute);
        self
    }

    /// Adds an autonomy algorithm.
    #[must_use]
    pub fn add_algorithm(mut self, algorithm: AutonomyAlgorithm) -> Self {
        self.add_algorithms.push(algorithm);
        self
    }

    /// Adds a battery.
    #[must_use]
    pub fn add_battery(mut self, battery: Battery) -> Self {
        self.add_batteries.push(battery);
        self
    }

    /// Retires an airframe by name.
    #[must_use]
    pub fn retire_airframe(mut self, name: impl Into<String>) -> Self {
        self.retire_airframes.push(name.into());
        self
    }

    /// Retires a sensor by name.
    #[must_use]
    pub fn retire_sensor(mut self, name: impl Into<String>) -> Self {
        self.retire_sensors.push(name.into());
        self
    }

    /// Retires a compute platform by name.
    #[must_use]
    pub fn retire_compute(mut self, name: impl Into<String>) -> Self {
        self.retire_computes.push(name.into());
        self
    }

    /// Retires an autonomy algorithm by name.
    #[must_use]
    pub fn retire_algorithm(mut self, name: impl Into<String>) -> Self {
        self.retire_algorithms.push(name.into());
        self
    }

    /// Retires a battery by name.
    #[must_use]
    pub fn retire_battery(mut self, name: impl Into<String>) -> Self {
        self.retire_batteries.push(name.into());
        self
    }

    /// Patches (or newly characterizes) a platform × algorithm
    /// throughput.
    #[must_use]
    pub fn patch_throughput(
        mut self,
        platform: impl Into<String>,
        algorithm: impl Into<String>,
        throughput: Hertz,
    ) -> Self {
        self.throughput
            .push((platform.into(), algorithm.into(), throughput));
        self
    }

    /// Whether the delta carries no operations (a no-op: applying it
    /// advances the epoch but leaves the digest unchanged).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.op_count() == 0
    }

    /// Total number of operations in the delta.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.add_airframes.len()
            + self.add_sensors.len()
            + self.add_computes.len()
            + self.add_algorithms.len()
            + self.add_batteries.len()
            + self.retire_airframes.len()
            + self.retire_sensors.len()
            + self.retire_computes.len()
            + self.retire_algorithms.len()
            + self.retire_batteries.len()
            + self.throughput.len()
    }

    /// Applies every operation to a catalog in place (adds, then
    /// retirements, then throughput patches).
    ///
    /// # Errors
    ///
    /// The first failing operation's [`ComponentError`]. The catalog may
    /// be partially modified on error — [`CatalogStore::apply`] works on
    /// a private clone, which is the intended way to get atomicity.
    pub fn apply_to(&self, catalog: &mut Catalog) -> Result<(), ComponentError> {
        for airframe in &self.add_airframes {
            catalog.add_airframe(airframe.clone())?;
        }
        for sensor in &self.add_sensors {
            catalog.add_sensor(sensor.clone())?;
        }
        for compute in &self.add_computes {
            catalog.add_compute(compute.clone())?;
        }
        for algorithm in &self.add_algorithms {
            catalog.add_algorithm(algorithm.clone())?;
        }
        for battery in &self.add_batteries {
            catalog.add_battery(battery.clone())?;
        }
        for name in &self.retire_airframes {
            catalog.retire_airframe(name)?;
        }
        for name in &self.retire_sensors {
            catalog.retire_sensor(name)?;
        }
        for name in &self.retire_computes {
            catalog.retire_compute(name)?;
        }
        for name in &self.retire_algorithms {
            catalog.retire_algorithm(name)?;
        }
        for name in &self.retire_batteries {
            catalog.retire_battery(name)?;
        }
        for (platform, algorithm, throughput) in &self.throughput {
            catalog
                .matrix_mut()
                .upsert(platform, algorithm, *throughput)?;
        }
        Ok(())
    }

    /// Reconstructs the additive delta that rebuilds `catalog`'s parts
    /// bin from empty: every part ever added, **in id order**, so that
    /// replaying the delta against [`Catalog::new`] re-mints identical
    /// dense ids; parts retired in `catalog` appear both as adds and as
    /// retirements (names are permanent — the id must exist to be a
    /// tombstone).
    ///
    /// The throughput matrix is *not* included: it records its own
    /// platform/algorithm intern order, which row-order replay cannot
    /// reproduce in general. Snapshot writers persist it separately via
    /// [`ThroughputMatrix::from_parts`](crate::ThroughputMatrix::from_parts)
    /// inputs ([`ThroughputMatrix::platform_order`](crate::ThroughputMatrix::platform_order)
    /// and friends).
    #[must_use]
    pub fn rebuild(catalog: &Catalog) -> Self {
        let mut delta = Self::new();
        for i in 0..catalog.airframe_count() {
            let id = AirframeId::from_index(i);
            delta.add_airframes.push(catalog.airframe_by_id(id).clone());
            if !catalog.airframe_is_active(id) {
                delta
                    .retire_airframes
                    .push(catalog.airframe_by_id(id).name().to_owned());
            }
        }
        for i in 0..catalog.sensor_count() {
            let id = SensorId::from_index(i);
            delta.add_sensors.push(catalog.sensor_by_id(id).clone());
            if !catalog.sensor_is_active(id) {
                delta
                    .retire_sensors
                    .push(catalog.sensor_by_id(id).name().to_owned());
            }
        }
        for i in 0..catalog.compute_count() {
            let id = ComputeId::from_index(i);
            delta.add_computes.push(catalog.compute_by_id(id).clone());
            if !catalog.compute_is_active(id) {
                delta
                    .retire_computes
                    .push(catalog.compute_by_id(id).name().to_owned());
            }
        }
        for i in 0..catalog.algorithm_count() {
            let id = AlgorithmId::from_index(i);
            delta
                .add_algorithms
                .push(catalog.algorithm_by_id(id).clone());
            if !catalog.algorithm_is_active(id) {
                delta
                    .retire_algorithms
                    .push(catalog.algorithm_by_id(id).name().to_owned());
            }
        }
        for i in 0..catalog.battery_count() {
            let id = BatteryId::from_index(i);
            delta.add_batteries.push(catalog.battery_by_id(id).clone());
            if !catalog.battery_is_active(id) {
                delta
                    .retire_batteries
                    .push(catalog.battery_by_id(id).name().to_owned());
            }
        }
        delta
    }

    /// Serializes the delta as a single-line JSON document in the
    /// [`CatalogDelta::from_json`] schema, so
    /// `from_json(delta.to_json()?)` reproduces the delta exactly.
    /// Airframes are written with every field explicit
    /// (`control_rate_hz`, `size_class`, `pitch_policy` included) and
    /// SPA algorithms carry their `stages`, so the epoch log and
    /// snapshots restore *digest-identical* catalogs, not merely
    /// equivalent ones. Sections and families appear in a fixed order
    /// and empty sections are omitted (an empty delta is `{}`) — the
    /// output is canonical and byte-stable.
    ///
    /// # Errors
    ///
    /// [`ComponentError::InvalidField`] (field `"delta"`) if a value
    /// cannot be represented in JSON (a non-finite float, or a
    /// [`PitchPolicy`] variant this writer does not know).
    pub fn to_json(&self) -> Result<String, ComponentError> {
        let mut add = Vec::new();
        push_family(&mut add, "airframes", &self.add_airframes, airframe_json)?;
        push_family(&mut add, "sensors", &self.add_sensors, sensor_json)?;
        push_family(&mut add, "computes", &self.add_computes, compute_json)?;
        push_family(&mut add, "algorithms", &self.add_algorithms, algorithm_json)?;
        push_family(&mut add, "batteries", &self.add_batteries, battery_json)?;
        let mut retire = Vec::new();
        for (family, names) in [
            ("airframes", &self.retire_airframes),
            ("sensors", &self.retire_sensors),
            ("computes", &self.retire_computes),
            ("algorithms", &self.retire_algorithms),
            ("batteries", &self.retire_batteries),
        ] {
            if !names.is_empty() {
                let quoted: Vec<String> = names.iter().map(|n| json::quote(n)).collect();
                retire.push(format!("\"{family}\": [{}]", quoted.join(", ")));
            }
        }
        let mut sections = Vec::new();
        if !add.is_empty() {
            sections.push(format!("\"add\": {{{}}}", add.join(", ")));
        }
        if !retire.is_empty() {
            sections.push(format!("\"retire\": {{{}}}", retire.join(", ")));
        }
        if !self.throughput.is_empty() {
            let cells: Result<Vec<String>, ComponentError> = self
                .throughput
                .iter()
                .map(|(platform, algorithm, hz)| {
                    Ok(format!(
                        "{{\"compute\": {}, \"algorithm\": {}, \"hz\": {}}}",
                        json::quote(platform),
                        json::quote(algorithm),
                        num(hz.get())?
                    ))
                })
                .collect();
            sections.push(format!("\"throughput\": [{}]", cells?.join(", ")));
        }
        Ok(format!("{{{}}}", sections.join(", ")))
    }

    /// Parses a delta from its JSON document form (the `skyline
    /// --delta FILE` wire format):
    ///
    /// ```json
    /// {
    ///   "add": {
    ///     "airframes":  [{"name": "X500", "base_mass_g": 900, "rotor_count": 4,
    ///                     "rotor_pull_gf": 500, "frame_size_mm": 500}],
    ///     "sensors":    [{"name": "Cam", "modality": "rgb", "rate_hz": 90,
    ///                     "range_m": 6, "mass_g": 18}],
    ///     "computes":   [{"name": "Orin", "kind": "embedded_gpu", "mass_g": 210,
    ///                     "tdp_w": 25, "support_mass_g": 0}],
    ///     "algorithms": [{"name": "PilotNet"}],
    ///     "batteries":  [{"name": "4S", "capacity_mah": 6000, "voltage_v": 14.8,
    ///                     "mass_g": 520}]
    ///   },
    ///   "retire": {"computes": ["Intel UpBoard"]},
    ///   "throughput": [{"compute": "Orin", "algorithm": "DroNet", "hz": 400}]
    /// }
    /// ```
    ///
    /// Every section is optional; `support_mass_g` defaults to zero.
    /// Airframes accept optional `control_rate_hz` (default 1000),
    /// `size_class` (`"nano"`/`"micro"`/`"mini"`, default inferred from
    /// the frame size) and `pitch_policy` (`"vertical_margin"`,
    /// `"altitude_hold"`, `{"fixed_pitch_rad": α}` or
    /// `{"max_tilt_rad": α}`). Algorithms are end-to-end unless they
    /// carry a `"stages"` array of `{"name", "latency_share"}` objects,
    /// which makes them Sense-Plan-Act. The parser is a minimal
    /// strict-JSON reader ([`crate::json`]) — the workspace has no
    /// serde.
    ///
    /// # Errors
    ///
    /// [`ComponentError::InvalidField`] (field `"delta"`) for malformed
    /// JSON or schema violations, plus any component-constructor error.
    pub fn from_json(text: &str) -> Result<Self, ComponentError> {
        let value = json::parse(text).map_err(bad_delta)?;
        let root = value.as_object().map_err(bad_delta)?;
        let mut delta = Self::new();
        for (key, section) in root {
            match key.as_str() {
                "add" => {
                    for (family, items) in section.as_object().map_err(bad_delta)? {
                        let items = items.as_array().map_err(bad_delta)?;
                        for item in items {
                            delta = delta.add_from_json(family, item)?;
                        }
                    }
                }
                "retire" => {
                    for (family, names) in section.as_object().map_err(bad_delta)? {
                        for name in names.as_array().map_err(bad_delta)? {
                            let name = name.as_str().map_err(bad_delta)?;
                            delta = match family.as_str() {
                                "airframes" => delta.retire_airframe(name),
                                "sensors" => delta.retire_sensor(name),
                                "computes" => delta.retire_compute(name),
                                "algorithms" => delta.retire_algorithm(name),
                                "batteries" => delta.retire_battery(name),
                                other => {
                                    return Err(bad_delta(format!(
                                        "unknown retire family {other:?}"
                                    )))
                                }
                            };
                        }
                    }
                }
                "throughput" => {
                    for entry in section.as_array().map_err(bad_delta)? {
                        let obj = entry.as_object().map_err(bad_delta)?;
                        delta = delta.patch_throughput(
                            field_str(obj, "compute")?,
                            field_str(obj, "algorithm")?,
                            Hertz::new(field_num(obj, "hz")?),
                        );
                    }
                }
                other => return Err(bad_delta(format!("unknown delta section {other:?}"))),
            }
        }
        Ok(delta)
    }

    fn add_from_json(self, family: &str, item: &json::Value) -> Result<Self, ComponentError> {
        let obj = item.as_object().map_err(bad_delta)?;
        let name = field_str(obj, "name")?;
        Ok(match family {
            "airframes" => {
                let mut builder = Airframe::builder(name)
                    .base_mass(Grams::new(field_num(obj, "base_mass_g")?))
                    .rotor_count(rotor_count(field_num(obj, "rotor_count")?)?)
                    .rotor_pull_gf(field_num(obj, "rotor_pull_gf")?)
                    .frame_size(Millimeters::new(field_num(obj, "frame_size_mm")?));
                if let Some(rate) = opt_field(obj, "control_rate_hz") {
                    builder =
                        builder.control_rate(Hertz::new(rate.as_number().map_err(bad_delta)?));
                }
                if let Some(class) = opt_field(obj, "size_class") {
                    builder = builder.size_class(size_class(&class.as_str().map_err(bad_delta)?)?);
                }
                if let Some(policy) = opt_field(obj, "pitch_policy") {
                    builder = builder.pitch_policy(pitch_policy(policy)?);
                }
                self.add_airframe(builder.build()?)
            }
            "sensors" => self.add_sensor(Sensor::new(
                name,
                modality(&field_str(obj, "modality")?)?,
                Hertz::new(field_num(obj, "rate_hz")?),
                Meters::new(field_num(obj, "range_m")?),
                Grams::new(field_num(obj, "mass_g")?),
            )?),
            "computes" => self.add_compute(
                ComputePlatform::builder(name)
                    .kind(compute_kind(&field_str(obj, "kind")?)?)
                    .mass(Grams::new(field_num(obj, "mass_g")?))
                    .tdp(Watts::new(field_num(obj, "tdp_w")?))
                    .support_mass(Grams::new(field_num_or(obj, "support_mass_g", 0.0)?))
                    .build()?,
            ),
            "algorithms" => self.add_algorithm(match opt_field(obj, "stages") {
                None => AutonomyAlgorithm::end_to_end(name)?,
                Some(stages) => {
                    let mut parsed = Vec::new();
                    for stage in stages.as_array().map_err(bad_delta)? {
                        let stage = stage.as_object().map_err(bad_delta)?;
                        parsed.push(SpaStage {
                            name: field_str(stage, "name")?,
                            latency_share: field_num(stage, "latency_share")?,
                        });
                    }
                    AutonomyAlgorithm::sense_plan_act(name, parsed)?
                }
            }),
            "batteries" => self.add_battery(Battery::new(
                name,
                MilliampHours::new(field_num(obj, "capacity_mah")?),
                field_num(obj, "voltage_v")?,
                Grams::new(field_num(obj, "mass_g")?),
            )?),
            other => return Err(bad_delta(format!("unknown add family {other:?}"))),
        })
    }
}

fn bad_delta(reason: impl core::fmt::Display) -> ComponentError {
    ComponentError::InvalidField {
        field: "delta",
        reason: reason.to_string(),
    }
}

fn field<'a>(
    obj: &'a [(String, json::Value)],
    name: &str,
) -> Result<&'a json::Value, ComponentError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| bad_delta(format!("missing field {name:?}")))
}

fn field_str(obj: &[(String, json::Value)], name: &str) -> Result<String, ComponentError> {
    field(obj, name)?.as_str().map_err(bad_delta)
}

fn field_num(obj: &[(String, json::Value)], name: &str) -> Result<f64, ComponentError> {
    field(obj, name)?.as_number().map_err(bad_delta)
}

fn field_num_or(
    obj: &[(String, json::Value)],
    name: &str,
    default: f64,
) -> Result<f64, ComponentError> {
    match opt_field(obj, name) {
        Some(v) => v.as_number().map_err(bad_delta),
        None => Ok(default),
    }
}

fn opt_field<'a>(obj: &'a [(String, json::Value)], name: &str) -> Option<&'a json::Value> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// A finite float in its canonical wire spelling, or the delta error.
fn num(v: f64) -> Result<String, ComponentError> {
    json::fmt_number(v).ok_or_else(|| bad_delta(format!("non-finite number {v}")))
}

/// Serializes one non-empty add-family as a `"family": [items]` entry.
fn push_family<T>(
    add: &mut Vec<String>,
    family: &str,
    items: &[T],
    item_json: fn(&T) -> Result<String, ComponentError>,
) -> Result<(), ComponentError> {
    if items.is_empty() {
        return Ok(());
    }
    let rendered: Result<Vec<String>, ComponentError> = items.iter().map(item_json).collect();
    add.push(format!("\"{family}\": [{}]", rendered?.join(", ")));
    Ok(())
}

fn airframe_json(a: &Airframe) -> Result<String, ComponentError> {
    Ok(format!(
        "{{\"name\": {}, \"base_mass_g\": {}, \"rotor_count\": {}, \"rotor_pull_gf\": {}, \
         \"frame_size_mm\": {}, \"control_rate_hz\": {}, \"size_class\": {}, \"pitch_policy\": {}}}",
        json::quote(a.name()),
        num(a.base_mass().get())?,
        a.rotor_count(),
        num(a.rotor_pull().get())?,
        num(a.frame_size().get())?,
        num(a.control_rate().get())?,
        json::quote(size_class_token(a.size_class())),
        pitch_policy_json(a.pitch_policy())?,
    ))
}

fn sensor_json(s: &Sensor) -> Result<String, ComponentError> {
    Ok(format!(
        "{{\"name\": {}, \"modality\": {}, \"rate_hz\": {}, \"range_m\": {}, \"mass_g\": {}}}",
        json::quote(s.name()),
        json::quote(modality_token(s.modality())),
        num(s.frame_rate().get())?,
        num(s.range().get())?,
        num(s.mass().get())?,
    ))
}

fn compute_json(c: &ComputePlatform) -> Result<String, ComponentError> {
    Ok(format!(
        "{{\"name\": {}, \"kind\": {}, \"mass_g\": {}, \"tdp_w\": {}, \"support_mass_g\": {}}}",
        json::quote(c.name()),
        json::quote(kind_token(c.kind())),
        num(c.mass().get())?,
        num(c.tdp().get())?,
        num(c.support_mass().get())?,
    ))
}

fn algorithm_json(a: &AutonomyAlgorithm) -> Result<String, ComponentError> {
    if a.stages().is_empty() {
        return Ok(format!("{{\"name\": {}}}", json::quote(a.name())));
    }
    let stages: Result<Vec<String>, ComponentError> = a
        .stages()
        .iter()
        .map(|s| {
            Ok(format!(
                "{{\"name\": {}, \"latency_share\": {}}}",
                json::quote(&s.name),
                num(s.latency_share)?
            ))
        })
        .collect();
    Ok(format!(
        "{{\"name\": {}, \"stages\": [{}]}}",
        json::quote(a.name()),
        stages?.join(", ")
    ))
}

fn battery_json(b: &Battery) -> Result<String, ComponentError> {
    Ok(format!(
        "{{\"name\": {}, \"capacity_mah\": {}, \"voltage_v\": {}, \"mass_g\": {}}}",
        json::quote(b.name()),
        num(b.capacity().get())?,
        num(b.voltage())?,
        num(b.mass().get())?,
    ))
}

fn size_class(token: &str) -> Result<SizeClass, ComponentError> {
    Ok(match token {
        "nano" => SizeClass::Nano,
        "micro" => SizeClass::Micro,
        "mini" => SizeClass::Mini,
        other => return Err(bad_delta(format!("unknown size class {other:?}"))),
    })
}

fn size_class_token(class: SizeClass) -> &'static str {
    match class {
        SizeClass::Nano => "nano",
        SizeClass::Micro => "micro",
        SizeClass::Mini => "mini",
    }
}

fn pitch_policy(value: &json::Value) -> Result<PitchPolicy, ComponentError> {
    if let Ok(token) = value.as_str() {
        return match token.as_str() {
            "vertical_margin" => Ok(PitchPolicy::VerticalMargin),
            "altitude_hold" => Ok(PitchPolicy::AltitudeHold),
            other => Err(bad_delta(format!("unknown pitch policy {other:?}"))),
        };
    }
    let obj = value.as_object().map_err(bad_delta)?;
    match obj {
        [(key, angle)] if key == "fixed_pitch_rad" => Ok(PitchPolicy::FixedPitch(Radians::new(
            angle.as_number().map_err(bad_delta)?,
        ))),
        [(key, angle)] if key == "max_tilt_rad" => Ok(PitchPolicy::MaxTilt {
            limit: Radians::new(angle.as_number().map_err(bad_delta)?),
        }),
        _ => Err(bad_delta(
            "pitch policy must be a token or exactly one of fixed_pitch_rad / max_tilt_rad",
        )),
    }
}

fn pitch_policy_json(policy: PitchPolicy) -> Result<String, ComponentError> {
    Ok(match policy {
        PitchPolicy::VerticalMargin => json::quote("vertical_margin"),
        PitchPolicy::AltitudeHold => json::quote("altitude_hold"),
        PitchPolicy::FixedPitch(angle) => {
            format!("{{\"fixed_pitch_rad\": {}}}", num(angle.get())?)
        }
        PitchPolicy::MaxTilt { limit } => format!("{{\"max_tilt_rad\": {}}}", num(limit.get())?),
        // PitchPolicy is #[non_exhaustive] in f1-model: a variant this
        // writer does not know has no wire spelling yet.
        _ => return Err(bad_delta("unsupported pitch policy variant")),
    })
}

fn rotor_count(raw: f64) -> Result<u8, ComponentError> {
    if raw.fract() == 0.0 && (1.0..=255.0).contains(&raw) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Ok(raw as u8)
    } else {
        Err(bad_delta(format!(
            "rotor_count must be an integer in 1..=255, got {raw}"
        )))
    }
}

fn modality(token: &str) -> Result<SensorModality, ComponentError> {
    Ok(match token {
        "rgb" => SensorModality::RgbCamera,
        "rgbd" => SensorModality::RgbdCamera,
        "stereo" => SensorModality::StereoCamera,
        "lidar" => SensorModality::Lidar,
        "radar" => SensorModality::Radar,
        other => return Err(bad_delta(format!("unknown sensor modality {other:?}"))),
    })
}

fn modality_token(modality: SensorModality) -> &'static str {
    match modality {
        SensorModality::RgbCamera => "rgb",
        SensorModality::RgbdCamera => "rgbd",
        SensorModality::StereoCamera => "stereo",
        SensorModality::Lidar => "lidar",
        SensorModality::Radar => "radar",
    }
}

fn kind_token(kind: ComputeKind) -> &'static str {
    match kind {
        ComputeKind::Microcontroller => "microcontroller",
        ComputeKind::SingleBoard => "single_board",
        ComputeKind::EmbeddedGpu => "embedded_gpu",
        ComputeKind::VisionAccelerator => "vision_accelerator",
        ComputeKind::Asic => "asic",
    }
}

fn compute_kind(token: &str) -> Result<ComputeKind, ComponentError> {
    Ok(match token {
        "microcontroller" => ComputeKind::Microcontroller,
        "single_board" => ComputeKind::SingleBoard,
        "embedded_gpu" => ComputeKind::EmbeddedGpu,
        "vision_accelerator" => ComputeKind::VisionAccelerator,
        "asic" => ComputeKind::Asic,
        other => return Err(bad_delta(format!("unknown compute kind {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn epochs_advance_and_history_is_pinned() {
        let store = CatalogStore::new(Catalog::paper());
        assert_eq!(store.current_epoch(), CatalogEpoch::GENESIS);
        assert_eq!(store.epoch_count(), 1);
        let next = store
            .apply(&CatalogDelta::new().retire_compute(names::NCS))
            .unwrap();
        assert_eq!(next.epoch().get(), 1);
        assert_eq!(store.current_epoch().get(), 1);
        assert_eq!(store.epoch_count(), 2);
        // Genesis is immutable and still resolvable.
        let genesis = store.at(CatalogEpoch::GENESIS).unwrap();
        assert_eq!(genesis.catalog().compute_active_count(), 8);
        assert_eq!(store.current().catalog().compute_active_count(), 7);
        assert!(store.at(CatalogEpoch::from_raw(7)).is_none());
        assert_eq!(format!("{}", next.epoch()), "epoch 1");
    }

    #[test]
    fn noop_deltas_advance_epoch_with_stable_digest() {
        let store = CatalogStore::new(Catalog::paper());
        let genesis = store.current();
        let once = store.apply(&CatalogDelta::new()).unwrap();
        let twice = store.apply(&CatalogDelta::new()).unwrap();
        assert_eq!(once.epoch().get(), 1);
        assert_eq!(twice.epoch().get(), 2);
        assert_eq!(genesis.digest(), once.digest());
        assert_eq!(once.digest(), twice.digest());
        // A real delta moves the digest.
        let real = store
            .apply(&CatalogDelta::new().patch_throughput(
                names::TX2,
                names::DRONET,
                Hertz::new(1.0),
            ))
            .unwrap();
        assert_ne!(real.digest(), twice.digest());
        assert!(CatalogDelta::new().is_empty());
        assert_eq!(
            CatalogDelta::new().retire_sensor(names::RGB_60).op_count(),
            1
        );
    }

    #[test]
    fn failing_delta_publishes_no_epoch() {
        let store = CatalogStore::new(Catalog::paper());
        // Characterizing an unknown platform fails catalog validation.
        let err = store
            .apply(&CatalogDelta::new().patch_throughput("TPU v9", names::DRONET, Hertz::new(9.0)))
            .unwrap_err();
        assert!(matches!(err, ComponentError::UnknownComponent { .. }));
        assert_eq!(store.epoch_count(), 1);
        // Unknown retirement target.
        assert!(store
            .apply(&CatalogDelta::new().retire_airframe("Ingenuity"))
            .is_err());
        // Duplicate add.
        let dup = Catalog::paper().sensor(names::RGB_60).unwrap().clone();
        assert!(store.apply(&CatalogDelta::new().add_sensor(dup)).is_err());
        assert_eq!(store.epoch_count(), 1);
    }

    #[test]
    fn delta_can_add_retire_and_patch_in_one_epoch() {
        let store = CatalogStore::new(Catalog::paper());
        let orin = ComputePlatform::builder("Orin")
            .kind(ComputeKind::EmbeddedGpu)
            .mass(Grams::new(210.0))
            .tdp(Watts::new(25.0))
            .build()
            .unwrap();
        let next = store
            .apply(
                &CatalogDelta::new()
                    .add_compute(orin)
                    .patch_throughput("Orin", names::DRONET, Hertz::new(400.0))
                    .retire_compute(names::UPBOARD),
            )
            .unwrap();
        let cat = next.catalog();
        assert_eq!(
            cat.throughput("Orin", names::DRONET).unwrap(),
            Hertz::new(400.0)
        );
        assert!(!cat.compute_is_active(cat.compute_id(names::UPBOARD).unwrap()));
        // Appended part minted the next dense id.
        assert_eq!(cat.compute_id("Orin").unwrap().index(), 8);
    }

    #[test]
    fn from_json_round_trips_the_documented_schema() {
        let text = r#"{
            "add": {
                "airframes": [{"name": "X500", "base_mass_g": 900, "rotor_count": 4,
                               "rotor_pull_gf": 500, "frame_size_mm": 500}],
                "sensors": [{"name": "Cam90", "modality": "rgb", "rate_hz": 90,
                             "range_m": 6.5, "mass_g": 18}],
                "computes": [{"name": "Orin", "kind": "embedded_gpu", "mass_g": 210,
                              "tdp_w": 25}],
                "algorithms": [{"name": "PilotNet"}],
                "batteries": [{"name": "4S 6000", "capacity_mah": 6000,
                               "voltage_v": 14.8, "mass_g": 520}]
            },
            "retire": {"computes": ["Intel UpBoard"], "sensors": []},
            "throughput": [{"compute": "Orin", "algorithm": "DroNet", "hz": 400}]
        }"#;
        let delta = CatalogDelta::from_json(text).unwrap();
        assert_eq!(delta.op_count(), 7);
        let store = CatalogStore::new(Catalog::paper());
        let next = store.apply(&delta).unwrap();
        let cat = next.catalog();
        assert!(cat.airframe("X500").is_ok());
        assert!(cat.sensor("Cam90").is_ok());
        assert!(cat.algorithm("PilotNet").is_ok());
        assert!(cat.battery("4S 6000").is_ok());
        assert_eq!(
            cat.throughput("Orin", names::DRONET).unwrap(),
            Hertz::new(400.0)
        );
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            r#"{"add": 3}"#,
            r#"{"frobnicate": {}}"#,
            r#"{"retire": {"widgets": ["x"]}}"#,
            r#"{"add": {"sensors": [{"name": "S"}]}}"#, // missing fields
            r#"{"add": {"sensors": [{"name": "S", "modality": "sonar",
                "rate_hz": 1, "range_m": 1, "mass_g": 1}]}}"#,
            r#"{"add": {"computes": [{"name": "C", "kind": "quantum",
                "mass_g": 1, "tdp_w": 1}]}}"#,
            r#"{"throughput": [{"compute": "C", "algorithm": "A", "hz": "fast"}]}"#,
            r#"{"add": {"airframes": [{"name": "A", "base_mass_g": 1,
                "rotor_count": 4.5, "rotor_pull_gf": 1, "frame_size_mm": 1}]}}"#,
            r#"{"a": 1, "a": 2}"#,
            r#"{"x": 1} trailing"#,
            r#"{"x": 1e999}"#,
        ] {
            let err = CatalogDelta::from_json(bad);
            assert!(err.is_err(), "accepted {bad:?}");
        }
        // Strings with escapes parse.
        let delta = CatalogDelta::from_json(r#"{"retire": {"computes": ["a\"b\\cA"]}}"#).unwrap();
        assert_eq!(delta.op_count(), 1);
    }

    #[test]
    fn to_json_round_trips_every_field_exactly() {
        let delta = CatalogDelta::new()
            .add_airframe(
                Airframe::builder("RT \"Frame\"")
                    .base_mass(Grams::new(812.5))
                    .rotor_count(6)
                    .rotor_pull_gf(430.25)
                    .frame_size(Millimeters::new(451.0))
                    .control_rate(Hertz::new(475.5))
                    .size_class(SizeClass::Micro)
                    .pitch_policy(PitchPolicy::MaxTilt {
                        limit: Radians::new(0.35),
                    })
                    .build()
                    .unwrap(),
            )
            .add_sensor(
                Sensor::new(
                    "RT Cam",
                    SensorModality::StereoCamera,
                    Hertz::new(90.5),
                    Meters::new(6.25),
                    Grams::new(18.0),
                )
                .unwrap(),
            )
            .add_compute(
                ComputePlatform::builder("RT Orin")
                    .kind(ComputeKind::EmbeddedGpu)
                    .mass(Grams::new(210.0))
                    .tdp(Watts::new(25.5))
                    .support_mass(Grams::new(12.0))
                    .build()
                    .unwrap(),
            )
            .add_algorithm(
                AutonomyAlgorithm::sense_plan_act(
                    "RT SPA",
                    vec![
                        SpaStage {
                            name: "sense".into(),
                            latency_share: 0.25,
                        },
                        SpaStage {
                            name: "plan \\ act".into(),
                            latency_share: 0.75,
                        },
                    ],
                )
                .unwrap(),
            )
            .add_battery(
                Battery::new("RT 4S", MilliampHours::new(6000.0), 14.8, Grams::new(520.0)).unwrap(),
            )
            .retire_compute(names::UPBOARD)
            .patch_throughput("RT Orin", names::DRONET, Hertz::new(30.5));
        let text = delta.to_json().unwrap();
        assert!(!text.contains('\n'), "wire form must be single-line");
        let back = CatalogDelta::from_json(&text).unwrap();
        // Canonical: re-serializing the parse reproduces the bytes.
        assert_eq!(back.to_json().unwrap(), text);
        assert_eq!(back.op_count(), delta.op_count());
        // And both spellings produce digest-identical catalogs.
        let a = CatalogStore::new(Catalog::paper()).apply(&delta).unwrap();
        let b = CatalogStore::new(Catalog::paper()).apply(&back).unwrap();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn to_json_of_empty_delta_is_the_empty_object() {
        let delta = CatalogDelta::new();
        assert_eq!(delta.to_json().unwrap(), "{}");
        assert!(CatalogDelta::from_json("{}").unwrap().is_empty());
    }

    #[test]
    fn every_pitch_policy_wire_form_round_trips() {
        for policy in [
            PitchPolicy::VerticalMargin,
            PitchPolicy::AltitudeHold,
            PitchPolicy::FixedPitch(Radians::new(0.2)),
            PitchPolicy::MaxTilt {
                limit: Radians::new(0.4),
            },
        ] {
            let delta = CatalogDelta::new().add_airframe(
                Airframe::builder("P")
                    .base_mass(Grams::new(100.0))
                    .rotor_pull_gf(100.0)
                    .pitch_policy(policy)
                    .build()
                    .unwrap(),
            );
            let text = delta.to_json().unwrap();
            let back = CatalogDelta::from_json(&text).unwrap();
            assert_eq!(back.to_json().unwrap(), text, "{policy:?}");
        }
        // Unknown spellings are named errors.
        for bad in [
            r#"{"add": {"airframes": [{"name": "A", "base_mass_g": 1, "rotor_count": 4,
                "rotor_pull_gf": 1, "frame_size_mm": 1, "pitch_policy": "sideways"}]}}"#,
            r#"{"add": {"airframes": [{"name": "A", "base_mass_g": 1, "rotor_count": 4,
                "rotor_pull_gf": 1, "frame_size_mm": 1, "pitch_policy": {"x": 1, "y": 2}}]}}"#,
            r#"{"add": {"airframes": [{"name": "A", "base_mass_g": 1, "rotor_count": 4,
                "rotor_pull_gf": 1, "frame_size_mm": 1, "size_class": "jumbo"}]}}"#,
        ] {
            assert!(CatalogDelta::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rebuild_plus_from_parts_restores_digest_identical_catalogs() {
        let store = CatalogStore::new(Catalog::paper());
        store
            .apply(&CatalogDelta::new().retire_compute(names::UPBOARD))
            .unwrap();
        let snap = store
            .apply(&CatalogDelta::new().patch_throughput(
                names::TX2,
                names::DRONET,
                Hertz::new(400.0),
            ))
            .unwrap();
        let source = snap.catalog();
        let rebuild = CatalogDelta::rebuild(source);
        // The rebuild delta survives its own wire form.
        let rebuild = CatalogDelta::from_json(&rebuild.to_json().unwrap()).unwrap();
        let mut restored = Catalog::new();
        rebuild.apply_to(&mut restored).unwrap();
        let matrix = source.matrix();
        let cells: Vec<(String, String, Hertz)> = matrix
            .iter()
            .map(|(p, a, f)| (p.to_owned(), a.to_owned(), f))
            .collect();
        *restored.matrix_mut() = crate::ThroughputMatrix::from_parts(
            matrix.platform_order(),
            matrix.algorithm_order(),
            &cells,
        )
        .unwrap();
        restored.validate().unwrap();
        assert_eq!(catalog_digest(&restored), snap.digest());
        // Retired parts really came back as tombstones.
        let id = restored.compute_id(names::UPBOARD).unwrap();
        assert!(!restored.compute_is_active(id));
    }

    struct RecordingSink {
        seen: Mutex<Vec<(u64, u64, usize)>>,
        fail: std::sync::atomic::AtomicBool,
    }

    impl EpochSink for RecordingSink {
        fn publish(
            &self,
            delta: &CatalogDelta,
            snapshot: &EpochSnapshot,
        ) -> Result<(), ComponentError> {
            if self.fail.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(ComponentError::InvalidField {
                    field: "sink",
                    reason: "injected failure".into(),
                });
            }
            self.seen.lock().unwrap().push((
                snapshot.epoch().get(),
                snapshot.digest(),
                delta.op_count(),
            ));
            Ok(())
        }
    }

    #[test]
    fn epoch_sink_sees_ordered_publications_and_can_veto() {
        let store = CatalogStore::new(Catalog::paper());
        let sink = Arc::new(RecordingSink {
            seen: Mutex::new(Vec::new()),
            fail: std::sync::atomic::AtomicBool::new(false),
        });
        store
            .set_sink(Arc::clone(&sink) as Arc<dyn EpochSink>)
            .unwrap();
        // Second sink is rejected.
        assert!(store
            .set_sink(Arc::clone(&sink) as Arc<dyn EpochSink>)
            .is_err());
        store.apply(&CatalogDelta::new()).unwrap();
        let second = store
            .apply(&CatalogDelta::new().retire_compute(names::NCS))
            .unwrap();
        {
            let seen = sink.seen.lock().unwrap();
            assert_eq!(seen.len(), 2);
            assert_eq!(seen[0].0, 1);
            assert_eq!(seen[1], (2, second.digest(), 1));
        }
        // A failing sink vetoes publication (write-ahead ordering).
        sink.fail.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(store.apply(&CatalogDelta::new()).is_err());
        assert_eq!(store.current_epoch().get(), 2);
        assert_eq!(sink.seen.lock().unwrap().len(), 2);
        sink.fail.store(false, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(store.apply(&CatalogDelta::new()).unwrap().epoch().get(), 3);
        // A failing delta never reaches the sink.
        assert!(store
            .apply(&CatalogDelta::new().retire_airframe("Ingenuity"))
            .is_err());
        assert_eq!(sink.seen.lock().unwrap().len(), 3);
    }

    #[test]
    fn resumed_store_resolves_only_from_its_base_epoch() {
        let source = CatalogStore::new(Catalog::paper());
        source
            .apply(&CatalogDelta::new().retire_compute(names::NCS))
            .unwrap();
        let snap = source.current();
        let resumed = CatalogStore::resume(snap.epoch(), Arc::clone(snap.catalog()));
        assert_eq!(resumed.base_epoch().get(), 1);
        assert_eq!(resumed.current_epoch().get(), 1);
        assert_eq!(resumed.current().digest(), snap.digest());
        // Pre-base epochs are unresolvable, not misresolved.
        assert!(resumed.at(CatalogEpoch::GENESIS).is_none());
        assert_eq!(
            resumed.at(CatalogEpoch::from_raw(1)).unwrap().digest(),
            snap.digest()
        );
        // Applying continues the numbering from the resumed base.
        let next = resumed.apply(&CatalogDelta::new()).unwrap();
        assert_eq!(next.epoch().get(), 2);
        assert_eq!(
            resumed.at(CatalogEpoch::from_raw(2)).unwrap().digest(),
            snap.digest()
        );
        assert_eq!(resumed.epoch_count(), 2);
        // Fresh stores still start at genesis with base 0.
        assert_eq!(source.base_epoch(), CatalogEpoch::GENESIS);
    }
}
