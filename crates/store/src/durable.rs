//! Recovery and the write-ahead epoch sink: [`DurableStore::open`].
//!
//! Opening a data directory performs the whole cold-start sequence:
//!
//! 1. **Restore** the newest snapshot (digest-verified) and seed a
//!    [`CatalogStore`] resumed at its epoch — or start from the caller's
//!    genesis catalog when no snapshot exists.
//! 2. **Replay** the epoch log tail past the snapshot. Every record is
//!    re-applied through the ordinary [`CatalogStore::apply`] path and
//!    the recomputed digest must equal the recorded one
//!    ([`StoreError::DigestMismatch`] otherwise); epochs must strictly
//!    rise from record to record ([`StoreError::Corrupt`]) and be
//!    contiguous ([`StoreError::EpochGap`]).
//! 3. **Truncate** a torn tail (primary only) — the expected signature
//!    of a crash mid-append — then attach the write-ahead
//!    [`EpochSink`]: from here on, every `apply` appends its record
//!    (write + fsync) *before* the epoch is published, and writes a
//!    fresh snapshot every [`DurableOptions::snapshot_every`] epochs.
//!
//! A **replica** ([`DurableOptions::replica`]) runs steps 1–2 against a
//! primary's directory but never writes: no truncation, no sink, no
//! spill. It then follows live appends with [`DurableStore::tail_reader`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use f1_components::{
    Catalog, CatalogDelta, CatalogEpoch, CatalogStore, ComponentError, EpochSink, EpochSnapshot,
};

use crate::log::{self, EpochLog, LogRecord, TailReader};
use crate::snapshot::{latest_snapshot, read_snapshot, write_snapshot};
use crate::spill::{self, SpillLoad, SpillLog};
use crate::StoreError;

/// File name of the epoch log inside a data directory.
pub const EPOCH_LOG_FILE: &str = "epochs.log";
/// File name of the result spill inside a data directory.
pub const SPILL_FILE: &str = "spill.log";

/// Tuning knobs for [`DurableStore::open`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Write a snapshot every N published epochs (0 disables periodic
    /// snapshots; the genesis snapshot is always written).
    pub snapshot_every: u64,
    /// Open read-only as a log-following replica: restore + replay but
    /// never create, truncate, append, or snapshot.
    pub replica: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            snapshot_every: 8,
            replica: false,
        }
    }
}

/// What recovery found and did, for operators and `stats` output.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Epoch of the snapshot restored from, if any.
    pub snapshot_epoch: Option<u64>,
    /// Log records replayed past the snapshot.
    pub replayed_deltas: u64,
    /// The epoch the store recovered to.
    pub epoch: u64,
    /// The (verified) catalog digest at that epoch.
    pub digest: u64,
    /// Whether a torn tail was found (and, on a primary, truncated).
    pub truncated_tail: bool,
}

/// A [`CatalogStore`] bound to a data directory: recovered on open,
/// write-ahead persisted afterwards.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    store: Arc<CatalogStore>,
    report: RecoveryReport,
    spill: Option<SpillLog>,
    log_clean_len: u64,
}

impl DurableStore {
    /// Opens `dir`, recovering state and (for a primary) attaching the
    /// write-ahead sink. `genesis` supplies the initial catalog only
    /// when the directory holds no snapshot — a recovered boot never
    /// calls it.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]: I/O failures, corruption, digest mismatches,
    /// epoch gaps, or (replica only) [`StoreError::Missing`] when the
    /// directory does not exist yet.
    pub fn open(
        dir: &Path,
        genesis: impl FnOnce() -> Catalog,
        options: DurableOptions,
    ) -> Result<Self, StoreError> {
        let io = |path: &Path, source: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            source,
        };
        if options.replica {
            if !dir.is_dir() {
                return Err(StoreError::Missing {
                    path: dir.to_path_buf(),
                    what: "primary data directory",
                });
            }
        } else {
            std::fs::create_dir_all(dir).map_err(|e| io(dir, e))?;
        }
        let log_path = dir.join(EPOCH_LOG_FILE);

        // 1. Restore the newest snapshot, or seed from genesis.
        let restored = latest_snapshot(dir)?;
        let (store, snapshot_epoch) = match &restored {
            Some((_, path)) => {
                let snap = read_snapshot(path)?;
                (
                    CatalogStore::resume(
                        CatalogEpoch::from_raw(snap.epoch),
                        Arc::new(snap.catalog),
                    ),
                    Some(snap.epoch),
                )
            }
            None => (CatalogStore::new(genesis()), None),
        };

        // 2. Replay the log tail past the snapshot, digest-verifying
        // every epoch as it is re-derived.
        let replay = log::replay(&log_path)?;
        let mut replayed = 0u64;
        for record in &replay.records {
            let current = store.current().epoch().get();
            if record.epoch <= current {
                continue; // Already inside the snapshot.
            }
            if record.epoch != current + 1 {
                return Err(StoreError::EpochGap {
                    expected: current + 1,
                    found: record.epoch,
                });
            }
            let delta = CatalogDelta::from_json(&record.delta_json)?;
            let snap = store.apply(&delta)?;
            if snap.digest() != record.digest {
                return Err(StoreError::DigestMismatch {
                    epoch: record.epoch,
                    recorded: record.digest,
                    computed: snap.digest(),
                });
            }
            replayed += 1;
        }

        let current = store.current();
        let report = RecoveryReport {
            snapshot_epoch,
            replayed_deltas: replayed,
            epoch: current.epoch().get(),
            digest: current.digest(),
            truncated_tail: replay.truncated,
        };

        let mut spill = None;
        if !options.replica {
            // 3a. Truncate the torn tail so the append stream resumes at
            // a clean frame boundary.
            if replay.truncated {
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&log_path)
                    .map_err(|e| io(&log_path, e))?;
                file.set_len(replay.clean_len)
                    .map_err(|e| io(&log_path, e))?;
                file.sync_data().map_err(|e| io(&log_path, e))?;
            }
            // 3b. A directory without any snapshot gets one now, so a
            // future cold start never depends on `genesis` again.
            if restored.is_none() {
                write_snapshot(dir, current.catalog(), report.epoch, report.digest)?;
            }
            // 3c. Attach the write-ahead sink: log first, publish second.
            let sink = LogSink {
                log: EpochLog::open_append(&log_path)?,
                dir: dir.to_path_buf(),
                every: options.snapshot_every,
                appended: AtomicU64::new(0),
            };
            store
                .set_sink(Arc::new(sink))
                .map_err(StoreError::Component)?;
            spill = Some(SpillLog::open_append(&dir.join(SPILL_FILE))?);
        }

        Ok(Self {
            dir: dir.to_path_buf(),
            store: Arc::new(store),
            report,
            spill,
            log_clean_len: replay.clean_len,
        })
    }

    /// The recovered store (sink already attached on a primary).
    #[must_use]
    pub fn store(&self) -> &Arc<CatalogStore> {
        &self.store
    }

    /// What recovery found.
    #[must_use]
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The data directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The spill writer — `None` on a replica.
    #[must_use]
    pub fn spill_log(&self) -> Option<&SpillLog> {
        self.spill.as_ref()
    }

    /// Loads the spilled result cache (deduplicated, latest wins).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]/[`StoreError::Corrupt`] from the spill file.
    pub fn load_spill(&self) -> Result<SpillLoad, StoreError> {
        spill::load(&self.dir.join(SPILL_FILE))
    }

    /// A follower positioned just past the records recovery replayed —
    /// the replica's live feed of subsequent primary appends. Its first
    /// record must exceed the recovered epoch.
    #[must_use]
    pub fn tail_reader(&self) -> TailReader {
        TailReader::new(
            &self.dir.join(EPOCH_LOG_FILE),
            self.log_clean_len,
            Some(self.report.epoch),
        )
    }
}

/// The write-ahead sink: invoked by [`CatalogStore::apply`] inside its
/// publication critical section, *before* the epoch becomes visible.
///
/// Lock order (per the [`EpochSink`] contract): `store.epochs` is held
/// for the whole call; this sink takes only its own log-file mutex and
/// never re-enters the store.
#[derive(Debug)]
struct LogSink {
    log: EpochLog,
    dir: PathBuf,
    every: u64,
    appended: AtomicU64,
}

impl EpochSink for LogSink {
    fn publish(
        &self,
        delta: &CatalogDelta,
        snapshot: &EpochSnapshot,
    ) -> Result<(), ComponentError> {
        let record = LogRecord {
            epoch: snapshot.epoch().get(),
            digest: snapshot.digest(),
            ops: snapshot_ops(delta),
            delta_json: delta.to_json()?,
        };
        // Log append failure vetoes publication — an epoch is only ever
        // visible after its record is durable.
        self.log
            .append(&record)
            .map_err(|e| ComponentError::InvalidField {
                field: "epoch sink",
                reason: e.to_string(),
            })?;
        // Periodic snapshots are an optimization (they shorten the next
        // replay), not a durability requirement: the record above is
        // already fsynced, so a failed snapshot must NOT veto the epoch
        // — vetoing here would fork memory away from the durable log.
        let appended = self.appended.fetch_add(1, Ordering::Relaxed) + 1;
        if self.every > 0 && appended % self.every == 0 {
            let _ = write_snapshot(
                &self.dir,
                snapshot.catalog(),
                snapshot.epoch().get(),
                snapshot.digest(),
            );
        }
        Ok(())
    }
}

fn snapshot_ops(delta: &CatalogDelta) -> u64 {
    u64::try_from(delta.op_count()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;
    use crate::spill::SpillRecord;
    use crate::testutil::scratch;

    fn throughput_delta(hz: f64) -> CatalogDelta {
        CatalogDelta::from_json(&format!(
            "{{\"throughput\": [{{\"compute\": \"Nvidia TX2\", \"algorithm\": \"DroNet\", \"hz\": {hz}}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn fresh_open_recover_and_reopen_match_digest_exactly() {
        let dir = scratch("durable");
        let (epoch, digest);
        {
            let durable =
                DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
            assert_eq!(durable.report().epoch, 0);
            assert!(durable.report().snapshot_epoch.is_none());
            for hz in [10.0, 20.0, 30.0] {
                durable.store().apply(&throughput_delta(hz)).unwrap();
            }
            let current = durable.store().current();
            epoch = current.epoch().get();
            digest = current.digest();
            // No clean shutdown: the durable artifacts alone must carry
            // the state.
        }
        let reopened = DurableStore::open(
            &dir,
            || panic!("recovered boot must not consult genesis"),
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(reopened.report().epoch, epoch);
        assert_eq!(reopened.report().digest, digest);
        assert_eq!(reopened.report().snapshot_epoch, Some(0));
        assert_eq!(reopened.report().replayed_deltas, 3);
        assert_eq!(reopened.store().current().digest(), digest);
        // Epoch history is resolvable back to the snapshot base.
        assert!(reopened
            .store()
            .at(CatalogEpoch::from_raw(epoch - 1))
            .is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_snapshots_shorten_replay() {
        let dir = scratch("durable-snap");
        {
            let durable = DurableStore::open(
                &dir,
                Catalog::paper,
                DurableOptions {
                    snapshot_every: 2,
                    replica: false,
                },
            )
            .unwrap();
            for hz in [10.0, 20.0, 30.0, 40.0, 50.0] {
                durable.store().apply(&throughput_delta(hz)).unwrap();
            }
        }
        let reopened = DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
        assert_eq!(reopened.report().snapshot_epoch, Some(4));
        assert_eq!(reopened.report().replayed_deltas, 1);
        assert_eq!(reopened.report().epoch, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = scratch("durable-torn");
        {
            let durable =
                DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
            durable.store().apply(&throughput_delta(10.0)).unwrap();
        }
        let log_path = dir.join(EPOCH_LOG_FILE);
        let clean = std::fs::metadata(&log_path).unwrap().len();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&log_path)
                .unwrap();
            f.write_all(&frame::encode("torn")[..7]).unwrap();
        }
        let durable = DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
        assert!(durable.report().truncated_tail);
        assert_eq!(durable.report().epoch, 1);
        assert_eq!(std::fs::metadata(&log_path).unwrap().len(), clean);
        // The log is healthy again: apply appends and a third boot
        // replays everything.
        durable.store().apply(&throughput_delta(20.0)).unwrap();
        drop(durable);
        let reopened = DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
        assert!(!reopened.report().truncated_tail);
        assert_eq!(reopened.report().epoch, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_the_log_is_a_named_corruption_error() {
        let dir = scratch("durable-flip");
        {
            let durable =
                DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
            durable.store().apply(&throughput_delta(10.0)).unwrap();
        }
        let log_path = dir.join(EPOCH_LOG_FILE);
        let mut bytes = std::fs::read(&log_path).unwrap();
        let mid = bytes.len() - 20;
        bytes[mid] ^= 0x04;
        std::fs::write(&log_path, &bytes).unwrap();
        let err = DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_record_digest_fails_replay_hard() {
        let dir = scratch("durable-digest");
        {
            let durable =
                DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
            durable.store().apply(&throughput_delta(10.0)).unwrap();
        }
        // Rewrite the log with a wrong digest in an otherwise valid,
        // correctly-checksummed record.
        let log_path = dir.join(EPOCH_LOG_FILE);
        let replayed = log::replay(&log_path).unwrap();
        let mut record = replayed.records[0].clone();
        record.digest ^= 1;
        std::fs::write(&log_path, frame::encode(&record.to_payload())).unwrap();
        let err = DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap_err();
        assert!(
            matches!(err, StoreError::DigestMismatch { epoch: 1, .. }),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_gap_fails_replay_hard() {
        let dir = scratch("durable-gap");
        {
            let durable =
                DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
            durable.store().apply(&throughput_delta(10.0)).unwrap();
            durable.store().apply(&throughput_delta(20.0)).unwrap();
        }
        let log_path = dir.join(EPOCH_LOG_FILE);
        let replayed = log::replay(&log_path).unwrap();
        // Drop the first record: replay sees epoch 2 where 1 is expected.
        std::fs::write(&log_path, frame::encode(&replayed.records[1].to_payload())).unwrap();
        let err = DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::EpochGap {
                    expected: 1,
                    found: 2
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicated_epoch_fails_recovery() {
        let dir = scratch("durable-dup-epoch");
        {
            let durable =
                DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
            durable.store().apply(&throughput_delta(10.0)).unwrap();
            durable.store().apply(&throughput_delta(20.0)).unwrap();
        }
        // A vetoed epoch-1 record followed by the acknowledged one with
        // the same epoch number: replay must not pick either silently.
        let log_path = dir.join(EPOCH_LOG_FILE);
        let replayed = log::replay(&log_path).unwrap();
        let mut acknowledged = replayed.records[1].clone();
        acknowledged.epoch = 1;
        let vetoed = frame::encode(&replayed.records[0].to_payload());
        let mut bytes = vetoed.clone();
        bytes.extend(frame::encode(&acknowledged.to_payload()));
        std::fs::write(&log_path, bytes).unwrap();
        let err = DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap_err();
        match err {
            StoreError::Corrupt { offset, .. } => assert_eq!(offset, vetoed.len() as u64),
            other => panic!("unexpected error {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replica_tail_rejects_a_record_not_above_the_recovered_epoch() {
        let dir = scratch("durable-tail-epoch");
        {
            let durable =
                DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
            durable.store().apply(&throughput_delta(10.0)).unwrap();
        }
        let replica_options = DurableOptions {
            replica: true,
            ..DurableOptions::default()
        };
        let replica = DurableStore::open(&dir, Catalog::paper, replica_options).unwrap();
        assert_eq!(replica.report().epoch, 1);
        let log_path = dir.join(EPOCH_LOG_FILE);
        let clean_len = std::fs::metadata(&log_path).unwrap().len();
        // The first record past the recovery point repeats epoch 1.
        let repeated = log::replay(&log_path).unwrap().records[0].clone();
        EpochLog::open_append(&log_path)
            .unwrap()
            .append(&repeated)
            .unwrap();
        match replica.tail_reader().poll().unwrap_err() {
            StoreError::Corrupt { offset, .. } => assert_eq!(offset, clean_len),
            other => panic!("unexpected error {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_only_directory_boots_without_a_log() {
        let dir = scratch("durable-snaponly");
        {
            let durable =
                DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
            durable.store().apply(&throughput_delta(10.0)).unwrap();
        }
        // Keep only the snapshots; the epoch log vanishes.
        std::fs::remove_file(dir.join(EPOCH_LOG_FILE)).unwrap();
        let reopened = DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
        assert_eq!(reopened.report().snapshot_epoch, Some(0));
        assert_eq!(reopened.report().replayed_deltas, 0);
        assert_eq!(reopened.report().epoch, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn noop_delta_replay_keeps_the_digest_stable() {
        let dir = scratch("durable-noop");
        let digest0;
        {
            let durable =
                DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
            digest0 = durable.store().current().digest();
            // An empty delta advances the epoch but cannot change
            // content — the digest must survive persistence and replay
            // unchanged.
            let snap = durable
                .store()
                .apply(&CatalogDelta::from_json("{}").unwrap())
                .unwrap();
            assert_eq!(snap.digest(), digest0);
        }
        let reopened = DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
        assert_eq!(reopened.report().epoch, 1);
        assert_eq!(reopened.report().digest, digest0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replica_follows_the_primary_epoch_for_epoch() {
        let dir = scratch("durable-replica");
        let primary = DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
        primary.store().apply(&throughput_delta(10.0)).unwrap();

        let replica_opts = DurableOptions {
            replica: true,
            ..DurableOptions::default()
        };
        let replica = DurableStore::open(
            &dir,
            || panic!("replica must restore, never synthesize"),
            replica_opts,
        )
        .unwrap();
        assert!(replica.spill_log().is_none());
        assert_eq!(replica.report().epoch, 1);
        assert_eq!(
            replica.store().current().digest(),
            primary.store().current().digest()
        );

        // Live follow: each primary apply shows up in the next poll and
        // produces the same digest on the replica.
        let mut tail = replica.tail_reader();
        for hz in [20.0, 30.0, 40.0] {
            let primary_snap = primary.store().apply(&throughput_delta(hz)).unwrap();
            let records = tail.poll().unwrap();
            assert_eq!(records.len(), 1);
            let record = &records[0];
            let delta = CatalogDelta::from_json(&record.delta_json).unwrap();
            let replica_snap = replica.store().apply(&delta).unwrap();
            assert_eq!(replica_snap.epoch().get(), primary_snap.epoch().get());
            assert_eq!(replica_snap.digest(), primary_snap.digest());
            assert_eq!(record.digest, primary_snap.digest());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replica_of_a_missing_directory_is_a_named_error() {
        let dir = scratch("durable-replica-missing");
        let err = DurableStore::open(
            &dir.join("nope"),
            Catalog::paper,
            DurableOptions {
                replica: true,
                ..DurableOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::Missing { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_round_trips_through_the_durable_store() {
        let dir = scratch("durable-spill");
        let body;
        {
            let durable =
                DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
            let current = durable.store().current();
            body = format!("{{\"digest\": \"{}\"}}\n", current.digest());
            durable
                .spill_log()
                .unwrap()
                .append(&SpillRecord {
                    plan_key: "top=3".to_owned(),
                    epoch: current.epoch().get(),
                    digest: current.digest(),
                    result_json: body.clone(),
                })
                .unwrap();
        }
        let reopened = DurableStore::open(&dir, Catalog::paper, DurableOptions::default()).unwrap();
        let loaded = reopened.load_spill().unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].result_json, body);
        assert_eq!(loaded.records[0].digest, reopened.report().digest);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
