//! # `f1-store` — durable catalog persistence
//!
//! The in-memory [`CatalogStore`](f1_components::CatalogStore) publishes
//! immutable catalog epochs; this crate makes them survive the process.
//! Three on-disk artifacts live in one data directory:
//!
//! * **Epoch log** (`epochs.log`, [`log::EpochLog`]) — an append-only
//!   sequence of framed, checksummed [`CatalogDelta`] records, one per
//!   `apply`. Appends are a single `write` + `fsync`, so a crash leaves
//!   at most one torn record at the tail — replay stops at the last
//!   complete frame and recovery truncates the torn bytes. A failed
//!   append is cut back off and poisons the log until the directory is
//!   reopened.
//! * **Snapshots** (`snapshot-<epoch>.json`, [`snapshot`]) — periodic
//!   whole-catalog checkpoints in the [`CatalogDelta::to_json`] wire
//!   form plus the throughput matrix's intern orders, written
//!   atomically (tmp + fsync + rename). Cold start is
//!   O(snapshot + log tail) instead of O(all epochs).
//! * **Result spill** (`spill.log`, [`spill::SpillLog`]) — memoized
//!   `ResultSet::to_json` bodies keyed by `(plan key, epoch, digest)`,
//!   so a restarted server re-warms its cache without re-running
//!   physics and answers pre-crash plan keys byte-identically.
//!
//! Every replayed epoch is **digest-verified**: the recovery path
//! re-derives each [`EpochSnapshot`](f1_components::EpochSnapshot) and
//! hard-fails with [`StoreError::DigestMismatch`] if the recomputed
//! [`catalog_digest`](f1_components::catalog_digest) disagrees with the
//! digest recorded at write time — divergence is an error, never
//! silent. The same property powers **read replicas**
//! ([`log::TailReader`]): a second process tails the log, applies the
//! same deltas, and proves byte-identical state per epoch by digest
//! comparison.
//!
//! [`DurableStore::open`] ties it together: restore from the newest
//! snapshot, replay the log tail, attach the write-ahead
//! [`EpochSink`](f1_components::EpochSink) so every future `apply` is
//! persisted *before* it is published.
//!
//! [`CatalogDelta`]: f1_components::CatalogDelta
//! [`CatalogDelta::to_json`]: f1_components::CatalogDelta::to_json

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use f1_components::ComponentError;

pub mod durable;
pub mod frame;
pub mod log;
pub mod snapshot;
pub mod spill;

pub use durable::{DurableOptions, DurableStore, RecoveryReport};
pub use frame::FrameScan;
pub use log::{EpochLog, LogRecord, LogReplay, TailReader};
pub use snapshot::{latest_snapshot, read_snapshot, write_snapshot, SnapshotData};
pub use spill::{SpillLoad, SpillLog, SpillRecord};

/// Everything that can go wrong between the catalog and the disk.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// An OS-level I/O failure.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A complete-but-invalid record: bad framing, checksum mismatch,
    /// malformed payload. Distinct from a *truncated tail*, which is the
    /// expected signature of a crash mid-append and is tolerated.
    Corrupt {
        /// The file holding the bad record.
        path: PathBuf,
        /// Byte offset of the record's frame header.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// A replayed epoch's recomputed catalog digest disagrees with the
    /// digest recorded at write time — the recovered state is **not**
    /// the state that was persisted. Hard failure by design.
    DigestMismatch {
        /// The epoch that diverged.
        epoch: u64,
        /// Digest recorded in the log/snapshot.
        recorded: u64,
        /// Digest recomputed from the replayed catalog.
        computed: u64,
    },
    /// The log skips an epoch: records must be contiguous.
    EpochGap {
        /// The epoch replay expected next.
        expected: u64,
        /// The epoch the record actually carries.
        found: u64,
    },
    /// A delta failed to parse or apply during replay.
    Component(ComponentError),
    /// A required artifact is absent.
    Missing {
        /// Where it was looked for.
        path: PathBuf,
        /// What was expected there.
        what: &'static str,
    },
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "I/O error on {}: {source}", path.display()),
            Self::Corrupt {
                path,
                offset,
                reason,
            } => write!(
                f,
                "corrupt record in {} at byte {offset}: {reason}",
                path.display()
            ),
            Self::DigestMismatch {
                epoch,
                recorded,
                computed,
            } => write!(
                f,
                "digest mismatch at epoch {epoch}: recorded {recorded}, recomputed {computed}"
            ),
            Self::EpochGap { expected, found } => {
                write!(f, "epoch log gap: expected epoch {expected}, found {found}")
            }
            Self::Component(e) => write!(f, "delta replay failed: {e}"),
            Self::Missing { path, what } => {
                write!(f, "missing {what} at {}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Component(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ComponentError> for StoreError {
    fn from(e: ComponentError) -> Self {
        Self::Component(e)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static NEXT: AtomicU32 = AtomicU32::new(0);

    /// A fresh, empty scratch directory unique to this test.
    pub fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "f1-store-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }
}
