//! The append-only epoch log.
//!
//! One [`LogRecord`] is written per [`CatalogStore::apply`]
//! (see [`durable::DurableStore`](crate::durable::DurableStore)): the
//! delta's canonical JSON, the epoch it produced, and the digest of the
//! resulting catalog. Records are framed and checksummed
//! ([`crate::frame`]) and appended with a single `write` + `fsync`, so
//! a crash tears at most the final record — which replay tolerates and
//! recovery truncates.
//!
//! A read replica uses [`TailReader`] to follow the same file: each
//! `poll` returns the complete records appended since the last one,
//! leaving any in-flight partial frame for the next poll.
//!
//! [`CatalogStore::apply`]: f1_components::CatalogStore::apply

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use f1_components::json;

use crate::{frame, StoreError};

/// Format tag of epoch-log record payloads.
pub const DELTA_FORMAT: &str = "f1.store.delta.v1";

/// One persisted epoch publication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The epoch this delta produced.
    pub epoch: u64,
    /// [`catalog_digest`](f1_components::catalog_digest) of the catalog
    /// *after* applying the delta — the replay verification target.
    pub digest: u64,
    /// The delta's operation count (observability only).
    pub ops: u64,
    /// The delta in its canonical
    /// [`CatalogDelta::to_json`](f1_components::CatalogDelta::to_json)
    /// form.
    pub delta_json: String,
}

impl LogRecord {
    /// Serializes the record as its single-line JSON payload. Digests
    /// are written as strings — u64 does not survive an f64 number.
    #[must_use]
    pub fn to_payload(&self) -> String {
        format!(
            "{{\"format\": {}, \"epoch\": {}, \"digest\": {}, \"ops\": {}, \"delta\": {}}}",
            json::quote(DELTA_FORMAT),
            self.epoch,
            json::quote(&self.digest.to_string()),
            self.ops,
            json::quote(&self.delta_json),
        )
    }

    /// Parses a record payload; `path`/`offset` label errors.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for schema or type violations.
    pub fn from_payload(payload: &str, path: &Path, offset: u64) -> Result<Self, StoreError> {
        let corrupt = |reason: String| StoreError::Corrupt {
            path: path.to_path_buf(),
            offset,
            reason,
        };
        let value = json::parse(payload).map_err(&corrupt)?;
        let obj = value.as_object().map_err(&corrupt)?;
        let format = str_field(obj, "format").map_err(&corrupt)?;
        if format != DELTA_FORMAT {
            return Err(corrupt(format!("unexpected record format {format:?}")));
        }
        Ok(Self {
            epoch: u64_field(obj, "epoch").map_err(&corrupt)?,
            digest: digest_field(obj, "digest").map_err(&corrupt)?,
            ops: u64_field(obj, "ops").map_err(&corrupt)?,
            delta_json: str_field(obj, "delta").map_err(&corrupt)?,
        })
    }
}

pub(crate) fn str_field(obj: &[(String, json::Value)], name: &str) -> Result<String, String> {
    obj.iter()
        .find(|(k, _)| k == name)
        .ok_or_else(|| format!("missing field {name:?}"))?
        .1
        .as_str()
        .map_err(|e| format!("field {name:?}: {e}"))
}

pub(crate) fn u64_field(obj: &[(String, json::Value)], name: &str) -> Result<u64, String> {
    let raw = obj
        .iter()
        .find(|(k, _)| k == name)
        .ok_or_else(|| format!("missing field {name:?}"))?
        .1
        .as_number()
        .map_err(|e| format!("field {name:?}: {e}"))?;
    // Exactness matters: epochs and counters are written as integers
    // and must come back as the same integer.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let value = raw as u64;
    #[allow(clippy::cast_precision_loss)]
    if raw.fract() != 0.0 || raw < 0.0 || (value as f64 - raw).abs() > 0.0 {
        return Err(format!("field {name:?} is not an exact u64: {raw}"));
    }
    Ok(value)
}

pub(crate) fn digest_field(obj: &[(String, json::Value)], name: &str) -> Result<u64, String> {
    let text = str_field(obj, name)?;
    text.parse::<u64>()
        .map_err(|_| format!("field {name:?} is not a u64 digest: {text:?}"))
}

/// The decoded contents of an epoch log.
#[derive(Debug)]
pub struct LogReplay {
    /// Every complete record, in append order.
    pub records: Vec<LogRecord>,
    /// Byte length of the clean prefix (see [`frame::FrameScan`]).
    pub clean_len: u64,
    /// Whether a torn tail was dropped.
    pub truncated: bool,
}

/// The append half of the epoch log: one framed, checksummed,
/// fsynced record per publication.
///
/// The log **fails closed**: an append whose write or sync fails is
/// cut back off the file and poisons the log, so every later append
/// returns [`StoreError::Io`] until the data directory is reopened
/// (and recovery re-derives the state from what is on disk). Retrying
/// after a failed `fsync` is unsafe — the kernel may already have
/// dropped the dirty pages — and appending past a failed record would
/// write a second record with the same epoch number.
#[derive(Debug)]
pub struct EpochLog {
    path: PathBuf,
    /// `None` once an append has failed.
    file: Mutex<Option<File>>,
}

impl EpochLog {
    /// Opens (creating if absent) the log for appending.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be opened.
    pub fn open_append(path: &Path) -> Result<Self, StoreError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|source| StoreError::Io {
                path: path.to_path_buf(),
                source,
            })?;
        Ok(Self {
            path: path.to_path_buf(),
            file: Mutex::new(Some(file)),
        })
    }

    /// Appends one record: a single `write` of the whole frame followed
    /// by `fsync` — when this returns, the record is durable, and a
    /// crash mid-call tears at most this one frame.
    ///
    /// On failure the file is truncated back to its length before the
    /// call (best effort) and the log is poisoned.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write or sync failure, and on every call
    /// after one that failed.
    pub fn append(&self, record: &LogRecord) -> Result<(), StoreError> {
        let bytes = frame::encode(&record.to_payload());
        let io = |source: std::io::Error| StoreError::Io {
            path: self.path.clone(),
            source,
        };
        let mut state = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let file = state.as_mut().ok_or_else(|| {
            io(std::io::Error::other(
                "epoch log poisoned by an earlier failed append; reopen the data directory",
            ))
        })?;
        let written = append_or_roll_back(file, &bytes);
        if written.is_err() {
            *state = None;
        }
        written.map_err(io)
    }

    /// The log file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Writes and syncs `bytes` at the end of `file`; on failure, truncates
/// the file back to its length before the call. This cuts the failed
/// record off so replay never sees an epoch the store vetoed. Should
/// the truncation fail as well, the record stays and recovery replays
/// it, but the caller's poisoning keeps a second record with the same
/// epoch from following it.
fn append_or_roll_back(file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
    let start = file.metadata()?.len();
    let written = file.write_all(bytes).and_then(|()| file.sync_data());
    if written.is_err() && file.set_len(start).is_ok() {
        let _ = file.sync_data();
    }
    written
}

/// Decodes the whole log. A missing file is an empty log (nothing was
/// ever persisted), a torn tail is reported but tolerated.
///
/// # Errors
///
/// [`StoreError::Io`] on read failure, [`StoreError::Corrupt`] for any
/// complete-but-invalid record, or one whose epoch does not exceed the
/// previous record's.
pub fn replay(path: &Path) -> Result<LogReplay, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(source) => {
            return Err(StoreError::Io {
                path: path.to_path_buf(),
                source,
            })
        }
    };
    let scan = frame::decode_all(&bytes, path)?;
    Ok(LogReplay {
        records: decode_records(&scan.payloads, path, 0, &mut None)?,
        clean_len: scan.clean_len,
        truncated: scan.truncated,
    })
}

/// Parses a scan's payloads into records. `base` turns the scan's
/// offsets into file offsets; `last` is the epoch of the record before
/// the first payload, and comes back as the epoch of the last one.
///
/// Epochs must strictly rise from record to record: a repeated or
/// falling epoch is [`StoreError::Corrupt`], because replaying it would
/// publish one of two different deltas under the same epoch number.
fn decode_records(
    payloads: &[(u64, String)],
    path: &Path,
    base: u64,
    last: &mut Option<u64>,
) -> Result<Vec<LogRecord>, StoreError> {
    let mut records = Vec::with_capacity(payloads.len());
    for (offset, payload) in payloads {
        let offset = base + offset;
        let record = LogRecord::from_payload(payload, path, offset)?;
        if let Some(previous) = *last {
            if record.epoch <= previous {
                return Err(StoreError::Corrupt {
                    path: path.to_path_buf(),
                    offset,
                    reason: format!(
                        "record epoch {} does not follow epoch {previous}",
                        record.epoch
                    ),
                });
            }
        }
        *last = Some(record.epoch);
        records.push(record);
    }
    Ok(records)
}

/// An incremental log follower: remembers its byte offset and returns
/// the complete records appended since the previous poll. This is the
/// read-replica primitive — the replica process polls the primary's log
/// file and applies each record to its own store.
#[derive(Debug)]
pub struct TailReader {
    path: PathBuf,
    offset: u64,
    /// Epoch of the last record returned, which the next must exceed.
    last_epoch: Option<u64>,
}

impl TailReader {
    /// Starts a follower at `offset` (pass the recovery scan's
    /// `clean_len` to follow from "now", or 0 to re-read everything).
    /// `after` is the epoch already applied up to `offset`, which the
    /// first polled record must exceed (`None` when starting at 0).
    #[must_use]
    pub fn new(path: &Path, offset: u64, after: Option<u64>) -> Self {
        Self {
            path: path.to_path_buf(),
            offset,
            last_epoch: after,
        }
    }

    /// The current byte offset (start of the next unread frame).
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads every complete record appended since the last poll. An
    /// incomplete frame at the tail (an append in flight, or a torn
    /// crash tail) is left for a later poll; a missing file yields no
    /// records.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failure, [`StoreError::Corrupt`] for
    /// a complete-but-invalid record or a non-rising epoch (offsets
    /// reported are absolute).
    pub fn poll(&mut self) -> Result<Vec<LogRecord>, StoreError> {
        let io = |source: std::io::Error| StoreError::Io {
            path: self.path.clone(),
            source,
        };
        let mut file = match File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(source) => return Err(io(source)),
        };
        file.seek(SeekFrom::Start(self.offset)).map_err(io)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io)?;
        let base = self.offset;
        let rebase = |e: StoreError| match e {
            StoreError::Corrupt {
                path,
                offset,
                reason,
            } => StoreError::Corrupt {
                path,
                offset: offset + base,
                reason,
            },
            other => other,
        };
        let scan = frame::decode_all(&bytes, &self.path).map_err(rebase)?;
        let mut last_epoch = self.last_epoch;
        let records = decode_records(&scan.payloads, &self.path, base, &mut last_epoch)?;
        self.offset = base + scan.clean_len;
        self.last_epoch = last_epoch;
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch;

    fn record(epoch: u64) -> LogRecord {
        LogRecord {
            epoch,
            digest: 0xdead_beef_0000_0000 + epoch,
            ops: epoch * 2,
            delta_json: format!("{{\"throughput\": [{{\"hz\": {epoch}}}]}}"),
        }
    }

    #[test]
    fn payload_round_trips_exactly() {
        let rec = LogRecord {
            epoch: 7,
            digest: u64::MAX, // deliberately above f64's exact-integer range
            ops: 3,
            delta_json: "{\"add\": {\"sensors\": [{\"name\": \"A \\\"B\\\"\"}]}}".to_owned(),
        };
        let payload = rec.to_payload();
        let back = LogRecord::from_payload(&payload, Path::new("t"), 0).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn append_replay_and_tail_follow() {
        let dir = scratch("log");
        let path = dir.join("epochs.log");
        let log = EpochLog::open_append(&path).unwrap();
        log.append(&record(1)).unwrap();
        log.append(&record(2)).unwrap();

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records, vec![record(1), record(2)]);
        assert!(!replayed.truncated);

        // A tail reader starting at the clean end sees only new appends.
        let mut tail = TailReader::new(&path, replayed.clean_len, Some(2));
        assert!(tail.poll().unwrap().is_empty());
        log.append(&record(3)).unwrap();
        log.append(&record(4)).unwrap();
        assert_eq!(tail.poll().unwrap(), vec![record(3), record(4)]);
        assert!(tail.poll().unwrap().is_empty());

        // Reopening the log keeps appending after existing records.
        drop(log);
        let log = EpochLog::open_append(&path).unwrap();
        log.append(&record(5)).unwrap();
        assert_eq!(tail.poll().unwrap(), vec![record(5)]);
        assert_eq!(replay(&path).unwrap().records.len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_reader_leaves_partial_frames_for_the_next_poll() {
        let dir = scratch("tail-partial");
        let path = dir.join("epochs.log");
        let log = EpochLog::open_append(&path).unwrap();
        log.append(&record(1)).unwrap();
        let full = frame::encode(&record(2).to_payload());
        // Write only half of the second frame, as an in-flight append
        // would leave it.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&full[..full.len() / 2]).unwrap();
        }
        let mut tail = TailReader::new(&path, 0, None);
        assert_eq!(tail.poll().unwrap(), vec![record(1)]);
        let stalled = tail.offset();
        assert!(tail.poll().unwrap().is_empty());
        assert_eq!(tail.offset(), stalled);
        // The append completes; the next poll picks up the whole record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&full[full.len() / 2..]).unwrap();
        }
        assert_eq!(tail.poll().unwrap(), vec![record(2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_rising_epochs_are_corruption_for_replay_and_tail() {
        let dir = scratch("log-epochs");
        let path = dir.join("epochs.log");
        let log = EpochLog::open_append(&path).unwrap();
        log.append(&record(1)).unwrap();
        let mut tail = TailReader::new(&path, 0, None);
        assert_eq!(tail.poll().unwrap(), vec![record(1)]);
        let second = std::fs::metadata(&path).unwrap().len();
        // A second record claiming epoch 1 again, as an append after a
        // failed one would have written it.
        log.append(&record(1)).unwrap();
        for err in [replay(&path).unwrap_err(), tail.poll().unwrap_err()] {
            match err {
                StoreError::Corrupt { offset, reason, .. } => {
                    assert_eq!(offset, second);
                    assert!(reason.contains("epoch 1"), "{reason}");
                }
                other => panic!("unexpected error {other}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn failed_append_poisons_the_log() {
        // `/dev/full` fails every write with ENOSPC and every truncation
        // with EINVAL.
        let log = EpochLog::open_append(Path::new("/dev/full")).unwrap();
        match log.append(&record(1)).unwrap_err() {
            StoreError::Io { source, .. } => assert_eq!(source.raw_os_error(), Some(28)),
            other => panic!("unexpected error {other}"),
        }
        match log.append(&record(1)).unwrap_err() {
            StoreError::Io { source, .. } => {
                assert!(source.to_string().contains("poisoned"), "{source}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn missing_log_is_empty_not_an_error() {
        let dir = scratch("log-missing");
        let path = dir.join("nope.log");
        assert!(replay(&path).unwrap().records.is_empty());
        assert!(TailReader::new(&path, 0, None).poll().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_payload_schemas_are_corruption() {
        for bad in [
            "not json",
            "{}",
            "{\"format\": \"wrong.v9\", \"epoch\": 1, \"digest\": \"2\", \"ops\": 0, \"delta\": \"{}\"}",
            "{\"format\": \"f1.store.delta.v1\", \"epoch\": 1.5, \"digest\": \"2\", \"ops\": 0, \"delta\": \"{}\"}",
            "{\"format\": \"f1.store.delta.v1\", \"epoch\": -1, \"digest\": \"2\", \"ops\": 0, \"delta\": \"{}\"}",
            "{\"format\": \"f1.store.delta.v1\", \"epoch\": 1, \"digest\": 2, \"ops\": 0, \"delta\": \"{}\"}",
            "{\"format\": \"f1.store.delta.v1\", \"epoch\": 1, \"digest\": \"x\", \"ops\": 0, \"delta\": \"{}\"}",
            "{\"format\": \"f1.store.delta.v1\", \"epoch\": 1, \"digest\": \"2\", \"ops\": 0, \"delta\": 3}",
        ] {
            let err = LogRecord::from_payload(bad, Path::new("t"), 9).unwrap_err();
            match err {
                StoreError::Corrupt { offset, .. } => assert_eq!(offset, 9, "{bad:?}"),
                other => panic!("{bad:?}: unexpected error {other}"),
            }
        }
    }
}
