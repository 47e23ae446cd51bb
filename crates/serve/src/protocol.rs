//! The wire protocol: line-delimited requests, length-delimited JSON
//! responses.
//!
//! # Grammar
//!
//! Requests are single lines, UTF-8, newline-terminated:
//!
//! ```text
//! request   = verb [SP payload] LF
//! verb      = "query" | "top" | "delta" | "stats" | "ping" | "shutdown"
//! query     = "query" SP plan-key            ; canonical QueryPlan key
//! top       = "top" SP k SP plan-key         ; k in 1..=1024
//! delta     = "delta" SP delta-json          ; CatalogDelta::from_json doc (one line)
//! ```
//!
//! Every response is a header line followed by exactly `nbytes` of JSON
//! body (the body always ends in a newline, counted in `nbytes`):
//!
//! ```text
//! response  = status SP nbytes LF body
//! status    = "ok" | "err"
//! ```
//!
//! Error bodies are structured — `{"error": {"kind": ..., "message":
//! ...}}` — so a bad plan key, an out-of-catalog id or an overloaded
//! queue come back as parseable errors on a live connection, never as a
//! dropped socket.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use f1_components::json::{fmt_number, quote};
use f1_components::EpochSnapshot;
use f1_skyline::session::{CacheStats, ResultSet};
use f1_skyline::tier2::SimStats;
use f1_skyline::SkylineError;

use crate::scheduler::SchedulerStats;

/// Default cap on one request frame (the `delta` verb carries whole
/// catalog-delta documents; plan keys are far smaller).
pub const DEFAULT_MAX_FRAME: usize = 4 * 1024 * 1024;

/// Largest `k` the `top` verb accepts.
pub const MAX_TOP_K: usize = 1024;

/// One parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute (or cache-serve) a plan by canonical key; respond with
    /// the full [`ResultSet::to_json`] document.
    Query {
        /// The canonical plan key.
        key: String,
    },
    /// Execute (or cache-serve) a plan; respond with the top-`k` builds
    /// only — the compact serving shape.
    Top {
        /// How many ranked builds to return.
        k: usize,
        /// The canonical plan key.
        key: String,
    },
    /// Apply a catalog delta, publishing a new epoch.
    Delta {
        /// The delta JSON document.
        json: String,
    },
    /// Report scheduler + cache + epoch counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop accepting connections and shut the server down.
    Shutdown,
}

/// Structured error categories (the `"kind"` field of error bodies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed frame: unknown verb, bad argument shape, oversized or
    /// non-UTF-8 request.
    Protocol,
    /// The plan key failed to parse ([`SkylineError::PlanKey`]).
    PlanKey,
    /// The plan references ids outside this server's catalog
    /// ([`SkylineError::PlanCatalog`]).
    PlanCatalog,
    /// A pinned epoch was never published
    /// ([`SkylineError::UnknownEpoch`]).
    UnknownEpoch,
    /// The admission queue is full — retry later.
    Overloaded,
    /// The delta document failed to parse or apply.
    Delta,
    /// Any other engine error.
    Internal,
}

impl ErrorKind {
    /// The wire spelling of the kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Protocol => "protocol",
            Self::PlanKey => "plan_key",
            Self::PlanCatalog => "plan_catalog",
            Self::UnknownEpoch => "unknown_epoch",
            Self::Overloaded => "overloaded",
            Self::Delta => "delta",
            Self::Internal => "internal",
        }
    }
}

/// Maps an engine error onto its wire kind.
#[must_use]
pub fn error_kind_for(error: &SkylineError) -> ErrorKind {
    match error {
        SkylineError::PlanKey { .. } => ErrorKind::PlanKey,
        SkylineError::PlanCatalog { .. } => ErrorKind::PlanCatalog,
        SkylineError::UnknownEpoch { .. } => ErrorKind::UnknownEpoch,
        _ => ErrorKind::Internal,
    }
}

/// Parses one request line (without its trailing newline).
///
/// # Errors
///
/// A human-readable reason for a malformed frame (mapped to
/// [`ErrorKind::Protocol`] by the connection handler).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, Some(r)),
        None => (line, None),
    };
    let payload = |what: &str| {
        rest.map(str::trim)
            .filter(|r| !r.is_empty())
            .map(str::to_owned)
            .ok_or_else(|| format!("{verb} requires {what}"))
    };
    match verb {
        "query" => Ok(Request::Query {
            key: payload("a plan key")?,
        }),
        "top" => {
            let rest = payload("a count and a plan key")?;
            let (k, key) = rest
                .split_once(' ')
                .ok_or_else(|| "top requires a count and a plan key".to_owned())?;
            let k: usize = k
                .parse()
                .map_err(|_| format!("bad top count {k:?} (expected an integer)"))?;
            if !(1..=MAX_TOP_K).contains(&k) {
                return Err(format!("top count must be in 1..={MAX_TOP_K}, got {k}"));
            }
            Ok(Request::Top {
                k,
                key: key.trim().to_owned(),
            })
        }
        "delta" => Ok(Request::Delta {
            json: payload("a delta JSON document")?,
        }),
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "" => Err("empty request".to_owned()),
        other => Err(format!(
            "unknown verb {other:?} (expected query|top|delta|stats|ping|shutdown)"
        )),
    }
}

/// Builds a structured error body.
#[must_use]
pub fn error_body(kind: ErrorKind, message: &str) -> String {
    format!(
        "{{\"error\": {{\"kind\": {}, \"message\": {}}}}}\n",
        quote(kind.as_str()),
        quote(message)
    )
}

/// The common response prologue: which epoch answered, its catalog
/// digest, and whether the memo cache answered without a pass.
fn envelope_head(snapshot: &EpochSnapshot, cached: bool) -> String {
    format!(
        "{{\"epoch\": {}, \"digest\": {}, \"cached\": {},\n",
        snapshot.epoch().get(),
        snapshot.digest(),
        cached
    )
}

/// Builds the `query` response body: the envelope plus the full
/// [`ResultSet::to_json`] document. The snapshot must be the epoch the
/// plan executed at — names and digest are resolved against *that*
/// catalog, so an old-epoch answer stays bit-identical after later
/// deltas.
#[must_use]
pub fn query_body(result: &ResultSet, snapshot: &EpochSnapshot, cached: bool) -> String {
    let mut out = envelope_head(snapshot, cached);
    out.push_str("\"result\": ");
    out.push_str(result.to_json(snapshot.catalog()).trim_end());
    out.push_str("}\n");
    out
}

/// [`query_body`] for a result that exists only as its spilled JSON —
/// the **warm-cache restore** path: after a restart, a persisted
/// `ResultSet::to_json` body (already digest-validated against the
/// recovered epoch) is framed byte-identically to what [`query_body`]
/// would produce from the live result, without re-running any physics.
#[must_use]
pub fn warm_query_body(result_json: &str, snapshot: &EpochSnapshot, cached: bool) -> String {
    let mut out = envelope_head(snapshot, cached);
    out.push_str("\"result\": ");
    out.push_str(result_json.trim_end());
    out.push_str("}\n");
    out
}

/// Builds the `top` response body: the envelope plus the best `k`
/// ranked builds with their objective rows — the compact shape a
/// serving client polls at high rate. Point access goes through the
/// non-panicking [`ResultSet::try_point`]/[`ResultSet::try_row`], so a
/// streamed result with fewer stored rows than `k` degrades to what it
/// kept instead of killing the worker.
#[must_use]
pub fn top_body(k: usize, result: &ResultSet, snapshot: &EpochSnapshot, cached: bool) -> String {
    let catalog = snapshot.catalog();
    let mut out = envelope_head(snapshot, cached);
    out.push_str(&format!(
        "\"count\": {}, \"dropped\": {}, \"frontier_size\": {}, \"objectives\": [",
        result.len(),
        result.dropped(),
        result.frontier().len()
    ));
    for (i, o) in result.objectives().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&quote(o.label()));
    }
    out.push_str("], \"top\": [");
    let mut emitted = 0usize;
    for index in result.top_k(k) {
        // try_point/try_row: a streamed result only stores frontier ∪
        // top-k rows; anything it did not keep is skipped, not a panic.
        let (Some(point), Some(row)) = (result.try_point(index), result.try_row(index)) else {
            continue;
        };
        if emitted > 0 {
            out.push(',');
        }
        emitted += 1;
        out.push_str("\n  {\"index\": ");
        out.push_str(&index.to_string());
        out.push_str(", \"airframe\": ");
        out.push_str(&quote(catalog.airframe_by_id(point.airframe).name()));
        out.push_str(", \"sensor\": ");
        out.push_str(&quote(catalog.sensor_by_id(point.candidate.sensor).name()));
        out.push_str(", \"compute\": ");
        out.push_str(&quote(
            catalog.compute_by_id(point.candidate.compute).name(),
        ));
        out.push_str(", \"algorithm\": ");
        out.push_str(&quote(
            catalog.algorithm_by_id(point.candidate.algorithm).name(),
        ));
        out.push_str(&format!(", \"feasible\": {}", point.outcome.feasible));
        out.push_str(", \"values\": [");
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&fmt_number(*v).unwrap_or_else(|| "null".to_owned()));
        }
        out.push_str("]}");
    }
    out.push_str("\n]}\n");
    out
}

/// Builds the `delta` response body: the newly published epoch.
#[must_use]
pub fn delta_body(snapshot: &EpochSnapshot, ops: usize) -> String {
    format!(
        "{{\"epoch\": {}, \"digest\": {}, \"ops\": {ops}}}\n",
        snapshot.epoch().get(),
        snapshot.digest()
    )
}

/// Durability counters for the `stats` body — present only on servers
/// booted with a data directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Whether this server is a read-only log-following replica.
    pub replica: bool,
    /// Epoch of the snapshot recovery restored from (`null` on the
    /// wire for a genesis boot).
    pub snapshot_epoch: Option<u64>,
    /// Epoch-log records replayed past the snapshot at boot.
    pub replayed_deltas: u64,
    /// Spilled results re-warmed (digest-validated) at boot.
    pub warm_entries: u64,
    /// Queries answered from the warm spill since boot.
    pub spill_hits: u64,
}

/// Builds the `stats` response body: epoch identity, session cache
/// counters, tier-2 simulation counters, scheduler counters and — on a
/// durable server — recovery and spill counters.
#[must_use]
pub fn stats_body(
    snapshot: &EpochSnapshot,
    cache: &CacheStats,
    sim: &SimStats,
    sched: &SchedulerStats,
    queue_depth: usize,
    durability: Option<&DurabilityStats>,
) -> String {
    let durability = durability.map_or_else(String::new, |d| {
        format!(
            "\"durability\": {{\"replica\": {}, \"recovered_snapshot_epoch\": {}, \
             \"replayed_deltas\": {}, \"warm_entries\": {}, \"spill_hits\": {}}},\n",
            d.replica,
            d.snapshot_epoch
                .map_or_else(|| "null".to_owned(), |e| e.to_string()),
            d.replayed_deltas,
            d.warm_entries,
            d.spill_hits,
        )
    });
    format!(
        "{{\"epoch\": {}, \"digest\": {},\n\
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \
         \"evictions\": {}, \"repairs\": {}}},\n\
         \"sim\": {{\"evaluations\": {}, \"survivors\": {}, \"trials\": {}, \
         \"reused_rows\": {}, \"millis\": {}}},\n\
         {durability}\
         \"scheduler\": {{\"admitted\": {}, \"rejected\": {}, \
         \"fast_path_hits\": {}, \"batches\": {}, \"batched_requests\": {}, \
         \"coalesced\": {}, \"max_batch\": {}, \"deltas_applied\": {}, \
         \"background_repairs\": {}, \"queue_depth\": {queue_depth}}}}}\n",
        snapshot.epoch().get(),
        snapshot.digest(),
        cache.hits,
        cache.misses,
        cache.entries,
        cache.evictions,
        cache.repairs,
        sim.evaluations,
        sim.survivors,
        sim.trials,
        sim.reused_rows,
        sim.millis,
        sched.admitted,
        sched.rejected,
        sched.fast_path_hits,
        sched.batches,
        sched.batched_requests,
        sched.coalesced,
        sched.max_batch,
        sched.deltas_applied,
        sched.background_repairs,
    )
}

/// Writes one framed response: `status SP nbytes LF body`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_response(w: &mut impl Write, ok: bool, body: &str) -> io::Result<()> {
    debug_assert!(body.ends_with('\n'), "response bodies end in a newline");
    let status = if ok { "ok" } else { "err" };
    w.write_all(format!("{status} {}\n", body.len()).as_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// A minimal blocking protocol client — used by the test suites, the
/// `--self-test` smoke mode and the load generator.
#[derive(Debug)]
pub struct Client {
    reader: io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: io::BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sets a read timeout for responses (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends one request line and reads the framed response, returning
    /// `(ok, body)`.
    ///
    /// # Errors
    ///
    /// I/O errors, a closed connection, or a malformed response header.
    pub fn request(&mut self, line: &str) -> io::Result<(bool, String)> {
        self.writer.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()?;
        self.read_response()
    }

    /// Sends a request without waiting for the response (pipelining /
    /// in-flight tests). Pair with [`read_response`](Self::read_response).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()
    }

    /// Sends raw bytes verbatim (malformed-frame tests).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one framed response, returning `(ok, body)`.
    ///
    /// # Errors
    ///
    /// I/O errors, a closed connection, or a malformed response header.
    pub fn read_response(&mut self) -> io::Result<(bool, String)> {
        let mut header = String::new();
        let n = self.reader.read_line(&mut header)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before response header",
            ));
        }
        let header = header.trim_end();
        let (status, len) = header.split_once(' ').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed response header {header:?}"),
            )
        })?;
        let ok = match status {
            "ok" => true,
            "err" => false,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown response status {other:?}"),
                ))
            }
        };
        let len: usize = len.parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response length {len:?}"),
            )
        })?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))?;
        Ok((ok, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_request("query f1.plan.v1|x").unwrap(),
            Request::Query {
                key: "f1.plan.v1|x".into()
            }
        );
        assert_eq!(
            parse_request("top 5 somekey\n").unwrap(),
            Request::Top {
                k: 5,
                key: "somekey".into()
            }
        );
        assert_eq!(
            parse_request("delta {\"retire\":{}}").unwrap(),
            Request::Delta {
                json: "{\"retire\":{}}".into()
            }
        );
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("ping").unwrap(), Request::Ping);
        assert_eq!(parse_request("shutdown\r\n").unwrap(), Request::Shutdown);
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").unwrap_err().contains("empty"));
        assert!(parse_request("frobnicate x").unwrap_err().contains("verb"));
        assert!(parse_request("query").unwrap_err().contains("plan key"));
        assert!(parse_request("query   ").unwrap_err().contains("plan key"));
        assert!(parse_request("top five key").unwrap_err().contains("five"));
        assert!(parse_request("top 0 key").unwrap_err().contains("1..="));
        assert!(parse_request("top 99999 key").unwrap_err().contains("1..="));
        assert!(parse_request("top 3").unwrap_err().contains("count"));
        assert!(parse_request("delta").unwrap_err().contains("JSON"));
    }

    #[test]
    fn error_bodies_are_structured() {
        let body = error_body(ErrorKind::PlanKey, "bad \"key\"");
        assert!(body.contains("\"kind\": \"plan_key\""));
        assert!(body.contains("\\\"key\\\""));
        assert!(body.ends_with('\n'));
        // Control characters (short and \u escapes) round-trip through
        // the strict reader.
        let message = "line one\nline\ttwo\r\u{1}end";
        let parsed = f1_components::json::parse(&error_body(ErrorKind::Internal, message)).unwrap();
        let field = |value: &f1_components::json::Value, key: &str| {
            let fields = value.as_object().unwrap();
            fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap()
                .1
                .as_str()
                .unwrap()
        };
        let error = &parsed.as_object().unwrap()[0].1;
        assert_eq!(field(error, "message"), message);
        assert_eq!(field(error, "kind"), "internal");
        for kind in [
            ErrorKind::Protocol,
            ErrorKind::PlanKey,
            ErrorKind::PlanCatalog,
            ErrorKind::UnknownEpoch,
            ErrorKind::Overloaded,
            ErrorKind::Delta,
            ErrorKind::Internal,
        ] {
            assert!(!kind.as_str().is_empty());
        }
    }

    #[test]
    fn engine_errors_map_to_kinds() {
        assert_eq!(
            error_kind_for(&SkylineError::PlanKey { reason: "x".into() }),
            ErrorKind::PlanKey
        );
        assert_eq!(
            error_kind_for(&SkylineError::PlanCatalog {
                family: "sensor",
                index: 9,
                count: 4
            }),
            ErrorKind::PlanCatalog
        );
        assert_eq!(
            error_kind_for(&SkylineError::UnknownEpoch {
                requested: 7,
                latest: 2
            }),
            ErrorKind::UnknownEpoch
        );
        assert_eq!(
            error_kind_for(&SkylineError::IncompleteSystem { missing: "sensor" }),
            ErrorKind::Internal
        );
    }
}
