//! The TCP server: a nonblocking accept loop, a capped pool of
//! connection threads, and per-request dispatch into the
//! [`Scheduler`].
//!
//! Concurrency is hand-rolled on `std` only (no async runtime — the
//! workspace builds offline): the listener is nonblocking and polled by
//! one accept thread; each connection gets a thread with a short read
//! timeout so it can notice shutdown between frames; request execution
//! is delegated to the scheduler's executor pool, so a connection
//! thread only parses, probes the cache, and waits on its reply
//! channel.
//!
//! A connection reuses its buffers across requests: one buffer in, one
//! write out. Request lines are split out of one read buffer whose
//! newline search resumes where it stopped, so every received byte is
//! examined once and a line is handed out as a borrowed slice. Each
//! response body is rendered into one reused body buffer and sent with
//! a single [`write_response`]. A buffer a big frame or a full `query`
//! body grew is released once served, so an idle connection pins
//! little memory. Rendered bodies are not cached: a body per
//! `(plan key, epoch)` would grow peak memory with every hot plan and
//! every epoch, while rendering a hit allocates nothing per value.
//!
//! Every `query`/`top` request is answered **at its admission epoch**:
//! the handler snapshots the store before probing the cache or
//! submitting, and serializes the body against that snapshot's catalog.
//! A delta published while the request is in flight never changes its
//! answer.

use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use f1_components::CatalogDelta;
use f1_skyline::plan::QueryPlan;
use f1_skyline::session::{ResultSet, Session};
use f1_skyline::SkylineError;
use f1_store::{DurableStore, SpillRecord};

use crate::protocol::{
    self, error_body, error_kind_for, parse_request, write_response, ErrorKind, Request,
    DEFAULT_MAX_FRAME,
};
use crate::scheduler::{Scheduler, SchedulerConfig, SubmitError};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks an ephemeral
    /// port — read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Scheduler knobs (micro-batch window, queue bound, executors).
    pub scheduler: SchedulerConfig,
    /// Largest request frame accepted, in bytes.
    pub max_frame: usize,
    /// Most simultaneous connections; extras get a structured
    /// `overloaded` error and are closed.
    pub max_connections: usize,
    /// Test-only fault injection: when set, the literal frame `panic`
    /// panics the connection handler, exercising the containment path
    /// (the panic is caught, the connection answers a structured
    /// `err internal` frame and stays open). Never enable on a real
    /// server.
    pub fault_injection: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".to_owned(),
            scheduler: SchedulerConfig::default(),
            max_frame: DEFAULT_MAX_FRAME,
            max_connections: 64,
            fault_injection: false,
        }
    }
}

/// Durable-serving wiring handed to [`Server::start_durable`]: the
/// recovered store (its [`EpochSink`](f1_components::EpochSink) already
/// attached on a primary) plus the warm-cache map restored from the
/// spill. The caller builds `warm` from
/// [`DurableStore::load_spill`], keeping only records whose digest
/// matches the recovered epoch's — the server trusts the map as
/// pre-validated.
#[derive(Debug)]
pub struct Durability {
    /// The recovered durable store (shares the session's `CatalogStore`).
    pub durable: Arc<DurableStore>,
    /// Digest-validated spilled bodies by `(plan key, epoch)` — served
    /// byte-identically on a `query` cache miss without re-evaluating.
    pub warm: HashMap<(String, u64), String>,
    /// Read-only log-following replica: `delta` requests are rejected
    /// and nothing is spilled.
    pub replica: bool,
}

struct DurableShared {
    durable: Arc<DurableStore>,
    warm: HashMap<(String, u64), String>,
    replica: bool,
    spill_hits: AtomicU64,
    exported: AtomicBool,
}

struct Shared {
    scheduler: Scheduler,
    shutdown: AtomicBool,
    active: AtomicUsize,
    max_frame: usize,
    max_connections: usize,
    fault_injection: bool,
    durability: Option<DurableShared>,
}

/// A running server. Dropping it (or calling [`shutdown`](Self::shutdown)
/// then [`join`](Self::join)) stops the accept loop, drains the
/// connections and joins the scheduler.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener, starts the scheduler and the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start(session: Arc<Session>, config: ServeConfig) -> std::io::Result<Self> {
        Self::start_inner(session, config, None)
    }

    /// [`start`](Self::start) with durable persistence attached: queries
    /// probe the restored warm cache after a memo miss, cold results are
    /// spilled write-behind, `stats` reports recovery counters, and (on
    /// a replica) `delta` requests are rejected. On shutdown the session
    /// memo cache is exported to the spill so the next boot re-warms it.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start_durable(
        session: Arc<Session>,
        config: ServeConfig,
        durability: Durability,
    ) -> std::io::Result<Self> {
        Self::start_inner(session, config, Some(durability))
    }

    fn start_inner(
        session: Arc<Session>,
        config: ServeConfig,
        durability: Option<Durability>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            scheduler: Scheduler::start(session, config.scheduler),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_frame: config.max_frame,
            max_connections: config.max_connections,
            fault_injection: config.fault_injection,
            durability: durability.map(|d| DurableShared {
                durable: d.durable,
                warm: d.warm,
                replica: d.replica,
                spill_hits: AtomicU64::new(0),
                exported: AtomicBool::new(false),
            }),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("skyline-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Self {
            shared,
            local_addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The scheduler (stats, direct submission from in-process tools).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.shared.scheduler
    }

    /// The session the server executes on.
    #[must_use]
    pub fn session(&self) -> &Arc<Session> {
        self.shared.scheduler.session()
    }

    /// True once shutdown has been requested (by [`shutdown`](Self::shutdown)
    /// or the `shutdown` protocol verb).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown: the accept loop stops, connections finish
    /// their in-flight request and close. Non-blocking; pair with
    /// [`join`](Self::join).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the accept loop and every connection thread have
    /// exited (bounded wait), then joins the scheduler.
    pub fn join(&self) {
        self.shutdown();
        // Take the handle out in its own statement so the accept-slot
        // guard is released before the (blocking) join.
        let accept = lock(&self.accept).take();
        if let Some(handle) = accept {
            let _ = handle.join();
        }
        // Connection threads exit at their next read-timeout tick.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared.scheduler.shutdown();
        self.export_spill();
    }

    /// Exports the session memo cache to the spill file exactly once
    /// (join also runs on Drop), so the next boot re-warms from every
    /// result this process computed — not just the ones spilled
    /// write-behind.
    fn export_spill(&self) {
        let Some(durability) = &self.shared.durability else {
            return;
        };
        if durability.replica || durability.exported.swap(true, Ordering::AcqRel) {
            return;
        }
        let Some(spill) = durability.durable.spill_log() else {
            return;
        };
        for (plan_key, epoch, digest, result_json) in self.session().export_cache() {
            let _ = spill.append(&SpillRecord {
                plan_key,
                epoch,
                digest,
                result_json,
            });
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.active.load(Ordering::Acquire) >= shared.max_connections {
                    let mut stream = stream;
                    let _ = write_response(
                        &mut stream,
                        false,
                        &error_body(ErrorKind::Overloaded, "connection limit reached"),
                    );
                    continue;
                }
                shared.active.fetch_add(1, Ordering::AcqRel);
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("skyline-conn".to_owned())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared);
                        conn_shared.active.fetch_sub(1, Ordering::AcqRel);
                    });
                if spawned.is_err() {
                    shared.active.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// What one attempt to pull a frame off the wire produced.
enum Frame<'a> {
    /// A complete request line (newline and trailing `\r` stripped),
    /// borrowed from the connection's [`FrameReader`].
    Line(&'a str),
    /// The peer closed the connection (or an unrecoverable I/O error).
    Closed,
    /// The frame exceeded `max_frame` before its newline arrived.
    TooBig,
    /// The frame is not valid UTF-8.
    Invalid,
}

/// Where [`FrameReader::split`] left the received bytes.
#[derive(Debug, PartialEq, Eq)]
enum Split {
    /// A complete frame: these buffer bytes, newline excluded.
    Line(Range<usize>),
    /// No newline yet; more bytes are needed.
    Partial,
    /// The pending frame already exceeds the size cap.
    TooBig,
}

/// Bytes requested from the socket per read.
const READ_CHUNK: usize = 8192;

/// Buffer capacity a connection keeps between requests. A larger
/// frame or body is served, then its buffer is released, so an idle
/// connection never pins a big `delta` frame or `query` body.
const RETAINED_BUFFER: usize = 16 * 1024;

/// Splits a connection's byte stream into newline-terminated frames
/// in one reused buffer. The newline search resumes where the last one
/// stopped, so each received byte is examined once however many reads
/// a frame spans, and a frame is handed out as a slice of the buffer —
/// never drained, collected or copied. Hand-rolled (rather than
/// `BufRead::read_line`) so a read timeout mid-frame never drops
/// partially received bytes and the size cap is enforced *before* the
/// newline arrives.
#[derive(Debug, Default)]
struct FrameReader {
    /// Received bytes live in `buf[start..filled]`; the rest of `buf`
    /// is reusable read space.
    buf: Vec<u8>,
    /// Start of the first frame not yet handed out.
    start: usize,
    /// `buf[start..scanned]` holds no newline.
    scanned: usize,
    /// End of the received bytes.
    filled: usize,
    /// Bytes the newline search has looked at, over the reader's life.
    examined: usize,
}

impl FrameReader {
    /// Finds the next complete frame among the received bytes,
    /// searching only bytes no earlier call examined.
    fn split(&mut self, max_frame: usize) -> Split {
        let unscanned = self.buf.get(self.scanned..self.filled).unwrap_or_default();
        match unscanned.iter().position(|&b| b == b'\n') {
            Some(offset) => {
                self.examined += offset + 1;
                let newline = self.scanned + offset;
                if newline - self.start > max_frame {
                    return Split::TooBig;
                }
                let line = self.start..newline;
                self.start = newline + 1;
                self.scanned = self.start;
                Split::Line(line)
            }
            None => {
                self.examined += unscanned.len();
                self.scanned = self.filled;
                if self.filled - self.start > max_frame {
                    Split::TooBig
                } else {
                    Split::Partial
                }
            }
        }
    }

    /// The bytes of a frame [`split`](Self::split) returned.
    fn bytes(&self, line: Range<usize>) -> &[u8] {
        self.buf.get(line).unwrap_or_default()
    }

    /// Reads more bytes from `source`. Frames already handed out are
    /// dropped first by moving the pending tail to the front, and a
    /// buffer a big frame grew beyond [`RETAINED_BUFFER`] is shrunk back
    /// once that frame is gone.
    fn fill(&mut self, source: &mut impl Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.scanned -= self.start;
            self.start = 0;
            if self.buf.capacity() > RETAINED_BUFFER && self.filled + READ_CHUNK <= RETAINED_BUFFER
            {
                self.buf.truncate(RETAINED_BUFFER);
                self.buf.shrink_to(RETAINED_BUFFER);
            }
        }
        if self.buf.len() < self.filled + READ_CHUNK {
            self.buf.resize(self.filled + READ_CHUNK, 0);
        }
        let space = self.buf.get_mut(self.filled..).unwrap_or_default();
        let n = source.read(space)?;
        self.filled += n;
        Ok(n)
    }
}

/// Reads one newline-terminated frame, reading from the socket only
/// when the bytes already received hold no complete frame.
fn read_frame<'a>(stream: &TcpStream, frames: &'a mut FrameReader, shared: &Shared) -> Frame<'a> {
    loop {
        match frames.split(shared.max_frame) {
            Split::Line(line) => {
                return match std::str::from_utf8(frames.bytes(line)) {
                    Ok(line) => Frame::Line(line.trim_end_matches('\r')),
                    Err(_) => Frame::Invalid,
                }
            }
            Split::TooBig => return Frame::TooBig,
            Split::Partial => {}
        }
        match frames.fill(&mut &*stream) {
            Ok(0) => return Frame::Closed,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Acquire) {
                    return Frame::Closed;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Frame::Closed,
        }
    }
}

/// A connection's write side: every response is rendered into one
/// reused body buffer and leaves in one [`write_response`].
struct Responder {
    stream: TcpStream,
    body: String,
}

impl Responder {
    /// Sends a body rendered elsewhere (cold verbs, static bodies).
    fn send(&mut self, ok: bool, body: &str) {
        let _ = write_response(&mut self.stream, ok, body);
    }

    /// Renders an `ok` body into the reused buffer and sends it. A body
    /// that outgrew [`RETAINED_BUFFER`] (a full `query` document) is
    /// released after its write.
    fn render(&mut self, render: impl FnOnce(&mut String)) {
        self.body.clear();
        render(&mut self.body);
        let _ = write_response(&mut self.stream, true, &self.body);
        if self.body.capacity() > RETAINED_BUFFER {
            self.body = String::new();
        }
    }

    /// Sends a structured error body.
    fn error(&mut self, kind: ErrorKind, message: &str) {
        self.send(false, &error_body(kind, message));
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut out = match stream.try_clone() {
        Ok(stream) => Responder {
            stream,
            body: String::new(),
        },
        Err(_) => return,
    };
    let mut frames = FrameReader::default();
    loop {
        let line = match read_frame(&stream, &mut frames, shared) {
            Frame::Line(line) => line,
            Frame::Closed => return,
            Frame::TooBig => {
                // The rest of the oversized frame is unread: answer,
                // then close — there is no way to resynchronize.
                out.error(
                    ErrorKind::Protocol,
                    &format!("request exceeds {} bytes", shared.max_frame),
                );
                return;
            }
            Frame::Invalid => {
                out.error(ErrorKind::Protocol, "request is not valid UTF-8");
                return;
            }
        };
        // Contain handler panics: a panic anywhere under dispatch (plan
        // evaluation, serialization, an injected fault) must never kill
        // the connection silently — the peer gets a structured
        // `err internal` frame and the connection stays usable.
        let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(line, &mut out, shared)
        }));
        let keep_open = match dispatched {
            Ok(keep_open) => keep_open,
            Err(payload) => {
                let what = panic_message(payload.as_ref());
                out.error(
                    ErrorKind::Internal,
                    &format!("request handler panicked: {what}"),
                );
                true
            }
        };
        if !keep_open {
            return;
        }
    }
}

/// Best-effort text of a caught panic payload (`&str` / `String`
/// payloads; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Dispatches one parsed frame; returns whether the connection stays
/// open. Semantic errors (bad plan key, unknown ids, full queue) are
/// structured `err` responses on a live connection — only framing
/// violations and shutdown close it.
fn handle_request(line: &str, out: &mut Responder, shared: &Shared) -> bool {
    if shared.fault_injection && line == "panic" {
        // analyze::allow(panic, reason = "test-only fault injection behind ServeConfig::fault_injection, default off")
        panic!("injected fault (ServeConfig::fault_injection)");
    }
    let scheduler = &shared.scheduler;
    let session = scheduler.session();
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(reason) => {
            out.error(ErrorKind::Protocol, &reason);
            return true;
        }
    };
    match request {
        Request::Ping => {
            out.send(true, "{\"pong\": true}\n");
            true
        }
        Request::Stats => {
            let snapshot = session.store().current();
            let durability = shared.durability.as_ref().map(|d| {
                let report = d.durable.report();
                protocol::DurabilityStats {
                    replica: d.replica,
                    snapshot_epoch: report.snapshot_epoch,
                    replayed_deltas: report.replayed_deltas,
                    warm_entries: d.warm.len() as u64,
                    spill_hits: d.spill_hits.load(Ordering::Relaxed),
                }
            });
            let body = protocol::stats_body(
                &snapshot,
                &session.cache_stats(),
                &session.sim_stats(),
                &scheduler.stats(),
                scheduler.queue_depth(),
                durability.as_ref(),
            );
            out.send(true, &body);
            true
        }
        Request::Delta { json } => {
            if shared.durability.as_ref().is_some_and(|d| d.replica) {
                out.error(
                    ErrorKind::Delta,
                    "this server is a read-only replica; apply deltas to the primary",
                );
                return true;
            }
            let outcome = CatalogDelta::from_json(&json)
                .and_then(|delta| scheduler.apply_delta(&delta).map(|s| (delta, s)));
            match outcome {
                Ok((delta, snapshot)) => {
                    out.send(true, &protocol::delta_body(&snapshot, delta.op_count()));
                }
                Err(e) => out.error(ErrorKind::Delta, &format!("{e}")),
            }
            true
        }
        Request::Query { key } => {
            answer_plan(&key, None, out, shared);
            true
        }
        Request::Top { k, key } => {
            answer_plan(&key, Some(k), out, shared);
            true
        }
        Request::Shutdown => {
            out.send(true, "{\"shutting_down\": true}\n");
            shared.shutdown.store(true, Ordering::Release);
            false
        }
    }
}

/// Cheap connection-side validation of a parsed plan against the
/// admission catalog, so an out-of-catalog plan is rejected before it
/// can join (and fail) a coalesced batch.
fn validate_ids(plan: &QueryPlan, catalog: &f1_components::Catalog) -> Result<(), SkylineError> {
    fn check<T: Copy>(
        ids: Option<&[T]>,
        index: impl Fn(T) -> usize,
        count: usize,
        family: &'static str,
    ) -> Result<(), SkylineError> {
        for &id in ids.unwrap_or_default() {
            if index(id) >= count {
                return Err(SkylineError::PlanCatalog {
                    family,
                    index: index(id),
                    count,
                });
            }
        }
        Ok(())
    }
    use f1_components::{AirframeId, AlgorithmId, ComputeId, SensorId};
    check(
        plan.airframes(),
        AirframeId::index,
        catalog.airframe_count(),
        "airframe",
    )?;
    check(
        plan.sensors(),
        SensorId::index,
        catalog.sensor_count(),
        "sensor",
    )?;
    check(
        plan.computes(),
        ComputeId::index,
        catalog.compute_count(),
        "compute",
    )?;
    check(
        plan.algorithms(),
        AlgorithmId::index,
        catalog.algorithm_count(),
        "algorithm",
    )?;
    if let Some(battery) = plan.battery() {
        if battery.index() >= catalog.battery_count() {
            return Err(SkylineError::PlanCatalog {
                family: "battery",
                index: battery.index(),
                count: catalog.battery_count(),
            });
        }
    }
    Ok(())
}

/// Answers a `query`/`top` request: snapshot the admission epoch, probe
/// the memo cache (fast path, no queue), otherwise parse + validate the
/// plan, submit to the scheduler and serialize the reply against the
/// admission snapshot.
fn answer_plan(key: &str, top_k: Option<usize>, out: &mut Responder, shared: &Shared) {
    let scheduler = &shared.scheduler;
    let session = scheduler.session();
    let snapshot = session.store().current();
    let respond = |out: &mut Responder, result: &ResultSet, cached| {
        out.render(|body| match top_k {
            Some(k) => protocol::write_top_body(body, k, result, &snapshot, cached),
            None => protocol::write_query_body(body, result, &snapshot, cached),
        });
    };
    if let Some(result) = session.cached_at(key, snapshot.epoch()) {
        scheduler.note_fast_path_hit();
        respond(out, &result, true);
        return;
    }
    // Warm-cache restore: a memo miss can still be answered from the
    // spill a previous process persisted — byte-identical to the live
    // cache hit it replaces, without re-running any physics. (`top`
    // reshapes the result, so only full `query` bodies are served this
    // way.)
    if top_k.is_none() {
        if let Some(durability) = &shared.durability {
            if let Some(body) = durability
                .warm
                .get(&(key.to_owned(), snapshot.epoch().get()))
            {
                scheduler.note_fast_path_hit();
                durability.spill_hits.fetch_add(1, Ordering::Relaxed);
                out.send(true, &protocol::warm_query_body(body, &snapshot, true));
                return;
            }
        }
    }
    let mut canonical = None;
    let submitted = QueryPlan::from_key(key)
        .and_then(|plan| validate_ids(&plan, snapshot.catalog()).map(|()| plan))
        .map(|plan| {
            canonical = Some(plan.key().to_owned());
            scheduler.submit(plan, snapshot.epoch())
        });
    let receiver = match submitted {
        Ok(Ok(receiver)) => receiver,
        Ok(Err(SubmitError::Overloaded)) => {
            out.error(ErrorKind::Overloaded, "admission queue is full, retry");
            return;
        }
        Ok(Err(SubmitError::ShuttingDown)) => {
            out.error(ErrorKind::Overloaded, "server is shutting down");
            return;
        }
        Err(e) => {
            out.error(error_kind_for(&e), &format!("{e}"));
            return;
        }
    };
    match receiver.recv() {
        Ok(Ok(result)) => {
            respond(out, &result, false);
            // Write-behind spill: the freshly computed result is
            // persisted under its canonical key so a restarted server
            // can answer it byte-identically from disk.
            if let (Some(durability), Some(plan_key)) = (&shared.durability, canonical) {
                if !durability.replica {
                    if let Some(spill) = durability.durable.spill_log() {
                        let _ = spill.append(&SpillRecord {
                            plan_key,
                            epoch: snapshot.epoch().get(),
                            digest: snapshot.digest(),
                            result_json: result.to_json(snapshot.catalog()),
                        });
                    }
                }
            }
        }
        Ok(Err(e)) => out.error(error_kind_for(&e), &format!("{e}")),
        Err(_) => out.error(ErrorKind::Internal, "executor dropped the request"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A byte source that hands out at most `piece` bytes per read.
    struct Pieces<'a> {
        data: &'a [u8],
        piece: usize,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.piece.min(buf.len()).min(self.data.len());
            let (head, rest) = self.data.split_at(n);
            buf[..n].copy_from_slice(head);
            self.data = rest;
            Ok(n)
        }
    }

    /// Drives `split`/`fill` until a frame, the cap or the end of input.
    fn next(frames: &mut FrameReader, source: &mut impl Read, max_frame: usize) -> Option<Split> {
        loop {
            match frames.split(max_frame) {
                Split::Partial => {}
                done => return Some(done),
            }
            if frames.fill(source).unwrap() == 0 {
                return None;
            }
        }
    }

    #[test]
    fn a_near_max_frame_is_scanned_once_across_its_reads() {
        let len = DEFAULT_MAX_FRAME - 1;
        let mut data = vec![b'x'; len];
        data.push(b'\n');
        let mut source = Pieces {
            data: &data,
            piece: READ_CHUNK,
        };
        let mut frames = FrameReader::default();
        let Some(Split::Line(line)) = next(&mut frames, &mut source, DEFAULT_MAX_FRAME) else {
            panic!("a frame under the cap splits out whole");
        };
        assert_eq!(line.len(), len);
        assert!(frames.bytes(line).iter().all(|&b| b == b'x'));
        // Every byte examined exactly once — rescanning the buffer after
        // each 8 KiB read would examine ~len²/16 KiB bytes instead.
        assert_eq!(frames.examined, len + 1);
    }

    #[test]
    fn pipelined_frames_split_in_order_without_rescanning() {
        let data = b"ping\nstats\r\ntop 5 key\npartial";
        let mut source = Pieces { data, piece: 7 };
        let mut frames = FrameReader::default();
        let mut lines = Vec::new();
        while let Some(Split::Line(line)) = next(&mut frames, &mut source, 64) {
            lines.push(String::from_utf8(frames.bytes(line).to_vec()).unwrap());
        }
        assert_eq!(lines, ["ping", "stats\r", "top 5 key"]);
        assert_eq!(frames.examined, data.len());
        assert_eq!(frames.split(64), Split::Partial);
    }

    #[test]
    fn oversized_frames_are_refused_before_their_newline() {
        let data = vec![b'y'; 3 * READ_CHUNK];
        let mut source = Pieces {
            data: &data,
            piece: READ_CHUNK,
        };
        let mut frames = FrameReader::default();
        assert_eq!(
            next(&mut frames, &mut source, READ_CHUNK + 10),
            Some(Split::TooBig)
        );
        // A newline past the cap is refused too.
        let mut data = vec![b'z'; 40];
        data.push(b'\n');
        let mut frames = FrameReader::default();
        let mut source = Pieces {
            data: &data,
            piece: 64,
        };
        assert_eq!(next(&mut frames, &mut source, 39), Some(Split::TooBig));
    }

    #[test]
    fn a_big_frame_releases_its_buffer_once_served() {
        let mut data = vec![b'd'; 4 * RETAINED_BUFFER];
        data.extend_from_slice(b"\nping\n");
        let mut source = Pieces {
            data: &data,
            piece: READ_CHUNK,
        };
        let mut frames = FrameReader::default();
        assert!(matches!(
            next(&mut frames, &mut source, DEFAULT_MAX_FRAME),
            Some(Split::Line(_))
        ));
        assert!(frames.buf.capacity() > RETAINED_BUFFER);
        let Some(Split::Line(line)) = next(&mut frames, &mut source, DEFAULT_MAX_FRAME) else {
            panic!("the next frame splits out");
        };
        assert_eq!(frames.bytes(line), b"ping");
        assert!(next(&mut frames, &mut source, DEFAULT_MAX_FRAME).is_none());
        assert!(frames.buf.capacity() <= RETAINED_BUFFER);
    }
}
