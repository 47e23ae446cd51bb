//! The load generators of the TCP workloads.
//!
//! [`drive`] is the open loop the latency figures come from: one thread
//! sends every request at its due time, whatever the answers are doing;
//! one reader thread per connection times each answer. A request's
//! latency counts from its due time, so a stall delays every request
//! queued behind it. The generator records how late it sent each request
//! and how many fell due unsent, to show that it kept up.
//!
//! [`saturate`] is the closed loop the throughput figure comes from: a
//! fixed number of requests in flight per connection, so the rate it
//! reaches is the one the server sets, not the one the schedule offers.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use f1_serve::ServeConfig;

use crate::stats::{self, ms};
use crate::Report;

/// The server configuration of both TCP workloads: the serve defaults on
/// a free loopback port, so the benchmark measures what a deployment
/// gets.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    }
}

/// Requests [`saturate`] keeps in flight on each connection: enough that
/// neither the client nor the server thread waits for the other. With 8
/// or 32 the rate jumped by a third within and between runs as the two
/// threads shared or split the two vCPUs of the host; with 128 it holds
/// within a few percent through a run.
pub const IN_FLIGHT: usize = 128;

/// A run whose generator sent its 99th-percentile request later than this
/// after its due time, or let more than [`BACKLOG_BOUND`] requests fall
/// due unsent, did not offer the load it claims and is reported invalid.
/// Lateness alone cannot make a run look fast — latency counts from the
/// due time — so the bounds only catch a generator that stopped keeping
/// up.
const LATE_P99_BOUND_MS: f64 = 50.0;
const BACKLOG_BOUND: usize = 1000;

/// One request of a schedule: when it is due and on which connection.
#[derive(Debug, Clone, Copy)]
pub struct Due {
    pub at: Duration,
    pub conn: usize,
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Index of the request in the schedule.
    pub request: usize,
    pub sent: Instant,
    pub received: Instant,
    pub ok: bool,
    /// The epoch the answer carries (`u64::MAX` for none).
    pub epoch: u64,
    pub cached: bool,
    pub body_hash: u64,
}

/// What the generator and the readers measured.
#[derive(Debug)]
pub struct Load {
    pub start: Instant,
    /// Every answer, per connection in the order sent.
    pub answers: Vec<Answer>,
    pub late_ms: Vec<f64>,
    pub backlog_max: usize,
}

impl Load {
    /// Latency of `a` from its due time, milliseconds.
    pub fn latency_ms(&self, a: &Answer, schedule: &[Due]) -> f64 {
        ms(a.received
            .saturating_duration_since(self.start + schedule[a.request].at))
    }

    /// From the first due time (or the start of a saturation phase) to
    /// the last answer.
    pub fn window_s(&self) -> f64 {
        self.answers
            .iter()
            .map(|a| a.received)
            .max()
            .map_or(0.0, |end| (end - self.start).as_secs_f64())
    }
}

pub fn body_hash(body: &str) -> u64 {
    stats::fnv1a(stats::FNV_OFFSET, body.as_bytes())
}

/// `"epoch": N` of a response body.
pub fn epoch_of(body: &str) -> Option<u64> {
    body.split("\"epoch\": ")
        .nth(1)?
        .split([',', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connects to the server");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    (
        BufReader::new(stream.try_clone().expect("stream clones")),
        stream,
    )
}

/// Reads the next answer on `reader` and records it as the answer to
/// `request`, sent at `sent`.
fn answer(reader: &mut BufReader<TcpStream>, request: usize, sent: Instant) -> Answer {
    let (ok, body) = read_frame(reader).expect("server answers");
    Answer {
        request,
        sent,
        received: Instant::now(),
        ok,
        epoch: epoch_of(&body).unwrap_or(u64::MAX),
        cached: body.contains("\"cached\": true"),
        body_hash: body_hash(&body),
    }
}

fn read_frame(reader: &mut BufReader<TcpStream>) -> std::io::Result<(bool, String)> {
    let mut header = String::new();
    if reader.read_line(&mut header)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let (status, len) = header
        .trim_end()
        .split_once(' ')
        .ok_or(std::io::ErrorKind::InvalidData)?;
    let len: usize = len.parse().map_err(|_| std::io::ErrorKind::InvalidData)?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| std::io::ErrorKind::InvalidData)?;
    Ok((status == "ok", body))
}

/// Sends `lines[i]` at `schedule[i]` over `connections` connections to
/// `addr` and collects every answer. `schedule` is in due order.
pub fn drive(addr: SocketAddr, connections: usize, schedule: &[Due], lines: &[String]) -> Load {
    let (readers, mut writers): (Vec<_>, Vec<_>) = (0..connections).map(|_| connect(addr)).unzip();
    let per_conn: Vec<usize> = (0..connections)
        .map(|c| schedule.iter().filter(|d| d.conn == c).count())
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut late_ms = Vec::with_capacity(schedule.len());
    let mut backlog_max = 0;
    let answers = std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        for (mut reader, count) in readers.into_iter().zip(per_conn) {
            let (tx, rx) = mpsc::channel::<(usize, Instant)>();
            senders.push(tx);
            handles.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(count);
                for _ in 0..count {
                    let mut a = answer(&mut reader, 0, Instant::now());
                    (a.request, a.sent) = rx.recv().expect("generator recorded the send");
                    out.push(a);
                }
                out
            }));
        }
        for (i, due) in schedule.iter().enumerate() {
            let due_at = start + due.at;
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let sent = Instant::now();
            late_ms.push(ms(sent.saturating_duration_since(due_at)));
            let elapsed = sent.saturating_duration_since(start);
            backlog_max = backlog_max.max(schedule[i..].partition_point(|d| d.at <= elapsed));
            senders[due.conn].send((i, sent)).expect("reader is alive");
            writers[due.conn]
                .write_all(lines[i].as_bytes())
                .expect("request is sent");
        }
        drop(senders);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread"))
            .collect::<Vec<_>>()
    });
    Load {
        start,
        answers,
        late_ms,
        backlog_max,
    }
}

/// Keeps [`IN_FLIGHT`] requests outstanding on each of `connections`
/// connections for `length`, sending the next line as each answer
/// arrives, then lets the requests still in flight drain. Connection `c`
/// sends `lines[c]`, `lines[c + connections]`, …, cycling through
/// `lines`; an answer's `request` indexes `lines`. One thread per
/// connection both sends and reads.
pub fn saturate(addr: SocketAddr, connections: usize, lines: &[String], length: Duration) -> Load {
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + length;
    let answers = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let (mut reader, mut writer) = connect(addr);
                scope.spawn(move || {
                    let mut next = c;
                    let mut in_flight = VecDeque::with_capacity(IN_FLIGHT);
                    let mut send = |in_flight: &mut VecDeque<(usize, Instant)>| {
                        let request = next % lines.len();
                        next += connections;
                        in_flight.push_back((request, Instant::now()));
                        writer
                            .write_all(lines[request].as_bytes())
                            .expect("request is sent");
                    };
                    let now = Instant::now();
                    if start > now {
                        std::thread::sleep(start - now);
                    }
                    for _ in 0..IN_FLIGHT {
                        send(&mut in_flight);
                    }
                    let mut out = Vec::new();
                    while let Some((request, sent)) = in_flight.pop_front() {
                        let a = answer(&mut reader, request, sent);
                        if a.received < deadline {
                            send(&mut in_flight);
                        }
                        out.push(a);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("saturation thread"))
            .collect::<Vec<_>>()
    });
    Load {
        start,
        answers,
        late_ms: Vec::new(),
        backlog_max: 0,
    }
}

/// Answers completed per second in each of `slices` equal slices of the
/// first `length` of `load`, to show whether a saturation phase held one
/// rate.
pub fn slice_rates(load: &Load, length: Duration, slices: usize) -> Vec<f64> {
    let width = length.as_secs_f64() / slices as f64;
    let mut counts = vec![0usize; slices];
    for a in load.answers.iter().filter(|a| a.ok) {
        let at = a
            .received
            .saturating_duration_since(load.start)
            .as_secs_f64();
        if let Some(c) = counts.get_mut((at / width) as usize) {
            *c += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / width).collect()
}

/// Flags a generator that fell behind its own schedule; returns its late
/// p99 (ms) and largest backlog.
pub fn check_generator(load: &Load, report: &mut Report) -> (f64, usize) {
    let late_p99 = stats::quantile(&stats::sorted(load.late_ms.clone()), 0.99);
    report.check(late_p99 <= LATE_P99_BOUND_MS, || {
        format!("generator late p99 {late_p99:.3} ms exceeds {LATE_P99_BOUND_MS} ms: run invalid")
    });
    report.check(load.backlog_max <= BACKLOG_BOUND, || {
        format!(
            "generator backlog reached {} requests (bound {BACKLOG_BOUND}): run invalid",
            load.backlog_max
        )
    });
    (late_p99, load.backlog_max)
}

/// The generators' figures for the detail line: the open loop's offered
/// rate and how well it kept to it, and the rate the saturation phase
/// reached (`capacity_ops_s`), with the offered rate's share of it.
pub fn detail_json(
    load: &Load,
    offered_per_s: f64,
    connections: usize,
    capacity_ops_s: f64,
) -> String {
    let late = stats::summarize(&load.late_ms);
    format!(
        "{{\"offered_per_s\": {offered_per_s}, \"connections\": {connections}, \
         \"capacity_ops_s\": {}, \"offered_share_of_capacity\": {}, \"in_flight\": {IN_FLIGHT}, \
         \"late_ms\": {}, \"late_p99_ms\": {}, \"backlog_max\": {}}}",
        stats::num(capacity_ops_s),
        stats::num(offered_per_s / capacity_ops_s),
        late.json(),
        stats::num(stats::quantile(&stats::sorted(load.late_ms.clone()), 0.99)),
        load.backlog_max
    )
}
