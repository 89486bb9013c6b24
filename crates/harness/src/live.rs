//! Live-serving load harness: thousands of concurrent TCP clients against
//! a [`LiveServer`](peerhood::live::LiveServer), with latency histograms.
//!
//! This is the measurement half of the production serving path: it boots a
//! real `LiveServer` around a [`CommunityApp`], connects
//! [`LiveLoadConfig::clients`] thin TCP clients (spread over a few worker
//! threads, each multiplexing its share over non-blocking sockets), runs a
//! closed loop of community requests per client, and reports p50/p99/p999
//! request latency plus throughput. Optionally some clients **stall**
//! (send but never read) to exercise the reactor's backpressure shedding.
//!
//! `repro live` is the command-line entry point; `repro gate` runs a
//! small smoke configuration and writes its report to `BENCH_live.json`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use codec::json::Json;
use codec::Wire;

use community::node::CommunityApp;
use community::profile::Profile;
use community::protocol::{Request, Response};
use peerhood::error::ErrorKind;
use peerhood::live::wire::{frame, parse_farewell, FrameBuf, Handshake, VERDICT_ACCEPT};
use peerhood::live::{LiveConfig, LiveStats};
use peerhood::types::DeviceId;

/// A log-linear latency histogram over microsecond values.
///
/// Values below 64 µs get exact buckets; above that, each power-of-two
/// octave is split into 32 sub-buckets, bounding the relative quantile
/// error at ~3% while covering the full `u64` range in ~2 KB.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

const LINEAR_CUTOFF: u64 = 64;
const SUB_BUCKETS: u64 = 32;
const BUCKETS: usize = 64 + 58 * 32;

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < LINEAR_CUTOFF {
            value as usize
        } else {
            let msb = 63 - u64::from(value.leading_zeros());
            let sub = (value >> (msb - 5)) & (SUB_BUCKETS - 1);
            (LINEAR_CUTOFF + (msb - 6) * SUB_BUCKETS + sub) as usize
        }
    }

    /// The representative (midpoint) value of bucket `idx`.
    fn midpoint(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < LINEAR_CUTOFF {
            idx
        } else {
            let octave = (idx - LINEAR_CUTOFF) / SUB_BUCKETS + 6;
            let sub = (idx - LINEAR_CUTOFF) % SUB_BUCKETS;
            let width = 1u64 << (octave - 5);
            (1u64 << octave) + sub * width + width / 2
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]` (0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::midpoint(idx).min(self.max);
            }
        }
        self.max
    }
}

/// Configuration of one live load run (builder style, like
/// [`LiveConfig`]).
#[derive(Clone, Debug)]
pub struct LiveLoadConfig {
    /// Concurrent responsive clients.
    pub clients: usize,
    /// Requests each responsive client completes (closed loop).
    pub requests_per_client: usize,
    /// Client worker threads (each multiplexes `clients / workers` sockets).
    pub workers: usize,
    /// Reactor I/O shards.
    pub shards: usize,
    /// Reactor per-connection queue cap in bytes.
    pub queue_cap: usize,
    /// Additional clients that send [`Request::GetProfile`] but never read
    /// — backpressure victims.
    pub stalled: usize,
    /// Requests each stalled client pumps before resting.
    pub stalled_requests: usize,
    /// Hard wall-clock cap on the measurement phase.
    pub deadline: Duration,
}

impl Default for LiveLoadConfig {
    fn default() -> Self {
        LiveLoadConfig {
            clients: 1000,
            requests_per_client: 20,
            workers: 4,
            shards: 2,
            queue_cap: LiveConfig::default().queue_cap,
            stalled: 0,
            stalled_requests: 4000,
            deadline: Duration::from_secs(120),
        }
    }
}

impl LiveLoadConfig {
    /// Overrides the client count (builder style).
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients.max(1);
        self
    }

    /// Overrides the per-client request count (builder style).
    pub fn with_requests_per_client(mut self, requests: usize) -> Self {
        self.requests_per_client = requests.max(1);
        self
    }

    /// Overrides the worker thread count (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the reactor shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the reactor queue cap (builder style).
    pub fn with_queue_cap(mut self, bytes: usize) -> Self {
        self.queue_cap = bytes;
        self
    }

    /// Adds stalled (never-reading) clients (builder style).
    pub fn with_stalled(mut self, stalled: usize) -> Self {
        self.stalled = stalled;
        self
    }
}

/// The outcome of one live load run.
#[derive(Clone, Debug, Default)]
pub struct LiveLoadReport {
    /// Responsive clients driven.
    pub clients: usize,
    /// Stalled clients driven.
    pub stalled: usize,
    /// Responses completed by responsive clients.
    pub responses: u64,
    /// Request/response failures (decode errors, dead sockets, deadline).
    pub errors: u64,
    /// Measurement wall time in seconds.
    pub duration_secs: f64,
    /// Completed responses per second.
    pub throughput_rps: f64,
    /// Latency quantiles in microseconds.
    pub p50_us: u64,
    /// 99th percentile latency (µs).
    pub p99_us: u64,
    /// 99.9th percentile latency (µs).
    pub p999_us: u64,
    /// Largest observed latency (µs).
    pub max_us: u64,
    /// `Overloaded` farewells observed by stalled clients.
    pub shed_observed: u64,
    /// The server's own counters at the end of the run.
    pub server: LiveStats,
}

impl LiveLoadReport {
    /// Human-readable report.
    pub fn render(&self) -> String {
        format!(
            "live load — {} clients ({} stalled), {} responses in {:.2}s ({:.0} req/s)\n\
             latency  p50 {} µs · p99 {} µs · p999 {} µs · max {} µs\n\
             server   accepted {} · shed {} · idle-closed {} · frames in/out {}/{}\n\
             errors {} · overloaded farewells observed {}",
            self.clients,
            self.stalled,
            self.responses,
            self.duration_secs,
            self.throughput_rps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.max_us,
            self.server.accepted,
            self.server.shed,
            self.server.idle_closed,
            self.server.frames_in,
            self.server.frames_out,
            self.errors,
            self.shed_observed,
        )
    }

    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("clients", self.clients as u64)
            .field("stalled", self.stalled as u64)
            .field("responses", self.responses)
            .field("errors", self.errors)
            .field("duration_secs", self.duration_secs)
            .field("throughput_rps", self.throughput_rps)
            .field("p50_us", self.p50_us)
            .field("p99_us", self.p99_us)
            .field("p999_us", self.p999_us)
            .field("max_us", self.max_us)
            .field("shed_observed", self.shed_observed)
            .field(
                "server",
                Json::obj()
                    .field("accepted", self.server.accepted)
                    .field("shed", self.server.shed)
                    .field("idle_closed", self.server.idle_closed)
                    .field("rejected", self.server.rejected)
                    .field("handshake_failures", self.server.handshake_failures)
                    .field("frames_in", self.server.frames_in)
                    .field("frames_out", self.server.frames_out),
            )
    }
}

/// One worker's accumulated results.
#[derive(Default)]
struct WorkerResult {
    hist: Histogram,
    responses: u64,
    errors: u64,
    shed_observed: u64,
}

enum ClientState {
    AwaitVerdict,
    Idle,
    AwaitResponse { sent_at: Instant },
    Done,
    Dead,
}

struct Client {
    stream: TcpStream,
    inbuf: FrameBuf,
    out: Vec<u8>,
    out_off: usize,
    state: ClientState,
    completed: usize,
    sent: usize,
    stalled: bool,
}

impl Client {
    /// Connects (with retries around listen-backlog overflow under the
    /// initial storm) and queues the handshake.
    fn connect(addr: SocketAddr, id: u64, stalled: bool) -> io::Result<Client> {
        let mut last_err = None;
        for _ in 0..50 {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_nonblocking(true)?;
                    let hs = Handshake {
                        from: DeviceId::new(id),
                        service: community::SERVICE_NAME.into(),
                        resume: None,
                    };
                    return Ok(Client {
                        stream,
                        inbuf: FrameBuf::new(),
                        out: frame(&hs.encode()),
                        out_off: 0,
                        state: ClientState::AwaitVerdict,
                        completed: 0,
                        sent: 0,
                        stalled,
                    });
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::ErrorKind::ConnectionRefused.into()))
    }

    /// Flushes pending output; false means the socket died.
    fn flush(&mut self) -> bool {
        while self.out_off < self.out.len() {
            match self.stream.write(&self.out[self.out_off..]) {
                Ok(0) => return false,
                Ok(n) => self.out_off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.out.clear();
        self.out_off = 0;
        true
    }

    /// Reads whatever is available; false means the socket died (EOF or
    /// error).
    fn pump(&mut self) -> bool {
        let mut tmp = [0u8; 4096];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => return false,
                Ok(n) => self.inbuf.extend(&tmp[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }
}

/// Drives one worker's clients through the closed request loop.
fn run_worker(
    mut clients: Vec<Client>,
    requests_per_client: usize,
    stalled_requests: usize,
    deadline: Instant,
) -> WorkerResult {
    let mut result = WorkerResult::default();
    let request = frame(&Request::GetOnlineMemberList.encode());
    loop {
        let mut pending = false;
        let mut activity = false;
        for (i, c) in clients.iter_mut().enumerate() {
            match c.state {
                ClientState::Done | ClientState::Dead => continue,
                _ => {}
            }
            pending = true;

            if !c.flush() {
                // A dead socket is expected for stalled clients (they get
                // shed); for responsive ones it is a failure.
                if !c.stalled {
                    result.errors += 1;
                }
                c.state = ClientState::Dead;
                continue;
            }

            // Stalled clients write, never read.
            if c.stalled {
                if matches!(c.state, ClientState::AwaitVerdict) {
                    // Even a stalled client must finish the handshake read.
                    if !c.pump() {
                        c.state = ClientState::Dead;
                        continue;
                    }
                    match c.inbuf.pop() {
                        Ok(Some(f)) => {
                            if f.first() == Some(&VERDICT_ACCEPT) {
                                c.state = ClientState::Idle;
                            } else {
                                result.errors += 1;
                                c.state = ClientState::Dead;
                            }
                            activity = true;
                        }
                        Ok(None) => {}
                        Err(_) => {
                            result.errors += 1;
                            c.state = ClientState::Dead;
                        }
                    }
                } else if c.sent < stalled_requests {
                    if c.out.is_empty() {
                        let req = Request::GetProfile {
                            member: "bob".into(),
                            requester: format!("visitor-{i}"),
                        };
                        c.out = frame(&req.encode());
                        c.out_off = 0;
                        c.sent += 1;
                        activity = true;
                    }
                } else {
                    c.state = ClientState::Done;
                }
                continue;
            }

            if !c.pump() {
                // EOF before finishing: shed/idle/server-side close.
                result.errors += 1;
                c.state = ClientState::Dead;
                continue;
            }
            loop {
                let f = match c.inbuf.pop() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(_) => {
                        result.errors += 1;
                        c.state = ClientState::Dead;
                        break;
                    }
                };
                activity = true;
                match &c.state {
                    ClientState::AwaitVerdict => {
                        if f.first() == Some(&VERDICT_ACCEPT) {
                            c.state = ClientState::Idle;
                        } else {
                            result.errors += 1;
                            c.state = ClientState::Dead;
                        }
                    }
                    ClientState::AwaitResponse { sent_at } => {
                        if let Some(kind) = parse_farewell(&f) {
                            if kind == ErrorKind::Overloaded {
                                result.shed_observed += 1;
                            }
                            result.errors += 1;
                            c.state = ClientState::Dead;
                        } else if Response::decode_exact(&f).is_ok() {
                            let us = sent_at.elapsed().as_micros() as u64;
                            result.hist.record(us);
                            result.responses += 1;
                            c.completed += 1;
                            c.state = if c.completed >= requests_per_client {
                                ClientState::Done
                            } else {
                                ClientState::Idle
                            };
                        } else {
                            result.errors += 1;
                            c.state = ClientState::Dead;
                        }
                    }
                    _ => {}
                }
            }
            if matches!(c.state, ClientState::Idle) && c.out.is_empty() {
                c.out.clone_from(&request);
                c.out_off = 0;
                c.state = ClientState::AwaitResponse {
                    sent_at: Instant::now(),
                };
                activity = true;
            }
        }

        if !pending {
            break;
        }
        if Instant::now() >= deadline {
            // Whatever is still in flight counts as an error.
            for c in &clients {
                if !matches!(c.state, ClientState::Done | ClientState::Dead) {
                    result.errors += 1;
                }
            }
            break;
        }
        if !activity {
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    // Give stalled clients one short read pass to observe their farewell
    // (buffered responses drain first; the farewell is the last frame, so
    // keep popping even after EOF).
    for c in clients.iter_mut().filter(|c| c.stalled) {
        let t0 = Instant::now();
        'drain: while t0.elapsed() < Duration::from_millis(800) {
            let alive = c.pump();
            loop {
                match c.inbuf.pop() {
                    Ok(Some(f)) => {
                        if parse_farewell(&f) == Some(ErrorKind::Overloaded) {
                            result.shed_observed += 1;
                            break 'drain;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => break 'drain,
                }
            }
            if !alive {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    result
}

/// Runs one live load experiment end to end (server + clients in this
/// process).
///
/// # Errors
///
/// Returns any socket error from booting the server or connecting clients.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_live_load(config: &LiveLoadConfig) -> io::Result<LiveLoadReport> {
    let app = CommunityApp::with_member(
        "bob",
        "pw",
        Profile::new("Bob").with_interests(["rust", "sauna", "football"]),
    );
    let server = LiveConfig::default()
        .with_listen_shards(config.shards)
        .with_queue_cap(config.queue_cap)
        .with_auto_service_discovery(false)
        .serve("live-daemon", app)?;
    let addr = server.addr();

    let workers = config.workers.min(config.clients + config.stalled).max(1);
    let total = config.clients + config.stalled;
    let barrier = Arc::new(Barrier::new(workers + 1));
    let mut handles = Vec::new();
    for w in 0..workers {
        // Client i runs on worker i % workers; ids are 1-based (the server
        // itself is device 0). The last `config.stalled` ids stall.
        let my_ids: Vec<(u64, bool)> = (0..total)
            .filter(|i| i % workers == w)
            .map(|i| (i as u64 + 1, i >= config.clients))
            .collect();
        let barrier = Arc::clone(&barrier);
        let requests_per_client = config.requests_per_client;
        let stalled_requests = config.stalled_requests;
        let deadline_len = config.deadline;
        handles.push(
            std::thread::Builder::new()
                .name(format!("ph-live-load-{w}"))
                .spawn(move || {
                    let clients: Vec<Client> = my_ids
                        .into_iter()
                        .filter_map(|(id, stalled)| Client::connect(addr, id, stalled).ok())
                        .collect();
                    barrier.wait();
                    run_worker(
                        clients,
                        requests_per_client,
                        stalled_requests,
                        Instant::now() + deadline_len,
                    )
                })?,
        );
    }

    barrier.wait();
    let t0 = Instant::now();
    let mut hist = Histogram::new();
    let mut responses = 0;
    let mut errors = 0;
    let mut shed_observed = 0;
    for h in handles {
        let r = h.join().expect("load worker panicked");
        hist.merge(&r.hist);
        responses += r.responses;
        errors += r.errors;
        shed_observed += r.shed_observed;
    }
    let duration = t0.elapsed();
    let stats = server.stats();
    server.shutdown();

    let expected = (config.clients * config.requests_per_client) as u64;
    errors += expected.saturating_sub(responses + errors);
    let duration_secs = duration.as_secs_f64().max(1e-9);
    Ok(LiveLoadReport {
        clients: config.clients,
        stalled: config.stalled,
        responses,
        errors,
        duration_secs,
        throughput_rps: responses as f64 / duration_secs,
        p50_us: hist.quantile(0.50),
        p99_us: hist.quantile(0.99),
        p999_us: hist.quantile(0.999),
        max_us: hist.max(),
        shed_observed,
        server: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_exhaustive() {
        // Every index must be reachable and midpoints must not decrease.
        let mut last = 0;
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 1_000_000, u64::MAX] {
            let idx = Histogram::index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            let mid = Histogram::midpoint(idx);
            assert!(mid >= last || v < LINEAR_CUTOFF, "midpoints regress at {v}");
            last = mid;
        }
    }

    #[test]
    fn histogram_quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        for (q, expect) in [(0.5, 5_000.0), (0.99, 9_900.0), (0.999, 9_990.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.04, "q{q}: got {got}, want ~{expect} ({rel:.3})");
        }
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000);
    }

    #[test]
    fn small_live_load_round_trips() {
        let report = run_live_load(
            &LiveLoadConfig::default()
                .with_clients(24)
                .with_requests_per_client(4)
                .with_workers(2)
                .with_shards(1),
        )
        .expect("load run");
        assert_eq!(report.responses, 24 * 4, "errors: {}", report.errors);
        assert_eq!(report.errors, 0);
        assert_eq!(report.server.shed, 0);
        assert!(report.p50_us > 0);
        assert!(report.p99_us >= report.p50_us);
    }
}
