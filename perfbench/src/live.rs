//! The live-serving workloads: a one-shard `LiveServer` around a
//! `CommunityApp` holding member `bob`, driven over loopback TCP by this
//! benchmark's own clients.
//!
//! Each client is one blocking thread on one connection running a closed
//! loop: encode a request, write it, block until the response frame is
//! read, decode it and check it is the expected variant. Nothing sleeps or
//! polls, so the measured latency is the server's. A request that hits EOF,
//! a farewell, a wrong variant, a decode error or the reply timeout fails,
//! and its connection stops.
//!
//! The traced run adds an in-process replay of the exact recorded request
//! stream through `Request::decode_exact`, `handle_request` and the
//! journal, which times the server-side work without sockets.

use std::fs;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use codec::json::Json;
use codec::Wire;
use community::journal::{JournalPersist, StoreJournal};
use community::node::CommunityApp;
use community::profile::Profile;
use community::protocol::{Request, Response};
use community::semantics::MatchPolicy;
use community::server::handle_request;
use netsim::SimTime;
use peerhood::live::wire::{frame, parse_farewell, FrameBuf, Handshake, VERDICT_ACCEPT};
use peerhood::live::{LiveConfig, LivePersist, LiveServer};
use peerhood::types::DeviceId;

use crate::alloc;
use crate::common::{
    latency_metrics, median, peak_rss_mb, ratio, span_metrics, Inject, Outcome, RunOpts,
    SETUP_SAMPLES,
};
use crate::metrics::Metrics;
use crate::spans::Spans;

/// The member every request addresses.
const MEMBER: &str = "bob";
/// How long a client waits for one response before counting it failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Set-ups averaged into one `setup_s` sample. A set-up waits out a few
/// 1 ms shard naps, so single set-ups fall into modes a nap apart and
/// their median flips between modes from run to run.
const SETUPS_PER_SAMPLE: usize = 10;
/// The journal's checkpoint cadence on `live_write`.
const SNAPSHOT_CADENCE: Duration = Duration::from_secs(5);

/// One live workload.
#[derive(Clone, Debug)]
pub struct LiveSpec {
    /// Alternate `Message` and `AddProfileComment` writes, journalled;
    /// otherwise only `GetOnlineMemberList` reads, no persistence.
    pub write: bool,
    /// Round trips per connection in one block; `wall_s` is the median
    /// block time.
    pub block: usize,
}

fn served_app() -> CommunityApp {
    CommunityApp::with_member(
        MEMBER,
        "pw",
        Profile::new("Bob").with_interests(["rust", "sauna", "football"]),
    )
}

/// The server config, every field spelled out so a default cannot
/// silently change the workload.
fn live_config(journal: Option<&Path>) -> LiveConfig {
    LiveConfig {
        listen: SocketAddr::from(([127, 0, 0, 1], 0)),
        listen_shards: 1,
        queue_cap: 256 * 1024,
        idle_timeout: Duration::from_secs(8),
        handshake_timeout: Duration::from_secs(8),
        inquiry_interval: Duration::from_millis(200),
        neighbor_ttl: Duration::from_secs(5),
        auto_service_discovery: false,
        recovery: None,
        gossip: None,
        snapshot_path: journal.map(Path::to_path_buf),
        snapshot_cadence: SNAPSHOT_CADENCE,
    }
}

/// A blocking client connection.
struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    dead: bool,
}

impl Conn {
    /// Connects and completes the handshake.
    fn open(addr: SocketAddr, id: u64) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut conn = Conn {
            stream,
            inbuf: FrameBuf::new(),
            dead: false,
        };
        let hello = Handshake {
            from: DeviceId::new(id),
            service: community::SERVICE_NAME.into(),
            resume: None,
        };
        let verdict = conn.round_trip(&frame(&hello.encode()))?;
        if verdict.first() == Some(&VERDICT_ACCEPT) {
            Ok(conn)
        } else {
            Err(io::Error::other("handshake rejected"))
        }
    }

    /// Writes one framed message and blocks until one frame comes back.
    fn round_trip(&mut self, wire: &[u8]) -> io::Result<Vec<u8>> {
        self.stream.write_all(wire)?;
        let mut buf = [0u8; 4096];
        loop {
            if let Some(f) = self.inbuf.pop().map_err(io::Error::other)? {
                return Ok(f);
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.inbuf.extend(&buf[..n]);
        }
    }
}

/// A served app with its connected clients.
struct Served {
    server: LiveServer<CommunityApp>,
    conns: Vec<Conn>,
    journal: Option<PathBuf>,
}

/// Starts the server (around a fresh journal when given one) and connects
/// `conns` clients.
fn boot(journal: Option<PathBuf>, conns: usize) -> io::Result<Served> {
    let app = served_app();
    let persist: Option<Box<dyn LivePersist<CommunityApp>>> = match &journal {
        Some(path) => {
            let (mut j, _) = StoreJournal::open(path)?;
            j.compact(app.store())?;
            Some(Box::new(JournalPersist::new(j)))
        }
        None => None,
    };
    let server =
        LiveServer::spawn_with(live_config(journal.as_deref()), "live-daemon", app, persist)?;
    let opened: io::Result<Vec<Conn>> = (0..conns)
        .map(|i| Conn::open(server.addr(), i as u64 + 1))
        .collect();
    match opened {
        Ok(conns) => Ok(Served {
            server,
            conns,
            journal,
        }),
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

/// What a request must be answered with.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ack {
    Read,
    Comment,
    Message,
}

/// The `n`-th request of a connection.
fn request(write: bool, author: &str, n: u64) -> Request {
    match (write, n % 2) {
        (false, _) => Request::GetOnlineMemberList,
        (true, 0) => Request::Message {
            to: MEMBER.into(),
            from: author.into(),
            subject: format!("note {n}"),
            body: "see you at the match".into(),
        },
        (true, _) => Request::AddProfileComment {
            member: MEMBER.into(),
            author: author.into(),
            comment: format!("comment {n}"),
        },
    }
}

/// Decodes a response frame and checks it answers `req`.
fn check(reply: &[u8], req: &Request) -> Result<Ack, String> {
    if let Some(kind) = parse_farewell(reply) {
        return Err(format!("farewell {kind:?}"));
    }
    let resp = Response::decode_exact(reply).map_err(|e| format!("decode error: {e:?}"))?;
    match (req, &resp) {
        (Request::GetOnlineMemberList, Response::MemberList(m))
            if m.iter().any(|x| x == MEMBER) =>
        {
            Ok(Ack::Read)
        }
        (Request::AddProfileComment { .. }, Response::CommentWritten) => Ok(Ack::Comment),
        (Request::Message { .. }, Response::MessageWritten) => Ok(Ack::Message),
        _ => Err(format!("{} answered with {resp:?}", req.label())),
    }
}

/// One connection's share of a window.
struct ConnRun {
    latencies_ms: Vec<f64>,
    blocks_s: Vec<f64>,
    attempted: u64,
    acks: [u64; 3],
    failure: Option<String>,
    request_bytes: u64,
    response_bytes: u64,
    /// Request payloads sent (traced windows only), for the replay.
    sent: Vec<Vec<u8>>,
    spans: Spans,
}

/// Runs the closed loop on one connection until `deadline`.
fn drive(conn: &mut Conn, idx: usize, spec: &LiveSpec, deadline: Instant, traced: bool) -> ConnRun {
    let mut r = ConnRun {
        latencies_ms: Vec::new(),
        blocks_s: Vec::new(),
        attempted: 0,
        acks: [0; 3],
        failure: None,
        request_bytes: 0,
        response_bytes: 0,
        sent: Vec::new(),
        spans: Spans::new(traced),
    };
    let author = format!("writer-{idx}");
    let mut block_start = Instant::now();
    let mut in_block = 0;
    while !conn.dead && Instant::now() < deadline {
        let req = request(spec.write, &author, r.attempted);
        r.attempted += 1;
        let t0 = Instant::now();
        let (payload, wire) = r.spans.time("client.encode", |_| {
            let payload = req.encode();
            let wire = frame(&payload);
            (payload, wire)
        });
        let verdict = match r.spans.time("client.roundtrip", |_| conn.round_trip(&wire)) {
            Ok(reply) => r
                .spans
                .time("client.decode", |_| check(&reply, &req))
                .map(|ack| (ack, reply.len())),
            Err(e) => Err(format!("socket: {e}")),
        };
        match verdict {
            Ok((ack, reply_len)) => {
                r.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                r.acks[ack as usize] += 1;
                r.request_bytes += wire.len() as u64;
                r.response_bytes += 4 + reply_len as u64;
                if traced {
                    r.sent.push(payload);
                }
                in_block += 1;
                if in_block == spec.block {
                    r.blocks_s.push(block_start.elapsed().as_secs_f64());
                    block_start = Instant::now();
                    in_block = 0;
                }
            }
            Err(why) => {
                r.failure = Some(format!("connection {idx}: {why}"));
                conn.dead = true;
            }
        }
    }
    r
}

/// All connections' results for one window.
struct Window {
    runs: Vec<ConnRun>,
    elapsed: Duration,
    allocs: u64,
}

impl Window {
    fn latencies_ms(&self) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect()
    }

    fn blocks_s(&self) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| r.blocks_s.iter().copied())
            .collect()
    }

    fn responses(&self) -> u64 {
        self.runs.iter().map(|r| r.latencies_ms.len() as u64).sum()
    }

    fn acks(&self, ack: Ack) -> u64 {
        self.runs.iter().map(|r| r.acks[ack as usize]).sum()
    }
}

/// Drives every connection for `length`, one thread each.
fn window(conns: &mut [Conn], spec: &LiveSpec, length: Duration, traced: bool) -> Window {
    let t0 = Instant::now();
    let deadline = t0 + length;
    let (runs, allocs) = alloc::count_if(traced, || drive_all(conns, spec, deadline, traced));
    Window {
        runs,
        elapsed: t0.elapsed(),
        allocs,
    }
}

fn drive_all(conns: &mut [Conn], spec: &LiveSpec, deadline: Instant, traced: bool) -> Vec<ConnRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, c)| scope.spawn(move || drive(c, i, spec, deadline, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// What the server-side replay measured.
struct Replay {
    records: u64,
    snapshot_bytes: u64,
}

/// Replays the recorded request stream in process: decode and dispatch
/// every request against a fresh copy of the served store, and on
/// `live_write` journal each mutation and compact as often as the server
/// checkpointed during the traced window.
fn replay(
    sent: &[Vec<u8>],
    journal: Option<PathBuf>,
    compactions: usize,
    spans: &mut Spans,
) -> io::Result<Replay> {
    let mut store = served_app().store().clone();
    let policy = MatchPolicy::Exact;
    let mut journal = match journal {
        Some(path) => {
            let (mut j, _) = StoreJournal::open(path)?;
            j.compact(&store)?;
            Some(j)
        }
        None => None,
    };
    let compact_every = (sent.len() / compactions.max(1)).max(1) as u64;
    let mut records = 0u64;
    for (i, payload) in sent.iter().enumerate() {
        let now = SimTime::from_micros(i as u64);
        let req = spans.time("replay.dispatch", |_| {
            let req = Request::decode_exact(payload).expect("recorded requests decode");
            black_box(handle_request(&mut store, &policy, &req, now));
            req
        });
        let Some(j) = journal.as_mut().filter(|_| req.is_mutation()) else {
            continue;
        };
        spans.time("replay.journal_append", |_| j.append(&req, now))?;
        records += 1;
        if records.is_multiple_of(compact_every) {
            spans.time("replay.compact", |_| j.compact(&store))?;
        }
    }
    let snapshot_bytes = match &journal {
        Some(j) => fs::metadata(j.path())?.len(),
        None => 0,
    };
    Ok(Replay {
        records,
        snapshot_bytes,
    })
}

/// `live_write`'s durability check: the journal replayed after shutdown
/// must equal the store the server returned, and bob's comments and
/// messages must equal the acknowledged writes.
fn durability(
    path: &Path,
    app: &CommunityApp,
    comments: u64,
    messages: u64,
    tamper: bool,
) -> Result<(), String> {
    let err = |e: io::Error| format!("journal: {e}");
    if tamper {
        let (mut j, _) = StoreJournal::open(path).map_err(err)?;
        let forged = Request::AddProfileComment {
            member: MEMBER.into(),
            author: "intruder".into(),
            comment: "never acknowledged".into(),
        };
        j.append(&forged, SimTime::ZERO).map_err(err)?;
    }
    let (_, replayed) = StoreJournal::open(path).map_err(err)?;
    if replayed != *app.store() {
        return Err("the replayed journal differs from the served store".into());
    }
    let account = replayed.account(MEMBER).ok_or("bob is missing")?;
    let kept = (
        account.profile().comments.len() as u64,
        account.mailbox.inbox().len() as u64,
    );
    if kept != (comments, messages) {
        return Err(format!(
            "journal kept {} comments and {} messages, {comments} and {messages} were acknowledged",
            kept.0, kept.1
        ));
    }
    Ok(())
}

/// The live workloads.
pub fn live(spec: &LiveSpec, opts: &RunOpts) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dir = opts.work_dir.join(format!("live-{}", std::process::id()));
    fs::create_dir_all(&dir)?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let conns = nproc.min(2);

    let mut setups = Vec::new();
    let journal = |name: &str| spec.write.then(|| dir.join(format!("{name}.journal")));
    for k in 0..SETUP_SAMPLES * SETUPS_PER_SAMPLE - 1 {
        let t = Instant::now();
        let served = boot(journal(&format!("setup-{k}")), conns)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(served.conns);
        served.server.shutdown();
    }
    let mut spans = Spans::new(opts.traced);
    let t = Instant::now();
    let mut served = spans.time("setup", |_| boot(journal("store"), conns))?;
    setups.push(t.elapsed().as_secs_f64());
    let setup_samples: Vec<f64> = setups
        .chunks(SETUPS_PER_SAMPLE)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();

    // A traced run measures half its time untraced (the overhead baseline)
    // and half traced.
    let (base, main) = if opts.traced {
        let half = opts.seconds / 2;
        let base = window(&mut served.conns, spec, half, false);
        let traced = spans.time("run", |_| window(&mut served.conns, spec, half, true));
        (Some(base), traced)
    } else {
        (None, window(&mut served.conns, spec, opts.seconds, false))
    };
    let stats = served.server.stats();
    drop(std::mem::take(&mut served.conns));
    let app = served.server.shutdown();

    let windows: Vec<&Window> = base.iter().chain([&main]).collect();
    for w in &windows {
        for r in &w.runs {
            out.attempted += r.attempted;
            if let Some(why) = &r.failure {
                out.fail(1, why.clone());
            }
        }
    }
    if let Some(path) = &served.journal {
        let comments: u64 = windows.iter().map(|w| w.acks(Ack::Comment)).sum();
        let messages: u64 = windows.iter().map(|w| w.acks(Ack::Message)).sum();
        let tamper = opts.inject == Some(Inject::Journal);
        if let Err(why) = durability(path, &app, comments, messages, tamper) {
            out.fail(comments + messages, format!("durability: {why}"));
        }
    }

    let m = &mut out.metrics;
    if let Some(base) = &base {
        for r in &main.runs {
            spans.merge(&r.spans);
        }
        let sent: Vec<Vec<u8>> = main
            .runs
            .iter()
            .flat_map(|r| r.sent.iter().cloned())
            .collect();
        let checkpoints =
            (opts.seconds.as_secs_f64() / 2.0 / SNAPSHOT_CADENCE.as_secs_f64()).round() as usize;
        let rep = replay(&sent, journal("replay"), checkpoints.max(1), &mut spans)?;
        live_layers(m, &main, &spans, &rep);
        m.set(
            "trace_overhead_ratio",
            ratio(median(&main.blocks_s()), median(&base.blocks_s())) - 1.0,
        );
        for (name, v) in [
            ("peerhood.live.frames_in", stats.frames_in),
            ("peerhood.live.frames_out", stats.frames_out),
            ("peerhood.live.bytes_in", stats.bytes_in),
            ("peerhood.live.bytes_out", stats.bytes_out),
            ("peerhood.live.shed", stats.shed),
            ("peerhood.live.idle_closed", stats.idle_closed),
            ("peerhood.live.handshake_failures", stats.handshake_failures),
        ] {
            m.set(name, v as f64);
        }
        latency_metrics(m, main.latencies_ms(), true);
        span_metrics(m, &spans);
    } else {
        m.set("wall_s", median(&main.blocks_s()));
        m.set("setup_s", median(&setup_samples));
        m.set("peak_rss_mb", peak_rss_mb());
        m.set(
            "throughput_per_s",
            main.responses() as f64 / main.elapsed.as_secs_f64(),
        );
        latency_metrics(m, main.latencies_ms(), false);
    }
    out.info.push(("connections", Json::from(conns)));
    out.info.push(("block_round_trips", Json::from(spec.block)));
    out.info.push(("responses", Json::from(main.responses())));
    out.info.push((
        "acknowledged_writes",
        Json::from(main.acks(Ack::Comment) + main.acks(Ack::Message)),
    ));
    fs::remove_dir_all(&dir)?;
    Ok(out)
}

/// Per-layer shares of the traced window: each layer's time over the total
/// time clients waited for the same requests. The reactor's share is what
/// the client-side codec and the server-side replay do not account for:
/// sockets, shard naps and channel hand-offs.
fn live_layers(m: &mut Metrics, w: &Window, spans: &Spans, rep: &Replay) {
    let wait: f64 = w.latencies_ms().iter().sum::<f64>() / 1e3;
    let share = |name: &str| ratio(spans.get(name).self_time.as_secs_f64(), wait);
    let parts = [
        ("codec.encode_share", share("client.encode")),
        ("codec.decode_share", share("client.decode")),
        ("community.dispatch_share", share("replay.dispatch")),
        (
            "community.journal.append_share",
            share("replay.journal_append"),
        ),
        ("community.journal.compact_share", share("replay.compact")),
    ];
    let mut accounted = 0.0;
    for (name, v) in parts {
        m.set(name, v);
        accounted += v;
    }
    m.set("peerhood.live.reactor_share", 1.0 - accounted);
    let responses = w.responses() as f64;
    let bytes = |f: fn(&ConnRun) -> u64| w.runs.iter().map(f).sum::<u64>() as f64;
    m.set(
        "codec.request_bytes",
        ratio(bytes(|r| r.request_bytes), responses),
    );
    m.set(
        "codec.response_bytes",
        ratio(bytes(|r| r.response_bytes), responses),
    );
    m.set("community.journal.records", rep.records as f64);
    m.set(
        "community.journal.snapshot_bytes",
        rep.snapshot_bytes as f64,
    );
    m.set("alloc.per_request", ratio(w.allocs as f64, responses));
}
