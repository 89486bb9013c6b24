//! The live reactor: a non-blocking TCP daemon around the sans-IO core
//! that serves thin clients and dials its neighbors.
//!
//! # Architecture
//!
//! [`LiveServer`] splits work across `1 + listen_shards` threads:
//!
//! * **Shard threads** (`ph-live-shard-N`) each own a clone of the
//!   non-blocking listener (accepts spread across shards) plus a disjoint
//!   set of connections, accepted or dialed. A shard does *only* socket
//!   work: accept, dial, read, frame-reassemble, write — never application
//!   logic — so one shard round stays short and no peer can block another
//!   with slow reads or writes.
//! * The **core thread** (`ph-live-core`) owns the [`Daemon`] state
//!   machine, the served [`Application`], its [`Library`] and timers. It
//!   sleeps on a channel of batched messages (from its shards, from
//!   neighbor cores and from [`LiveServer::with_app`]) with a timeout
//!   derived from the next daemon wake / app timer / checkpoint deadline.
//!
//! The split keeps the daemon core single-threaded (exactly like the
//! simulator driver) while socket readiness is handled concurrently — the
//! sans-IO contract is the channel protocol between the two halves.
//!
//! # Neighbors
//!
//! Every server is listed in a [`Directory`] of `(device, name, listen
//! address, core channel)`. A standalone server's directory holds only
//! itself, so its inquiries complete empty and its dials and service
//! queries fail: thin clients are neither discoverable nor dialable. The
//! servers of one [`LiveNet`](super::LiveNet) share a directory: an
//! inquiry answers with the other members, service queries and replies
//! travel from core to core, and `OpenConnection` makes a shard dial the
//! peer's listener. The first frame back is the verdict; from then on the
//! dialed link is an ordinary connection with the same queue cap, shedding
//! and deadlines as an accepted one.
//!
//! # Backpressure contract
//!
//! Every connection has a bounded outbound byte queue
//! ([`LiveConfig::queue_cap`]). A write that does not fit is never
//! retried synchronously and never blocks the shard: the connection is
//! **shed** — its queue is dropped and a farewell control frame carrying
//! [`ErrorKind::Overloaded`] is sent as soon as the socket drains. Idle
//! connections (no inbound traffic for [`LiveConfig::idle_timeout`]) are
//! closed the same way with [`ErrorKind::Timeout`]. In both cases the
//! daemon observes a plain `LinkDown`, exactly as if the radio had faded.
//!
//! A closing connection flushes its queue, half-closes its write side and
//! discards input until the peer's EOF or [`FAREWELL_LINGER`]: closing a
//! socket with unread input makes the kernel reset the connection, which
//! would destroy the farewell in flight.
//!
//! # Persistence
//!
//! The reactor itself is store-agnostic: a [`LivePersist`] hook sees every
//! inbound application frame (for incremental append) and is asked for a
//! checkpoint every [`LiveConfig::snapshot_cadence`] plus once at orderly
//! shutdown. The community layer implements the hook with its journal.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use codec::{Bytes, Wire};

use netsim::{SimTime, Technology};

use crate::app::{AppCtx, Application};
use crate::config::DaemonConfig;
use crate::daemon::{Daemon, DaemonInput, DaemonOutput};
use crate::error::ErrorKind;
use crate::library::Library;
use crate::plugin::{PluginCommand, PluginEvent};
use crate::service::ServiceInfo;
use crate::types::{AttemptId, DeviceId, DeviceInfo, LinkId};

use super::config::LiveConfig;
use super::wire::{
    farewell, frame, parse_farewell, FrameBuf, Handshake, VERDICT_ACCEPT, VERDICT_REJECT,
};

/// Upper bits of a connection id hold the owning shard index.
const SHARD_SHIFT: u32 = 48;
/// How long a dying connection may linger to flush its farewell frame and
/// wait for the peer's EOF. Generous on purpose: a shed client's kernel
/// buffers are by definition full, and the farewell is only observable
/// once the client drains them.
const FAREWELL_LINGER: Duration = Duration::from_secs(5);
/// Longest core-thread sleep (bounds shutdown latency).
const CORE_NAP_MAX: Duration = Duration::from_millis(25);
/// Shard sleep while its sockets are quiet.
const SHARD_NAP: Duration = Duration::from_millis(1);

/// Persistence hook driven by the reactor's core thread.
///
/// `record` sees every inbound application frame *before* it reaches the
/// daemon (incremental append: the implementation decides which frames are
/// mutations worth journalling); `checkpoint` is invoked every
/// [`LiveConfig::snapshot_cadence`] and once at orderly shutdown, and
/// typically rewrites the journal as a compact snapshot.
pub trait LivePersist<A>: Send {
    /// Observes one inbound application frame at `now`.
    fn record(&mut self, frame: &[u8], now: SimTime);
    /// Takes a full snapshot of the served application's state.
    fn checkpoint(&mut self, app: &A);
}

/// A point-in-time copy of the reactor's counters (all monotonic except
/// `active`, which is a gauge).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Sockets accepted since start.
    pub accepted: u64,
    /// Currently open connections (any state).
    pub active: u64,
    /// Sockets dropped before completing a valid handshake.
    pub handshake_failures: u64,
    /// Handshakes the daemon rejected (unknown service, …).
    pub rejected: u64,
    /// Application frames received on established connections.
    pub frames_in: u64,
    /// Application frames the daemon sent.
    pub frames_out: u64,
    /// Payload bytes read from sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Connections shed by backpressure ([`ErrorKind::Overloaded`]).
    pub shed: u64,
    /// Connections closed for inbound idleness ([`ErrorKind::Timeout`]).
    pub idle_closed: u64,
}

/// Shared atomic counters behind [`LiveStats`]. SeqCst everywhere: these
/// are low-rate bumps, and the strict ordering keeps `ph-lint` honest.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    active: AtomicU64,
    handshake_failures: AtomicU64,
    rejected: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    shed: AtomicU64,
    idle_closed: AtomicU64,
}

impl Counters {
    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::SeqCst);
    }

    fn snapshot(&self) -> LiveStats {
        LiveStats {
            accepted: self.accepted.load(Ordering::SeqCst),
            active: self.active.load(Ordering::SeqCst),
            handshake_failures: self.handshake_failures.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            frames_in: self.frames_in.load(Ordering::SeqCst),
            frames_out: self.frames_out.load(Ordering::SeqCst),
            bytes_in: self.bytes_in.load(Ordering::SeqCst),
            bytes_out: self.bytes_out.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            idle_closed: self.idle_closed.load(Ordering::SeqCst),
        }
    }
}

/// A closure run against the application on the core thread.
type AppCall<A> = Box<dyn FnOnce(&mut A, &mut AppCtx<'_>) + Send>;

/// Messages to a core thread, batched one `Vec` per sender round: from its
/// shards, from neighbor cores and from [`LiveServer::with_app`].
pub(super) enum CoreMsg<A> {
    /// A socket completed its handshake frame.
    Hello { conn: u64, hs: Handshake },
    /// An application frame arrived on an established connection.
    Frame { conn: u64, payload: Vec<u8> },
    /// The connection is gone (announced connections only).
    Gone { conn: u64, cause: GoneCause },
    /// A dial finished: the established connection, or why it failed.
    Dialed {
        attempt: AttemptId,
        result: Result<u64, String>,
    },
    /// A neighbor asks for our services.
    ServiceQuery { from: DeviceId },
    /// A neighbor answers our service query.
    ServiceReply {
        from: DeviceId,
        services: Vec<ServiceInfo>,
    },
    /// Run a closure against the application.
    Call(AppCall<A>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum GoneCause {
    /// Orderly EOF from the peer.
    Eof,
    /// Socket error, framing violation or farewell from the peer.
    Error,
    /// Shed by backpressure.
    Shed,
    /// Closed for inbound idleness, or a handshake past its deadline.
    Idle,
}

/// One server's entry in a [`Directory`].
pub(super) struct Member<A> {
    pub(super) id: DeviceId,
    pub(super) name: String,
    pub(super) addr: SocketAddr,
    pub(super) core: Sender<Vec<CoreMsg<A>>>,
}

/// The servers that can discover, query and dial each other (see the
/// [module docs](self)).
pub(super) type Directory<A> = Arc<Mutex<Vec<Member<A>>>>;

/// Locks a directory. Entries are plain data, so a panic elsewhere cannot
/// leave them torn and a poisoned lock is still usable.
pub(super) fn listed<A>(dir: &Directory<A>) -> MutexGuard<'_, Vec<Member<A>>> {
    dir.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Core → shard commands (batched: one `Vec` per core round).
enum ShardCmd {
    /// Connect to a neighbor's listener and send it `hello`.
    Dial {
        attempt: AttemptId,
        addr: SocketAddr,
        hello: Vec<u8>,
    },
    /// Answer a pending handshake.
    Verdict {
        conn: u64,
        accept: bool,
        reason: String,
    },
    /// Queue one application frame for the peer.
    Send { conn: u64, payload: Vec<u8> },
    /// Orderly close: flush what is queued, then drop.
    Close { conn: u64 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Accepted; waiting for the handshake frame.
    Greeting,
    /// Handshake forwarded to the core; awaiting the daemon's verdict.
    AwaitingVerdict,
    /// Dialed; our handshake is queued and the peer's first frame is its
    /// verdict.
    Dialing { attempt: AttemptId },
    /// Verdict sent or received, application traffic flowing.
    Established,
    /// Flushing final bytes, then waiting for the peer's EOF; input is
    /// discarded.
    Dying { deadline: Instant },
}

struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    /// Outbound frames not yet fully written; `front_off` bytes of the
    /// front one already went out.
    out: VecDeque<Vec<u8>>,
    front_off: usize,
    /// Total unwritten bytes across `out` — the backpressure gauge.
    queued: usize,
    state: ConnState,
    /// Set once the write side is shut down after the final flush.
    write_shut: bool,
    opened: Instant,
    last_in: Instant,
}

impl Conn {
    fn new(stream: TcpStream, state: ConnState) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let now = Instant::now();
        Ok(Conn {
            stream,
            inbuf: FrameBuf::new(),
            out: VecDeque::new(),
            front_off: 0,
            queued: 0,
            state,
            write_shut: false,
            opened: now,
            last_in: now,
        })
    }

    fn push(&mut self, msg: Vec<u8>) {
        self.queued += msg.len();
        self.out.push_back(msg);
    }

    fn die(&mut self) {
        self.state = ConnState::Dying {
            deadline: Instant::now() + FAREWELL_LINGER,
        };
    }

    /// Drops the queued output, queues a farewell carrying `kind` and
    /// starts dying. A partly written front frame is kept whole: cutting
    /// it would land the farewell in the middle of a frame.
    fn close_with(&mut self, kind: ErrorKind) {
        self.out.truncate(usize::from(self.front_off > 0));
        self.queued = self.out.front().map_or(0, |f| f.len() - self.front_off);
        self.push(frame(&farewell(kind)));
        self.die();
    }

    /// Reads everything available; `Ok(true)` on orderly EOF. A dying
    /// connection discards what it reads.
    fn read_pump(&mut self, counters: &Counters) -> io::Result<bool> {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    if !matches!(self.state, ConnState::Dying { .. }) {
                        self.inbuf.extend(&tmp[..n]);
                    }
                    self.last_in = Instant::now();
                    counters.bytes_in.fetch_add(n as u64, Ordering::SeqCst);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes as much queued output as the socket accepts right now.
    fn write_pump(&mut self, counters: &Counters) -> io::Result<()> {
        loop {
            let (len, res) = match self.out.front() {
                None => break,
                Some(front) => (front.len(), self.stream.write(&front[self.front_off..])),
            };
            match res {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.front_off += n;
                    self.queued -= n;
                    counters.bytes_out.fetch_add(n as u64, Ordering::SeqCst);
                    if self.front_off == len {
                        self.out.pop_front();
                        self.front_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One round of socket work. `Ok(active)` keeps the connection and
    /// says whether anything happened; `Err(cause)` means drop it now.
    fn service<A>(
        &mut self,
        id: u64,
        counters: &Counters,
        (handshake_timeout, idle_timeout): (Duration, Duration),
        msgs: &mut Vec<CoreMsg<A>>,
    ) -> Result<bool, GoneCause> {
        if let ConnState::Dying { deadline } = self.state {
            return self.linger(deadline, counters);
        }
        let eof = self.read_pump(counters).map_err(|_| GoneCause::Error)?;
        let mut active = false;
        // Early frames stay buffered until the verdict.
        while !matches!(
            self.state,
            ConnState::AwaitingVerdict | ConnState::Dying { .. }
        ) {
            let f = match self.inbuf.pop() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                // An oversized length claim: the stream offset is
                // unrecoverable.
                Err(_) => return Err(self.broken(counters)),
            };
            active = true;
            match self.state {
                ConnState::Greeting => {
                    let hs = Handshake::decode_exact(&f).map_err(|_| self.broken(counters))?;
                    self.state = ConnState::AwaitingVerdict;
                    msgs.push(CoreMsg::Hello { conn: id, hs });
                }
                ConnState::Dialing { attempt } if f.first() == Some(&VERDICT_ACCEPT) => {
                    self.state = ConnState::Established;
                    self.last_in = Instant::now();
                    msgs.push(CoreMsg::Dialed {
                        attempt,
                        result: Ok(id),
                    });
                }
                ConnState::Dialing { attempt } => {
                    let reason = String::from_utf8_lossy(f.get(1..).unwrap_or_default());
                    msgs.push(CoreMsg::Dialed {
                        attempt,
                        result: Err(reason.into_owned()),
                    });
                    self.die();
                }
                // A neighbor's farewell ends the link like a fade.
                _ if parse_farewell(&f).is_some() => return Err(GoneCause::Error),
                _ => {
                    Counters::bump(&counters.frames_in);
                    msgs.push(CoreMsg::Frame {
                        conn: id,
                        payload: f,
                    });
                }
            }
        }
        if eof {
            return Err(GoneCause::Eof);
        }

        match self.state {
            ConnState::Greeting | ConnState::AwaitingVerdict | ConnState::Dialing { .. }
                if self.opened.elapsed() >= handshake_timeout =>
            {
                Counters::bump(&counters.handshake_failures);
                return Err(GoneCause::Idle);
            }
            ConnState::Established if self.last_in.elapsed() >= idle_timeout => {
                self.close_with(ErrorKind::Timeout);
                Counters::bump(&counters.idle_closed);
                msgs.push(CoreMsg::Gone {
                    conn: id,
                    cause: GoneCause::Idle,
                });
                active = true;
            }
            _ => {}
        }

        // Flush queued output. A failed write is a dead socket.
        let had_out = !self.out.is_empty();
        self.write_pump(counters).map_err(|_| GoneCause::Error)?;
        Ok(active || had_out)
    }

    /// A framing or handshake violation; counted when the handshake had
    /// not completed yet.
    fn broken(&self, counters: &Counters) -> GoneCause {
        if self.state != ConnState::Established {
            Counters::bump(&counters.handshake_failures);
        }
        GoneCause::Error
    }

    /// A dying connection's round: flush, then half-close and discard
    /// input until the peer's EOF or the deadline.
    fn linger(&mut self, deadline: Instant, counters: &Counters) -> Result<bool, GoneCause> {
        if Instant::now() >= deadline {
            return Err(GoneCause::Idle);
        }
        self.write_pump(counters).map_err(|_| GoneCause::Error)?;
        if !self.out.is_empty() {
            return Ok(false);
        }
        if !self.write_shut {
            self.write_shut = true;
            let _ = self.stream.shutdown(Shutdown::Write);
        }
        match self.read_pump(counters) {
            Ok(false) => Ok(false),
            Ok(true) | Err(_) => Err(GoneCause::Eof),
        }
    }

    /// What the core must hear when this connection is dropped.
    fn lost<A>(&self, id: u64, cause: GoneCause) -> Option<CoreMsg<A>> {
        match self.state {
            ConnState::Greeting | ConnState::Dying { .. } => None,
            ConnState::AwaitingVerdict | ConnState::Established => {
                Some(CoreMsg::Gone { conn: id, cause })
            }
            ConnState::Dialing { attempt } => Some(CoreMsg::Dialed {
                attempt,
                result: Err(match cause {
                    GoneCause::Idle => "handshake timed out".into(),
                    _ => "connection lost during setup".into(),
                }),
            }),
        }
    }
}

/// Everything one shard thread needs.
struct Shard<A> {
    idx: u64,
    listener: TcpListener,
    conns: BTreeMap<u64, Conn>,
    next_id: u64,
    queue_cap: usize,
    idle_timeout: Duration,
    handshake_timeout: Duration,
    counters: Arc<Counters>,
    core_tx: Sender<Vec<CoreMsg<A>>>,
}

impl<A> Shard<A> {
    fn run(mut self, cmd_rx: Receiver<Vec<ShardCmd>>, stop: Arc<AtomicBool>) {
        while !stop.load(Ordering::SeqCst) {
            let mut msgs = Vec::new();
            let mut active = false;

            // 1. Apply core commands.
            loop {
                match cmd_rx.try_recv() {
                    Ok(batch) => {
                        active = true;
                        for cmd in batch {
                            self.apply(cmd, &mut msgs);
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }

            // 2. Accept new sockets.
            while let Ok((stream, _)) = self.listener.accept() {
                active = true;
                if let Ok(conn) = Conn::new(stream, ConnState::Greeting) {
                    self.insert(conn);
                    Counters::bump(&self.counters.accepted);
                }
            }

            // 3. Per-connection socket work.
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                active |= self.service(id, &mut msgs);
            }

            if !msgs.is_empty() {
                active = true;
                if self.core_tx.send(msgs).is_err() {
                    return;
                }
            }
            if !active {
                std::thread::sleep(SHARD_NAP);
            }
        }
    }

    fn insert(&mut self, conn: Conn) {
        let id = (self.idx << SHARD_SHIFT) | self.next_id;
        self.next_id += 1;
        self.conns.insert(id, conn);
        Counters::bump(&self.counters.active);
    }

    /// One round of socket work for one connection. Returns whether
    /// anything happened.
    fn service(&mut self, id: u64, msgs: &mut Vec<CoreMsg<A>>) -> bool {
        let Some(c) = self.conns.get_mut(&id) else {
            return false;
        };
        let deadlines = (self.handshake_timeout, self.idle_timeout);
        match c.service(id, &self.counters, deadlines, msgs) {
            Ok(active) => active,
            Err(cause) => {
                msgs.extend(c.lost(id, cause));
                if let Some(c) = self.conns.remove(&id) {
                    let _ = c.stream.shutdown(Shutdown::Both);
                    self.counters.active.fetch_sub(1, Ordering::SeqCst);
                }
                true
            }
        }
    }

    fn apply(&mut self, cmd: ShardCmd, msgs: &mut Vec<CoreMsg<A>>) {
        match cmd {
            ShardCmd::Dial {
                attempt,
                addr,
                hello,
            } => {
                let dialed = TcpStream::connect_timeout(&addr, self.handshake_timeout)
                    .and_then(|s| Conn::new(s, ConnState::Dialing { attempt }));
                match dialed {
                    Ok(mut conn) => {
                        conn.push(frame(&hello));
                        self.insert(conn);
                    }
                    Err(e) => msgs.push(CoreMsg::Dialed {
                        attempt,
                        result: Err(format!("tcp connect failed: {e}")),
                    }),
                }
            }
            ShardCmd::Verdict {
                conn,
                accept,
                reason,
            } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                if c.state != ConnState::AwaitingVerdict {
                    return;
                }
                if accept {
                    c.push(frame(&[VERDICT_ACCEPT]));
                    c.state = ConnState::Established;
                    c.last_in = Instant::now();
                } else {
                    let mut v = vec![VERDICT_REJECT];
                    v.extend_from_slice(reason.as_bytes());
                    c.push(frame(&v));
                    c.die();
                }
            }
            ShardCmd::Send { conn, payload } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                if c.state != ConnState::Established {
                    return; // already dying or mid-handshake: drop silently
                }
                let msg = frame(&payload);
                if self.queue_cap > 0 && c.queued + msg.len() > self.queue_cap {
                    // Backpressure: shed this peer rather than queue
                    // without bound or block the shard.
                    c.close_with(ErrorKind::Overloaded);
                    Counters::bump(&self.counters.shed);
                    msgs.push(CoreMsg::Gone {
                        conn,
                        cause: GoneCause::Shed,
                    });
                } else {
                    c.push(msg);
                }
            }
            ShardCmd::Close { conn } => {
                if let Some(c) = self.conns.get_mut(&conn) {
                    if !matches!(c.state, ConnState::Dying { .. }) {
                        c.die();
                    }
                }
            }
        }
    }
}

/// The core thread's state: daemon, application, library, timers.
struct Core<A> {
    id: DeviceId,
    dir: Directory<A>,
    daemon: Daemon,
    app: A,
    lib: Library,
    name: String,
    timers: Vec<(SimTime, u64)>,
    wake_at: Option<SimTime>,
    start: Instant,
    work: VecDeque<DaemonInput>,
    /// Outgoing command batch per shard, flushed once per round.
    cmds: Vec<Vec<ShardCmd>>,
    txs: Vec<Sender<Vec<ShardCmd>>>,
    counters: Arc<Counters>,
    persist: Option<Box<dyn LivePersist<A>>>,
}

impl<A: Application> Core<A> {
    fn new(
        config: &LiveConfig,
        member: (DeviceId, String),
        app: A,
        dir: Directory<A>,
        txs: Vec<Sender<Vec<ShardCmd>>>,
        counters: Arc<Counters>,
    ) -> Self {
        let (id, name) = member;
        let mut daemon_config = DaemonConfig::default()
            .with_inquiry_interval(Technology::Wlan, config.inquiry_interval)
            .with_neighbor_ttl(config.neighbor_ttl)
            .with_auto_service_discovery(config.auto_service_discovery);
        if let Some(policy) = config.recovery {
            daemon_config = daemon_config.with_recovery(policy);
        }
        let device = DeviceInfo::new(id, name.clone(), [Technology::Wlan]);
        Core {
            id,
            dir,
            daemon: Daemon::new(&device, daemon_config),
            app,
            lib: Library::new(),
            name,
            timers: Vec::new(),
            wake_at: Some(SimTime::ZERO),
            start: Instant::now(),
            work: VecDeque::new(),
            cmds: txs.iter().map(|_| Vec::new()).collect(),
            txs,
            counters,
            persist: None,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn run(mut self, rx: Receiver<Vec<CoreMsg<A>>>, cadence: Duration, stop: Arc<AtomicBool>) -> A {
        let mut next_checkpoint = self.persist.as_ref().map(|_| Instant::now() + cadence);

        self.app_callback(|app, ctx| app.on_start(ctx));
        self.run_work();
        self.flush();

        while !stop.load(Ordering::SeqCst) {
            match rx.recv_timeout(self.nap(next_checkpoint)) {
                Ok(batch) => {
                    self.ingest(batch);
                    // Soak up anything else already queued before working.
                    while let Ok(batch) = rx.try_recv() {
                        self.ingest(batch);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }

            let now = self.now();
            if self.wake_at.is_some_and(|w| now >= w) {
                self.wake_at = None;
                self.work.push_back(DaemonInput::Tick);
            }
            self.run_work();
            self.fire_timers();
            self.flush();

            if let Some(due) = next_checkpoint {
                if Instant::now() >= due {
                    if let Some(p) = self.persist.as_mut() {
                        p.checkpoint(&self.app);
                    }
                    next_checkpoint = Some(Instant::now() + cadence);
                }
            }
        }

        // Final checkpoint on orderly shutdown.
        if let Some(p) = self.persist.as_mut() {
            p.checkpoint(&self.app);
        }
        self.app
    }

    /// How long to sleep on the channel: until the next daemon wake, app
    /// timer or checkpoint, clamped to keep shutdown responsive.
    fn nap(&self, next_checkpoint: Option<Instant>) -> Duration {
        let now = self.now();
        let until =
            |at: SimTime| Duration::from_micros(at.as_micros().saturating_sub(now.as_micros()));
        let mut t = CORE_NAP_MAX;
        if let Some(w) = self.wake_at {
            t = t.min(until(w));
        }
        if let Some(at) = self.timers.iter().map(|(at, _)| *at).min() {
            t = t.min(until(at));
        }
        if let Some(due) = next_checkpoint {
            t = t.min(due.saturating_duration_since(Instant::now()));
        }
        t.max(Duration::from_micros(100))
    }

    fn plugin(&mut self, ev: PluginEvent) {
        self.work.push_back(DaemonInput::Plugin(ev));
    }

    fn ingest(&mut self, batch: Vec<CoreMsg<A>>) {
        for msg in batch {
            match msg {
                CoreMsg::Hello { conn, hs } => {
                    let name = self.peer(hs.from, |m| m.name.clone());
                    let name = name.unwrap_or_else(|| hs.from.to_string());
                    self.plugin(PluginEvent::IncomingConnection {
                        link: LinkId::new(conn),
                        device: DeviceInfo::new(hs.from, name, [Technology::Wlan]),
                        service: hs.service,
                        technology: Technology::Wlan,
                        resume: hs.resume,
                    });
                }
                CoreMsg::Frame { conn, payload } => {
                    let now = self.now();
                    if let Some(p) = self.persist.as_mut() {
                        p.record(&payload, now);
                    }
                    self.plugin(PluginEvent::Frame {
                        link: LinkId::new(conn),
                        payload: Bytes::from(payload),
                    });
                }
                CoreMsg::Gone { conn, cause } => {
                    let link = LinkId::new(conn);
                    self.plugin(match cause {
                        GoneCause::Eof => PluginEvent::PeerClosed { link },
                        GoneCause::Error | GoneCause::Shed | GoneCause::Idle => {
                            PluginEvent::LinkDown { link }
                        }
                    });
                }
                CoreMsg::Dialed { attempt, result } => {
                    self.plugin(PluginEvent::ConnectResult {
                        attempt,
                        result: result.map(LinkId::new),
                    });
                }
                CoreMsg::ServiceQuery { from } => {
                    self.plugin(PluginEvent::ServiceQuery { device: from });
                }
                CoreMsg::ServiceReply { from, services } => {
                    self.plugin(PluginEvent::ServiceReply {
                        device: from,
                        services,
                    });
                }
                CoreMsg::Call(f) => {
                    // The call sees every input that arrived before it.
                    self.run_work();
                    self.app_callback(f);
                }
            }
        }
    }

    /// Processes queued daemon inputs to quiescence.
    fn run_work(&mut self) {
        while let Some(input) = self.work.pop_front() {
            let now = self.now();
            let mut outs = Vec::new();
            self.daemon.handle(now, input, &mut outs);
            for out in outs {
                match out {
                    DaemonOutput::Plugin(cmd) => self.exec(cmd),
                    DaemonOutput::App(ev) => {
                        self.app_callback(|app, ctx| app.on_event(ev, ctx));
                    }
                    DaemonOutput::WakeAt(t) => {
                        self.wake_at = Some(self.wake_at.map_or(t, |w| w.min(t)));
                    }
                }
            }
        }
    }

    /// Fires due application timers (and any daemon work they enqueue).
    fn fire_timers(&mut self) {
        loop {
            let now = self.now();
            let (due, keep): (Vec<_>, Vec<_>) =
                self.timers.drain(..).partition(|(at, _)| now >= *at);
            self.timers = keep;
            if due.is_empty() {
                break;
            }
            for (_, token) in due {
                self.app_callback(|app, ctx| app.on_timer(token, ctx));
            }
            self.run_work();
        }
    }

    fn app_callback<R>(&mut self, f: impl FnOnce(&mut A, &mut AppCtx<'_>) -> R) -> R {
        let now = self.now();
        let mut timers = Vec::new();
        let r = {
            let mut ctx = AppCtx::new(now, &self.name, &mut self.lib, &mut timers);
            f(&mut self.app, &mut ctx)
        };
        self.timers.extend(timers);
        for req in self.lib.drain() {
            self.work.push_back(DaemonInput::App(req));
        }
        r
    }

    /// Runs `f` on the directory entry of neighbor `id` (never ourselves).
    fn peer<R>(&self, id: DeviceId, f: impl FnOnce(&Member<A>) -> R) -> Option<R> {
        let me = self.id;
        listed(&self.dir)
            .iter()
            .find(|m| m.id == id && m.id != me)
            .map(f)
    }

    /// Routes one daemon plugin command: discovery and service queries
    /// through the directory, connection commands to the shards.
    fn exec(&mut self, cmd: PluginCommand) {
        match cmd {
            PluginCommand::StartInquiry { technology } => {
                let me = self.id;
                let found: Vec<DeviceInfo> = listed(&self.dir)
                    .iter()
                    .filter(|m| m.id != me)
                    .map(|m| DeviceInfo::new(m.id, m.name.clone(), [Technology::Wlan]))
                    .collect();
                for device in found {
                    self.plugin(PluginEvent::InquiryResponse { technology, device });
                }
                self.plugin(PluginEvent::InquiryComplete { technology });
            }
            PluginCommand::QueryServices { device, .. } => {
                let from = self.id;
                let query = |m: &Member<A>| m.core.send(vec![CoreMsg::ServiceQuery { from }]);
                if !matches!(self.peer(device, query), Some(Ok(()))) {
                    self.plugin(PluginEvent::ServiceReply {
                        device,
                        services: Vec::new(),
                    });
                }
            }
            PluginCommand::ServiceQueryReply { device, services } => {
                let from = self.id;
                let reply = CoreMsg::ServiceReply { from, services };
                self.peer(device, |m| m.core.send(vec![reply]));
            }
            PluginCommand::OpenConnection {
                attempt,
                device,
                service,
                resume,
                ..
            } => match self.peer(device, |m| m.addr) {
                Some(addr) => {
                    let hs = Handshake {
                        from: self.id,
                        service,
                        resume,
                    };
                    let shard = attempt.raw() as usize % self.cmds.len();
                    self.cmds[shard].push(ShardCmd::Dial {
                        attempt,
                        addr,
                        hello: hs.encode(),
                    });
                }
                None => self.plugin(PluginEvent::ConnectResult {
                    attempt,
                    result: Err("live server cannot dial thin clients".into()),
                }),
            },
            PluginCommand::AcceptConnection { link } => self.cmd(
                link,
                ShardCmd::Verdict {
                    conn: link.raw(),
                    accept: true,
                    reason: String::new(),
                },
            ),
            PluginCommand::RejectConnection { link, reason } => {
                Counters::bump(&self.counters.rejected);
                self.cmd(
                    link,
                    ShardCmd::Verdict {
                        conn: link.raw(),
                        accept: false,
                        reason,
                    },
                );
            }
            PluginCommand::SendFrame { link, payload } => {
                Counters::bump(&self.counters.frames_out);
                self.cmd(
                    link,
                    ShardCmd::Send {
                        conn: link.raw(),
                        payload: payload.to_vec(),
                    },
                );
            }
            PluginCommand::CloseLink { link } => {
                self.cmd(link, ShardCmd::Close { conn: link.raw() });
            }
        }
    }

    fn cmd(&mut self, link: LinkId, cmd: ShardCmd) {
        let shard = (link.raw() >> SHARD_SHIFT) as usize;
        if let Some(batch) = self.cmds.get_mut(shard) {
            batch.push(cmd);
        }
    }

    fn flush(&mut self) {
        for (batch, tx) in self.cmds.iter_mut().zip(&self.txs) {
            if !batch.is_empty() {
                let _ = tx.send(std::mem::take(batch));
            }
        }
    }
}

/// A running live daemon: `listen_shards` socket threads plus one core
/// thread around the sans-IO [`Daemon`] and the served [`Application`].
///
/// Built from a [`LiveConfig`] via [`LiveServer::spawn`] (or
/// [`LiveConfig::serve`]), or as a member of a
/// [`LiveNet`](super::LiveNet); stopped with [`LiveServer::shutdown`],
/// which returns the application (with all the state it accumulated).
///
/// See the [`live`](super) module docs for an overview; the reactor model
/// and the backpressure/persistence contracts are documented in
/// `live/reactor.rs`.
pub struct LiveServer<A> {
    id: DeviceId,
    addr: SocketAddr,
    stats: Arc<Counters>,
    stop: Arc<AtomicBool>,
    dir: Directory<A>,
    core_tx: Sender<Vec<CoreMsg<A>>>,
    shards: Vec<JoinHandle<()>>,
    core: JoinHandle<A>,
}

impl<A: Application + Send + 'static> LiveServer<A> {
    /// Starts a server for `app` under `config`, with no persistence.
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener or spawning threads.
    pub fn spawn(config: LiveConfig, name: impl Into<String>, app: A) -> io::Result<Self> {
        Self::spawn_with(config, name, app, None)
    }

    /// Starts a server with an optional persistence hook (the hook's
    /// `record` sees every inbound frame; `checkpoint` runs every
    /// [`LiveConfig::snapshot_cadence`] and at shutdown).
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener or spawning threads.
    pub fn spawn_with(
        config: LiveConfig,
        name: impl Into<String>,
        app: A,
        persist: Option<Box<dyn LivePersist<A>>>,
    ) -> io::Result<Self> {
        let member = (DeviceId::new(0), name.into());
        Self::spawn_in(config, member, app, persist, Directory::default())
    }

    /// Starts a server as device `member.0` and lists it in `dir`.
    pub(super) fn spawn_in(
        config: LiveConfig,
        member: (DeviceId, String),
        app: A,
        persist: Option<Box<dyn LivePersist<A>>>,
        dir: Directory<A>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(config.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let counters = Arc::new(Counters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (core_tx, core_rx) = mpsc::channel();

        let mut shard_txs = Vec::new();
        let mut shards = Vec::new();
        for idx in 0..config.listen_shards.max(1) {
            let (tx, rx) = mpsc::channel();
            shard_txs.push(tx);
            let shard = Shard {
                idx: idx as u64,
                listener: listener.try_clone()?,
                conns: BTreeMap::new(),
                next_id: 0,
                queue_cap: config.queue_cap,
                idle_timeout: config.idle_timeout,
                handshake_timeout: config.handshake_timeout,
                counters: Arc::clone(&counters),
                core_tx: core_tx.clone(),
            };
            let stop = Arc::clone(&stop);
            shards.push(
                std::thread::Builder::new()
                    .name(format!("ph-live-shard-{idx}"))
                    .spawn(move || shard.run(rx, stop))?,
            );
        }

        let (id, name) = member;
        let mut core = Core::new(
            &config,
            (id, name.clone()),
            app,
            Arc::clone(&dir),
            shard_txs,
            Arc::clone(&counters),
        );
        core.persist = persist;
        let cadence = config.snapshot_cadence;
        let core_stop = Arc::clone(&stop);
        let core = std::thread::Builder::new()
            .name("ph-live-core".into())
            .spawn(move || core.run(core_rx, cadence, core_stop))?;

        listed(&dir).push(Member {
            id,
            name,
            addr,
            core: core_tx.clone(),
        });
        Ok(LiveServer {
            id,
            addr,
            stats: counters,
            stop,
            dir,
            core_tx,
            shards,
            core,
        })
    }

    /// Runs `f` against the served application on the core thread and
    /// returns its result. Requests `f` makes through the context run
    /// right after it, exactly as if an application callback made them.
    ///
    /// # Panics
    ///
    /// Panics if the core thread has died (an application panic).
    pub fn with_app<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut A, &mut AppCtx<'_>) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = mpsc::channel();
        let call: AppCall<A> = Box::new(move |app, ctx| {
            let _ = tx.send(f(app, ctx));
        });
        let sent = self.core_tx.send(vec![CoreMsg::Call(call)]);
        sent.ok()
            .and_then(|()| rx.recv().ok())
            .expect("live core thread died")
    }
}

impl<A> LiveServer<A> {
    /// The actual bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the serving counters.
    pub fn stats(&self) -> LiveStats {
        self.stats.snapshot()
    }

    /// Stops the reactor (final checkpoint included) and returns the
    /// served application with all its accumulated state.
    pub fn shutdown(self) -> A {
        listed(&self.dir).retain(|m| m.id != self.id);
        self.stop.store(true, Ordering::SeqCst);
        for h in self.shards {
            let _ = h.join();
        }
        self.core.join().expect("live core thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AppEvent;
    use crate::service::ServiceInfo;

    /// Echoes every frame back, prefixed with nothing — a 1:1 responder.
    #[derive(Default)]
    struct EchoApp {
        served: usize,
    }

    impl Application for EchoApp {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.peerhood().register_service(ServiceInfo::new("echo"));
        }

        fn on_event(&mut self, event: AppEvent, ctx: &mut AppCtx<'_>) {
            if let AppEvent::Data { conn, payload } = event {
                self.served += 1;
                ctx.peerhood().send(conn, payload);
            }
        }
    }

    /// A minimal blocking test client speaking the live wire protocol.
    struct TestClient {
        stream: TcpStream,
        buf: FrameBuf,
    }

    impl TestClient {
        fn connect(addr: SocketAddr, from: u64, service: &str) -> TestClient {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).unwrap();
            let mut c = TestClient {
                stream,
                buf: FrameBuf::new(),
            };
            let hs = Handshake {
                from: DeviceId::new(from),
                service: service.into(),
                resume: None,
            };
            c.send_raw(&hs.encode());
            c
        }

        fn send_raw(&mut self, payload: &[u8]) {
            self.stream.write_all(&frame(payload)).expect("write");
        }

        /// Blocks until one frame arrives (or the deadline passes).
        fn recv(&mut self, deadline: Duration) -> Option<Vec<u8>> {
            self.stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            let t0 = Instant::now();
            let mut tmp = [0u8; 4096];
            loop {
                if let Ok(Some(f)) = self.buf.pop() {
                    return Some(f);
                }
                if t0.elapsed() > deadline {
                    return None;
                }
                match self.stream.read(&mut tmp) {
                    Ok(0) => return self.buf.pop().ok().flatten(),
                    Ok(n) => self.buf.extend(&tmp[..n]),
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut => {}
                    Err(_) => return None,
                }
            }
        }
    }

    #[test]
    fn serves_echo_round_trip_and_counts() {
        let server =
            LiveServer::spawn(LiveConfig::default(), "reactor", EchoApp::default()).expect("spawn");
        let mut client = TestClient::connect(server.addr(), 1, "echo");
        let verdict = client.recv(Duration::from_secs(5)).expect("verdict");
        assert_eq!(verdict, vec![VERDICT_ACCEPT]);
        client.send_raw(b"ping over live tcp");
        let echo = client.recv(Duration::from_secs(5)).expect("echo");
        assert_eq!(echo, b"ping over live tcp");
        let stats = server.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.frames_in, 1);
        assert_eq!(stats.frames_out, 1);
        let app = server.shutdown();
        assert_eq!(app.served, 1);
    }

    #[test]
    fn rejects_unknown_service_with_reason() {
        let server =
            LiveServer::spawn(LiveConfig::default(), "reactor", EchoApp::default()).expect("spawn");
        let mut client = TestClient::connect(server.addr(), 1, "no-such-service");
        let verdict = client.recv(Duration::from_secs(5)).expect("verdict");
        assert_eq!(verdict.first(), Some(&VERDICT_REJECT));
        assert!(server.stats().rejected >= 1);
        server.shutdown();
    }

    #[test]
    fn idle_connection_gets_timeout_farewell() {
        let config = LiveConfig::default().with_idle_timeout(Duration::from_millis(200));
        let server = LiveServer::spawn(config, "reactor", EchoApp::default()).expect("spawn");
        let mut client = TestClient::connect(server.addr(), 1, "echo");
        assert_eq!(
            client.recv(Duration::from_secs(5)).expect("verdict"),
            vec![VERDICT_ACCEPT]
        );
        // Send nothing: the reactor must close us with a Timeout farewell.
        let farewell_frame = client.recv(Duration::from_secs(5)).expect("farewell");
        assert_eq!(parse_farewell(&farewell_frame), Some(ErrorKind::Timeout));
        assert_eq!(server.stats().idle_closed, 1);
        server.shutdown();
    }

    #[test]
    fn stalled_reader_is_shed_with_overloaded_farewell() {
        // Tiny queue cap: a client that never reads its echoes overflows
        // the bounded write queue almost immediately.
        let config = LiveConfig::default().with_queue_cap(2 * 1024);
        let server = LiveServer::spawn(config, "reactor", EchoApp::default()).expect("spawn");
        let mut stalled = TestClient::connect(server.addr(), 1, "echo");
        assert_eq!(
            stalled.recv(Duration::from_secs(5)).expect("verdict"),
            vec![VERDICT_ACCEPT]
        );
        // Pump big frames without ever reading: echoes pile up server-side.
        let blob = vec![0x42u8; 1024];
        let t0 = Instant::now();
        while server.stats().shed == 0 && t0.elapsed() < Duration::from_secs(10) {
            stalled.send_raw(&blob);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.stats().shed, 1, "stalled client must be shed");
        // The farewell is still delivered once we finally read.
        let mut last = None;
        while let Some(f) = stalled.recv(Duration::from_millis(500)) {
            last = Some(f);
            if parse_farewell(last.as_ref().unwrap()).is_some() {
                break;
            }
        }
        assert_eq!(
            last.as_deref().and_then(parse_farewell),
            Some(ErrorKind::Overloaded),
            "shed client must observe the Overloaded farewell"
        );
        server.shutdown();
    }

    #[test]
    fn shedding_keeps_a_partly_written_frame_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut c = Conn::new(listener.accept().unwrap().0, ConnState::Established).unwrap();
        let first: Vec<u8> = (0..=255).collect();
        c.push(frame(&first));
        c.push(frame(b"never sent"));
        // A short write: ten bytes of the front frame already went out.
        let written = (&c.stream).write(&c.out[0][..10]).unwrap();
        assert_eq!(written, 10);
        c.front_off = 10;
        c.queued -= 10;

        c.close_with(ErrorKind::Overloaded);
        let rest = first.len() + 4 - 10;
        assert_eq!(
            c.queued,
            rest + frame(&farewell(ErrorKind::Overloaded)).len()
        );
        c.write_pump(&Counters::default()).unwrap();
        assert!(c.out.is_empty() && c.queued == 0);

        // The peer decodes the rest of that frame, then the farewell.
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut frames = FrameBuf::new();
        let mut got = Vec::new();
        let mut tmp = [0u8; 1024];
        while got.len() < 2 {
            let n = peer.read(&mut tmp).unwrap();
            assert!(n > 0, "stream ended after {got:?}");
            frames.extend(&tmp[..n]);
            while let Some(f) = frames.pop().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got[0], first);
        assert_eq!(parse_farewell(&got[1]), Some(ErrorKind::Overloaded));
        assert!(frames.is_empty());
    }

    #[test]
    fn standalone_core_answers_inquiries_empty_and_fails_dials() {
        let dir = Directory::default();
        let (tx, _rx) = mpsc::channel();
        let member = (DeviceId::new(0), "solo".to_string());
        let counters = Arc::new(Counters::default());
        let config = LiveConfig::default();
        let mut core = Core::new(&config, member, EchoApp::default(), dir, vec![tx], counters);
        listed(&core.dir).push(Member {
            id: core.id,
            name: core.name.clone(),
            addr: SocketAddr::from(([127, 0, 0, 1], 1)),
            core: mpsc::channel().0,
        });
        let technology = Technology::Wlan;
        let device = DeviceId::new(7);
        core.exec(PluginCommand::StartInquiry { technology });
        core.exec(PluginCommand::QueryServices { device, technology });
        // Ourselves included: the directory never routes to its own entry.
        core.exec(PluginCommand::QueryServices {
            device: core.id,
            technology,
        });
        let attempt = AttemptId::new(3);
        core.exec(PluginCommand::OpenConnection {
            attempt,
            device,
            service: "echo".into(),
            technology,
            resume: None,
        });
        let work: Vec<_> = core.work.drain(..).collect();
        let expected = [
            PluginEvent::InquiryComplete { technology },
            PluginEvent::ServiceReply {
                device,
                services: Vec::new(),
            },
            PluginEvent::ServiceReply {
                device: core.id,
                services: Vec::new(),
            },
            PluginEvent::ConnectResult {
                attempt,
                result: Err("live server cannot dial thin clients".into()),
            },
        ];
        assert_eq!(work, expected.map(DaemonInput::Plugin));
        assert!(core.cmds.iter().all(Vec::is_empty), "nothing was dialed");
    }
}
