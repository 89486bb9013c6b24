//! The PeerHood Daemon state machine.
//!
//! The PHD is "an independent application which always runs on background and
//! keeps track of other wireless device discovery and service discovery in
//! those devices" (thesis §4.2.1). This implementation is *sans-IO*: the
//! daemon consumes [`DaemonInput`]s and appends [`DaemonOutput`]s, never
//! touching a socket or a clock itself. The deterministic simulator
//! ([`crate::sim`]) and the live TCP runtime ([`crate::live`]) both drive the
//! very same state machine.
//!
//! Responsibilities (Table 3 of the thesis):
//!
//! * **Device discovery** — periodic inquiry rounds per technology, feeding
//!   the [`NeighborTable`];
//! * **Service discovery** — SDP-style query/reply against remote daemons,
//!   cached per neighbor;
//! * **Service sharing** — the local [`ServiceRegistry`];
//! * **Connection establishment** — technology selection with fallback;
//! * **Data transmission** — frame relay between the application and links;
//! * **Active monitoring** — appearance/disappearance alerts;
//! * **Seamless connectivity** — transparent migration of live connections
//!   to another shared technology when a link drops.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use codec::Bytes;

use netsim::{SimTime, Technology};

use crate::api::{AppEvent, AppRequest};
use crate::config::DaemonConfig;
use crate::error::PeerHoodError;
use crate::neighbor::{NeighborTable, SightingOutcome};
use crate::plugin::{PluginCommand, PluginEvent};
use crate::service::ServiceRegistry;
use crate::techmap::TechMap;
use crate::types::{AttemptId, CloseReason, ConnId, DeviceId, DeviceInfo, LinkId, ResumeToken};

/// How long the responder side of a broken connection waits for the
/// initiator to resume it over another technology before giving up.
const HANDOVER_GRACE: Duration = Duration::from_secs(12);

/// An input to [`Daemon::handle`].
#[derive(Clone, Debug, PartialEq)]
pub enum DaemonInput {
    /// A timer tick; the daemon runs anything that has come due.
    Tick,
    /// A transport event from the driver.
    Plugin(PluginEvent),
    /// A request from the local application.
    App(AppRequest),
}

/// An output produced by [`Daemon::handle`].
#[derive(Clone, Debug, PartialEq)]
pub enum DaemonOutput {
    /// A command for the transport driver.
    Plugin(PluginCommand),
    /// An event for the local application.
    App(AppEvent),
    /// The daemon wants a [`DaemonInput::Tick`] no later than this instant.
    WakeAt(SimTime),
}

#[derive(Clone, Debug)]
struct InquiryState {
    running: bool,
    next_start: SimTime,
    interval: Duration,
}

#[derive(Clone, Debug)]
struct Conn {
    device: DeviceId,
    service: String,
    technology: Technology,
    link: Option<LinkId>,
    /// We opened this connection (only the initiator drives handover).
    initiator: bool,
    /// Token identifying the logical connection across handovers.
    resume: ResumeToken,
    /// Frames queued while a handover is in progress.
    buffer: Vec<Bytes>,
    handing_over: bool,
    /// Responder side: give up waiting for a resume at this time.
    limbo_deadline: Option<SimTime>,
}

#[derive(Clone, Debug)]
struct Attempt {
    device: DeviceId,
    service: String,
    technology: Technology,
    fallbacks: Vec<Technology>,
    purpose: AttemptPurpose,
    /// How many full retry rounds already failed before this attempt
    /// (0 on the first round; only ever nonzero with a recovery policy).
    tries: u32,
}

#[derive(Clone, Debug)]
enum AttemptPurpose {
    NewConnection,
    Handover { conn: ConnId, from: Technology },
}

/// A connect sequence waiting out its backoff before being relaunched.
#[derive(Clone, Debug)]
struct RetryConnect {
    device: DeviceId,
    service: String,
    purpose: AttemptPurpose,
    /// Retry round about to run (1 = first retry).
    tries: u32,
}

/// Deadline state of one outstanding remote service-list query.
#[derive(Copy, Clone, Debug)]
struct QueryDeadline {
    at: SimTime,
    tries: u32,
}

/// Counters for the optional [`RecoveryPolicy`](crate::RecoveryPolicy): how often the daemon
/// timed out, retried, gave up or recovered. All zero — and the trace
/// digest untouched — when no recovery policy is configured.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Operations relaunched after a failure (connects and queries).
    pub retries: u64,
    /// Deadlines that expired (connect attempts and service queries).
    pub timeouts: u64,
    /// Operations abandoned after exhausting every retry.
    pub gave_up: u64,
    /// Operations that ultimately succeeded *after* at least one retry,
    /// plus stale-cache service lists served in place of a dead query.
    pub resumed: u64,
}

/// The daemon's connection and recovery bookkeeping. Boxed out of
/// [`Daemon`] behind [`LazyTables`] and created on the first connect or
/// service-list request: most crowd daemons never do either, and inline
/// these eight maps took 192 bytes of every node.
#[derive(Debug, Default)]
struct ConnTables {
    conns: BTreeMap<ConnId, Conn>,
    link_index: BTreeMap<LinkId, ConnId>,
    attempts: BTreeMap<AttemptId, Attempt>,
    resume_index: BTreeMap<ResumeToken, ConnId>,
    pending_service_queries: BTreeMap<DeviceId, u32>,
    /// Per-attempt give-up instants (populated only with a recovery policy).
    attempt_deadlines: BTreeMap<AttemptId, SimTime>,
    /// Connect sequences sleeping through their backoff, by wake time.
    pending_retries: BTreeMap<SimTime, Vec<RetryConnect>>,
    /// Give-up instants for outstanding service queries (recovery only).
    query_deadlines: BTreeMap<DeviceId, QueryDeadline>,
}

/// What [`LazyTables::get`] reads before the tables exist.
static NO_TABLES: ConnTables = ConnTables {
    conns: BTreeMap::new(),
    link_index: BTreeMap::new(),
    attempts: BTreeMap::new(),
    resume_index: BTreeMap::new(),
    pending_service_queries: BTreeMap::new(),
    attempt_deadlines: BTreeMap::new(),
    pending_retries: BTreeMap::new(),
    query_deadlines: BTreeMap::new(),
};

/// [`ConnTables`], allocated on first write. A wrapper rather than methods
/// on [`Daemon`] so that a borrow of the tables leaves the daemon's other
/// fields free.
#[derive(Debug, Default)]
struct LazyTables(Option<Box<ConnTables>>);

impl LazyTables {
    /// The tables, or empty ones if nothing was ever written.
    fn get(&self) -> &ConnTables {
        self.0.as_deref().unwrap_or(&NO_TABLES)
    }

    /// The tables, if they were ever written.
    fn existing(&self) -> Option<&ConnTables> {
        self.0.as_deref()
    }

    /// The tables for a removal, which needs no tables to exist.
    fn existing_mut(&mut self) -> Option<&mut ConnTables> {
        self.0.as_deref_mut()
    }

    /// The tables for an insertion, created on first use.
    fn get_mut(&mut self) -> &mut ConnTables {
        self.0.get_or_insert_with(Box::default)
    }
}

/// The PeerHood Daemon.
///
/// Drive it by calling [`Daemon::handle`] with each input; it appends
/// outputs to the vector you pass. See the module docs for the execution
/// model and [`crate::sim::Cluster`] for a ready-made driver.
#[derive(Debug)]
pub struct Daemon {
    /// The local device: the one part of the configuration that differs
    /// between the daemons of a crowd.
    id: DeviceId,
    /// Possibly shared with other daemons (see
    /// [`Daemon::with_shared_config`]); its `device` is not read after
    /// construction.
    config: Arc<DaemonConfig>,
    services: ServiceRegistry,
    neighbors: NeighborTable,
    monitors: BTreeSet<DeviceId>,
    inquiries: TechMap<InquiryState>,
    tables: LazyTables,
    recovery_stats: RecoveryStats,
    /// Whether the one-shot [`AppEvent::GossipEnabled`] announcement has
    /// been emitted (only relevant when the config carries a gossip layer).
    gossip_announced: bool,
    next_conn: u64,
    next_attempt: u64,
}

// One per simulated device. The configuration is shared across a crowd
// and only the device id is kept per daemon, which took this from 504 to
// 248 bytes: ~25 MiB of the `crowd_100k` heap, ~250 MiB at 1M nodes.
const _: () = assert!(std::mem::size_of::<Daemon>() <= 256);

impl Daemon {
    /// Creates a daemon with the given configuration.
    pub fn new(config: DaemonConfig) -> Self {
        let device = config.device.clone();
        Daemon::with_shared_config(&device, Arc::new(config))
    }

    /// Creates the daemon of `device` from a configuration other daemons
    /// may share: everything but `config.device`, which is ignored, applies.
    pub(crate) fn with_shared_config(device: &DeviceInfo, config: Arc<DaemonConfig>) -> Self {
        let inquiries = config
            .inquiry_interval
            .iter()
            .filter(|(tech, _)| device.technologies.contains(*tech))
            .map(|(tech, interval)| {
                (
                    tech,
                    InquiryState {
                        running: false,
                        next_start: SimTime::ZERO,
                        interval: *interval,
                    },
                )
            })
            .collect();
        Daemon {
            id: device.id,
            config,
            services: ServiceRegistry::new(),
            neighbors: NeighborTable::new(),
            monitors: BTreeSet::new(),
            inquiries,
            tables: LazyTables::default(),
            recovery_stats: RecoveryStats::default(),
            gossip_announced: false,
            next_conn: 0,
            next_attempt: 0,
        }
    }

    /// The daemon's own device identity.
    pub fn device_id(&self) -> DeviceId {
        self.id
    }

    /// Read access to the current neighbor table (for drivers, tests and
    /// diagnostics; applications use [`AppRequest::GetDeviceList`]).
    pub fn neighbors(&self) -> &NeighborTable {
        &self.neighbors
    }

    /// Read access to the local service registry.
    pub fn services(&self) -> &ServiceRegistry {
        &self.services
    }

    /// Number of currently open connections.
    pub fn connection_count(&self) -> usize {
        self.tables.get().conns.len()
    }

    /// Counters of the recovery machinery (all zero without a
    /// [`RecoveryPolicy`](crate::RecoveryPolicy)).
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery_stats
    }

    /// Simulates a daemon process crash-and-restart: every connection
    /// closes (the application is told), all soft state — neighbors,
    /// in-flight attempts, pending queries — is forgotten, and discovery
    /// restarts from scratch at the next tick. The service registry and
    /// monitor subscriptions survive (they are application intent, which in
    /// a real deployment would be re-asserted on reconnect).
    pub fn crash_restart(&mut self, now: SimTime, out: &mut Vec<DaemonOutput>) {
        let conns: Vec<ConnId> = self.tables.get().conns.keys().copied().collect();
        for conn in conns {
            self.drop_conn(conn, CloseReason::LinkLost, out);
        }
        let pending = self
            .tables
            .existing_mut()
            .map(|t| std::mem::take(&mut t.pending_service_queries));
        for (device, waiting) in pending.unwrap_or_default() {
            for _ in 0..waiting {
                out.push(DaemonOutput::App(AppEvent::ServiceList {
                    device,
                    services: Vec::new(),
                    stale: false,
                }));
            }
        }
        self.neighbors = NeighborTable::new();
        self.tables = LazyTables::default();
        for st in self.inquiries.values_mut() {
            st.running = false;
            st.next_start = now;
        }
    }

    /// Processes one input at virtual time `now`, appending outputs.
    ///
    /// Inputs must be fed in non-decreasing `now` order. A trailing
    /// [`DaemonOutput::WakeAt`] is appended whenever the daemon has future
    /// work; drivers must deliver a [`DaemonInput::Tick`] at (or after) that
    /// time.
    pub fn handle(&mut self, now: SimTime, input: DaemonInput, out: &mut Vec<DaemonOutput>) {
        if !self.gossip_announced {
            self.gossip_announced = true;
            if let Some(gossip) = self.config.gossip.clone() {
                out.push(DaemonOutput::App(AppEvent::GossipEnabled {
                    config: gossip,
                }));
            }
        }
        match input {
            DaemonInput::Tick => self.run_due_work(now, out),
            DaemonInput::App(req) => self.handle_app(now, req, out),
            DaemonInput::Plugin(ev) => self.handle_plugin(now, ev, out),
        }
        if let Some(wake) = self.next_wake(now) {
            out.push(DaemonOutput::WakeAt(wake));
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn run_due_work(&mut self, now: SimTime, out: &mut Vec<DaemonOutput>) {
        // Neighbor expiry.
        let removed = self.neighbors.expire(now, self.config.neighbor_ttl);
        for info in removed {
            // Applications waiting on a service list for the vanished
            // device get an empty answer rather than silence.
            let waiting = self.tables.existing_mut().and_then(|t| {
                t.query_deadlines.remove(&info.id);
                t.pending_service_queries.remove(&info.id)
            });
            if let Some(waiting) = waiting {
                for _ in 0..waiting {
                    out.push(DaemonOutput::App(AppEvent::ServiceList {
                        device: info.id,
                        services: Vec::new(),
                        stale: false,
                    }));
                }
            }
            if self.monitors.contains(&info.id) {
                out.push(DaemonOutput::App(AppEvent::MonitorAlert {
                    device: info.clone(),
                    appeared: false,
                }));
            }
            out.push(DaemonOutput::App(AppEvent::DeviceDisappeared(info)));
        }

        // Inquiry scheduling.
        for (tech, st) in self.inquiries.iter_mut() {
            if !st.running && now >= st.next_start {
                st.running = true;
                st.next_start = now + st.interval;
                out.push(DaemonOutput::Plugin(PluginCommand::StartInquiry {
                    technology: tech,
                }));
            }
        }

        // Connection and recovery work; a daemon that never connected or
        // asked for a service list has none.
        let Some(tables) = self.tables.existing() else {
            return;
        };
        // Responder-side handover limbo timeouts.
        let expired: Vec<ConnId> = tables
            .conns
            .iter()
            .filter(|(_, c)| c.limbo_deadline.is_some_and(|d| now >= d))
            .map(|(id, _)| *id)
            .collect();
        for conn in expired {
            self.drop_conn(conn, CloseReason::HandoverFailed, out);
        }

        // Recovery machinery (no-ops without a policy: the maps stay empty).
        self.run_attempt_timeouts(now, out);
        self.run_pending_retries(now, out);
        self.run_query_timeouts(now, out);
    }

    /// Connection attempts whose deadline passed are failed exactly as if
    /// the transport had reported an error — the fallback chain and retry
    /// schedule then apply as usual.
    fn run_attempt_timeouts(&mut self, now: SimTime, out: &mut Vec<DaemonOutput>) {
        let due: Vec<AttemptId> = self
            .tables
            .get()
            .attempt_deadlines
            .iter()
            .filter(|(_, &at)| now >= at)
            .map(|(&id, _)| id)
            .collect();
        for attempt in due {
            self.recovery_stats.timeouts += 1;
            self.handle_connect_result(
                now,
                attempt,
                Err("connection attempt timed out".to_owned()),
                out,
            );
        }
    }

    /// Relaunches connect sequences whose backoff has elapsed.
    fn run_pending_retries(&mut self, now: SimTime, out: &mut Vec<DaemonOutput>) {
        let mut due: Vec<RetryConnect> = Vec::new();
        while let Some(entry) = self.tables.get_mut().pending_retries.first_entry() {
            if *entry.key() > now {
                break;
            }
            due.extend(entry.remove());
        }
        for retry in due {
            // A handover retry for a connection that died in the meantime
            // has nothing left to resume.
            if let AttemptPurpose::Handover { conn, .. } = &retry.purpose {
                if !self.tables.get().conns.contains_key(conn) {
                    continue;
                }
            }
            // The candidate list is recomputed from the *current* neighbor
            // table — a handover retry may legitimately land back on the
            // technology it originally fled.
            let mut techs = self
                .neighbors
                .get(retry.device)
                .map(|e| e.visible_technologies())
                .unwrap_or_default();
            if techs.is_empty() {
                self.recovery_stats.gave_up += 1;
                self.fail_exhausted(retry.device, retry.service, retry.purpose, out);
                continue;
            }
            self.recovery_stats.retries += 1;
            let first = techs.remove(0);
            let resume = match &retry.purpose {
                AttemptPurpose::Handover { conn, .. } => {
                    self.tables.get().conns.get(conn).map(|c| c.resume)
                }
                AttemptPurpose::NewConnection => None,
            };
            self.start_attempt(
                now,
                retry.device,
                retry.service,
                first,
                techs,
                retry.purpose,
                resume,
                retry.tries,
                out,
            );
        }
    }

    /// Service queries whose deadline passed are retried while rounds
    /// remain, then resolved from the (stale) cache or with an empty list.
    fn run_query_timeouts(&mut self, now: SimTime, out: &mut Vec<DaemonOutput>) {
        let Some(policy) = self.config.recovery else {
            return;
        };
        let due: Vec<(DeviceId, QueryDeadline)> = self
            .tables
            .get()
            .query_deadlines
            .iter()
            .filter(|(_, d)| now >= d.at)
            .map(|(&dev, &d)| (dev, d))
            .collect();
        for (device, deadline) in due {
            let tables = self.tables.get_mut();
            tables.query_deadlines.remove(&device);
            if !tables.pending_service_queries.contains_key(&device) {
                continue; // answered in the meantime
            }
            self.recovery_stats.timeouts += 1;
            let retry_tech = (deadline.tries < policy.max_retries)
                .then(|| {
                    self.neighbors
                        .get(device)
                        .and_then(|e| e.preferred_technology())
                })
                .flatten();
            if let Some(tech) = retry_tech {
                self.recovery_stats.retries += 1;
                self.tables.get_mut().query_deadlines.insert(
                    device,
                    QueryDeadline {
                        at: now + policy.query_timeout,
                        tries: deadline.tries + 1,
                    },
                );
                out.push(DaemonOutput::Plugin(PluginCommand::QueryServices {
                    device,
                    technology: tech,
                }));
                continue;
            }
            // Out of retries: unblock every waiter, from stale cache when
            // allowed and available.
            self.recovery_stats.gave_up += 1;
            let stale_services = policy
                .serve_stale
                .then(|| {
                    self.neighbors
                        .get(device)
                        .and_then(|e| e.services.as_deref())
                        .map(|(_, s)| s.clone())
                })
                .flatten();
            let waiting = self
                .tables
                .get_mut()
                .pending_service_queries
                .remove(&device)
                .unwrap_or(0);
            if stale_services.is_some() {
                self.recovery_stats.resumed += 1;
            }
            let (services, stale) = match stale_services {
                Some(s) => (s, true),
                None => (Vec::new(), false),
            };
            for _ in 0..waiting {
                out.push(DaemonOutput::App(AppEvent::ServiceList {
                    device,
                    services: services.clone(),
                    stale,
                }));
            }
        }
    }

    /// Terminal failure of a connect sequence after every technology and
    /// retry round is spent.
    fn fail_exhausted(
        &mut self,
        device: DeviceId,
        service: String,
        purpose: AttemptPurpose,
        out: &mut Vec<DaemonOutput>,
    ) {
        match purpose {
            AttemptPurpose::NewConnection => {
                out.push(DaemonOutput::App(AppEvent::ConnectFailed {
                    device,
                    service,
                    error: PeerHoodError::Unreachable(device),
                }));
            }
            AttemptPurpose::Handover { conn, .. } => {
                match self.tables.get_mut().conns.get_mut(&conn) {
                    Some(state) if state.link.is_some() => {
                        state.handing_over = false;
                    }
                    _ => self.drop_conn(conn, CloseReason::HandoverFailed, out),
                }
            }
        }
    }

    fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        // A running minimum: this runs after every input, so it must not
        // allocate.
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| next = Some(next.map_or(t, |n| n.min(t)));
        for st in self.inquiries.values() {
            if !st.running {
                consider(st.next_start);
            }
        }
        if let Some(t) = self.neighbors.next_expiry(self.config.neighbor_ttl) {
            consider(t);
        }
        if let Some(tables) = self.tables.existing() {
            for c in tables.conns.values() {
                if let Some(d) = c.limbo_deadline {
                    consider(d);
                }
            }
            tables
                .attempt_deadlines
                .values()
                .copied()
                .for_each(&mut consider);
            if let Some((&at, _)) = tables.pending_retries.first_key_value() {
                consider(at);
            }
            tables.query_deadlines.values().for_each(|d| consider(d.at));
        }
        // Clamp to strictly-future so a boundary case can never produce a
        // zero-delay wake loop.
        next.map(|t| t.max(now + Duration::from_micros(1)))
    }

    // ------------------------------------------------------------------
    // Application requests
    // ------------------------------------------------------------------

    fn handle_app(&mut self, now: SimTime, req: AppRequest, out: &mut Vec<DaemonOutput>) {
        match req {
            AppRequest::RegisterService(svc) => {
                let name = svc.name().to_owned();
                let result = self.services.register(svc);
                out.push(DaemonOutput::App(AppEvent::ServiceRegistration {
                    name,
                    result,
                }));
            }
            AppRequest::UnregisterService(name) => {
                let result = self.services.unregister(&name).map(|_| ());
                out.push(DaemonOutput::App(AppEvent::ServiceRegistration {
                    name,
                    result,
                }));
            }
            AppRequest::GetDeviceList => {
                out.push(DaemonOutput::App(AppEvent::DeviceList(
                    self.neighbors.device_infos(),
                )));
            }
            AppRequest::GetServiceList { device } => {
                self.handle_get_service_list(now, device, out);
            }
            AppRequest::Connect { device, service } => {
                self.handle_connect(now, device, service, out);
            }
            AppRequest::Send { conn, payload } => {
                self.handle_send(conn, payload, out);
            }
            AppRequest::Close { conn } => {
                if let Some(state) = self.tables.get().conns.get(&conn) {
                    if let Some(link) = state.link {
                        out.push(DaemonOutput::Plugin(PluginCommand::CloseLink { link }));
                    }
                    self.drop_conn(conn, CloseReason::LocalClose, out);
                }
            }
            AppRequest::Monitor { device } => {
                self.monitors.insert(device);
            }
            AppRequest::Unmonitor { device } => {
                self.monitors.remove(&device);
            }
        }
    }

    fn handle_get_service_list(
        &mut self,
        now: SimTime,
        device: DeviceId,
        out: &mut Vec<DaemonOutput>,
    ) {
        let Some(entry) = self.neighbors.get(device) else {
            // Unknown neighbor: answer immediately with an empty list.
            out.push(DaemonOutput::App(AppEvent::ServiceList {
                device,
                services: Vec::new(),
                stale: false,
            }));
            return;
        };
        // Serve from cache while it is no older than the neighbor TTL.
        if let Some((fetched, services)) = entry.services.as_deref() {
            if now.saturating_since(*fetched) < self.config.neighbor_ttl {
                out.push(DaemonOutput::App(AppEvent::ServiceList {
                    device,
                    services: services.clone(),
                    stale: false,
                }));
                return;
            }
        }
        let Some(tech) = entry.preferred_technology() else {
            out.push(DaemonOutput::App(AppEvent::ServiceList {
                device,
                services: Vec::new(),
                stale: false,
            }));
            return;
        };
        let tables = self.tables.get_mut();
        let waiting = tables.pending_service_queries.entry(device).or_insert(0);
        *waiting += 1;
        if *waiting == 1 {
            // First asker triggers the wire query; later askers share the
            // reply (each still gets its own ServiceList event).
            if let Some(policy) = self.config.recovery {
                tables.query_deadlines.insert(
                    device,
                    QueryDeadline {
                        at: now + policy.query_timeout,
                        tries: 0,
                    },
                );
            }
            out.push(DaemonOutput::Plugin(PluginCommand::QueryServices {
                device,
                technology: tech,
            }));
        }
    }

    fn handle_connect(
        &mut self,
        now: SimTime,
        device: DeviceId,
        service: String,
        out: &mut Vec<DaemonOutput>,
    ) {
        let Some(entry) = self.neighbors.get(device) else {
            out.push(DaemonOutput::App(AppEvent::ConnectFailed {
                device,
                service,
                error: PeerHoodError::UnknownDevice(device),
            }));
            return;
        };
        let mut techs = entry.visible_technologies();
        if techs.is_empty() {
            out.push(DaemonOutput::App(AppEvent::ConnectFailed {
                device,
                service,
                error: PeerHoodError::Unreachable(device),
            }));
            return;
        }
        let first = techs.remove(0);
        self.start_attempt(
            now,
            device,
            service,
            first,
            techs,
            AttemptPurpose::NewConnection,
            None,
            0,
            out,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn start_attempt(
        &mut self,
        now: SimTime,
        device: DeviceId,
        service: String,
        technology: Technology,
        fallbacks: Vec<Technology>,
        purpose: AttemptPurpose,
        resume: Option<ResumeToken>,
        tries: u32,
        out: &mut Vec<DaemonOutput>,
    ) {
        let attempt = AttemptId::new(self.next_attempt);
        self.next_attempt += 1;
        let tables = self.tables.get_mut();
        tables.attempts.insert(
            attempt,
            Attempt {
                device,
                service: service.clone(),
                technology,
                fallbacks,
                purpose,
                tries,
            },
        );
        if let Some(policy) = self.config.recovery {
            tables
                .attempt_deadlines
                .insert(attempt, now + policy.connect_timeout);
        }
        out.push(DaemonOutput::Plugin(PluginCommand::OpenConnection {
            attempt,
            device,
            service,
            technology,
            resume,
        }));
    }

    fn handle_send(&mut self, conn: ConnId, payload: Bytes, out: &mut Vec<DaemonOutput>) {
        match self.tables.get_mut().conns.get_mut(&conn) {
            Some(state) => {
                // During a proactive (make-before-break) handover the old
                // link is still up and keeps carrying traffic; only a
                // link-less connection buffers.
                if state.link.is_none() {
                    state.buffer.push(payload);
                } else if let Some(link) = state.link {
                    out.push(DaemonOutput::Plugin(PluginCommand::SendFrame {
                        link,
                        payload,
                    }));
                }
            }
            None => {
                // Sending on a dead connection: report closure once more so
                // the application can clean up.
                out.push(DaemonOutput::App(AppEvent::Closed {
                    conn,
                    reason: CloseReason::LinkLost,
                }));
            }
        }
    }

    // ------------------------------------------------------------------
    // Plugin events
    // ------------------------------------------------------------------

    fn handle_plugin(&mut self, now: SimTime, ev: PluginEvent, out: &mut Vec<DaemonOutput>) {
        match ev {
            PluginEvent::InquiryResponse { technology, device } => {
                self.record_device(device, technology, now, out);
            }
            PluginEvent::InquiryComplete { technology } => {
                if let Some(st) = self.inquiries.get_mut(technology) {
                    st.running = false;
                    st.next_start = st.next_start.max(now);
                }
            }
            PluginEvent::ServiceQuery { device } => {
                out.push(DaemonOutput::Plugin(PluginCommand::ServiceQueryReply {
                    device,
                    services: self.services.to_vec(),
                }));
            }
            PluginEvent::ServiceReply { device, services } => {
                self.neighbors
                    .record_services(device, services.clone(), now);
                let Some(tables) = self.tables.existing_mut() else {
                    return;
                };
                if let Some(deadline) = tables.query_deadlines.remove(&device) {
                    if deadline.tries > 0 {
                        // The answer only arrived because a retry round
                        // re-asked: the query recovered.
                        self.recovery_stats.resumed += 1;
                    }
                }
                if let Some(waiting) = tables.pending_service_queries.remove(&device) {
                    for _ in 0..waiting {
                        out.push(DaemonOutput::App(AppEvent::ServiceList {
                            device,
                            services: services.clone(),
                            stale: false,
                        }));
                    }
                }
            }
            PluginEvent::ConnectResult { attempt, result } => {
                self.handle_connect_result(now, attempt, result, out);
            }
            PluginEvent::IncomingConnection {
                link,
                device,
                service,
                technology,
                resume,
            } => {
                // An incoming connection proves the device is present.
                self.record_device(device.clone(), technology, now, out);
                self.handle_incoming(link, device.id, service, technology, resume, out);
            }
            PluginEvent::Frame { link, payload } => {
                if let Some(conn) = self.tables.get().link_index.get(&link) {
                    out.push(DaemonOutput::App(AppEvent::Data {
                        conn: *conn,
                        payload,
                    }));
                }
            }
            PluginEvent::PeerClosed { link } => {
                let tables = self.tables.get_mut();
                if let Some(conn) = tables.link_index.remove(&link) {
                    if let Some(state) = tables.conns.get_mut(&conn) {
                        state.link = None;
                    }
                    self.drop_conn(conn, CloseReason::PeerClose, out);
                }
            }
            PluginEvent::LinkDown { link } => {
                self.handle_link_down(now, link, out);
            }
            PluginEvent::LinkDegraded { link } => {
                self.handle_link_degraded(now, link, out);
            }
        }
    }

    /// Make-before-break: the link still carries traffic but is weakening;
    /// the initiator starts migrating to a stronger technology while the
    /// old link keeps working (Table 3's reaction to "weakening").
    fn handle_link_degraded(&mut self, now: SimTime, link: LinkId, out: &mut Vec<DaemonOutput>) {
        if !self.config.seamless_connectivity {
            return;
        }
        let tables = self.tables.get();
        let Some(&conn) = tables.link_index.get(&link) else {
            return;
        };
        let Some(state) = tables.conns.get(&conn) else {
            return;
        };
        // Only the initiator migrates, and only once per episode.
        if !state.initiator || state.handing_over {
            return;
        }
        let failing_tech = state.technology;
        let device = state.device;
        let service = state.service.clone();
        let resume = state.resume;
        let mut alternatives: Vec<Technology> = self
            .neighbors
            .get(device)
            .map(|e| e.visible_technologies())
            .unwrap_or_default()
            .into_iter()
            .filter(|t| *t != failing_tech)
            .collect();
        if alternatives.is_empty() {
            return; // nothing to migrate to; ride the old link down
        }
        let Some(state) = self.tables.get_mut().conns.get_mut(&conn) else {
            return; // connection vanished between the lookups
        };
        state.handing_over = true;
        let first = alternatives.remove(0);
        self.start_attempt(
            now,
            device,
            service,
            first,
            alternatives,
            AttemptPurpose::Handover {
                conn,
                from: failing_tech,
            },
            Some(resume),
            0,
            out,
        );
    }

    fn record_device(
        &mut self,
        device: DeviceInfo,
        technology: Technology,
        now: SimTime,
        out: &mut Vec<DaemonOutput>,
    ) {
        if device.id == self.id {
            return;
        }
        let outcome = self
            .neighbors
            .record_sighting(device.clone(), technology, now);
        if outcome == SightingOutcome::NewDevice {
            if self.monitors.contains(&device.id) {
                out.push(DaemonOutput::App(AppEvent::MonitorAlert {
                    device: device.clone(),
                    appeared: true,
                }));
            }
            out.push(DaemonOutput::App(AppEvent::DeviceAppeared(device.clone())));
            if self.config.auto_service_discovery {
                out.push(DaemonOutput::Plugin(PluginCommand::QueryServices {
                    device: device.id,
                    technology,
                }));
            }
        }
    }

    fn handle_connect_result(
        &mut self,
        now: SimTime,
        attempt: AttemptId,
        result: Result<LinkId, String>,
        out: &mut Vec<DaemonOutput>,
    ) {
        let tables = self.tables.get_mut();
        let Some(att) = tables.attempts.remove(&attempt) else {
            // Late result for an attempt already timed out and replaced.
            return;
        };
        tables.attempt_deadlines.remove(&attempt);
        if result.is_ok() && att.tries > 0 {
            self.recovery_stats.resumed += 1;
        }
        match result {
            Ok(link) => match att.purpose {
                AttemptPurpose::NewConnection => {
                    let conn = ConnId::new(self.next_conn);
                    self.next_conn += 1;
                    let resume = ResumeToken {
                        initiator: self.id,
                        conn,
                    };
                    let tables = self.tables.get_mut();
                    tables.conns.insert(
                        conn,
                        Conn {
                            device: att.device,
                            service: att.service.clone(),
                            technology: att.technology,
                            link: Some(link),
                            initiator: true,
                            resume,
                            buffer: Vec::new(),
                            handing_over: false,
                            limbo_deadline: None,
                        },
                    );
                    tables.link_index.insert(link, conn);
                    out.push(DaemonOutput::App(AppEvent::Connected {
                        conn,
                        device: att.device,
                        service: att.service,
                        technology: att.technology,
                    }));
                }
                AttemptPurpose::Handover { conn, from } => {
                    let tables = self.tables.get_mut();
                    if let Some(state) = tables.conns.get_mut(&conn) {
                        // Finish mutating the connection before touching
                        // `link_index`/`out`, so one lookup suffices.
                        let old_link = state.link.replace(link);
                        state.technology = att.technology;
                        state.handing_over = false;
                        let buffered = std::mem::take(&mut state.buffer);
                        // Make-before-break: if the old link is still alive
                        // (proactive handover), shut it down now that the
                        // replacement is up.
                        if let Some(old_link) = old_link {
                            tables.link_index.remove(&old_link);
                            out.push(DaemonOutput::Plugin(PluginCommand::CloseLink {
                                link: old_link,
                            }));
                        }
                        tables.link_index.insert(link, conn);
                        out.push(DaemonOutput::App(AppEvent::Handover {
                            conn,
                            from,
                            to: att.technology,
                        }));
                        for payload in buffered {
                            out.push(DaemonOutput::Plugin(PluginCommand::SendFrame {
                                link,
                                payload,
                            }));
                        }
                    } else {
                        // Connection vanished while handing over; close the
                        // fresh link again.
                        out.push(DaemonOutput::Plugin(PluginCommand::CloseLink { link }));
                    }
                }
            },
            Err(reason) => {
                let mut fallbacks = att.fallbacks;
                if let Some(next_tech) = (!fallbacks.is_empty()).then(|| fallbacks.remove(0)) {
                    let resume = match &att.purpose {
                        AttemptPurpose::Handover { conn, .. } => {
                            self.tables.get().conns.get(conn).map(|c| c.resume)
                        }
                        AttemptPurpose::NewConnection => None,
                    };
                    self.start_attempt(
                        now,
                        att.device,
                        att.service,
                        next_tech,
                        fallbacks,
                        att.purpose,
                        resume,
                        att.tries,
                        out,
                    );
                    return;
                }
                // Every candidate technology failed this round. With a
                // recovery policy and rounds to spare, sleep out the
                // backoff and relaunch the whole sequence — except for a
                // failed *proactive* handover, whose old link is still up
                // and makes a retry pointless churn.
                let proactive = match &att.purpose {
                    AttemptPurpose::Handover { conn, .. } => self
                        .tables
                        .get()
                        .conns
                        .get(conn)
                        .is_some_and(|state| state.link.is_some()),
                    AttemptPurpose::NewConnection => false,
                };
                if let Some(policy) = self.config.recovery {
                    if !proactive && att.tries < policy.max_retries {
                        let at = now + policy.backoff(att.tries);
                        self.tables
                            .get_mut()
                            .pending_retries
                            .entry(at)
                            .or_default()
                            .push(RetryConnect {
                                device: att.device,
                                service: att.service,
                                purpose: att.purpose,
                                tries: att.tries + 1,
                            });
                        return;
                    }
                    self.recovery_stats.gave_up += 1;
                }
                match att.purpose {
                    AttemptPurpose::NewConnection => {
                        out.push(DaemonOutput::App(AppEvent::ConnectFailed {
                            device: att.device,
                            service: att.service,
                            error: PeerHoodError::ConnectFailed {
                                device: att.device,
                                reason,
                            },
                        }));
                    }
                    AttemptPurpose::Handover { conn, .. } => {
                        // A failed *proactive* handover is survivable:
                        // the old link may still be up.
                        match self.tables.get_mut().conns.get_mut(&conn) {
                            Some(state) if state.link.is_some() => {
                                state.handing_over = false;
                            }
                            _ => self.drop_conn(conn, CloseReason::HandoverFailed, out),
                        }
                    }
                }
            }
        }
    }

    fn handle_incoming(
        &mut self,
        link: LinkId,
        device: DeviceId,
        service: String,
        technology: Technology,
        resume: Option<ResumeToken>,
        out: &mut Vec<DaemonOutput>,
    ) {
        // A resume of a logical connection we still hold?
        if let Some(token) = resume {
            let tables = self.tables.get_mut();
            if let Some(&conn) = tables.resume_index.get(&token) {
                if let Some(state) = tables.conns.get_mut(&conn) {
                    if let Some(old_link) = state.link.take() {
                        tables.link_index.remove(&old_link);
                    }
                    let from = state.technology;
                    state.link = Some(link);
                    state.technology = technology;
                    state.handing_over = false;
                    state.limbo_deadline = None;
                    tables.link_index.insert(link, conn);
                    out.push(DaemonOutput::Plugin(PluginCommand::AcceptConnection {
                        link,
                    }));
                    out.push(DaemonOutput::App(AppEvent::Handover {
                        conn,
                        from,
                        to: technology,
                    }));
                    return;
                }
            }
        }
        if !self.services.contains(&service) {
            out.push(DaemonOutput::Plugin(PluginCommand::RejectConnection {
                link,
                reason: format!("service {service:?} not registered"),
            }));
            return;
        }
        let conn = ConnId::new(self.next_conn);
        self.next_conn += 1;
        let token = resume.unwrap_or(ResumeToken {
            initiator: device,
            conn,
        });
        let tables = self.tables.get_mut();
        tables.conns.insert(
            conn,
            Conn {
                device,
                service: service.clone(),
                technology,
                link: Some(link),
                initiator: false,
                resume: token,
                buffer: Vec::new(),
                handing_over: false,
                limbo_deadline: None,
            },
        );
        tables.link_index.insert(link, conn);
        tables.resume_index.insert(token, conn);
        out.push(DaemonOutput::Plugin(PluginCommand::AcceptConnection {
            link,
        }));
        out.push(DaemonOutput::App(AppEvent::Incoming {
            conn,
            device,
            service,
            technology,
        }));
    }

    fn handle_link_down(&mut self, now: SimTime, link: LinkId, out: &mut Vec<DaemonOutput>) {
        let tables = self.tables.get_mut();
        let Some(conn) = tables.link_index.remove(&link) else {
            return;
        };
        let Some(state) = tables.conns.get_mut(&conn) else {
            return;
        };
        state.link = None;
        if !self.config.seamless_connectivity {
            self.drop_conn(conn, CloseReason::LinkLost, out);
            return;
        }
        if state.handing_over {
            // A (proactive) migration is already in flight; its outcome
            // will resolve this connection either way.
            if !state.initiator && state.limbo_deadline.is_none() {
                state.limbo_deadline = Some(now + HANDOVER_GRACE);
            }
            return;
        }
        if state.initiator {
            let failed_tech = state.technology;
            let device = state.device;
            let service = state.service.clone();
            let resume = state.resume;
            let mut alternatives: Vec<Technology> = self
                .neighbors
                .get(device)
                .map(|e| e.visible_technologies())
                .unwrap_or_default()
                .into_iter()
                .filter(|t| *t != failed_tech)
                .collect();
            if alternatives.is_empty() {
                self.drop_conn(conn, CloseReason::LinkLost, out);
                return;
            }
            let Some(state) = self.tables.get_mut().conns.get_mut(&conn) else {
                return; // connection vanished between the lookups
            };
            state.handing_over = true;
            let first = alternatives.remove(0);
            self.start_attempt(
                now,
                device,
                service,
                first,
                alternatives,
                AttemptPurpose::Handover {
                    conn,
                    from: failed_tech,
                },
                Some(resume),
                0,
                out,
            );
        } else {
            // Responder: wait in limbo for the initiator to resume.
            state.handing_over = true;
            state.limbo_deadline = Some(now + HANDOVER_GRACE);
        }
    }

    fn drop_conn(&mut self, conn: ConnId, reason: CloseReason, out: &mut Vec<DaemonOutput>) {
        let tables = self.tables.get_mut();
        if let Some(state) = tables.conns.remove(&conn) {
            if let Some(link) = state.link {
                tables.link_index.remove(&link);
            }
            tables.resume_index.retain(|_, c| *c != conn);
            out.push(DaemonOutput::App(AppEvent::Closed { conn, reason }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceInfo;
    use crate::types::DeviceInfo;

    fn device(id: u64, name: &str) -> DeviceInfo {
        DeviceInfo::new(DeviceId::new(id), name, Technology::ALL)
    }

    fn daemon() -> Daemon {
        Daemon::new(DaemonConfig::new(device(0, "local")))
    }

    fn tick(d: &mut Daemon, now: SimTime) -> Vec<DaemonOutput> {
        let mut out = Vec::new();
        d.handle(now, DaemonInput::Tick, &mut out);
        out
    }

    fn feed(d: &mut Daemon, now: SimTime, input: DaemonInput) -> Vec<DaemonOutput> {
        let mut out = Vec::new();
        d.handle(now, input, &mut out);
        out
    }

    fn plugin_cmds(out: &[DaemonOutput]) -> Vec<&PluginCommand> {
        out.iter()
            .filter_map(|o| match o {
                DaemonOutput::Plugin(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    fn app_events(out: &[DaemonOutput]) -> Vec<&AppEvent> {
        out.iter()
            .filter_map(|o| match o {
                DaemonOutput::App(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    /// Walk a daemon through discovering `dev` over `tech`.
    fn discover(d: &mut Daemon, dev: &DeviceInfo, tech: Technology, now: SimTime) {
        feed(
            d,
            now,
            DaemonInput::Plugin(PluginEvent::InquiryResponse {
                technology: tech,
                device: dev.clone(),
            }),
        );
    }

    #[test]
    fn first_tick_starts_inquiries_on_all_equipped_technologies() {
        fn inquiries(d: &mut Daemon) -> Vec<Technology> {
            let out = tick(d, SimTime::ZERO);
            plugin_cmds(&out)
                .iter()
                .filter_map(|c| match c {
                    PluginCommand::StartInquiry { technology } => Some(*technology),
                    _ => None,
                })
                .collect()
        }
        assert_eq!(inquiries(&mut daemon()).len(), 3);
        // A radio the device lacks gets no inquiry, though its interval is
        // configured.
        let bt_only = DeviceInfo::new(DeviceId::new(0), "local", [Technology::Bluetooth]);
        let mut d = Daemon::new(DaemonConfig::new(bt_only));
        assert_eq!(inquiries(&mut d), vec![Technology::Bluetooth]);
    }

    #[test]
    fn inquiry_not_restarted_while_running() {
        let mut d = daemon();
        tick(&mut d, SimTime::ZERO);
        let out = tick(&mut d, SimTime::from_secs(1));
        assert!(plugin_cmds(&out).is_empty(), "{out:?}");
    }

    #[test]
    fn inquiry_restarts_after_interval() {
        let mut d = daemon();
        tick(&mut d, SimTime::ZERO);
        // Complete all three inquiries.
        for tech in Technology::ALL {
            feed(
                &mut d,
                SimTime::from_secs(11),
                DaemonInput::Plugin(PluginEvent::InquiryComplete { technology: tech }),
            );
        }
        // Bluetooth interval is 15 s; at t=16 s a new round starts.
        let out = tick(&mut d, SimTime::from_secs(16));
        let has_bt = plugin_cmds(&out).iter().any(|c| {
            matches!(
                c,
                PluginCommand::StartInquiry {
                    technology: Technology::Bluetooth
                }
            )
        });
        assert!(has_bt, "{out:?}");
    }

    #[test]
    fn new_device_raises_appeared_and_service_query() {
        let mut d = daemon();
        let dev = device(7, "remote");
        let out = feed(
            &mut d,
            SimTime::from_secs(1),
            DaemonInput::Plugin(PluginEvent::InquiryResponse {
                technology: Technology::Bluetooth,
                device: dev.clone(),
            }),
        );
        assert!(app_events(&out)
            .iter()
            .any(|e| matches!(e, AppEvent::DeviceAppeared(i) if i.id == dev.id)));
        assert!(plugin_cmds(&out).iter().any(
            |c| matches!(c, PluginCommand::QueryServices { device, .. } if *device == dev.id)
        ));
        // Second sighting: no repeat events.
        let out2 = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::InquiryResponse {
                technology: Technology::Bluetooth,
                device: dev,
            }),
        );
        assert!(app_events(&out2).is_empty());
    }

    #[test]
    fn own_echo_is_ignored() {
        let mut d = daemon();
        let me = device(0, "local");
        let out = feed(
            &mut d,
            SimTime::from_secs(1),
            DaemonInput::Plugin(PluginEvent::InquiryResponse {
                technology: Technology::Bluetooth,
                device: me,
            }),
        );
        assert!(app_events(&out).is_empty());
        assert!(d.neighbors().is_empty());
    }

    #[test]
    fn device_list_request_answered_synchronously() {
        let mut d = daemon();
        discover(
            &mut d,
            &device(7, "remote"),
            Technology::Bluetooth,
            SimTime::from_secs(1),
        );
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::GetDeviceList),
        );
        match app_events(&out)[0] {
            AppEvent::DeviceList(list) => {
                assert_eq!(list.len(), 1);
                assert_eq!(&*list[0].name, "remote");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn service_registration_and_remote_query() {
        let mut d = daemon();
        let out = feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::RegisterService(ServiceInfo::new(
                "PeerHoodCommunity",
            ))),
        );
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::ServiceRegistration { result: Ok(()), .. }
        ));
        // A remote service query is answered from the registry.
        let out = feed(
            &mut d,
            SimTime::from_secs(1),
            DaemonInput::Plugin(PluginEvent::ServiceQuery {
                device: DeviceId::new(9),
            }),
        );
        match plugin_cmds(&out)[0] {
            PluginCommand::ServiceQueryReply { device, services } => {
                assert_eq!(*device, DeviceId::new(9));
                assert_eq!(services[0].name(), "PeerHoodCommunity");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_service_registration_reports_error() {
        let mut d = daemon();
        feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::RegisterService(ServiceInfo::new("svc"))),
        );
        let out = feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::RegisterService(ServiceInfo::new("svc"))),
        );
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::ServiceRegistration { result: Err(_), .. }
        ));
    }

    #[test]
    fn get_service_list_uses_cache_then_query() {
        let mut d = daemon();
        let dev = device(7, "remote");
        discover(&mut d, &dev, Technology::Bluetooth, SimTime::from_secs(1));
        // No cache yet: a QueryServices goes out, no immediate answer.
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::GetServiceList { device: dev.id }),
        );
        assert!(app_events(&out).is_empty());
        assert!(!plugin_cmds(&out).is_empty());
        // Reply arrives: the pending application request is answered.
        let out = feed(
            &mut d,
            SimTime::from_secs(3),
            DaemonInput::Plugin(PluginEvent::ServiceReply {
                device: dev.id,
                services: vec![ServiceInfo::new("PeerHoodCommunity")],
            }),
        );
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::ServiceList { services, .. } if services.len() == 1
        ));
        // Cache is now warm: answered synchronously.
        let out = feed(
            &mut d,
            SimTime::from_secs(4),
            DaemonInput::App(AppRequest::GetServiceList { device: dev.id }),
        );
        assert!(matches!(app_events(&out)[0], AppEvent::ServiceList { .. }));
    }

    #[test]
    fn get_service_list_for_unknown_device_is_empty() {
        let mut d = daemon();
        let out = feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::GetServiceList {
                device: DeviceId::new(99),
            }),
        );
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::ServiceList { services, .. } if services.is_empty()
        ));
    }

    #[test]
    fn connect_to_unknown_device_fails_immediately() {
        let mut d = daemon();
        let out = feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::Connect {
                device: DeviceId::new(5),
                service: "svc".into(),
            }),
        );
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::ConnectFailed {
                error: PeerHoodError::UnknownDevice(_),
                ..
            }
        ));
    }

    #[test]
    fn connect_prefers_bluetooth_then_falls_back() {
        let mut d = daemon();
        let dev = device(7, "remote");
        discover(&mut d, &dev, Technology::Bluetooth, SimTime::from_secs(1));
        discover(&mut d, &dev, Technology::Gprs, SimTime::from_secs(1));
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::Connect {
                device: dev.id,
                service: "svc".into(),
            }),
        );
        let (attempt, tech) = match plugin_cmds(&out)[0] {
            PluginCommand::OpenConnection {
                attempt,
                technology,
                ..
            } => (*attempt, *technology),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(tech, Technology::Bluetooth);
        // Bluetooth fails -> GPRS attempt follows automatically.
        let out = feed(
            &mut d,
            SimTime::from_secs(3),
            DaemonInput::Plugin(PluginEvent::ConnectResult {
                attempt,
                result: Err("radio busy".into()),
            }),
        );
        let (attempt2, tech2) = match plugin_cmds(&out)[0] {
            PluginCommand::OpenConnection {
                attempt,
                technology,
                ..
            } => (*attempt, *technology),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(tech2, Technology::Gprs);
        // GPRS also fails -> ConnectFailed surfaces.
        let out = feed(
            &mut d,
            SimTime::from_secs(4),
            DaemonInput::Plugin(PluginEvent::ConnectResult {
                attempt: attempt2,
                result: Err("proxy down".into()),
            }),
        );
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::ConnectFailed { .. }
        ));
    }

    /// Helper: establish an initiator-side connection and return its ConnId.
    fn establish(d: &mut Daemon, dev: &DeviceInfo, link: LinkId, now: SimTime) -> ConnId {
        discover(d, dev, Technology::Bluetooth, now);
        let out = feed(
            d,
            now,
            DaemonInput::App(AppRequest::Connect {
                device: dev.id,
                service: "svc".into(),
            }),
        );
        let attempt = match plugin_cmds(&out)[0] {
            PluginCommand::OpenConnection { attempt, .. } => *attempt,
            other => panic!("unexpected {other:?}"),
        };
        let out = feed(
            d,
            now,
            DaemonInput::Plugin(PluginEvent::ConnectResult {
                attempt,
                result: Ok(link),
            }),
        );
        match app_events(&out)[0] {
            AppEvent::Connected { conn, .. } => *conn,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn send_and_receive_frames() {
        let mut d = daemon();
        let dev = device(7, "remote");
        let link = LinkId::new(100);
        let conn = establish(&mut d, &dev, link, SimTime::from_secs(1));

        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::Send {
                conn,
                payload: Bytes::from_static(b"hi"),
            }),
        );
        assert!(matches!(
            plugin_cmds(&out)[0],
            PluginCommand::SendFrame { .. }
        ));

        let out = feed(
            &mut d,
            SimTime::from_secs(3),
            DaemonInput::Plugin(PluginEvent::Frame {
                link,
                payload: Bytes::from_static(b"yo"),
            }),
        );
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::Data { conn: c, .. } if *c == conn
        ));
    }

    #[test]
    fn incoming_connection_requires_registered_service() {
        let mut d = daemon();
        let dev = device(7, "remote");
        let out = feed(
            &mut d,
            SimTime::from_secs(1),
            DaemonInput::Plugin(PluginEvent::IncomingConnection {
                link: LinkId::new(1),
                device: dev.clone(),
                service: "nope".into(),
                technology: Technology::Bluetooth,
                resume: None,
            }),
        );
        assert!(plugin_cmds(&out)
            .iter()
            .any(|c| matches!(c, PluginCommand::RejectConnection { .. })));

        feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::RegisterService(ServiceInfo::new("svc"))),
        );
        let out = feed(
            &mut d,
            SimTime::from_secs(3),
            DaemonInput::Plugin(PluginEvent::IncomingConnection {
                link: LinkId::new(2),
                device: dev,
                service: "svc".into(),
                technology: Technology::Bluetooth,
                resume: None,
            }),
        );
        assert!(plugin_cmds(&out)
            .iter()
            .any(|c| matches!(c, PluginCommand::AcceptConnection { .. })));
        assert!(app_events(&out)
            .iter()
            .any(|e| matches!(e, AppEvent::Incoming { .. })));
    }

    #[test]
    fn incoming_connection_records_sighting() {
        let mut d = daemon();
        feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::RegisterService(ServiceInfo::new("svc"))),
        );
        let dev = device(7, "remote");
        let out = feed(
            &mut d,
            SimTime::from_secs(1),
            DaemonInput::Plugin(PluginEvent::IncomingConnection {
                link: LinkId::new(1),
                device: dev.clone(),
                service: "svc".into(),
                technology: Technology::Bluetooth,
                resume: None,
            }),
        );
        assert!(d.neighbors().contains(dev.id));
        assert!(app_events(&out)
            .iter()
            .any(|e| matches!(e, AppEvent::DeviceAppeared(_))));
    }

    #[test]
    fn close_emits_closed_and_closes_link() {
        let mut d = daemon();
        let dev = device(7, "remote");
        let conn = establish(&mut d, &dev, LinkId::new(5), SimTime::from_secs(1));
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::Close { conn }),
        );
        assert!(plugin_cmds(&out)
            .iter()
            .any(|c| matches!(c, PluginCommand::CloseLink { .. })));
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::Closed {
                reason: CloseReason::LocalClose,
                ..
            }
        ));
        assert_eq!(d.connection_count(), 0);
    }

    #[test]
    fn peer_close_notifies_app() {
        let mut d = daemon();
        let dev = device(7, "remote");
        let link = LinkId::new(5);
        let conn = establish(&mut d, &dev, link, SimTime::from_secs(1));
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::PeerClosed { link }),
        );
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::Closed {
                conn: c,
                reason: CloseReason::PeerClose,
            } if *c == conn
        ));
    }

    #[test]
    fn link_down_triggers_handover_when_alternative_exists() {
        let mut d = daemon();
        let dev = device(7, "remote");
        let link = LinkId::new(5);
        // Seen on both Bluetooth and GPRS.
        discover(&mut d, &dev, Technology::Gprs, SimTime::from_secs(1));
        let conn = establish(&mut d, &dev, link, SimTime::from_secs(1));

        // Queue one frame mid-handover to verify buffering.
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::LinkDown { link }),
        );
        let (attempt, resume) = match plugin_cmds(&out)[0] {
            PluginCommand::OpenConnection {
                attempt,
                technology,
                resume,
                ..
            } => {
                assert_eq!(*technology, Technology::Gprs);
                (*attempt, *resume)
            }
            other => panic!("unexpected {other:?}"),
        };
        assert!(resume.is_some(), "handover must carry a resume token");

        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::Send {
                conn,
                payload: Bytes::from_static(b"queued"),
            }),
        );
        assert!(plugin_cmds(&out).is_empty(), "buffered during handover");

        // New link succeeds: Handover event + buffered frame flushed.
        let new_link = LinkId::new(6);
        let out = feed(
            &mut d,
            SimTime::from_secs(3),
            DaemonInput::Plugin(PluginEvent::ConnectResult {
                attempt,
                result: Ok(new_link),
            }),
        );
        assert!(app_events(&out).iter().any(|e| matches!(
            e,
            AppEvent::Handover {
                from: Technology::Bluetooth,
                to: Technology::Gprs,
                ..
            }
        )));
        assert!(plugin_cmds(&out).iter().any(
            |c| matches!(c, PluginCommand::SendFrame { link, payload } if *link == new_link && payload == "queued")
        ));
    }

    #[test]
    fn degraded_link_triggers_make_before_break() {
        let mut d = daemon();
        let dev = device(7, "remote");
        let link = LinkId::new(5);
        discover(&mut d, &dev, Technology::Wlan, SimTime::from_secs(1));
        let conn = establish(&mut d, &dev, link, SimTime::from_secs(1));

        // The plugin warns that the Bluetooth link is weakening.
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::LinkDegraded { link }),
        );
        let attempt = match plugin_cmds(&out)[0] {
            PluginCommand::OpenConnection {
                attempt,
                technology,
                resume,
                ..
            } => {
                assert_eq!(*technology, Technology::Wlan);
                assert!(resume.is_some());
                *attempt
            }
            other => panic!("unexpected {other:?}"),
        };

        // Old link still carries traffic during the migration.
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::Send {
                conn,
                payload: Bytes::from_static(b"mid-handover"),
            }),
        );
        assert!(
            plugin_cmds(&out)
                .iter()
                .any(|c| matches!(c, PluginCommand::SendFrame { link: l, .. } if *l == link)),
            "traffic keeps flowing on the old link: {out:?}"
        );

        // New link established: old link is closed, Handover raised.
        let new_link = LinkId::new(6);
        let out = feed(
            &mut d,
            SimTime::from_secs(3),
            DaemonInput::Plugin(PluginEvent::ConnectResult {
                attempt,
                result: Ok(new_link),
            }),
        );
        assert!(plugin_cmds(&out)
            .iter()
            .any(|c| matches!(c, PluginCommand::CloseLink { link: l } if *l == link)));
        assert!(app_events(&out).iter().any(|e| matches!(
            e,
            AppEvent::Handover {
                to: Technology::Wlan,
                ..
            }
        )));
        // Traffic now uses the new link.
        let out = feed(
            &mut d,
            SimTime::from_secs(4),
            DaemonInput::App(AppRequest::Send {
                conn,
                payload: Bytes::from_static(b"after"),
            }),
        );
        assert!(plugin_cmds(&out)
            .iter()
            .any(|c| matches!(c, PluginCommand::SendFrame { link: l, .. } if *l == new_link)));
    }

    #[test]
    fn degraded_link_without_alternative_rides_it_out() {
        let mut d = daemon();
        let dev = DeviceInfo::new(DeviceId::new(7), "remote", [Technology::Bluetooth]);
        let link = LinkId::new(5);
        let conn = establish(&mut d, &dev, link, SimTime::from_secs(1));
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::LinkDegraded { link }),
        );
        assert!(plugin_cmds(&out).is_empty(), "{out:?}");
        assert!(app_events(&out).is_empty());
        // The connection still works.
        let out = feed(
            &mut d,
            SimTime::from_secs(3),
            DaemonInput::App(AppRequest::Send {
                conn,
                payload: Bytes::from_static(b"still here"),
            }),
        );
        assert!(!plugin_cmds(&out).is_empty());
    }

    #[test]
    fn failed_proactive_handover_keeps_the_live_link() {
        let mut d = daemon();
        let dev = device(7, "remote");
        let link = LinkId::new(5);
        discover(&mut d, &dev, Technology::Gprs, SimTime::from_secs(1));
        let conn = establish(&mut d, &dev, link, SimTime::from_secs(1));
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::LinkDegraded { link }),
        );
        let attempt = match plugin_cmds(&out)[0] {
            PluginCommand::OpenConnection { attempt, .. } => *attempt,
            other => panic!("unexpected {other:?}"),
        };
        let out = feed(
            &mut d,
            SimTime::from_secs(3),
            DaemonInput::Plugin(PluginEvent::ConnectResult {
                attempt,
                result: Err("proxy busy".into()),
            }),
        );
        // The connection survives on the (still live) old link.
        assert!(
            app_events(&out)
                .iter()
                .all(|e| !matches!(e, AppEvent::Closed { .. })),
            "{out:?}"
        );
        assert_eq!(d.connection_count(), 1);
        let out = feed(
            &mut d,
            SimTime::from_secs(4),
            DaemonInput::App(AppRequest::Send {
                conn,
                payload: Bytes::from_static(b"x"),
            }),
        );
        assert!(plugin_cmds(&out)
            .iter()
            .any(|c| matches!(c, PluginCommand::SendFrame { link: l, .. } if *l == link)));
    }

    #[test]
    fn link_down_without_alternative_closes() {
        let mut d = daemon();
        let dev = DeviceInfo::new(DeviceId::new(7), "remote", [Technology::Bluetooth]);
        let link = LinkId::new(5);
        let conn = establish(&mut d, &dev, link, SimTime::from_secs(1));
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::LinkDown { link }),
        );
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::Closed {
                conn: c,
                reason: CloseReason::LinkLost,
            } if *c == conn
        ));
    }

    #[test]
    fn link_down_with_seamless_disabled_closes() {
        let cfg = DaemonConfig::new(device(0, "local")).with_seamless_connectivity(false);
        let mut d = Daemon::new(cfg);
        let dev = device(7, "remote");
        discover(&mut d, &dev, Technology::Gprs, SimTime::from_secs(1));
        let link = LinkId::new(5);
        let _conn = establish(&mut d, &dev, link, SimTime::from_secs(1));
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::LinkDown { link }),
        );
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::Closed {
                reason: CloseReason::LinkLost,
                ..
            }
        ));
    }

    #[test]
    fn responder_rebinds_on_resume() {
        let mut d = daemon();
        feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::RegisterService(ServiceInfo::new("svc"))),
        );
        let dev = device(7, "remote");
        let token = ResumeToken {
            initiator: dev.id,
            conn: ConnId::new(42),
        };
        // Initial connection carries the initiator's token.
        let out = feed(
            &mut d,
            SimTime::from_secs(1),
            DaemonInput::Plugin(PluginEvent::IncomingConnection {
                link: LinkId::new(1),
                device: dev.clone(),
                service: "svc".into(),
                technology: Technology::Bluetooth,
                resume: Some(token),
            }),
        );
        let conn = match app_events(&out)
            .iter()
            .find(|e| matches!(e, AppEvent::Incoming { .. }))
            .unwrap()
        {
            AppEvent::Incoming { conn, .. } => *conn,
            _ => unreachable!(),
        };
        // Link drops; responder waits in limbo.
        feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::LinkDown {
                link: LinkId::new(1),
            }),
        );
        assert_eq!(d.connection_count(), 1, "limbo keeps the connection");
        // Resume arrives over GPRS with the same token: rebind, no new
        // Incoming event.
        let out = feed(
            &mut d,
            SimTime::from_secs(3),
            DaemonInput::Plugin(PluginEvent::IncomingConnection {
                link: LinkId::new(2),
                device: dev,
                service: "svc".into(),
                technology: Technology::Gprs,
                resume: Some(token),
            }),
        );
        assert!(app_events(&out)
            .iter()
            .all(|e| !matches!(e, AppEvent::Incoming { .. })));
        assert!(app_events(&out).iter().any(|e| matches!(
            e,
            AppEvent::Handover { conn: c, to: Technology::Gprs, .. } if *c == conn
        )));
        // Frames on the new link reach the same logical connection.
        let out = feed(
            &mut d,
            SimTime::from_secs(4),
            DaemonInput::Plugin(PluginEvent::Frame {
                link: LinkId::new(2),
                payload: Bytes::from_static(b"x"),
            }),
        );
        assert!(matches!(
            app_events(&out)[0],
            AppEvent::Data { conn: c, .. } if *c == conn
        ));
    }

    #[test]
    fn responder_limbo_times_out() {
        let mut d = daemon();
        feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::RegisterService(ServiceInfo::new("svc"))),
        );
        let dev = device(7, "remote");
        feed(
            &mut d,
            SimTime::from_secs(1),
            DaemonInput::Plugin(PluginEvent::IncomingConnection {
                link: LinkId::new(1),
                device: dev,
                service: "svc".into(),
                technology: Technology::Bluetooth,
                resume: None,
            }),
        );
        feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::LinkDown {
                link: LinkId::new(1),
            }),
        );
        assert_eq!(d.connection_count(), 1);
        let out = tick(&mut d, SimTime::from_secs(2) + HANDOVER_GRACE);
        assert!(app_events(&out).iter().any(|e| matches!(
            e,
            AppEvent::Closed {
                reason: CloseReason::HandoverFailed,
                ..
            }
        )));
        assert_eq!(d.connection_count(), 0);
    }

    #[test]
    fn neighbor_expiry_raises_disappeared_and_monitor_alert() {
        let mut d = daemon();
        let dev = device(7, "remote");
        discover(&mut d, &dev, Technology::Bluetooth, SimTime::from_secs(1));
        feed(
            &mut d,
            SimTime::from_secs(1),
            DaemonInput::App(AppRequest::Monitor { device: dev.id }),
        );
        let ttl = DaemonConfig::new(device(0, "x")).neighbor_ttl;
        let out = tick(&mut d, SimTime::from_secs(1) + ttl);
        let evs = app_events(&out);
        assert!(evs
            .iter()
            .any(|e| matches!(e, AppEvent::DeviceDisappeared(i) if i.id == dev.id)));
        assert!(evs.iter().any(|e| matches!(
            e,
            AppEvent::MonitorAlert {
                appeared: false,
                ..
            }
        )));
    }

    #[test]
    fn monitor_alert_on_reappearance() {
        let mut d = daemon();
        let dev = device(7, "remote");
        feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::Monitor { device: dev.id }),
        );
        let out = feed(
            &mut d,
            SimTime::from_secs(1),
            DaemonInput::Plugin(PluginEvent::InquiryResponse {
                technology: Technology::Bluetooth,
                device: dev.clone(),
            }),
        );
        assert!(app_events(&out)
            .iter()
            .any(|e| matches!(e, AppEvent::MonitorAlert { appeared: true, .. })));
        // Unmonitor stops alerts.
        feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::Unmonitor { device: dev.id }),
        );
        let ttl = DaemonConfig::new(device(0, "x")).neighbor_ttl;
        let out = tick(&mut d, SimTime::from_secs(1) + ttl);
        assert!(app_events(&out)
            .iter()
            .all(|e| !matches!(e, AppEvent::MonitorAlert { .. })));
    }

    #[test]
    fn wake_is_scheduled_once_inquiries_complete() {
        let mut d = daemon();
        // While all inquiries are in flight the daemon is purely
        // event-driven: no wake is necessary.
        let out = tick(&mut d, SimTime::from_secs(5));
        assert!(
            out.iter().all(|o| !matches!(o, DaemonOutput::WakeAt(_))),
            "{out:?}"
        );
        // As soon as one inquiry completes, its next round needs a timer.
        let out = feed(
            &mut d,
            SimTime::from_secs(11),
            DaemonInput::Plugin(PluginEvent::InquiryComplete {
                technology: Technology::Wlan,
            }),
        );
        let wake = out.iter().find_map(|o| match o {
            DaemonOutput::WakeAt(t) => Some(*t),
            _ => None,
        });
        assert!(wake.expect("wake expected") > SimTime::from_secs(11));
    }

    #[test]
    fn concurrent_service_list_requests_each_get_an_answer() {
        let mut d = daemon();
        let dev = device(7, "remote");
        discover(&mut d, &dev, Technology::Bluetooth, SimTime::from_secs(1));
        // Two app requests before the reply: one wire query, two answers.
        let out1 = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::GetServiceList { device: dev.id }),
        );
        assert_eq!(plugin_cmds(&out1).len(), 1);
        let out2 = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::GetServiceList { device: dev.id }),
        );
        assert!(
            plugin_cmds(&out2).is_empty(),
            "second request shares the query"
        );
        let out = feed(
            &mut d,
            SimTime::from_secs(3),
            DaemonInput::Plugin(PluginEvent::ServiceReply {
                device: dev.id,
                services: vec![ServiceInfo::new("svc")],
            }),
        );
        let answers = app_events(&out)
            .iter()
            .filter(|e| matches!(e, AppEvent::ServiceList { .. }))
            .count();
        assert_eq!(answers, 2);
    }

    #[test]
    fn expiry_answers_pending_service_queries_with_empty_list() {
        let mut d = daemon();
        let dev = device(7, "remote");
        discover(&mut d, &dev, Technology::Bluetooth, SimTime::from_secs(1));
        feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::App(AppRequest::GetServiceList { device: dev.id }),
        );
        let ttl = DaemonConfig::new(device(0, "x")).neighbor_ttl;
        let out = tick(&mut d, SimTime::from_secs(1) + ttl);
        assert!(app_events(&out).iter().any(|e| matches!(
            e,
            AppEvent::ServiceList { services, .. } if services.is_empty()
        )));
    }

    #[test]
    fn unregistering_a_service_rejects_future_incoming_connections() {
        let mut d = daemon();
        feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::RegisterService(ServiceInfo::new("svc"))),
        );
        feed(
            &mut d,
            SimTime::from_secs(1),
            DaemonInput::App(AppRequest::UnregisterService("svc".into())),
        );
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::IncomingConnection {
                link: LinkId::new(1),
                device: device(7, "remote"),
                service: "svc".into(),
                technology: Technology::Bluetooth,
                resume: None,
            }),
        );
        assert!(plugin_cmds(&out)
            .iter()
            .any(|c| matches!(c, PluginCommand::RejectConnection { .. })));
    }

    #[test]
    fn frames_on_unknown_links_are_ignored() {
        let mut d = daemon();
        let out = feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::Plugin(PluginEvent::Frame {
                link: LinkId::new(99),
                payload: Bytes::from_static(b"stray"),
            }),
        );
        assert!(app_events(&out).is_empty());
        // And stray link-down / peer-closed notifications likewise.
        let out = feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::Plugin(PluginEvent::LinkDown {
                link: LinkId::new(98),
            }),
        );
        assert!(app_events(&out).is_empty());
        let out = feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::Plugin(PluginEvent::PeerClosed {
                link: LinkId::new(97),
            }),
        );
        assert!(app_events(&out).is_empty());
    }

    #[test]
    fn connect_result_for_forgotten_attempt_is_ignored() {
        let mut d = daemon();
        let out = feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::Plugin(PluginEvent::ConnectResult {
                attempt: AttemptId::new(55),
                result: Ok(LinkId::new(1)),
            }),
        );
        assert!(app_events(&out).is_empty());
        assert_eq!(d.connection_count(), 0);
    }

    #[test]
    fn send_on_dead_connection_reports_closed() {
        let mut d = daemon();
        let out = feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::Send {
                conn: ConnId::new(77),
                payload: Bytes::from_static(b"x"),
            }),
        );
        assert!(matches!(app_events(&out)[0], AppEvent::Closed { .. }));
    }

    #[test]
    fn hostile_link_events_for_unknown_state_never_panic() {
        // Regression for the `panic-in-dispatch` lint: every link-shaped
        // event referencing state the daemon has never seen (or has already
        // dropped) must be absorbed, not unwrap its way to a panic.
        let mut d = daemon();
        let ghost = LinkId::new(999);
        for ev in [
            PluginEvent::LinkDegraded { link: ghost },
            PluginEvent::LinkDown { link: ghost },
            PluginEvent::PeerClosed { link: ghost },
            PluginEvent::Frame {
                link: ghost,
                payload: Bytes::from_static(b"junk"),
            },
            PluginEvent::ConnectResult {
                attempt: AttemptId::new(404),
                result: Err("no such radio".into()),
            },
            PluginEvent::InquiryComplete {
                technology: Technology::Wlan,
            },
        ] {
            feed(&mut d, SimTime::from_secs(1), DaemonInput::Plugin(ev));
        }
        assert_eq!(d.connection_count(), 0);
    }

    #[test]
    fn degraded_link_on_responder_side_does_not_migrate_or_panic() {
        // The responder never initiates handover; a weakening link on its
        // side must leave the connection untouched (and, per the lint, the
        // degraded path must tolerate the conn-less case gracefully).
        let mut d = daemon();
        feed(
            &mut d,
            SimTime::ZERO,
            DaemonInput::App(AppRequest::RegisterService(ServiceInfo::new("svc"))),
        );
        let dev = device(9, "peer");
        discover(&mut d, &dev, Technology::Wlan, SimTime::ZERO);
        let link = LinkId::new(31);
        feed(
            &mut d,
            SimTime::from_secs(1),
            DaemonInput::Plugin(PluginEvent::IncomingConnection {
                link,
                device: dev,
                service: "svc".into(),
                technology: Technology::Wlan,
                resume: None,
            }),
        );
        let before = d.connection_count();
        assert_eq!(before, 1);
        let out = feed(
            &mut d,
            SimTime::from_secs(2),
            DaemonInput::Plugin(PluginEvent::LinkDegraded { link }),
        );
        assert_eq!(d.connection_count(), before);
        assert!(plugin_cmds(&out)
            .iter()
            .all(|c| !matches!(c, PluginCommand::OpenConnection { .. })));
    }
}
