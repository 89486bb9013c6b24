//! The PeerHood Community application node: client + server in one PTD.
//!
//! "The test application is a client server application and every device
//! must have both the client and server" (§5.2.3). [`CommunityApp`]
//! implements [`peerhood::Application`]:
//!
//! * as a **server** it registers the `"PeerHoodCommunity"` service
//!   (Figure 8) and answers every Table 6 request from its
//!   [`MemberStore`];
//! * as a **client** it reacts to PeerHood discovery events, learns
//!   neighbors' member names and interest lists, and runs the **dynamic
//!   group discovery** algorithm (Figure 6) whenever the neighborhood
//!   changes;
//! * **user operations** — the features of Table 7 and the message
//!   sequences of Figures 11–17 — are exposed as methods that start
//!   asynchronous [`OpId`]-tracked operations whose [`OpOutcome`]s can be
//!   polled.
//!
//! ## Connection modes
//!
//! The thesis's reference client (Figure 9) *connects to every nearby
//! server anew for each operation*, sequentially — which is why its
//! measured member-list and profile times (Table 8) are dominated by
//! Bluetooth connection setup. [`OpMode::PerOperation`] reproduces that
//! behaviour faithfully; [`OpMode::Persistent`] is the obvious
//! optimization (keep one connection per peer alive), used as an ablation
//! in the evaluation harness.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use codec::Bytes;

use netsim::SimTime;
use peerhood::api::AppEvent;
use peerhood::app::{AppCtx, Application};
use peerhood::service::ServiceInfo;
use peerhood::types::{ConnId, DeviceId};

use peerhood::gossip::GossipConfig;

use crate::content::ContentInfo;
use crate::discovery::Discovery;
use crate::epidemic::{Binding, GossipNews, GossipRuntime};
use crate::error::CommunityError;
use crate::groups::{GroupEvent, GroupRegistry};
use crate::interest::Interest;
use crate::profile::ProfileView;
use crate::protocol::{Request, Response};
use crate::semantics::MatchPolicy;
use crate::server::{handle_request_cached, ReplayCache};
use crate::store::MemberStore;

/// The PeerHood service name of the community application (Figure 8).
pub const SERVICE_NAME: &str = "PeerHoodCommunity";

/// Timer token for the periodic peer refresh.
const REFRESH_TIMER: u64 = 1;

/// Timer token for the gossip housekeeping tick (graft retries, shuffles,
/// membership re-announcements).
const GOSSIP_TIMER: u64 = 2;

/// Timer-token base for deferred operation starts (fresh-inquiry mode);
/// the operation id is added to it.
const OP_START_TIMER_BASE: u64 = 1_000;

/// Timer-token base for per-request retry deadlines; the request sequence
/// number is added to it. Far above `OP_START_TIMER_BASE + OpId`, so the
/// token spaces cannot collide.
const RETRY_TIMER_BASE: u64 = 1_000_000;

/// Client-side fault tolerance for Table 6 requests (opt-in via
/// [`CommunityApp::with_fault_tolerance`]).
///
/// Every request sent on a client connection gets a deadline; an
/// unanswered request is re-sent up to `max_retries` times and the
/// connection is torn down when the retries are exhausted (which resumes
/// any per-operation plan on the next device). Mutating requests are
/// wrapped in [`Request::Idempotent`] so a retry can never double-apply a
/// comment or message on the server.
///
/// `request_timeout` must stay far above the worst simulated round-trip
/// (GPRS + a large profile is well under a second) so that a retry only
/// ever races a *lost* response, not a slow one.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long to wait for a response before re-sending.
    pub request_timeout: Duration,
    /// How many times to re-send before giving up on the connection.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            request_timeout: Duration::from_secs(5),
            max_retries: 2,
        }
    }
}

/// FNV-1a of the device name: the high half of every idempotency token, so
/// two clients retrying against the same server can never collide in its
/// replay cache.
fn client_token_half(actor: &str) -> u64 {
    (codec::Fnv1a::hash(actor.as_bytes()) & 0xFFFF_FFFF) << 32
}

/// How the client reaches neighbor servers for operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum OpMode {
    /// Keep one connection per community peer alive and reuse it (the
    /// optimized mode; our default).
    #[default]
    Persistent,
    /// Open fresh connections, one neighbor at a time, for every operation
    /// and close them afterwards — exactly what the thesis's reference
    /// client does (Figure 9), and the configuration used to regenerate
    /// Table 8.
    PerOperation,
}

/// Identifier of one asynchronous user operation.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(u64);

impl OpId {
    /// The raw value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Result data of a completed operation.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum OpResult {
    /// `get_member_list`: online member names across the neighborhood
    /// (Figure 11).
    Members(Vec<String>),
    /// `get_interest_list`: deduplicated interests across the neighborhood
    /// (Figure 12).
    Interests(Vec<String>),
    /// `get_interested_members`: members holding one interest.
    InterestedMembers(Vec<String>),
    /// `view_profile`: the profile, or `None` if no device hosted the
    /// member (all answered `NO_MEMBERS_YET`; Figure 13).
    Profile(Option<ProfileView>),
    /// `put_comment`: whether any device accepted the comment (Figure 14).
    CommentResult {
        /// `true` when a server wrote the comment.
        written: bool,
    },
    /// `view_trusted_friends`: the list, or `None` if the member was not
    /// found (Figure 15).
    TrustedFriends(Option<Vec<String>>),
    /// `view_shared_content` (Figure 16).
    SharedContent(SharedOutcome),
    /// `send_message`: whether the receiver wrote it (Figure 17's
    /// `SUCCESSFULLY_WRITTEN` / `UNSUCCESSFULL`).
    MessageResult {
        /// `true` on `SUCCESSFULLY_WRITTEN`.
        written: bool,
    },
    /// `fetch_content`: the item bytes, or `None` when refused/missing.
    Content(Option<(String, codec::Bytes)>),
    /// The operation failed before any network exchange.
    Failed(CommunityError),
}

/// Outcome of `view_shared_content`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SharedOutcome {
    /// The owner has not accepted us as a trusted friend
    /// (`NOT_TRUSTED_YET`).
    NotTrusted,
    /// The shared-content listing.
    Listing(Vec<ContentInfo>),
    /// No reachable device hosts the member.
    NoMember,
}

/// A completed operation with its timing (the raw material of Table 8).
#[derive(Clone, Debug, PartialEq)]
pub struct OpOutcome {
    /// The operation this outcome belongs to.
    pub id: OpId,
    /// When the user started it.
    pub started: SimTime,
    /// When the last response arrived.
    pub finished: SimTime,
    /// The result data.
    pub result: OpResult,
}

impl OpOutcome {
    /// Wall-clock duration of the operation.
    pub fn duration(&self) -> Duration {
        self.finished.saturating_since(self.started)
    }
}

/// What a response on a client connection is expected to answer.
#[derive(Clone, Debug, PartialEq)]
enum Pending {
    /// Automatic member-name probe (persistent mode).
    AutoMemberName,
    /// Automatic interest fetch (persistent mode).
    AutoInterests,
    /// A gossip batch; the response piggybacks the peer's queued batch.
    Gossip,
    /// Part of an operation.
    Op(OpId),
}

/// One expected response on a client connection, keyed by the sequence
/// number of the request that asked for it (the retry-deadline key).
#[derive(Clone, Debug, PartialEq)]
struct PendingEntry {
    seq: u64,
    what: Pending,
}

/// Retry bookkeeping for one in-flight request (fault-tolerant mode).
#[derive(Debug)]
struct RetryEntry {
    conn: ConnId,
    device: DeviceId,
    /// The exact frame to re-send — for mutating requests this is the
    /// [`Request::Idempotent`] envelope, so every retry carries the same
    /// token and the server applies the operation at most once.
    request: Request,
    attempts: u32,
}

#[derive(Clone, Debug, PartialEq)]
enum ConnState {
    Disconnected,
    Connecting,
    Ready(ConnId),
}

#[derive(Debug)]
struct Peer {
    /// Shared with the daemon's `DeviceInfo::name`; the gossip layer keys
    /// its views and queues by this same allocation.
    device_name: Arc<str>,
    has_service: bool,
    /// The persistent connection (unused in [`OpMode::PerOperation`]).
    conn: ConnState,
    /// Who is logged in there and their interests, as probe replies last
    /// said. Ignored once the device is bound: its gossip binding is the
    /// one copy of these facts (see [`CommunityApp::member_of`]).
    member: Option<String>,
    interests: Vec<Interest>,
}

impl Peer {
    fn new(device_name: Arc<str>) -> Self {
        Peer {
            device_name,
            has_service: false,
            conn: ConnState::Disconnected,
            member: None,
            interests: Vec::new(),
        }
    }

    fn ready_conn(&self) -> Option<ConnId> {
        match self.conn {
            ConnState::Ready(c) => Some(c),
            _ => None,
        }
    }
}

#[derive(Debug)]
enum OpKind {
    /// Background neighbor probe (per-operation mode): fetch member name +
    /// interests from every community device, then recompute groups.
    Probe,
    MemberList,
    InterestList,
    InterestedMembers,
    ViewProfile,
    PutComment,
    TrustedFriends,
    /// Two-phase (Figure 16): trust check, then the listing.
    SharedContent {
        member: String,
    },
    SendMessage,
    FetchContent,
}

#[derive(Debug, Default)]
struct OpAcc {
    names: BTreeSet<String>,
    profile: Option<ProfileView>,
    trusted: Option<Vec<String>>,
    listing: Option<Vec<ContentInfo>>,
    content: Option<(String, codec::Bytes)>,
    written: bool,
    not_trusted: bool,
}

/// Per-operation connection plan: visit each device in turn with fresh
/// connections (the Figure 9 client loop).
#[derive(Debug)]
struct OpPlan {
    requests: Vec<Request>,
    remaining: VecDeque<DeviceId>,
    current: Option<(DeviceId, Option<ConnId>)>,
}

#[derive(Debug)]
struct ActiveOp {
    kind: OpKind,
    started: SimTime,
    /// Responses still expected, per connection.
    outstanding: BTreeMap<ConnId, u32>,
    acc: OpAcc,
    plan: Option<OpPlan>,
}

impl ActiveOp {
    fn expect(&mut self, conn: ConnId) {
        *self.outstanding.entry(conn).or_insert(0) += 1;
    }

    fn outstanding_total(&self) -> u32 {
        self.outstanding.values().sum()
    }
}

/// The inputs group discovery last ran on: the local member, their
/// interests and the neighbor list (see [`CommunityApp::discovery_neighbors`]).
/// Discovery is a pure function of these and the match policy, so a rerun
/// on equal inputs changes nothing (DESIGN.md §15).
#[derive(Debug)]
struct DiscoveryInputs {
    me: String,
    own: Vec<Interest>,
    neighbors: Vec<(String, Vec<Interest>)>,
}

/// The social-networking application running on one device.
///
/// Constructed around a [`MemberStore`]; [`CommunityApp::login`] before (or
/// after) the cluster starts, then drive user operations through
/// [`Cluster::with_app`](peerhood::sim::Cluster::with_app). See the crate
/// docs for a complete example.
#[derive(Debug)]
pub struct CommunityApp {
    store: MemberStore,
    policy: MatchPolicy,
    registry: GroupRegistry,
    /// What `registry` was last updated from; `None` (at start, after a
    /// registry reset or a policy change) forces the next recompute.
    discovery_inputs: Option<DiscoveryInputs>,
    peers: BTreeMap<DeviceId, Peer>,
    conn_to_peer: BTreeMap<ConnId, DeviceId>,
    /// Pending responses expected on each of our client connections.
    conn_pending: BTreeMap<ConnId, VecDeque<PendingEntry>>,
    /// Incoming (server-side) connections with the client device's name.
    server_conns: BTreeMap<ConnId, Arc<str>>,
    /// Operations awaiting a connection to a device, in request order.
    op_connects: BTreeMap<DeviceId, VecDeque<OpId>>,
    ops: BTreeMap<OpId, ActiveOp>,
    completed: Vec<OpOutcome>,
    next_op: u64,
    active_probe: Option<OpId>,
    group_events: Vec<(SimTime, GroupEvent)>,
    started_at: Option<SimTime>,
    first_group_at: Option<SimTime>,
    refresh_interval: Duration,
    op_mode: OpMode,
    fresh_inquiry_per_op: bool,
    deferred_ops: BTreeMap<u64, OpId>,
    /// Client-side retry policy; `None` (the default) disables all retry
    /// machinery and idempotency envelopes — the pre-fault-layer behavior.
    fault_tolerance: Option<RetryPolicy>,
    /// Per-request retry state, keyed by request sequence number.
    retry_timers: BTreeMap<u64, RetryEntry>,
    next_req_seq: u64,
    /// Server-side replay protection for [`Request::Idempotent`] frames.
    /// Always on: it only ever acts when a client sends the envelope, so
    /// fault-free runs are byte-identical with or without it.
    replay: ReplayCache,
    /// Gossip configuration requested via the builder, consumed at start.
    gossip_cfg: Option<GossipConfig>,
    /// The gossip layer, present once started.
    gossip: Option<GossipRuntime>,
    /// Gossip messages queued per destination device name, waiting for a
    /// usable client connection (or for the peer to poll us, in which case
    /// they piggyback on the `GOSSIP_REPLY`).
    gossip_queues: BTreeMap<Arc<str>, Vec<peerhood::gossip::GossipMsg>>,
}

impl CommunityApp {
    /// Creates an application around a member store (create accounts on
    /// the store first via [`MemberStore::create_account`]).
    pub fn new(store: MemberStore) -> Self {
        CommunityApp {
            store,
            policy: MatchPolicy::Exact,
            registry: GroupRegistry::new(""),
            discovery_inputs: None,
            peers: BTreeMap::new(),
            conn_to_peer: BTreeMap::new(),
            conn_pending: BTreeMap::new(),
            server_conns: BTreeMap::new(),
            op_connects: BTreeMap::new(),
            ops: BTreeMap::new(),
            completed: Vec::new(),
            next_op: 0,
            active_probe: None,
            group_events: Vec::new(),
            started_at: None,
            first_group_at: None,
            refresh_interval: Duration::from_secs(20),
            op_mode: OpMode::Persistent,
            fresh_inquiry_per_op: false,
            deferred_ops: BTreeMap::new(),
            fault_tolerance: None,
            retry_timers: BTreeMap::new(),
            next_req_seq: 0,
            replay: ReplayCache::new(1024),
            gossip_cfg: None,
            gossip: None,
            gossip_queues: BTreeMap::new(),
        }
    }

    /// Convenience: a store with one account, already logged in.
    pub fn with_member(username: &str, password: &str, profile: crate::profile::Profile) -> Self {
        let mut store = MemberStore::new();
        store
            .create_account(username, password, profile)
            .expect("fresh store");
        let mut app = CommunityApp::new(store);
        app.login(username, password).expect("just created");
        app
    }

    /// Overrides the periodic refresh interval (builder style).
    pub fn with_refresh_interval(mut self, interval: Duration) -> Self {
        self.refresh_interval = interval;
        self
    }

    /// Selects the connection mode (builder style). See [`OpMode`].
    pub fn with_op_mode(mut self, mode: OpMode) -> Self {
        self.op_mode = mode;
        self
    }

    /// In [`OpMode::PerOperation`], make every user operation begin with a
    /// blocking device refresh — one full Bluetooth inquiry window — before
    /// connecting (builder style). This mirrors the thesis client's "gets
    /// the list of all nearby PeerHood capable devices" step (Figure 9) and
    /// is the configuration used to regenerate Table 8's PeerHood column.
    pub fn with_fresh_inquiry_per_op(mut self, on: bool) -> Self {
        self.fresh_inquiry_per_op = on;
        self
    }

    /// Enables client-side fault tolerance (builder style): per-request
    /// timeouts, bounded re-sends, and [`Request::Idempotent`] envelopes
    /// around mutating requests. See [`RetryPolicy`].
    pub fn with_fault_tolerance(mut self, policy: RetryPolicy) -> Self {
        self.fault_tolerance = Some(policy);
        self
    }

    /// Enables the epidemic gossip layer (builder style): bounded partial
    /// views over the radio neighborhood plus eager-push/lazy-pull
    /// dissemination of device bindings and shared content. This is the
    /// one switch for gossip, in the simulator and in live serving alike.
    pub fn with_gossip(mut self, config: GossipConfig) -> Self {
        self.gossip_cfg = Some(config);
        self
    }

    /// The active connection mode.
    pub fn op_mode(&self) -> OpMode {
        self.op_mode
    }

    /// The active client-side retry policy, if fault tolerance is enabled.
    pub fn fault_tolerance(&self) -> Option<RetryPolicy> {
        self.fault_tolerance
    }

    // ------------------------------------------------------------------
    // Local user management
    // ------------------------------------------------------------------

    /// Logs a user in (Table 7's login with valid username and password).
    ///
    /// # Errors
    ///
    /// Propagates [`CommunityError::InvalidCredentials`].
    pub fn login(&mut self, username: &str, password: &str) -> Result<(), CommunityError> {
        self.store.login(username, password)?;
        self.registry = GroupRegistry::new(username);
        self.discovery_inputs = None;
        Ok(())
    }

    /// Logs the current user out.
    pub fn logout(&mut self) {
        self.store.logout();
        self.registry = GroupRegistry::new("");
        self.discovery_inputs = None;
    }

    /// The logged-in member name.
    pub fn member(&self) -> Option<&str> {
        self.store.active_member()
    }

    /// Read access to the local member store.
    pub fn store(&self) -> &MemberStore {
        &self.store
    }

    /// Mutable access to the local member store (profile editing, trusted
    /// friends, shared content — all local features of Table 7).
    pub fn store_mut(&mut self) -> &mut MemberStore {
        &mut self.store
    }

    /// Adds an interest to the active profile and re-runs group discovery.
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError::NotLoggedIn`] without a session.
    pub fn add_interest(
        &mut self,
        interest: impl Into<Interest>,
        ctx: &mut AppCtx<'_>,
    ) -> Result<(), CommunityError> {
        self.store
            .require_active()?
            .profile_mut()
            .interests
            .add(interest);
        self.recompute_groups(ctx);
        Ok(())
    }

    /// Removes an interest from the active profile and re-runs group
    /// discovery.
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError::NotLoggedIn`] without a session.
    pub fn remove_interest(
        &mut self,
        interest: impl Into<Interest>,
        ctx: &mut AppCtx<'_>,
    ) -> Result<(), CommunityError> {
        self.store
            .require_active()?
            .profile_mut()
            .interests
            .remove(interest);
        self.recompute_groups(ctx);
        Ok(())
    }

    /// Teaches the environment that two interest terms mean the same issue
    /// (§5.1 "users may teach the semantics to the environment") and
    /// re-runs group discovery.
    pub fn teach_synonym(
        &mut self,
        a: impl Into<Interest>,
        b: impl Into<Interest>,
        ctx: &mut AppCtx<'_>,
    ) {
        self.policy.teach(&a.into(), &b.into());
        self.discovery_inputs = None;
        self.recompute_groups(ctx);
    }

    /// Adds a member to the trusted-friends list.
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError::NotLoggedIn`] without a session.
    pub fn add_trusted(&mut self, member: impl Into<String>) -> Result<(), CommunityError> {
        self.store.require_active()?.trusted.insert(member.into());
        Ok(())
    }

    /// Removes a member from the trusted-friends list.
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError::NotLoggedIn`] without a session.
    pub fn remove_trusted(&mut self, member: &str) -> Result<(), CommunityError> {
        self.store.require_active()?.trusted.remove(member);
        Ok(())
    }

    /// Who has viewed the active profile (Table 7: *View Own Viewers and
    /// Comments*).
    pub fn my_visitors(&self) -> Vec<crate::profile::Visit> {
        self.store
            .active_account()
            .map(|a| a.profile().visitors.clone())
            .unwrap_or_default()
    }

    /// Comments other members left on the active profile.
    pub fn my_comments(&self) -> Vec<crate::profile::Comment> {
        self.store
            .active_account()
            .map(|a| a.profile().comments.clone())
            .unwrap_or_default()
    }

    /// Received messages, oldest first (Table 7: *Send/Receive Messages*).
    pub fn inbox(&self) -> Vec<crate::message::MailMessage> {
        self.store
            .active_account()
            .map(|a| a.mailbox.inbox().to_vec())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Group access
    // ------------------------------------------------------------------

    /// The current effective groups (dynamic + manual adjustments).
    pub fn groups(&self) -> Vec<crate::discovery::Group> {
        self.registry.groups()
    }

    /// Groups the local user belongs to.
    pub fn my_groups(&self) -> Vec<crate::discovery::Group> {
        self.registry.my_groups()
    }

    /// Manually joins a visible group (Table 7).
    pub fn join_group(&mut self, key: &str) -> bool {
        self.registry.join(key)
    }

    /// Manually leaves a group (Table 7).
    pub fn leave_group(&mut self, key: &str) -> bool {
        self.registry.leave(key)
    }

    /// Every group membership change observed so far, with its time.
    pub fn group_events(&self) -> &[(SimTime, GroupEvent)] {
        &self.group_events
    }

    /// When the application started (the reference point for group-search
    /// timing).
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// When the local user's first group formed — `started_at` to
    /// `first_group_at` is Table 8's "group search time".
    pub fn first_group_at(&self) -> Option<SimTime> {
        self.first_group_at
    }

    /// Names of members currently known in the neighborhood.
    pub fn known_members(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .peers
            .values()
            .filter_map(|p| Some(self.member_of(p)?.0.clone()))
            .collect();
        names.sort();
        names
    }

    // ------------------------------------------------------------------
    // Gossip access
    // ------------------------------------------------------------------

    /// The gossip runtime, once the layer is enabled (views, stats, blob
    /// log).
    pub fn gossip(&self) -> Option<&GossipRuntime> {
        self.gossip.as_ref()
    }

    /// Publishes a content blob into the gossip layer for epidemic
    /// dissemination to every reachable member, multi-hop. Returns the
    /// gossip message id.
    ///
    /// # Errors
    ///
    /// [`CommunityError::NotLoggedIn`] without a session;
    /// [`CommunityError::GossipDisabled`] when the layer is off.
    pub fn publish_blob(
        &mut self,
        name: &str,
        data: Bytes,
        ctx: &mut AppCtx<'_>,
    ) -> Result<u64, CommunityError> {
        let member = self
            .store
            .active_member()
            .ok_or(CommunityError::NotLoggedIn)?
            .to_owned();
        let Some(rt) = self.gossip.as_mut() else {
            return Err(CommunityError::GossipDisabled);
        };
        ctx.trace_local(&format!("BLOB_PUBLISH {name}"));
        let id = rt.publish_blob(&member, name, data, ctx.now());
        self.flush_gossip(ctx);
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Completed-operation access
    // ------------------------------------------------------------------

    /// All completed operations so far.
    pub fn completed_ops(&self) -> &[OpOutcome] {
        &self.completed
    }

    /// The outcome of one operation, if it has completed.
    pub fn outcome(&self, id: OpId) -> Option<&OpOutcome> {
        self.completed.iter().find(|o| o.id == id)
    }

    // ------------------------------------------------------------------
    // User operations (Figures 11–17)
    // ------------------------------------------------------------------

    /// Figure 11: asks every nearby community server for its online member
    /// and displays the list.
    pub fn get_member_list(&mut self, ctx: &mut AppCtx<'_>) -> OpId {
        self.fan_out(ctx, OpKind::MemberList, Request::GetOnlineMemberList)
    }

    /// Figure 12: collects and deduplicates the interests available in the
    /// neighborhood.
    pub fn get_interest_list(&mut self, ctx: &mut AppCtx<'_>) -> OpId {
        self.fan_out(ctx, OpKind::InterestList, Request::GetInterestList)
    }

    /// Asks every nearby community server which of its members hold
    /// `interest`.
    pub fn get_interested_members(&mut self, interest: &str, ctx: &mut AppCtx<'_>) -> OpId {
        self.fan_out(
            ctx,
            OpKind::InterestedMembers,
            Request::GetInterestedMemberList {
                interest: interest.to_owned(),
            },
        )
    }

    /// Figure 13: requests `member`'s profile from every nearby server;
    /// the host answers with the profile (and logs the visit), all others
    /// with `NO_MEMBERS_YET`.
    pub fn view_profile(&mut self, member: &str, ctx: &mut AppCtx<'_>) -> OpId {
        let requester = self.member().unwrap_or_default().to_owned();
        self.fan_out(
            ctx,
            OpKind::ViewProfile,
            Request::GetProfile {
                member: member.to_owned(),
                requester,
            },
        )
    }

    /// Figure 14: sends a profile comment to every nearby server; only the
    /// member's host writes it.
    pub fn put_comment(&mut self, member: &str, comment: &str, ctx: &mut AppCtx<'_>) -> OpId {
        let author = self.member().unwrap_or_default().to_owned();
        self.fan_out(
            ctx,
            OpKind::PutComment,
            Request::AddProfileComment {
                member: member.to_owned(),
                author,
                comment: comment.to_owned(),
            },
        )
    }

    /// Figure 15: requests `member`'s trusted-friends list from every
    /// nearby server.
    pub fn view_trusted_friends(&mut self, member: &str, ctx: &mut AppCtx<'_>) -> OpId {
        self.fan_out(
            ctx,
            OpKind::TrustedFriends,
            Request::GetTrustedFriends {
                member: member.to_owned(),
            },
        )
    }

    /// Figure 16: checks trust with `member`'s device, then (if trusted)
    /// fetches their shared-content listing.
    pub fn view_shared_content(&mut self, member: &str, ctx: &mut AppCtx<'_>) -> OpId {
        let requester = self.member().unwrap_or_default().to_owned();
        let req = Request::CheckTrusted {
            member: member.to_owned(),
            requester,
        };
        self.direct_op(
            ctx,
            OpKind::SharedContent {
                member: member.to_owned(),
            },
            member,
            req,
        )
    }

    /// Figure 17: sends a mail message straight to the device hosting
    /// `to`.
    pub fn send_message(
        &mut self,
        to: &str,
        subject: &str,
        body: &str,
        ctx: &mut AppCtx<'_>,
    ) -> OpId {
        let from = self.member().unwrap_or_default().to_owned();
        let req = Request::Message {
            to: to.to_owned(),
            from,
            subject: subject.to_owned(),
            body: body.to_owned(),
        };
        self.direct_op(ctx, OpKind::SendMessage, to, req)
    }

    /// Fetches the bytes of one shared item from `member` (trusted-only
    /// file transfer).
    pub fn fetch_content(&mut self, member: &str, name: &str, ctx: &mut AppCtx<'_>) -> OpId {
        let requester = self.member().unwrap_or_default().to_owned();
        let req = Request::FetchContent {
            member: member.to_owned(),
            requester,
            name: name.to_owned(),
        };
        self.direct_op(ctx, OpKind::FetchContent, member, req)
    }

    // ------------------------------------------------------------------
    // Operation machinery
    // ------------------------------------------------------------------

    fn alloc_op(&mut self, kind: OpKind, now: SimTime) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        self.ops.insert(
            id,
            ActiveOp {
                kind,
                started: now,
                outstanding: BTreeMap::new(),
                acc: OpAcc::default(),
                plan: None,
            },
        );
        id
    }

    fn fail_op(&mut self, id: OpId, err: CommunityError, ctx: &mut AppCtx<'_>) {
        if let Some(op) = self.ops.remove(&id) {
            self.completed.push(OpOutcome {
                id,
                started: op.started,
                finished: ctx.now(),
                result: OpResult::Failed(err),
            });
        }
    }

    /// Starts a fan-out operation over all community devices.
    fn fan_out(&mut self, ctx: &mut AppCtx<'_>, kind: OpKind, req: Request) -> OpId {
        let id = self.alloc_op(kind, ctx.now());
        match self.op_mode {
            OpMode::Persistent => {
                let targets: Vec<(DeviceId, ConnId)> = self
                    .peers
                    .iter()
                    .filter_map(|(device, peer)| peer.ready_conn().map(|c| (*device, c)))
                    .collect();
                for (device, conn) in &targets {
                    self.send_on(ctx, *device, *conn, &req, Pending::Op(id));
                    self.ops.get_mut(&id).expect("just created").expect(*conn);
                }
                if targets.is_empty() {
                    self.finalize_if_done(id, ctx);
                }
            }
            OpMode::PerOperation => {
                let devices: VecDeque<DeviceId> = self
                    .peers
                    .iter()
                    .filter(|(_, p)| p.has_service)
                    .map(|(d, _)| *d)
                    .collect();
                self.ops.get_mut(&id).expect("just created").plan = Some(OpPlan {
                    requests: vec![req],
                    remaining: devices,
                    current: None,
                });
                self.begin_plan(id, ctx);
            }
        }
        id
    }

    /// Starts an operation against the single device hosting `member`.
    fn direct_op(
        &mut self,
        ctx: &mut AppCtx<'_>,
        kind: OpKind,
        member: &str,
        req: Request,
    ) -> OpId {
        let id = self.alloc_op(kind, ctx.now());
        let Some(device) = self.device_of_member(member) else {
            self.fail_op(
                id,
                CommunityError::MemberNotConnected(member.to_owned()),
                ctx,
            );
            return id;
        };
        match self.op_mode {
            OpMode::Persistent => match self.peers.get(&device).and_then(Peer::ready_conn) {
                Some(conn) => {
                    self.send_on(ctx, device, conn, &req, Pending::Op(id));
                    self.ops.get_mut(&id).expect("just created").expect(conn);
                }
                None => {
                    self.fail_op(
                        id,
                        CommunityError::MemberNotConnected(member.to_owned()),
                        ctx,
                    );
                }
            },
            OpMode::PerOperation => {
                self.ops.get_mut(&id).expect("just created").plan = Some(OpPlan {
                    requests: vec![req],
                    remaining: VecDeque::from([device]),
                    current: None,
                });
                self.begin_plan(id, ctx);
            }
        }
        id
    }

    /// Starts an operation plan, optionally after the thesis client's
    /// blocking device refresh (one Bluetooth inquiry window).
    fn begin_plan(&mut self, id: OpId, ctx: &mut AppCtx<'_>) {
        if self.fresh_inquiry_per_op {
            let token = OP_START_TIMER_BASE + id.raw();
            self.deferred_ops.insert(token, id);
            ctx.set_timer(netsim::radio::BLUETOOTH.inquiry_duration, token);
        } else {
            self.advance_plan(id, ctx);
        }
    }

    /// Per-operation mode: close the current connection (if any) and move
    /// on to the next device, or finalize.
    fn advance_plan(&mut self, id: OpId, ctx: &mut AppCtx<'_>) {
        let Some(op) = self.ops.get_mut(&id) else {
            return;
        };
        let Some(plan) = op.plan.as_mut() else {
            return;
        };
        if let Some((_, Some(conn))) = plan.current.take() {
            ctx.peerhood().close(conn);
            self.conn_to_peer.remove(&conn);
            self.conn_pending.remove(&conn);
            self.purge_conn_retries(conn);
        }
        let op = self.ops.get_mut(&id).expect("still present");
        let plan = op.plan.as_mut().expect("still present");
        match plan.remaining.pop_front() {
            Some(device) => {
                plan.current = Some((device, None));
                self.op_connects.entry(device).or_default().push_back(id);
                ctx.peerhood().connect(device, SERVICE_NAME);
            }
            None => {
                plan.current = None;
                self.finalize_if_done(id, ctx);
            }
        }
    }

    fn send_on(
        &mut self,
        ctx: &mut AppCtx<'_>,
        device: DeviceId,
        conn: ConnId,
        req: &Request,
        pending: Pending,
    ) {
        ctx.trace(&self.peer_name(device), req.label());
        let seq = self.next_req_seq;
        self.next_req_seq += 1;
        // Under fault tolerance, mutating requests go out in an idempotency
        // envelope; reads are naturally idempotent and stay bare.
        let envelope = match (self.fault_tolerance, req) {
            (Some(_), Request::AddProfileComment { .. } | Request::Message { .. }) => {
                Some(Request::Idempotent {
                    token: client_token_half(ctx.actor()) | seq,
                    inner: Box::new(req.clone()),
                })
            }
            _ => None,
        };
        let wire_req = envelope.as_ref().unwrap_or(req);
        ctx.peerhood().send(conn, Bytes::from(wire_req.encode()));
        self.conn_pending
            .entry(conn)
            .or_default()
            .push_back(PendingEntry { seq, what: pending });
        if let Some(policy) = self.fault_tolerance {
            self.retry_timers.insert(
                seq,
                RetryEntry {
                    conn,
                    device,
                    request: envelope.unwrap_or_else(|| req.clone()),
                    attempts: 0,
                },
            );
            ctx.set_timer(policy.request_timeout, RETRY_TIMER_BASE + seq);
        }
    }

    /// Drops retry state for every in-flight request on `conn` (the
    /// connection is gone; its timers will fire into the void and be
    /// ignored).
    fn purge_conn_retries(&mut self, conn: ConnId) {
        self.retry_timers.retain(|_, e| e.conn != conn);
    }

    /// A retry deadline fired for request `seq`.
    fn on_retry_timer(&mut self, seq: u64, ctx: &mut AppCtx<'_>) {
        let Some(policy) = self.fault_tolerance else {
            return;
        };
        let Some(entry) = self.retry_timers.get(&seq) else {
            return; // answered (or its connection died) meanwhile
        };
        let conn = entry.conn;
        // Responses come back in FIFO order, so only the *front* request of
        // a connection can actually be overdue; a later request's wait
        // starts when it reaches the front.
        let is_front = self
            .conn_pending
            .get(&conn)
            .and_then(VecDeque::front)
            .is_some_and(|p| p.seq == seq);
        if !is_front {
            ctx.set_timer(policy.request_timeout, RETRY_TIMER_BASE + seq);
            return;
        }
        if entry.attempts < policy.max_retries {
            let entry = self.retry_timers.get_mut(&seq).expect("checked above");
            entry.attempts += 1;
            let (device, frame, label) =
                (entry.device, entry.request.encode(), entry.request.label());
            ctx.trace(&self.peer_name(device), &format!("(retry) {label}"));
            ctx.peerhood().send(conn, Bytes::from(frame));
            ctx.set_timer(policy.request_timeout, RETRY_TIMER_BASE + seq);
        } else {
            // Retries exhausted: give up on the whole connection. Tearing
            // it down routes through `on_conn_gone`, which resumes any
            // per-operation plan on the next device and finalizes fan-outs.
            self.retry_timers.remove(&seq);
            ctx.peerhood().close(conn);
            self.on_conn_gone(conn, ctx);
        }
    }

    /// The trace name of `device`: its discovered device name, or its id.
    fn peer_name(&self, device: DeviceId) -> Arc<str> {
        self.peers.get(&device).map_or_else(
            || Arc::from(device.to_string()),
            |p| Arc::clone(&p.device_name),
        )
    }

    /// The gossip binding of `device`, if the device gossips and this
    /// node has heard its announcement. A bound peer is never polled.
    fn binding_of(&self, device: DeviceId) -> Option<&Binding> {
        let peer = self.peers.get(&device)?;
        self.gossip.as_ref()?.binding(&peer.device_name)
    }

    /// Who is logged in on `peer` and their interests: the device's gossip
    /// binding once one is known, otherwise what probes returned.
    fn member_of<'a>(&'a self, peer: &'a Peer) -> Option<(&'a String, &'a Vec<Interest>)> {
        match self
            .gossip
            .as_ref()
            .and_then(|rt| rt.binding(&peer.device_name))
        {
            Some(binding) => Some((binding.member.as_ref()?, &binding.interests)),
            None => Some((peer.member.as_ref()?, &peer.interests)),
        }
    }

    fn device_of_member(&self, member: &str) -> Option<DeviceId> {
        self.peers
            .iter()
            .find_map(|(device, peer)| (self.member_of(peer)?.0 == member).then_some(*device))
    }

    /// The neighbor list group discovery runs on, borrowed: radio peers
    /// whose member is known, in device order, then the members of the
    /// other bound devices, in device-name order, that are neither `me`
    /// nor a radio peer's member (direct radio knowledge wins when both
    /// exist).
    fn discovery_neighbors<'a>(
        &'a self,
        me: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a Vec<Interest>)> + 'a {
        let direct = self.peers.values().filter_map(move |p| self.member_of(p));
        let shadowed: BTreeSet<&str> = match &self.gossip {
            Some(_) => direct.clone().map(|(m, _)| m.as_str()).collect(),
            None => BTreeSet::new(),
        };
        let remote = self
            .gossip
            .iter()
            .flat_map(|rt| rt.bindings().values())
            .filter_map(|b| Some((b.member.as_ref()?, &b.interests)))
            .filter(move |(member, _)| *member != me && !shadowed.contains(member.as_str()));
        direct.chain(remote)
    }

    /// Whether discovery's inputs equal those it last ran on, compared in
    /// place (with gossip on, only a set of borrowed member names is
    /// built).
    fn discovery_inputs_unchanged(&self, me: &str) -> bool {
        let Some(last) = &self.discovery_inputs else {
            return false;
        };
        let own = self.store.active_account().map(|a| &a.profile().interests);
        last.me == me
            && own.into_iter().flat_map(|o| o.iter()).eq(&last.own)
            && self
                .discovery_neighbors(me)
                .eq(last.neighbors.iter().map(|(m, i)| (m, i)))
    }

    /// Re-runs dynamic group discovery (Figure 6) and reports the group
    /// events it produced. Skipped when its inputs are unchanged, which is
    /// exact: the registry would return no events and keep its state.
    fn recompute_groups(&mut self, ctx: &mut AppCtx<'_>) {
        let Some(me) = self.store.active_member() else {
            return;
        };
        let now = ctx.now();
        if !self.discovery_inputs_unchanged(me) {
            let inputs = DiscoveryInputs {
                me: me.to_owned(),
                own: self
                    .store
                    .active_account()
                    .map(|a| a.profile().interests.to_vec())
                    .unwrap_or_default(),
                neighbors: self
                    .discovery_neighbors(me)
                    .map(|(m, i)| (m.clone(), i.clone()))
                    .collect(),
            };
            let events = Discovery::new(&inputs.me, &self.policy).update(
                &mut self.registry,
                &inputs.own,
                &inputs.neighbors,
            );
            self.discovery_inputs = Some(inputs);
            for ev in events {
                match &ev {
                    GroupEvent::GroupFormed { key, .. } | GroupEvent::GroupDissolved { key } => {
                        ctx.trace_local(&format!("{} {key}", ev.label()));
                    }
                    GroupEvent::MemberJoined { key, member }
                    | GroupEvent::MemberLeft { key, member } => {
                        ctx.trace_local(&format!("{} {key} {member}", ev.label()));
                    }
                }
                self.group_events.push((now, ev));
            }
        }
        if self.first_group_at.is_none() && !self.registry.my_groups().is_empty() {
            self.first_group_at = Some(now);
        }
    }

    // ------------------------------------------------------------------
    // Gossip machinery
    // ------------------------------------------------------------------

    /// Brings the gossip layer up and starts its tick timer.
    fn enable_gossip(&mut self, config: GossipConfig, ctx: &mut AppCtx<'_>) {
        let tick = config.tick_interval();
        self.gossip = Some(GossipRuntime::new(ctx.actor(), config));
        ctx.trace_local("GOSSIP_ENABLED");
        self.announce_binding(ctx.now());
        ctx.set_timer(tick, GOSSIP_TIMER);
    }

    /// Whether any usable connection (client or server side) to the device
    /// named `name` remains.
    fn has_conn_to(&self, name: &str) -> bool {
        self.peers
            .values()
            .any(|p| *p.device_name == *name && p.ready_conn().is_some())
            || self.server_conns.values().any(|n| **n == *name)
    }

    /// A connection to `name` appeared; tell the gossip layer (idempotent).
    fn gossip_link_up(&mut self, name: &Arc<str>, ctx: &mut AppCtx<'_>) {
        let now = ctx.now();
        if let Some(rt) = self.gossip.as_mut() {
            if rt.link_up(name, now) {
                self.flush_gossip(ctx);
            }
        }
    }

    /// A connection to `name` vanished; if it was the last one, tell the
    /// gossip layer and drop any queued batches for it.
    fn gossip_link_maybe_down(&mut self, name: &str, ctx: &mut AppCtx<'_>) {
        if self.has_conn_to(name) {
            return;
        }
        let now = ctx.now();
        if let Some(rt) = self.gossip.as_mut() {
            if rt.link_down(name, now) {
                self.gossip_queues.remove(name);
                self.flush_gossip(ctx);
            }
        }
    }

    /// Moves the runtime's outbox into the per-destination queues and sends
    /// every queue that has a usable client connection as one `PS_GOSSIP`
    /// batch. Queues without a connection wait — the peer collects them as
    /// a `GOSSIP_REPLY` piggyback the next time it gossips to us.
    fn flush_gossip(&mut self, ctx: &mut AppCtx<'_>) {
        let Some(rt) = self.gossip.as_mut() else {
            return;
        };
        for (dest, msg) in rt.take_outbox() {
            self.gossip_queues.entry(dest).or_default().push(msg);
        }
        if self.gossip_queues.is_empty() {
            return;
        }
        // Batches go out in device order.
        let deliverable: Vec<(Arc<str>, DeviceId, ConnId)> = self
            .peers
            .iter()
            .filter(|(_, peer)| self.gossip_queues.contains_key(&peer.device_name))
            .filter_map(|(device, peer)| {
                // A standing connection if there is one, otherwise any live
                // per-operation client connection to the same device.
                let conn = peer.ready_conn().or_else(|| {
                    self.conn_to_peer
                        .iter()
                        .find_map(|(c, d)| (d == device).then_some(*c))
                })?;
                Some((Arc::clone(&peer.device_name), *device, conn))
            })
            .collect();
        for (name, device, conn) in deliverable {
            let Some(msgs) = self.gossip_queues.remove(&name) else {
                continue;
            };
            self.send_on(
                ctx,
                device,
                conn,
                &Request::Gossip { msgs },
                Pending::Gossip,
            );
        }
    }

    /// Feeds an incoming gossip batch from `peer` through the runtime and
    /// reacts to the news it decoded.
    fn on_gossip_batch(
        &mut self,
        peer: &Arc<str>,
        msgs: Vec<peerhood::gossip::GossipMsg>,
        ctx: &mut AppCtx<'_>,
    ) {
        let Some(rt) = self.gossip.as_mut() else {
            return;
        };
        let news = rt.handle_batch(peer, msgs, ctx.now());
        let mut membership_changed = false;
        for item in news {
            match item {
                GossipNews::Member { device, hops } => {
                    let Some(binding) = rt.binding(&device) else {
                        continue;
                    };
                    let member = binding.member.as_deref().unwrap_or("-");
                    ctx.trace_local(&format!("GOSSIP_MEMBER {device} {member} hops={hops}"));
                    membership_changed = true;
                }
                GossipNews::Blob(delivery) => {
                    ctx.trace_local(&format!(
                        "BLOB_RECV {} hops={}",
                        delivery.name, delivery.hops
                    ));
                }
            }
        }
        if membership_changed {
            self.recompute_groups(ctx);
        }
        self.flush_gossip(ctx);
    }

    /// Server side of `PS_GOSSIP`: absorb the batch, then reply with
    /// whatever is queued for that peer (the piggyback path that lets two
    /// nodes gossip even when only one direction managed to connect).
    fn on_gossip_request(
        &mut self,
        client_name: &Arc<str>,
        msgs: Vec<peerhood::gossip::GossipMsg>,
        ctx: &mut AppCtx<'_>,
    ) -> Response {
        if self.gossip.is_none() {
            return Response::Gossip(Vec::new());
        }
        self.on_gossip_batch(client_name, msgs, ctx);
        let reply = self.gossip_queues.remove(client_name).unwrap_or_default();
        Response::Gossip(reply)
    }

    /// Publishes this device's binding if the logged-in member or their
    /// interests changed since the last one (compared in place).
    fn announce_binding(&mut self, now: SimTime) {
        let Some(rt) = self.gossip.as_mut() else {
            return;
        };
        let account = self.store.active_account();
        let interests = account
            .into_iter()
            .flat_map(|a| a.profile().interests.iter());
        rt.announce_member(self.store.active_member(), interests, now);
    }

    /// The gossip housekeeping tick: re-announce the binding if it changed,
    /// run graft-retry/shuffle timers, flush, re-arm.
    fn on_gossip_tick(&mut self, ctx: &mut AppCtx<'_>) {
        let now = ctx.now();
        self.announce_binding(now);
        let Some(rt) = self.gossip.as_mut() else {
            return;
        };
        rt.on_tick(now);
        let tick = rt.config().tick_interval();
        ctx.set_timer(tick, GOSSIP_TIMER);
        self.flush_gossip(ctx);
    }

    /// Per-operation mode: probe all community devices without a gossip
    /// binding for member names and interests with short-lived
    /// connections (feeds group discovery).
    fn start_probe(&mut self, ctx: &mut AppCtx<'_>) {
        if self.active_probe.is_some() {
            return;
        }
        let devices: VecDeque<DeviceId> = self
            .peers
            .iter()
            .filter(|(d, p)| p.has_service && self.binding_of(**d).is_none())
            .map(|(d, _)| *d)
            .collect();
        if devices.is_empty() {
            return;
        }
        let id = self.alloc_op(OpKind::Probe, ctx.now());
        self.active_probe = Some(id);
        self.ops.get_mut(&id).expect("just created").plan = Some(OpPlan {
            requests: vec![Request::GetOnlineMemberList, Request::GetInterestList],
            remaining: devices,
            current: None,
        });
        // The probe is also a "get the list of all nearby devices"
        // operation (Figure 6 step 1): under the thesis-faithful
        // configuration it waits for a full inquiry round first.
        self.begin_plan(id, ctx);
    }

    /// Persistent mode: asks `device` over its standing connection `conn`
    /// who is logged in there and what they like.
    fn probe(&mut self, device: DeviceId, conn: ConnId, ctx: &mut AppCtx<'_>) {
        self.send_on(
            ctx,
            device,
            conn,
            &Request::GetOnlineMemberList,
            Pending::AutoMemberName,
        );
        self.send_on(
            ctx,
            device,
            conn,
            &Request::GetInterestList,
            Pending::AutoInterests,
        );
    }

    /// Persistent mode: open the standing connection to a discovered
    /// community device if none exists yet.
    fn connect_if_needed(&mut self, device: DeviceId, ctx: &mut AppCtx<'_>) {
        if self.op_mode != OpMode::Persistent {
            return;
        }
        let Some(peer) = self.peers.get_mut(&device) else {
            return;
        };
        if peer.has_service && peer.conn == ConnState::Disconnected {
            peer.conn = ConnState::Connecting;
            ctx.peerhood().connect(device, SERVICE_NAME);
        }
    }

    /// Routes a response frame arriving on one of our client connections.
    fn on_client_response(&mut self, conn: ConnId, payload: &[u8], ctx: &mut AppCtx<'_>) {
        let Some(&device) = self.conn_to_peer.get(&conn) else {
            return;
        };
        let Ok(resp) = Response::decode(payload) else {
            return; // tolerate garbage from a confused peer
        };
        let pending = self
            .conn_pending
            .get_mut(&conn)
            .and_then(VecDeque::pop_front);
        if let Some(entry) = &pending {
            // Answered: its retry deadline (if any) is void.
            self.retry_timers.remove(&entry.seq);
        }
        let pending = pending.map(|e| e.what);
        let peer_name = self.peer_name(device);
        ctx.trace(&peer_name, &format!("(recv) {}", resp.label()));
        match pending {
            Some(Pending::AutoMemberName) => {
                let changed = {
                    let Some(peer) = self.peers.get_mut(&device) else {
                        return;
                    };
                    let before = peer.member.clone();
                    peer.member = match &resp {
                        Response::MemberList(names) => names.first().cloned(),
                        _ => None,
                    };
                    before != peer.member
                };
                if changed {
                    self.recompute_groups(ctx);
                }
            }
            Some(Pending::AutoInterests) => {
                if let Response::InterestList(items) = &resp {
                    if let Some(peer) = self.peers.get_mut(&device) {
                        peer.interests = items.iter().map(Interest::new).collect();
                    }
                    self.recompute_groups(ctx);
                }
            }
            Some(Pending::Gossip) => {
                if let Response::Gossip(msgs) = resp {
                    if !msgs.is_empty() {
                        self.on_gossip_batch(&peer_name, msgs, ctx);
                    }
                }
            }
            Some(Pending::Op(id)) => {
                self.on_op_response(id, conn, device, resp, ctx);
            }
            None => {}
        }
    }

    fn on_op_response(
        &mut self,
        id: OpId,
        conn: ConnId,
        device: DeviceId,
        resp: Response,
        ctx: &mut AppCtx<'_>,
    ) {
        let Some(op) = self.ops.get_mut(&id) else {
            return;
        };
        if let Some(count) = op.outstanding.get_mut(&conn) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                op.outstanding.remove(&conn);
            }
        }
        let mut follow_up: Option<Request> = None;
        let mut probe_update: Option<ProbeUpdate> = None;
        match (&op.kind, resp) {
            (OpKind::Probe, Response::MemberList(names)) => {
                probe_update = Some(ProbeUpdate::Member(names.first().cloned()));
            }
            (OpKind::Probe, Response::InterestList(items)) => {
                probe_update = Some(ProbeUpdate::Interests(
                    items.iter().map(Interest::new).collect(),
                ));
            }
            (OpKind::Probe, Response::NoMembersYet) => {
                probe_update = Some(ProbeUpdate::Member(None));
            }
            (OpKind::MemberList, Response::MemberList(names)) => {
                op.acc.names.extend(names);
            }
            (OpKind::InterestList, Response::InterestList(items)) => {
                // Figure 12: merge into the stored list, adding only new
                // entries — the dedup happens in the accumulating set.
                op.acc.names.extend(items);
            }
            (OpKind::InterestedMembers, Response::InterestedMembers(names)) => {
                op.acc.names.extend(names);
            }
            (OpKind::ViewProfile, Response::Profile(view)) => {
                op.acc.profile = Some(view);
            }
            (OpKind::PutComment, Response::CommentWritten) => {
                op.acc.written = true;
            }
            (OpKind::TrustedFriends, Response::TrustedFriends(list)) => {
                op.acc.trusted = Some(list);
            }
            (OpKind::SharedContent { member }, Response::Trusted) => {
                // Phase 2 of Figure 16.
                let requester = self.store.active_member().unwrap_or_default().to_owned();
                follow_up = Some(Request::GetSharedContent {
                    member: member.clone(),
                    requester,
                });
            }
            (OpKind::SharedContent { .. }, Response::NotTrustedYet) => {
                op.acc.not_trusted = true;
            }
            (OpKind::SharedContent { .. }, Response::SharedContent(items)) => {
                op.acc.listing = Some(items);
            }
            (OpKind::SendMessage, Response::MessageWritten) => {
                op.acc.written = true;
            }
            (OpKind::SendMessage, Response::MessageFailed) => {
                op.acc.written = false;
            }
            (OpKind::FetchContent, Response::Content { name, data }) => {
                op.acc.content = Some((name, data));
            }
            (OpKind::FetchContent, Response::NotTrustedYet) => {
                op.acc.not_trusted = true;
            }
            // NO_MEMBERS_YET and anything else: contributes nothing.
            _ => {}
        }
        if let Some(update) = probe_update {
            let changed = match (self.peers.get_mut(&device), update) {
                (Some(peer), ProbeUpdate::Member(m)) => {
                    let changed = peer.member != m;
                    peer.member = m;
                    changed
                }
                (Some(peer), ProbeUpdate::Interests(items)) => {
                    let changed = peer.interests != items;
                    peer.interests = items;
                    changed
                }
                (None, _) => false,
            };
            if changed {
                self.recompute_groups(ctx);
            }
        }
        if let Some(req) = follow_up {
            self.send_on(ctx, device, conn, &req, Pending::Op(id));
            if let Some(op) = self.ops.get_mut(&id) {
                op.expect(conn);
            }
        }
        // Plan bookkeeping: once this device's connection has no expected
        // responses left, close it and visit the next device.
        let advance = self.ops.get(&id).is_some_and(|op| {
            op.plan
                .as_ref()
                .is_some_and(|plan| plan.current == Some((device, Some(conn))))
                && !op.outstanding.contains_key(&conn)
        });
        if advance {
            self.advance_plan(id, ctx);
        } else {
            self.finalize_if_done(id, ctx);
        }
    }

    fn finalize_if_done(&mut self, id: OpId, ctx: &mut AppCtx<'_>) {
        let done = self.ops.get(&id).is_some_and(|op| {
            op.outstanding_total() == 0
                && op
                    .plan
                    .as_ref()
                    .is_none_or(|p| p.remaining.is_empty() && p.current.is_none())
        });
        if !done {
            return;
        }
        let op = self.ops.remove(&id).expect("checked");
        if self.active_probe == Some(id) {
            self.active_probe = None;
            return; // probes complete silently
        }
        let result = match op.kind {
            OpKind::Probe => return, // unreachable in practice
            OpKind::MemberList => {
                ctx.trace_local("DISPLAY MEMBER LIST");
                OpResult::Members(op.acc.names.into_iter().collect())
            }
            OpKind::InterestList => {
                ctx.trace_local("DISPLAY INTEREST LIST");
                OpResult::Interests(op.acc.names.into_iter().collect())
            }
            OpKind::InterestedMembers => {
                OpResult::InterestedMembers(op.acc.names.into_iter().collect())
            }
            OpKind::ViewProfile => {
                ctx.trace_local("DISPLAY PROFILE");
                OpResult::Profile(op.acc.profile)
            }
            OpKind::PutComment => OpResult::CommentResult {
                written: op.acc.written,
            },
            OpKind::TrustedFriends => {
                ctx.trace_local("DISPLAY TRUSTED FRIENDS");
                OpResult::TrustedFriends(op.acc.trusted)
            }
            OpKind::SharedContent { .. } => {
                let outcome = if let Some(items) = op.acc.listing {
                    ctx.trace_local("DISPLAY SHARED CONTENT");
                    SharedOutcome::Listing(items)
                } else if op.acc.not_trusted {
                    SharedOutcome::NotTrusted
                } else {
                    SharedOutcome::NoMember
                };
                OpResult::SharedContent(outcome)
            }
            OpKind::SendMessage => OpResult::MessageResult {
                written: op.acc.written,
            },
            OpKind::FetchContent => OpResult::Content(op.acc.content),
        };
        self.completed.push(OpOutcome {
            id,
            started: op.started,
            finished: ctx.now(),
            result,
        });
    }

    /// A connection we depended on vanished; clean up ops and peer state.
    fn on_conn_gone(&mut self, conn: ConnId, ctx: &mut AppCtx<'_>) {
        let server_name = self.server_conns.remove(&conn);
        self.conn_pending.remove(&conn);
        self.purge_conn_retries(conn);
        let mut client_name = None;
        if let Some(device) = self.conn_to_peer.remove(&conn) {
            if let Some(peer) = self.peers.get_mut(&device) {
                // Only a lost *persistent* connection invalidates what we
                // know about the peer; per-operation connections come and
                // go by design.
                if peer.ready_conn() == Some(conn) {
                    client_name = Some(peer.device_name.clone());
                    peer.conn = ConnState::Disconnected;
                    peer.member = None;
                    peer.interests.clear();
                    self.recompute_groups(ctx);
                }
            }
        }
        for name in [server_name, client_name].into_iter().flatten() {
            self.gossip_link_maybe_down(&name, ctx);
        }
        let ids: Vec<OpId> = self.ops.keys().copied().collect();
        for id in ids {
            let mut advance = false;
            if let Some(op) = self.ops.get_mut(&id) {
                op.outstanding.remove(&conn);
                if let Some(plan) = op.plan.as_mut() {
                    if let Some((device, Some(c))) = plan.current {
                        if c == conn {
                            plan.current = Some((device, None));
                            advance = true;
                        }
                    }
                }
            }
            if advance {
                // The device died mid-visit: skip to the next one.
                if let Some(op) = self.ops.get_mut(&id) {
                    if let Some(plan) = op.plan.as_mut() {
                        plan.current = None;
                    }
                }
                self.advance_plan(id, ctx);
            } else {
                self.finalize_if_done(id, ctx);
            }
        }
    }

    /// A connection attempt made on behalf of an operation plan resolved.
    fn on_op_connect_resolved(
        &mut self,
        device: DeviceId,
        conn: Option<ConnId>,
        ctx: &mut AppCtx<'_>,
    ) -> bool {
        let Some(queue) = self.op_connects.get_mut(&device) else {
            return false;
        };
        let Some(id) = queue.pop_front() else {
            return false;
        };
        if queue.is_empty() {
            self.op_connects.remove(&device);
        }
        match conn {
            Some(conn) => {
                self.conn_to_peer.insert(conn, device);
                let requests: Vec<Request> = self
                    .ops
                    .get(&id)
                    .and_then(|op| op.plan.as_ref())
                    .map(|p| p.requests.clone())
                    .unwrap_or_default();
                if requests.is_empty() {
                    // The op finished or vanished meanwhile: just close.
                    ctx.peerhood().close(conn);
                    return true;
                }
                if let Some(op) = self.ops.get_mut(&id) {
                    if let Some(plan) = op.plan.as_mut() {
                        plan.current = Some((device, Some(conn)));
                    }
                }
                for req in &requests {
                    self.send_on(ctx, device, conn, req, Pending::Op(id));
                    if let Some(op) = self.ops.get_mut(&id) {
                        op.expect(conn);
                    }
                }
                // Per-operation connections are a gossip opportunity too:
                // batches pipeline behind the op requests on the same
                // connection and the link drops again when the op closes it.
                if let Some(name) = self.peers.get(&device).map(|p| Arc::clone(&p.device_name)) {
                    self.gossip_link_up(&name, ctx);
                }
            }
            None => {
                // Connect failed: skip this device.
                if let Some(op) = self.ops.get_mut(&id) {
                    if let Some(plan) = op.plan.as_mut() {
                        plan.current = None;
                    }
                }
                self.advance_plan(id, ctx);
            }
        }
        true
    }
}

#[derive(Debug)]
enum ProbeUpdate {
    Member(Option<String>),
    Interests(Vec<Interest>),
}

impl Application for CommunityApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.started_at = Some(ctx.now());
        // Figure 8: the server registers the PeerHoodCommunity service in
        // the PeerHood Daemon.
        ctx.peerhood()
            .register_service(ServiceInfo::new(SERVICE_NAME).with_attribute("version", "0.2"));
        ctx.set_timer(self.refresh_interval, REFRESH_TIMER);
        if let Some(config) = self.gossip_cfg.take() {
            self.enable_gossip(config, ctx);
        }
    }

    fn on_event(&mut self, event: AppEvent, ctx: &mut AppCtx<'_>) {
        match event {
            AppEvent::DeviceAppeared(info) => {
                ctx.peerhood().monitor(info.id);
                self.peers
                    .entry(info.id)
                    .or_insert_with(|| Peer::new(Arc::clone(&info.name)));
                ctx.peerhood().request_service_list(info.id);
            }
            AppEvent::ServiceList {
                device, services, ..
            } => {
                let has = services.iter().any(|s| s.name() == SERVICE_NAME);
                if let Some(peer) = self.peers.get_mut(&device) {
                    peer.has_service = has;
                }
                if has {
                    match self.op_mode {
                        OpMode::Persistent => self.connect_if_needed(device, ctx),
                        OpMode::PerOperation => self.start_probe(ctx),
                    }
                }
            }
            AppEvent::Connected {
                conn,
                device,
                service,
                ..
            } => {
                if service != SERVICE_NAME {
                    return;
                }
                // Operation-plan connections take precedence.
                if self.on_op_connect_resolved(device, Some(conn), ctx) {
                    return;
                }
                if let Some(peer) = self.peers.get_mut(&device) {
                    let peer_name = Arc::clone(&peer.device_name);
                    peer.conn = ConnState::Ready(conn);
                    self.conn_to_peer.insert(conn, device);
                    // Who is logged in there, and what do they like? A
                    // gossiping peer's binding already says; poll the
                    // others on the standing connection.
                    if self.binding_of(device).is_none() {
                        self.probe(device, conn, ctx);
                    }
                    self.gossip_link_up(&peer_name, ctx);
                }
            }
            AppEvent::ConnectFailed { device, .. } => {
                if self.on_op_connect_resolved(device, None, ctx) {
                    return;
                }
                if let Some(peer) = self.peers.get_mut(&device) {
                    if peer.conn == ConnState::Connecting {
                        peer.conn = ConnState::Disconnected;
                    }
                }
            }
            AppEvent::Incoming {
                conn,
                device,
                service,
                ..
            } if service == SERVICE_NAME => {
                let name = self.peer_name(device);
                self.server_conns.insert(conn, Arc::clone(&name));
                self.gossip_link_up(&name, ctx);
            }
            AppEvent::Data { conn, payload } => {
                if let Some(client_name) = self.server_conns.get(&conn).cloned() {
                    // Server side: decode a request, dispatch, respond.
                    let req = match Request::decode(&payload) {
                        // Gossip batches never touch the member store: they
                        // are absorbed by the gossip layer and answered with
                        // the piggyback batch queued for this peer.
                        Ok(Request::Gossip { msgs }) => {
                            let resp = self.on_gossip_request(&client_name, msgs, ctx);
                            ctx.trace(&client_name, resp.label());
                            ctx.peerhood().send(conn, Bytes::from(resp.encode()));
                            return;
                        }
                        Ok(req) => req,
                        Err(_) => return,
                    };
                    let resp = handle_request_cached(
                        &mut self.store,
                        &self.policy,
                        &mut self.replay,
                        &req,
                        ctx.now(),
                    );
                    ctx.trace(&client_name, resp.label());
                    ctx.peerhood().send(conn, Bytes::from(resp.encode()));
                } else {
                    self.on_client_response(conn, &payload, ctx);
                }
            }
            AppEvent::Closed { conn, .. } => {
                self.on_conn_gone(conn, ctx);
            }
            AppEvent::DeviceDisappeared(info) => {
                // "If any remote device is unreachable, that remote device
                // is considered as disconnected and removed from all
                // associated interest groups" (§5.1).
                if let Some(peer) = self.peers.remove(&info.id) {
                    if let ConnState::Ready(conn) = peer.conn {
                        self.conn_to_peer.remove(&conn);
                        self.conn_pending.remove(&conn);
                        self.purge_conn_retries(conn);
                        ctx.peerhood().close(conn);
                    }
                    self.gossip_link_maybe_down(&peer.device_name, ctx);
                }
                self.recompute_groups(ctx);
            }
            AppEvent::Handover { .. }
            | AppEvent::MonitorAlert { .. }
            | AppEvent::DeviceList(_)
            | AppEvent::ServiceRegistration { .. } => {}
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AppCtx<'_>) {
        if token >= RETRY_TIMER_BASE {
            self.on_retry_timer(token - RETRY_TIMER_BASE, ctx);
            return;
        }
        if let Some(id) = self.deferred_ops.remove(&token) {
            self.advance_plan(id, ctx);
            return;
        }
        if token == GOSSIP_TIMER {
            self.on_gossip_tick(ctx);
            return;
        }
        if token != REFRESH_TIMER {
            return;
        }
        match self.op_mode {
            OpMode::Persistent => {
                // Reconnect dropped community peers and refresh
                // member/interest state of connected ones (picks up
                // interest edits on other devices). Bound peers announce
                // their edits themselves and are not polled.
                let devices: Vec<DeviceId> = self.peers.keys().copied().collect();
                for device in devices {
                    let (ready, has_service) = match self.peers.get(&device) {
                        Some(p) => (p.ready_conn(), p.has_service),
                        None => continue,
                    };
                    match ready {
                        Some(_) if self.binding_of(device).is_some() => {}
                        Some(conn) => self.probe(device, conn, ctx),
                        None if has_service => self.connect_if_needed(device, ctx),
                        None => {
                            // Service list may have been missed; ask again.
                            ctx.peerhood().request_service_list(device);
                        }
                    }
                }
            }
            OpMode::PerOperation => {
                self.start_probe(ctx);
            }
        }
        ctx.set_timer(self.refresh_interval, REFRESH_TIMER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;

    fn app(name: &str, interests: &[&str]) -> CommunityApp {
        CommunityApp::with_member(
            name,
            "pw",
            Profile::new(name).with_interests(interests.iter().copied()),
        )
    }

    #[test]
    fn with_member_logs_in() {
        let a = app("alice", &["chess"]);
        assert_eq!(a.member(), Some("alice"));
        assert!(a.groups().is_empty());
        assert_eq!(a.op_mode(), OpMode::Persistent);
    }

    #[test]
    fn login_failure_propagates() {
        let mut store = MemberStore::new();
        store
            .create_account("bob", "right", Profile::new("Bob"))
            .unwrap();
        let mut a = CommunityApp::new(store);
        assert_eq!(
            a.login("bob", "wrong"),
            Err(CommunityError::InvalidCredentials)
        );
        assert_eq!(a.member(), None);
        a.login("bob", "right").unwrap();
        assert_eq!(a.member(), Some("bob"));
        a.logout();
        assert_eq!(a.member(), None);
    }

    #[test]
    fn trusted_management_requires_login() {
        let mut a = CommunityApp::new(MemberStore::new());
        assert_eq!(a.add_trusted("x"), Err(CommunityError::NotLoggedIn));
        let mut b = app("bob", &[]);
        b.add_trusted("alice").unwrap();
        assert!(b
            .store()
            .active_account()
            .unwrap()
            .trusted
            .contains("alice"));
        b.remove_trusted("alice").unwrap();
        assert!(!b
            .store()
            .active_account()
            .unwrap()
            .trusted
            .contains("alice"));
    }

    #[test]
    fn op_mode_builder() {
        let a = app("alice", &[]).with_op_mode(OpMode::PerOperation);
        assert_eq!(a.op_mode(), OpMode::PerOperation);
    }

    #[test]
    fn outcome_lookup_finds_completed_ops() {
        let a = app("alice", &[]);
        assert!(a.completed_ops().is_empty());
        assert!(a.outcome(OpId(0)).is_none());
    }

    /// A [`GroupRegistry`] fed discovery's inputs from scratch at every
    /// check — the recompute with no skip, as the oracle for the app's
    /// skip-when-unchanged path.
    struct ScratchRegistry {
        registry: GroupRegistry,
        /// How many of the app's group events earlier checks consumed.
        seen: usize,
    }

    impl ScratchRegistry {
        fn new(me: &str) -> Self {
            ScratchRegistry {
                registry: GroupRegistry::new(me),
                seen: 0,
            }
        }

        /// Discovery's inputs built the way the app built them before it
        /// learned to skip: radio peers in device order (a bound one as
        /// its binding says, any other as probes said), then the members
        /// of bound devices that are neither `me` nor a radio peer's.
        fn inputs(app: &CommunityApp) -> Option<DiscoveryInputs> {
            let me = app.member()?.to_owned();
            let own = app
                .store()
                .active_account()
                .map(|a| a.profile().interests.to_vec())
                .unwrap_or_default();
            let binding = |device: &str| app.gossip().and_then(|rt| rt.binding(device));
            let mut neighbors: Vec<(String, Vec<Interest>)> = app
                .peers
                .values()
                .filter_map(|p| match binding(&p.device_name) {
                    Some(b) => Some((b.member.clone()?, b.interests.clone())),
                    None => Some((p.member.clone()?, p.interests.clone())),
                })
                .collect();
            if let Some(rt) = app.gossip() {
                for b in rt.bindings().values() {
                    let Some(member) = &b.member else { continue };
                    if *member == me || neighbors.iter().any(|(n, _)| n == member) {
                        continue;
                    }
                    neighbors.push((member.clone(), b.interests.clone()));
                }
            }
            Some(DiscoveryInputs { me, own, neighbors })
        }

        /// Feeds the app's current inputs through the scratch registry and
        /// asserts the app shows the same groups and emitted the same
        /// events since the last check. Returns how many events that was.
        fn check(&mut self, app: &CommunityApp, step: &str) -> usize {
            let expected = match Self::inputs(app) {
                Some(i) => Discovery::new(&i.me, &app.policy).update(
                    &mut self.registry,
                    &i.own,
                    &i.neighbors,
                ),
                None => Vec::new(),
            };
            let got: Vec<GroupEvent> = app.group_events()[self.seen..]
                .iter()
                .map(|(_, ev)| ev.clone())
                .collect();
            self.seen = app.group_events().len();
            assert_eq!(got, expected, "{step}: group events");
            assert_eq!(app.groups(), self.registry.groups(), "{step}: groups");
            assert_eq!(
                app.my_groups(),
                self.registry.my_groups(),
                "{step}: my groups"
            );
            got.len()
        }
    }

    #[test]
    fn skipped_recomputes_match_a_registry_fed_from_scratch() {
        use netsim::geometry::Point2;
        use netsim::mobility::ScriptedPath;
        use netsim::world::NodeBuilder;
        use netsim::Technology;
        use peerhood::sim::Cluster;

        let gossip = || GossipConfig::default().rng_salt(9);
        let secs = SimTime::from_secs;
        // alice under test, with bob beside her; carol far away until
        // 150 s, then within bob's range but never alice's, so alice can
        // only learn her through gossip; dave (no gossip layer, so nobody
        // relays his membership) beside alice until he walks off at 400 s.
        let mut c = Cluster::new(17);
        let alice = c.add_node(
            NodeBuilder::new("alice-pc")
                .at(Point2::new(0.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            app("alice", &["Chess", "Fussball"]).with_gossip(gossip()),
        );
        let bob = c.add_node(
            NodeBuilder::new("bob-pc")
                .at(Point2::new(8.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            app("bob", &["chess", "football", "sauna"]).with_gossip(gossip()),
        );
        let carol = c.add_node(
            NodeBuilder::new("carol-pc")
                .moving(ScriptedPath::new(vec![
                    (secs(0), Point2::new(16.0, 900.0)),
                    (secs(150), Point2::new(16.0, 900.0)),
                    (secs(160), Point2::new(16.0, 0.0)),
                ]))
                .with_technologies([Technology::Bluetooth]),
            app("carol", &["chess"]).with_gossip(gossip()),
        );
        c.add_node(
            NodeBuilder::new("dave-pc")
                .moving(ScriptedPath::new(vec![
                    (secs(0), Point2::new(0.0, 5.0)),
                    (secs(400), Point2::new(0.0, 5.0)),
                    (secs(420), Point2::new(0.0, 900.0)),
                ]))
                .with_technologies([Technology::Bluetooth]),
            app("dave", &["sauna"]),
        );
        c.start();
        let mut oracle = ScratchRegistry::new("alice");

        // Login (at construction) and discovery of bob.
        c.run_until(secs(60));
        assert!(oracle.check(c.app(alice), "login") > 0);

        // An interest edit.
        c.with_app(alice, |a, ctx| a.add_interest("Sauna", ctx))
            .expect("logged in");
        assert!(oracle.check(c.app(alice), "add_interest") > 0);

        // A policy change with no input change: only invalidation can
        // make it show.
        c.with_app(alice, |a, ctx| a.teach_synonym("Fussball", "football", ctx));
        assert!(oracle.check(c.app(alice), "teach_synonym") > 0);

        // Manual leave and join, then refresh rounds that recompute on
        // unchanged inputs.
        assert!(c.with_app(alice, |a, _| a.leave_group("sauna")));
        assert!(oracle.registry.leave("sauna"));
        oracle.check(c.app(alice), "leave_group");
        assert!(!c.app(alice).my_groups().iter().any(|g| g.key == "sauna"));
        assert!(c.with_app(alice, |a, _| a.join_group("sauna")));
        assert!(oracle.registry.join("sauna"));
        oracle.check(c.app(alice), "join_group");
        c.run_until(secs(120));
        assert_eq!(oracle.check(c.app(alice), "unchanged refreshes"), 0);

        // carol arrives at bob's side; alice learns her through gossip,
        // and bob shares a blob that reaches both of them.
        c.with_app(bob, |b, ctx| {
            b.publish_blob("notes.txt", Bytes::from(vec![7; 8]), ctx)
        })
        .expect("gossip enabled");
        c.run_until(secs(300));
        assert!(oracle.check(c.app(alice), "gossip-learned member") > 0);
        assert!(c
            .app(alice)
            .gossip()
            .expect("gossip enabled")
            .bindings()
            .values()
            .any(|b| b.member.as_deref() == Some("carol")));
        // Gossip carries what receivers act on: alice's two announcements
        // (before and after `add_interest`), bob's, carol's and the blob.
        // Group events stay local, so none of them is cached anywhere.
        for node in [alice, bob, carol] {
            let member = c.app(node).member();
            let rt = c.app(node).gossip().expect("gossip enabled");
            assert_eq!(rt.blob_log().len(), 1, "{member:?}");
            assert_eq!(rt.gossip().cache_len(), 4 + 1, "{member:?}");
        }

        // Logout and login reset the registry; the next recompute must
        // rebuild every group although discovery's inputs did not change
        // (re-adding an interest she holds recomputes with no sim time).
        c.with_app(alice, |a, _| a.logout());
        oracle.registry = GroupRegistry::new("");
        oracle.check(c.app(alice), "logout");
        c.with_app(alice, |a, _| a.login("alice", "pw"))
            .expect("valid credentials");
        oracle.registry = GroupRegistry::new("alice");
        c.with_app(alice, |a, ctx| a.add_interest("Chess", ctx))
            .expect("logged in");
        assert!(oracle.check(c.app(alice), "login again") > 0);
        // A login while logged in resets the registry too.
        c.with_app(alice, |a, _| a.login("alice", "pw"))
            .expect("valid credentials");
        oracle.registry = GroupRegistry::new("alice");
        c.with_app(alice, |a, ctx| a.add_interest("Chess", ctx))
            .expect("logged in");
        assert!(oracle.check(c.app(alice), "login while logged in") > 0);
        c.run_until(secs(340));
        oracle.check(c.app(alice), "after login");

        // dave walks off: his device disappears from alice's neighborhood.
        assert!(c.app(alice).known_members().contains(&"dave".to_owned()));
        c.run_until(secs(600));
        assert!(oracle.check(c.app(alice), "dave disappeared") > 0);
        assert_eq!(c.app(alice).known_members(), ["bob"]);

        // A logout is announced too, as a binding without a member: one
        // more payload in every cache.
        c.with_app(alice, |a, _| a.logout());
        oracle.registry = GroupRegistry::new("");
        c.run_until(secs(605));
        oracle.check(c.app(alice), "logout announced");
        for node in [alice, bob, carol] {
            let member = c.app(node).member();
            let rt = c.app(node).gossip().expect("gossip enabled");
            assert_eq!(rt.gossip().cache_len(), 4 + 1 + 1, "{member:?}");
        }
        let rt = c.app(bob).gossip().expect("gossip enabled");
        assert_eq!(
            rt.binding("alice-pc").map(|b| b.member.as_deref()),
            Some(None)
        );
    }

    /// Nodes side by side with Bluetooth radios, 5 m apart, on devices
    /// named `a-pc`, `b-pc`, `c-pc`, ...
    fn side_by_side<const N: usize>(
        apps: [CommunityApp; N],
    ) -> (
        peerhood::sim::Cluster<CommunityApp>,
        [netsim::world::NodeId; N],
    ) {
        use netsim::geometry::Point2;
        use netsim::world::NodeBuilder;
        use netsim::Technology;
        let mut c = peerhood::sim::Cluster::new(23);
        let mut x = 0.0;
        let mut letters = 'a'..;
        let ids = apps.map(|app| {
            let letter = letters.next().expect("enough letters");
            let node = NodeBuilder::new(format!("{letter}-pc"))
                .at(Point2::new(x, 0.0))
                .with_technologies([Technology::Bluetooth]);
            x += 5.0;
            c.add_node(node, app)
        });
        c.start();
        (c, ids)
    }

    /// The device id under which `app` knows the device named `name`.
    fn device_named(app: &CommunityApp, name: &str) -> DeviceId {
        app.peers
            .iter()
            .find_map(|(d, p)| (*p.device_name == *name).then_some(*d))
            .expect("a discovered peer")
    }

    fn group_members(app: &CommunityApp, key: &str) -> Vec<String> {
        app.groups()
            .into_iter()
            .find(|g| g.key == key)
            .map(|g| g.members)
            .unwrap_or_default()
    }

    #[test]
    fn gossiping_and_non_gossiping_peers_poll_each_other_and_group() {
        let gossip = GossipConfig::default().rng_salt(5);
        let (mut c, [alice, dave]) = side_by_side([
            app("alice", &["chess", "opera"]).with_gossip(gossip),
            app("dave", &["chess", "tennis"]),
        ]);
        c.run_until(SimTime::from_secs(60));
        assert_eq!(group_members(c.app(alice), "chess"), ["alice", "dave"]);
        assert_eq!(group_members(c.app(dave), "chess"), ["alice", "dave"]);
        let rt = c.app(alice).gossip().expect("gossip enabled");
        assert!(rt.binding("b-pc").is_none(), "dave does not gossip");
        // Edits that bypass group discovery reach the other side only
        // through the refresh poll, in both directions.
        for (node, interest) in [(dave, "opera"), (alice, "tennis")] {
            c.with_app(node, |a, _| {
                let account = a.store_mut().active_account_mut().expect("logged in");
                account.profile_mut().interests.add(interest);
            });
        }
        c.run_until(SimTime::from_secs(90));
        assert_eq!(group_members(c.app(alice), "opera"), ["alice", "dave"]);
        assert_eq!(group_members(c.app(dave), "tennis"), ["alice", "dave"]);
    }

    #[test]
    fn a_bound_peer_logout_and_relogin_reach_peers_through_gossip() {
        let gossip = || GossipConfig::default().rng_salt(5);
        // alice never refreshes, so only gossip can tell her what changed.
        let (mut c, [alice, bob]) = side_by_side([
            app("alice", &["chess"])
                .with_gossip(gossip())
                .with_refresh_interval(Duration::from_secs(3600)),
            app("bob", &["chess"]).with_gossip(gossip()),
        ]);
        c.run_until(SimTime::from_secs(60));
        assert_eq!(c.app(alice).known_members(), ["bob"]);
        let bob_device = device_named(c.app(alice), "b-pc");
        assert!(c.app(alice).binding_of(bob_device).is_some());

        c.with_app(bob, |b, _| b.logout());
        c.run_until(SimTime::from_secs(63));
        assert!(c.app(alice).known_members().is_empty());
        assert!(c.app(alice).device_of_member("bob").is_none());

        c.with_app(bob, |b, _| {
            let profile = crate::profile::Profile::new("robert").with_interests(["chess"]);
            b.store_mut()
                .create_account("robert", "pw", profile)
                .expect("fresh name");
            b.login("robert", "pw").expect("valid credentials");
        });
        c.run_until(SimTime::from_secs(66));
        assert_eq!(c.app(alice).known_members(), ["robert"]);
        assert_eq!(c.app(alice).device_of_member("robert"), Some(bob_device));
        // bob's device is bound to robert now, so bob is in no group.
        assert_eq!(group_members(c.app(alice), "chess"), ["alice", "robert"]);
    }

    #[test]
    fn a_bound_peer_interest_removal_reaches_peers_through_gossip() {
        let gossip = || GossipConfig::default().rng_salt(5);
        // alice never refreshes, so only gossip can tell her what changed;
        // carol keeps the chess group alive once bob leaves it.
        let (mut c, [alice, bob, _]) = side_by_side([
            app("alice", &["chess"])
                .with_gossip(gossip())
                .with_refresh_interval(Duration::from_secs(3600)),
            app("bob", &["chess", "go"]).with_gossip(gossip()),
            app("carol", &["chess"]).with_gossip(gossip()),
        ]);
        c.run_until(SimTime::from_secs(60));
        assert_eq!(
            group_members(c.app(alice), "chess"),
            ["alice", "bob", "carol"]
        );
        let seen = c.app(alice).group_events().len();

        c.with_app(bob, |b, ctx| b.remove_interest("chess", ctx))
            .expect("logged in");
        c.run_until(SimTime::from_secs(63));
        let left = GroupEvent::MemberLeft {
            key: "chess".into(),
            member: "bob".into(),
        };
        let events: Vec<&GroupEvent> = c.app(alice).group_events()[seen..]
            .iter()
            .map(|(_, ev)| ev)
            .collect();
        assert_eq!(events, [&left]);
        assert_eq!(group_members(c.app(alice), "chess"), ["alice", "carol"]);
    }

    #[test]
    fn probe_replies_never_shadow_a_binding() {
        let gossip = || GossipConfig::default().rng_salt(5);
        let (mut c, [alice, _]) = side_by_side([
            app("alice", &["chess"]).with_gossip(gossip()),
            app("bob", &["chess"]).with_gossip(gossip()),
        ]);
        c.run_until(SimTime::from_secs(60));
        let bob_device = device_named(c.app(alice), "b-pc");
        // A late reply to a poll that claims someone else is logged in on
        // bob's device, with other interests, changes nothing: discovery
        // reads bob's binding.
        c.with_app(alice, |a, ctx| {
            let conn = a.peers[&bob_device]
                .ready_conn()
                .expect("standing connection");
            let replies = [
                (
                    Pending::AutoMemberName,
                    Response::MemberList(vec!["mallory".into()]),
                ),
                (
                    Pending::AutoInterests,
                    Response::InterestList(vec!["darts".into()]),
                ),
            ];
            for (what, resp) in replies {
                let pending = a.conn_pending.entry(conn).or_default();
                pending.push_front(PendingEntry {
                    seq: u64::MAX,
                    what,
                });
                a.on_client_response(conn, &resp.encode(), ctx);
            }
        });
        assert_eq!(c.app(alice).known_members(), ["bob"]);
        assert_eq!(c.app(alice).device_of_member("bob"), Some(bob_device));
        assert!(c.app(alice).device_of_member("mallory").is_none());
        assert_eq!(group_members(c.app(alice), "chess"), ["alice", "bob"]);
    }
}
