//! Configuration of the live TCP driver.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use crate::config::RecoveryPolicy;
use crate::gossip::GossipConfig;

/// Configuration of the live reactor ([`LiveServer`](super::LiveServer)),
/// whether it serves alone or as a member of an in-process
/// [`LiveNet`](super::LiveNet).
///
/// Mirrors the builder conventions of
/// [`DaemonConfig`](crate::config::DaemonConfig) and `netsim::RadioEnv`:
/// `LiveConfig::default()` gives live-appropriate defaults, `with_*`
/// methods override one knob each.
///
/// # Example
///
/// ```rust
/// use ph_peerhood::live::LiveConfig;
/// use std::time::Duration;
///
/// let cfg = LiveConfig::default()
///     .with_listen_shards(2)
///     .with_queue_cap(64 * 1024)
///     .with_idle_timeout(Duration::from_secs(30));
/// assert_eq!(cfg.listen_shards, 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LiveConfig {
    /// Address the reactor listens on (the members of a `LiveNet` always
    /// bind ephemeral loopback ports and ignore this). Port 0 picks an
    /// ephemeral port; the bound address is reported by
    /// [`LiveServer::addr`](super::LiveServer::addr).
    pub listen: SocketAddr,
    /// Number of reactor I/O shards: each shard is one thread owning a
    /// clone of the listener (so accepts are spread) and a disjoint set of
    /// connections, accepted or dialed, that it polls non-blockingly.
    pub listen_shards: usize,
    /// Per-connection bound on queued outbound bytes. When the peer's
    /// socket stops draining and this many bytes pile up, the connection
    /// is **shed**: the queue is dropped and a farewell frame carrying
    /// [`ErrorKind::Overloaded`](crate::error::ErrorKind::Overloaded) is
    /// sent as soon as the socket accepts it.
    pub queue_cap: usize,
    /// Close connections with no *inbound* traffic for this long, with a
    /// farewell frame carrying
    /// [`ErrorKind::Timeout`](crate::error::ErrorKind::Timeout). The
    /// default reuses the [`RecoveryPolicy`] vocabulary: an idle peer is
    /// treated exactly like an unanswered connect —
    /// `RecoveryPolicy::default().connect_timeout` (8 s).
    pub idle_timeout: Duration,
    /// How long a freshly accepted socket may sit without completing its
    /// handshake frame before it is dropped (also
    /// `RecoveryPolicy::default().connect_timeout` by default).
    pub handshake_timeout: Duration,
    /// How often a daemon starts a discovery round. A round answers with
    /// the other members of the server's `LiveNet`; a standalone
    /// `LiveServer` has none (thin clients are not discoverable), so
    /// serving setups want this long.
    pub inquiry_interval: Duration,
    /// How long a neighbor stays known without answering discovery.
    pub neighbor_ttl: Duration,
    /// Automatically query the service lists of appearing devices. Only
    /// `LiveNet` members appear, so a standalone server never queries;
    /// serving setups turn it off to say so.
    pub auto_service_discovery: bool,
    /// Optional daemon timeout/retry/backoff policy, forwarded to
    /// [`DaemonConfig::with_recovery`](crate::config::DaemonConfig::with_recovery).
    pub recovery: Option<RecoveryPolicy>,
    /// Ignored: the application switches gossip on itself. Kept only
    /// because `perfbench` names it in struct literals; it goes with the
    /// next benchmark change.
    pub gossip: Option<GossipConfig>,
    /// Journal file for persistent store snapshots with incremental
    /// append ([`LiveServer`](super::LiveServer) only; drivers pass it to
    /// the persistence hook's owner).
    pub snapshot_path: Option<PathBuf>,
    /// How often the reactor asks its persistence hook for a fresh
    /// checkpoint (compacting the journal). A final checkpoint is always
    /// written on orderly shutdown.
    pub snapshot_cadence: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        let recovery = RecoveryPolicy::default();
        LiveConfig {
            listen: SocketAddr::from(([127, 0, 0, 1], 0)),
            listen_shards: 1,
            queue_cap: 256 * 1024,
            idle_timeout: recovery.connect_timeout,
            handshake_timeout: recovery.connect_timeout,
            inquiry_interval: Duration::from_millis(200),
            neighbor_ttl: Duration::from_secs(5),
            auto_service_discovery: true,
            recovery: None,
            gossip: None,
            snapshot_path: None,
            snapshot_cadence: Duration::from_secs(30),
        }
    }
}

impl LiveConfig {
    /// Overrides the listen address (builder style).
    pub fn with_listen(mut self, addr: SocketAddr) -> Self {
        self.listen = addr;
        self
    }

    /// Overrides the number of reactor I/O shards (builder style). Clamped
    /// to at least one.
    pub fn with_listen_shards(mut self, shards: usize) -> Self {
        self.listen_shards = shards.max(1);
        self
    }

    /// Overrides the per-connection outbound queue cap in bytes (builder
    /// style).
    pub fn with_queue_cap(mut self, bytes: usize) -> Self {
        self.queue_cap = bytes;
        self
    }

    /// Overrides the idle-connection timeout (builder style).
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Overrides the handshake deadline (builder style).
    pub fn with_handshake_timeout(mut self, timeout: Duration) -> Self {
        self.handshake_timeout = timeout;
        self
    }

    /// Overrides the discovery cadence (builder style).
    pub fn with_inquiry_interval(mut self, interval: Duration) -> Self {
        self.inquiry_interval = interval;
        self
    }

    /// Overrides the neighbor TTL (builder style).
    pub fn with_neighbor_ttl(mut self, ttl: Duration) -> Self {
        self.neighbor_ttl = ttl;
        self
    }

    /// Enables or disables automatic remote service discovery (builder
    /// style).
    pub fn with_auto_service_discovery(mut self, on: bool) -> Self {
        self.auto_service_discovery = on;
        self
    }

    /// Enables daemon fault recovery **and** re-derives the live timeouts
    /// from the policy's vocabulary: `idle_timeout` and
    /// `handshake_timeout` become the policy's `connect_timeout` (builder
    /// style).
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.idle_timeout = policy.connect_timeout;
        self.handshake_timeout = policy.connect_timeout;
        self.recovery = Some(policy);
        self
    }

    /// Persists the served application's store to a journal at `path`
    /// (builder style). See [`LiveServer`](super::LiveServer).
    pub fn with_snapshot_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }

    /// Overrides the checkpoint cadence (builder style).
    pub fn with_snapshot_cadence(mut self, cadence: Duration) -> Self {
        self.snapshot_cadence = cadence;
        self
    }

    /// Creates an empty in-process live network (the only construction
    /// path — build the config first, then the network).
    pub fn network<A: crate::app::Application>(self) -> super::LiveNet<A> {
        super::LiveNet::with_config(self)
    }

    /// Starts a production serving reactor for `app` (no persistence);
    /// see [`LiveServer::spawn_with`](super::LiveServer::spawn_with) for
    /// the persistent variant.
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener or spawning threads.
    pub fn serve<A: crate::app::Application + Send + 'static>(
        self,
        name: impl Into<String>,
        app: A,
    ) -> std::io::Result<super::LiveServer<A>> {
        super::LiveServer::spawn(self, name, app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reuse_recovery_vocabulary() {
        let cfg = LiveConfig::default();
        let recovery = RecoveryPolicy::default();
        assert_eq!(cfg.idle_timeout, recovery.connect_timeout);
        assert_eq!(cfg.handshake_timeout, recovery.connect_timeout);
        assert!(cfg.recovery.is_none(), "recovery itself stays opt-in");
        assert_eq!(cfg.listen_shards, 1);
        assert!(cfg.queue_cap > 0);
    }

    #[test]
    fn builders_override_each_knob() {
        let cfg = LiveConfig::default()
            .with_listen(SocketAddr::from(([127, 0, 0, 1], 4411)))
            .with_listen_shards(0)
            .with_queue_cap(1024)
            .with_idle_timeout(Duration::from_secs(1))
            .with_handshake_timeout(Duration::from_secs(2))
            .with_inquiry_interval(Duration::from_secs(60))
            .with_neighbor_ttl(Duration::from_secs(120))
            .with_auto_service_discovery(false)
            .with_snapshot_path("/tmp/x.journal")
            .with_snapshot_cadence(Duration::from_secs(5));
        assert_eq!(cfg.listen.port(), 4411);
        assert_eq!(cfg.listen_shards, 1, "clamped to at least one shard");
        assert_eq!(cfg.queue_cap, 1024);
        assert_eq!(cfg.idle_timeout, Duration::from_secs(1));
        assert_eq!(cfg.handshake_timeout, Duration::from_secs(2));
        assert_eq!(cfg.inquiry_interval, Duration::from_secs(60));
        assert_eq!(cfg.neighbor_ttl, Duration::from_secs(120));
        assert!(!cfg.auto_service_discovery);
        assert_eq!(
            cfg.snapshot_path.as_deref().unwrap().to_str(),
            Some("/tmp/x.journal")
        );
        assert_eq!(cfg.snapshot_cadence, Duration::from_secs(5));
    }

    #[test]
    fn with_recovery_rederives_live_timeouts() {
        let policy = RecoveryPolicy {
            connect_timeout: Duration::from_secs(3),
            ..RecoveryPolicy::default()
        };
        let cfg = LiveConfig::default().with_recovery(policy);
        assert_eq!(cfg.idle_timeout, Duration::from_secs(3));
        assert_eq!(cfg.handshake_timeout, Duration::from_secs(3));
        assert_eq!(cfg.recovery, Some(policy));
    }
}
