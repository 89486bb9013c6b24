//! Daemon configuration.

use std::time::Duration;

use netsim::Technology;

use crate::gossip::GossipConfig;
use crate::techmap::TechMap;
use crate::types::DeviceInfo;

/// Configuration of one PeerHood daemon instance.
///
/// # Example
///
/// ```rust
/// use ph_peerhood::config::DaemonConfig;
/// use ph_peerhood::types::{DeviceId, DeviceInfo};
/// use netsim::Technology;
/// use std::time::Duration;
///
/// let cfg = DaemonConfig::new(DeviceInfo::new(DeviceId::new(1), "alice", Technology::ALL))
///     .with_inquiry_interval(Technology::Bluetooth, Duration::from_secs(15))
///     .with_seamless_connectivity(true);
/// assert!(cfg.seamless_connectivity);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DaemonConfig {
    /// Identity of the local device. A daemon reads it only when it is
    /// built, so the simulator's daemons that differ only here share one
    /// configuration.
    pub device: DeviceInfo,
    /// How often to start a discovery round, per technology. A new round is
    /// started this long after the *start* of the previous one (and never
    /// while one is still running).
    pub inquiry_interval: TechMap<Duration>,
    /// How long a neighbor stays in the table without answering discovery
    /// before it is declared gone.
    pub neighbor_ttl: Duration,
    /// Automatically query the service list of newly appeared devices, so
    /// applications see a populated service cache (the thesis's PHD "keeps
    /// track of other wireless device discovery and service discovery in
    /// those devices").
    pub auto_service_discovery: bool,
    /// Attempt to migrate live connections to another shared technology
    /// when their link drops (Table 3: *Seamless Connectivity*).
    pub seamless_connectivity: bool,
    /// Optional timeout/retry/backoff policy for flaky environments.
    /// `None` (the default) keeps the daemon's original fire-and-forget
    /// behavior and is bit-identical to pre-recovery builds.
    pub recovery: Option<RecoveryPolicy>,
    /// Optional epidemic membership + dissemination layer. `None` (the
    /// default) keeps the daemon gossip-free and bit-identical to
    /// pre-gossip builds; `Some` makes the daemon announce the config to
    /// its application via
    /// [`AppEvent::GossipEnabled`](crate::AppEvent::GossipEnabled) on its
    /// first input.
    pub gossip: Option<GossipConfig>,
}

/// Timeout, retry and backoff policy used when a daemon runs with fault
/// recovery enabled ([`DaemonConfig::with_recovery`]).
///
/// Retries use capped exponential backoff: retry *n* (counting from 0)
/// waits `min(backoff_base * 2^n, backoff_cap)` before relaunching.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// How long one connection attempt may stay unanswered before it is
    /// treated as failed.
    pub connect_timeout: Duration,
    /// How many times a fully failed operation (all technologies exhausted)
    /// is retried before giving up.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base: Duration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: Duration,
    /// How long a remote service-list query may stay unanswered before it
    /// is retried or resolved from cache.
    pub query_timeout: Duration,
    /// On a final query timeout, serve the expired cached service list
    /// (flagged `stale`) instead of an empty one.
    pub serve_stale: bool,
}

impl Default for RecoveryPolicy {
    /// Defaults sized for the thesis's Bluetooth 1.2 timings: an 8 s
    /// connect timeout comfortably covers the ~1.3 s worst-case paging, a
    /// 3 s query timeout covers SDP round trips, and three retries with
    /// 500 ms → 8 s backoff ride out burst-loss episodes.
    fn default() -> Self {
        RecoveryPolicy {
            connect_timeout: Duration::from_secs(8),
            max_retries: 3,
            backoff_base: Duration::from_millis(500),
            backoff_cap: Duration::from_secs(8),
            query_timeout: Duration::from_secs(3),
            serve_stale: true,
        }
    }
}

impl RecoveryPolicy {
    /// The backoff delay before retry number `tries` (counting from 0).
    pub fn backoff(&self, tries: u32) -> Duration {
        let factor = 1u32 << tries.min(16);
        self.backoff_cap
            .min(self.backoff_base.saturating_mul(factor))
    }
}

impl DaemonConfig {
    /// Creates a configuration with era-appropriate defaults: Bluetooth
    /// inquiry every 15 s, WLAN scan every 5 s, GPRS lookup every 30 s,
    /// neighbor TTL 2.5 × the slowest interval, auto service discovery and
    /// seamless connectivity on.
    pub fn new(device: DeviceInfo) -> Self {
        let mut inquiry_interval = TechMap::new();
        inquiry_interval.insert(Technology::Bluetooth, Duration::from_secs(15));
        inquiry_interval.insert(Technology::Wlan, Duration::from_secs(5));
        inquiry_interval.insert(Technology::Gprs, Duration::from_secs(30));
        DaemonConfig {
            device,
            inquiry_interval,
            neighbor_ttl: Duration::from_secs(75),
            auto_service_discovery: true,
            seamless_connectivity: true,
            recovery: None,
            gossip: None,
        }
    }

    /// Enables timeout/retry/backoff recovery with the given policy
    /// (builder style).
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Enables the epidemic gossip layer with the given tuning (builder
    /// style):
    ///
    /// ```rust
    /// # use ph_peerhood::config::DaemonConfig;
    /// # use ph_peerhood::gossip::GossipConfig;
    /// # use ph_peerhood::types::{DeviceId, DeviceInfo};
    /// # use netsim::Technology;
    /// use std::time::Duration;
    ///
    /// let cfg = DaemonConfig::new(DeviceInfo::new(DeviceId::new(1), "alice", Technology::ALL))
    ///     .with_gossip(
    ///         GossipConfig::default()
    ///             .active_view(5)
    ///             .passive_view(30)
    ///             .shuffle_every(Duration::from_secs(30)),
    ///     );
    /// assert!(cfg.gossip.is_some());
    /// ```
    pub fn with_gossip(mut self, gossip: GossipConfig) -> Self {
        self.gossip = Some(gossip);
        self
    }

    /// Overrides one technology's inquiry interval (builder style).
    pub fn with_inquiry_interval(mut self, tech: Technology, interval: Duration) -> Self {
        self.inquiry_interval.insert(tech, interval);
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

    /// Enables or disables seamless connectivity (builder style).
    pub fn with_seamless_connectivity(mut self, on: bool) -> Self {
        self.seamless_connectivity = on;
        self
    }

    /// Whether `self` and `other` agree on everything but `device`, so
    /// that daemons of different devices can share one configuration.
    pub(crate) fn eq_apart_from_device(&self, other: &DaemonConfig) -> bool {
        let DaemonConfig {
            device: _,
            inquiry_interval,
            neighbor_ttl,
            auto_service_discovery,
            seamless_connectivity,
            recovery,
            gossip,
        } = self;
        *inquiry_interval == other.inquiry_interval
            && *neighbor_ttl == other.neighbor_ttl
            && *auto_service_discovery == other.auto_service_discovery
            && *seamless_connectivity == other.seamless_connectivity
            && *recovery == other.recovery
            && *gossip == other.gossip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DeviceId;

    fn device() -> DeviceInfo {
        DeviceInfo::new(DeviceId::new(1), "test", [Technology::Bluetooth])
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = DaemonConfig::new(device());
        assert!(cfg.auto_service_discovery);
        assert!(cfg.seamless_connectivity);
        assert!(cfg.neighbor_ttl > Duration::from_secs(30));
    }

    #[test]
    fn builder_overrides() {
        let cfg = DaemonConfig::new(device())
            .with_inquiry_interval(Technology::Bluetooth, Duration::from_secs(99))
            .with_neighbor_ttl(Duration::from_secs(7))
            .with_auto_service_discovery(false)
            .with_seamless_connectivity(false);
        assert_eq!(
            cfg.inquiry_interval.get(Technology::Bluetooth),
            Some(&Duration::from_secs(99))
        );
        assert_eq!(cfg.neighbor_ttl, Duration::from_secs(7));
        assert!(!cfg.auto_service_discovery);
        assert!(!cfg.seamless_connectivity);
    }

    #[test]
    fn recovery_is_off_by_default_and_opt_in() {
        let cfg = DaemonConfig::new(device());
        assert!(cfg.recovery.is_none());
        let cfg = cfg.with_recovery(RecoveryPolicy::default());
        assert!(cfg.recovery.is_some());
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RecoveryPolicy {
            backoff_base: Duration::from_millis(500),
            backoff_cap: Duration::from_secs(8),
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff(0), Duration::from_millis(500));
        assert_eq!(p.backoff(1), Duration::from_secs(1));
        assert_eq!(p.backoff(2), Duration::from_secs(2));
        assert_eq!(p.backoff(10), Duration::from_secs(8), "capped");
        // Huge retry counts must not overflow the shift.
        assert_eq!(p.backoff(u32::MAX), Duration::from_secs(8));
    }
}
