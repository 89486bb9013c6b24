//! The multi-bubble scenario — epidemic dissemination across disjoint
//! radio cells.
//!
//! The thesis evaluates one Bluetooth cell ([`crate::scenario::lab`]) and
//! the crowd pass evaluates one contiguous campus ([`crate::crowd`]).
//! This module builds the setting the epidemic gossip layer exists for:
//! `k` **bubbles** of stationary devices placed so far apart that no two
//! bubbles ever share a radio link, bridged only by a few **ferry**
//! devices that shuttle between bubble centres on a scripted walk,
//! dwelling long enough at each stop to exchange gossip. Membership
//! (interest profiles) and shared content (blobs) published in one
//! bubble must reach every other bubble purely store-and-forward.
//!
//! [`run`] executes one such scenario and reports the gossip acceptance
//! metrics: delivery ratio of a blob published in bubble 0, hop-count
//! and latency distributions, duplicate overhead per delivered payload,
//! and membership convergence of the interest group spanning all
//! bubbles — plus the usual order-sensitive trace digest, which must be
//! bit-identical for any worker count (`repro gate` checks this
//! at one and four threads, fault-free and under `lossy`).

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use codec::json::Json;
use netsim::geometry::Point2;
use netsim::mobility::ScriptedPath;
use netsim::world::{NodeBuilder, NodeId};
use netsim::{FaultPlan, RadioEnv, SimTime, Technology, TraceStats};
use peerhood::gossip::GossipConfig;
use peerhood::sim::Cluster;
use peerhood::RecoveryPolicy;

use community::node::{CommunityApp, RetryPolicy};
use community::profile::Profile;

/// The interest every member shares, forming the group that must span
/// all bubbles.
pub const SHARED_INTEREST: &str = "Football";
/// Name of the blob published in bubble 0.
pub const BLOB_NAME: &str = "bubble-photo.jpg";
/// Ferry walking speed between bubble centres, m/s.
const FERRY_SPEED_MPS: f64 = 1.5;

/// A pathological [`BubblesConfig`] rejected by
/// [`BubblesConfig::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum BubblesError {
    /// `bubbles == 0` — nothing to bridge.
    NoBubbles,
    /// `nodes_per_bubble == 0` — empty bubbles measure nothing.
    NoMembers,
    /// `ferries == 0` — without ferries the bubbles stay partitioned
    /// forever and every delivery metric is trivially zero.
    NoFerries,
    /// `spacing_m` too small: bubbles must be radio-disjoint (member
    /// circles of radius 3 m plus the 10 m Bluetooth range demand well
    /// over 26 m between centres).
    BubblesOverlap {
        /// The rejected spacing.
        spacing_m: f64,
    },
    /// `publish_at` is not strictly before `horizon`.
    PublishAfterHorizon,
    /// `dwell` is zero — a ferry that never stops can still pass radio
    /// range too quickly to exchange anything, and a zero dwell breaks
    /// the strictly-increasing waypoint schedule.
    ZeroDwell,
}

impl std::fmt::Display for BubblesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BubblesError::NoBubbles => write!(f, "need at least one bubble"),
            BubblesError::NoMembers => write!(f, "need at least one member per bubble"),
            BubblesError::NoFerries => write!(f, "need at least one ferry to bridge bubbles"),
            BubblesError::BubblesOverlap { spacing_m } => write!(
                f,
                "bubble spacing {spacing_m} m cannot keep Bluetooth cells disjoint (need >= 30 m)"
            ),
            BubblesError::PublishAfterHorizon => {
                write!(f, "publish_at must fall strictly before the horizon")
            }
            BubblesError::ZeroDwell => write!(f, "ferry dwell must be positive"),
        }
    }
}

impl std::error::Error for BubblesError {}

/// Configuration for one multi-bubble run.
#[derive(Clone, Debug)]
pub struct BubblesConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Number of disjoint radio bubbles (the acceptance run uses 3).
    pub bubbles: usize,
    /// Stationary member devices per bubble.
    pub nodes_per_bubble: usize,
    /// Ferry devices shuttling between bubble centres.
    pub ferries: usize,
    /// Distance between adjacent bubble centres, metres. Must keep the
    /// bubbles radio-disjoint (Bluetooth reaches 10 m).
    pub spacing_m: f64,
    /// How long a ferry dwells at each bubble centre.
    pub dwell: Duration,
    /// Virtual duration of the run.
    pub horizon: Duration,
    /// When bubble 0's first member publishes the blob.
    pub publish_at: Duration,
    /// Size of the published blob, bytes.
    pub blob_bytes: usize,
    /// Worker count for the parallel epoch engine (`1` = serial, `0` =
    /// auto). Any value produces a bit-identical trace digest.
    pub threads: usize,
    /// Ignored: the simulator runs one event queue. Kept only because
    /// `perfbench` names it in struct literals; it goes with the next
    /// benchmark change.
    pub region_lanes: usize,
    /// Fault plan injected into the radio environment (named presets in
    /// [`crate::scenario::fault_profile`]). When not inert every daemon
    /// runs with the default [`RecoveryPolicy`] and every app with the
    /// default client [`RetryPolicy`].
    pub faults: FaultPlan,
    /// Gossip layer configuration applied to every app.
    pub gossip: GossipConfig,
}

impl Default for BubblesConfig {
    fn default() -> Self {
        BubblesConfig {
            seed: 2008,
            bubbles: 3,
            nodes_per_bubble: 4,
            ferries: 2,
            spacing_m: 60.0,
            dwell: Duration::from_secs(40),
            horizon: Duration::from_secs(600),
            publish_at: Duration::from_secs(30),
            blob_bytes: 512,
            threads: 1,
            region_lanes: 0,
            faults: FaultPlan::none(),
            gossip: GossipConfig::default(),
        }
    }
}

impl BubblesConfig {
    /// Rejects pathological inputs with a typed [`BubblesError`].
    pub fn validate(&self) -> Result<(), BubblesError> {
        if self.bubbles == 0 {
            return Err(BubblesError::NoBubbles);
        }
        if self.nodes_per_bubble == 0 {
            return Err(BubblesError::NoMembers);
        }
        if self.ferries == 0 {
            return Err(BubblesError::NoFerries);
        }
        if !self.spacing_m.is_finite() || self.spacing_m < 30.0 {
            return Err(BubblesError::BubblesOverlap {
                spacing_m: self.spacing_m,
            });
        }
        if self.publish_at >= self.horizon {
            return Err(BubblesError::PublishAfterHorizon);
        }
        if self.dwell.is_zero() {
            return Err(BubblesError::ZeroDwell);
        }
        Ok(())
    }
}

/// A built (started) multi-bubble scenario.
pub struct BubblesScenario {
    /// The running cluster.
    pub cluster: Cluster<CommunityApp>,
    /// Member nodes, bubble-major order (`b0n0`, `b0n1`, …).
    pub members: Vec<NodeId>,
    /// Ferry nodes.
    pub ferries: Vec<NodeId>,
    /// The member that publishes the blob (`b0n0`).
    pub origin: NodeId,
}

/// Centre of bubble `i`.
fn bubble_centre(i: usize, spacing_m: f64) -> Point2 {
    Point2::new(i as f64 * spacing_m, 0.0)
}

/// The scripted bounce of ferry `f`: dwell at each bubble centre, walk to
/// the adjacent one, reverse at the ends. Ferries start spread across
/// the bubbles with alternating directions so coverage is not lockstep.
fn ferry_path(f: usize, config: &BubblesConfig) -> ScriptedPath {
    let travel = Duration::from_secs_f64(config.spacing_m / FERRY_SPEED_MPS);
    let end = SimTime::ZERO
        .saturating_add(config.horizon)
        .saturating_add(travel);
    let mut idx = f % config.bubbles;
    let mut dir: isize = if f.is_multiple_of(2) { 1 } else { -1 };
    let mut t = SimTime::ZERO;
    let mut waypoints = vec![(t, bubble_centre(idx, config.spacing_m))];
    while t < end && config.bubbles > 1 {
        t = t.saturating_add(config.dwell);
        waypoints.push((t, bubble_centre(idx, config.spacing_m)));
        if idx == 0 {
            dir = 1;
        } else if idx == config.bubbles - 1 {
            dir = -1;
        }
        idx = (idx as isize + dir) as usize;
        t = t.saturating_add(travel);
        waypoints.push((t, bubble_centre(idx, config.spacing_m)));
    }
    ScriptedPath::new(waypoints)
}

/// Builds and starts a multi-bubble scenario (without advancing time).
pub fn build(config: &BubblesConfig) -> Result<BubblesScenario, BubblesError> {
    config.validate()?;
    let faulted = !config.faults.is_inert();
    let mut cluster = Cluster::with_env(
        config.seed,
        RadioEnv::default().with_faults(config.faults.clone()),
    );
    let gossip = config.gossip.clone().rng_salt(config.seed);

    let add = |cluster: &mut Cluster<CommunityApp>, builder, app: CommunityApp| {
        let app = app.with_gossip(gossip.clone());
        if faulted {
            cluster.add_node_with(
                builder,
                |c| c.with_recovery(RecoveryPolicy::default()),
                app.with_fault_tolerance(RetryPolicy::default()),
            )
        } else {
            cluster.add_node(builder, app)
        }
    };

    let mut members = Vec::new();
    for b in 0..config.bubbles {
        let centre = bubble_centre(b, config.spacing_m);
        for n in 0..config.nodes_per_bubble {
            let angle = n as f64 / config.nodes_per_bubble as f64 * std::f64::consts::TAU;
            let pos = Point2::new(centre.x + 3.0 * angle.cos(), centre.y + 3.0 * angle.sin());
            let name = format!("b{b}n{n}");
            let profile = Profile::new(&name).with_interests([SHARED_INTEREST]);
            let app = CommunityApp::with_member(&name, "pw", profile);
            members.push(add(
                &mut cluster,
                NodeBuilder::new(format!("{name}-dev"))
                    .at(pos)
                    .with_technologies([Technology::Bluetooth]),
                app,
            ));
        }
    }

    let mut ferries = Vec::new();
    for f in 0..config.ferries {
        let name = format!("ferry{f}");
        let profile = Profile::new(&name).with_interests(["ferry-duty"]);
        let app = CommunityApp::with_member(&name, "pw", profile);
        ferries.push(add(
            &mut cluster,
            NodeBuilder::new(format!("{name}-n810"))
                .moving(ferry_path(f, config))
                .with_technologies([Technology::Bluetooth]),
            app,
        ));
    }

    cluster.set_threads(config.threads);
    cluster.start();
    let origin = members[0];
    Ok(BubblesScenario {
        cluster,
        members,
        ferries,
        origin,
    })
}

/// Result of one multi-bubble run.
#[derive(Clone, Debug, Default)]
pub struct BubblesReport {
    /// Bubble count.
    pub bubbles: usize,
    /// Members per bubble.
    pub nodes_per_bubble: usize,
    /// Ferry count.
    pub ferries: usize,
    /// Total member devices (excluding ferries).
    pub members: usize,
    /// Seed the run used.
    pub seed: u64,
    /// Epoch-engine worker count the run used.
    pub threads: usize,
    /// Human-readable fault plan (`"no faults"` when inert).
    pub faults: String,
    /// Virtual duration, seconds.
    pub virtual_secs: f64,
    /// Wall-clock cost of the run, milliseconds.
    pub wall_ms: f64,
    /// Members (excluding the origin) the blob was addressed to.
    pub audience: usize,
    /// Members (excluding the origin) the blob actually reached.
    pub delivered: usize,
    /// `delivered / audience` — 1.0 means the payload published in
    /// bubble 0 reached every member in every bubble.
    pub delivery_ratio: f64,
    /// Members whose shared-interest group contains the full membership
    /// of every bubble.
    pub converged_members: usize,
    /// `converged_members / members`.
    pub convergence_ratio: f64,
    /// Blob deliveries per radio-hop count.
    pub hops_histogram: BTreeMap<u8, usize>,
    /// Largest hop count observed.
    pub hops_max: u8,
    /// Mean hop count over deliveries.
    pub hops_mean: f64,
    /// Mean publish-to-delivery latency, seconds.
    pub latency_mean_s: f64,
    /// Largest publish-to-delivery latency, seconds.
    pub latency_max_s: f64,
    /// Duplicate gossip payload receipts per delivered blob copy — the
    /// epidemic overhead metric.
    pub duplicates_per_delivery: f64,
    /// Radio frames sent by every device over the run: all traffic, the
    /// community polls as well as gossip. A function of the seed.
    pub frames_sent: u64,
    /// Bytes in those frames.
    pub bytes_sent: u64,
    /// Daemon/trace counters with the gossip counters folded in.
    pub stats: TraceStats,
    /// Order-sensitive digest of the retained trace + counters
    /// (bit-identical for any `threads`).
    pub digest: u64,
}

impl BubblesReport {
    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        let hops: Vec<Json> = self
            .hops_histogram
            .iter()
            .map(|(&hops, &count)| {
                Json::obj()
                    .field("hops", u64::from(hops))
                    .field("count", count)
            })
            .collect();
        Json::obj()
            .field("bubbles", self.bubbles)
            .field("nodes_per_bubble", self.nodes_per_bubble)
            .field("ferries", self.ferries)
            .field("members", self.members)
            .field("seed", self.seed)
            .field("threads", self.threads)
            .field("faults", self.faults.as_str())
            .field("virtual_secs", self.virtual_secs)
            .field("wall_ms", self.wall_ms)
            .field("audience", self.audience)
            .field("delivered", self.delivered)
            .field("delivery_ratio", self.delivery_ratio)
            .field("converged_members", self.converged_members)
            .field("convergence_ratio", self.convergence_ratio)
            .field("hops_histogram", hops)
            .field("hops_max", u64::from(self.hops_max))
            .field("hops_mean", self.hops_mean)
            .field("latency_mean_s", self.latency_mean_s)
            .field("latency_max_s", self.latency_max_s)
            .field("duplicates_per_delivery", self.duplicates_per_delivery)
            .field("frames_sent", self.frames_sent)
            .field("bytes_sent", self.bytes_sent)
            .field(
                "gossip",
                Json::obj()
                    .field("eager", self.stats.gossip_eager)
                    .field("lazy", self.stats.gossip_lazy)
                    .field("graft", self.stats.gossip_graft)
                    .field("prune", self.stats.gossip_prune)
                    .field("duplicate", self.stats.gossip_duplicate),
            )
            .field("digest", format!("{:016x}", self.digest))
    }

    /// The report as aligned text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Multi-bubble scenario — {} bubbles x {} members, {} ferries, \
             {:.0}s virtual, {}\n\n",
            self.bubbles, self.nodes_per_bubble, self.ferries, self.virtual_secs, self.faults,
        );
        out.push_str(&format!(
            "blob delivery:  {}/{} members ({:.0}%), hops mean {:.1} max {}, \
             latency mean {:.0}s max {:.0}s\n",
            self.delivered,
            self.audience,
            self.delivery_ratio * 100.0,
            self.hops_mean,
            self.hops_max,
            self.latency_mean_s,
            self.latency_max_s,
        ));
        out.push_str(&format!(
            "membership:     {}/{} members see the full {:?} group\n",
            self.converged_members, self.members, SHARED_INTEREST,
        ));
        out.push_str(&format!(
            "overhead:       {:.2} duplicate payloads per delivery \
             (eager {} lazy {} graft {} prune {} dup {})\n",
            self.duplicates_per_delivery,
            self.stats.gossip_eager,
            self.stats.gossip_lazy,
            self.stats.gossip_graft,
            self.stats.gossip_prune,
            self.stats.gossip_duplicate,
        ));
        out.push_str(&format!(
            "radio:          {} frames, {} bytes sent\n",
            self.frames_sent, self.bytes_sent,
        ));
        out.push_str(&format!(
            "digest:         {:016x} (threads={})\nhops histogram:",
            self.digest, self.threads,
        ));
        for (hops, count) in &self.hops_histogram {
            out.push_str(&format!("\n  {hops} hops: {count}"));
        }
        out.push('\n');
        out
    }
}

/// Runs one multi-bubble scenario to its horizon: bubble 0's first
/// member publishes a blob at `publish_at`, and at the horizon the
/// delivery, convergence and overhead metrics are collected. The
/// per-node gossip counters are folded into the cluster's [`TraceStats`]
/// before the digest is taken, so the digest covers the epidemic
/// traffic too.
pub fn run(config: &BubblesConfig) -> Result<BubblesReport, BubblesError> {
    let wall = Instant::now();
    let mut s = build(config)?;
    let publish_at = SimTime::ZERO.saturating_add(config.publish_at);
    let deadline = SimTime::ZERO.saturating_add(config.horizon);
    s.cluster.run_until(publish_at);
    let payload = codec::Bytes::from(vec![0x5A; config.blob_bytes]);
    s.cluster.with_app(s.origin, |app, ctx| {
        app.publish_blob(BLOB_NAME, payload, ctx)
            .expect("origin is logged in with gossip enabled")
    });
    s.cluster.run_until(deadline);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let member_names: BTreeSet<String> = (0..config.bubbles)
        .flat_map(|b| (0..config.nodes_per_bubble).map(move |n| format!("b{b}n{n}")))
        .collect();

    let mut delivered = Vec::new();
    let mut converged_members = 0usize;
    for &id in &s.members {
        let rt = s.cluster.app(id).gossip().expect("gossip enabled");
        if id != s.origin {
            if let Some(d) = rt.blob_log().iter().find(|d| d.name == BLOB_NAME) {
                delivered.push((d.hops, d.at.saturating_since(publish_at).as_secs_f64()));
            }
        }
        let groups = s.cluster.app(id).groups();
        let full = groups.iter().any(|g| {
            g.key == SHARED_INTEREST.to_lowercase()
                && g.members.iter().cloned().collect::<BTreeSet<_>>() == member_names
        });
        if full {
            converged_members += 1;
        }
    }

    let nodes = s.members.iter().chain(&s.ferries).copied();
    crate::scenario::fold_gossip_stats(&mut s.cluster, nodes);
    let stats = *s.cluster.stats();
    let digest = s.cluster.trace().digest();

    let members_total = s.members.len();
    let audience = members_total - 1;
    let mut hops_histogram = BTreeMap::new();
    for &(hops, _) in &delivered {
        *hops_histogram.entry(hops).or_insert(0usize) += 1;
    }
    let n = delivered.len();
    let hops_mean = delivered.iter().map(|&(h, _)| f64::from(h)).sum::<f64>() / n.max(1) as f64;
    let latency_mean_s = delivered.iter().map(|&(_, l)| l).sum::<f64>() / n.max(1) as f64;
    Ok(BubblesReport {
        bubbles: config.bubbles,
        nodes_per_bubble: config.nodes_per_bubble,
        ferries: config.ferries,
        members: members_total,
        seed: config.seed,
        threads: config.threads,
        faults: config.faults.to_string(),
        virtual_secs: config.horizon.as_secs_f64(),
        wall_ms,
        audience,
        delivered: n,
        delivery_ratio: n as f64 / audience.max(1) as f64,
        converged_members,
        convergence_ratio: converged_members as f64 / members_total.max(1) as f64,
        hops_max: hops_histogram.keys().next_back().copied().unwrap_or(0),
        hops_histogram,
        hops_mean,
        latency_mean_s,
        latency_max_s: delivered.iter().map(|&(_, l)| l).fold(0.0, f64::max),
        duplicates_per_delivery: stats.gossip_duplicate as f64 / n.max(1) as f64,
        frames_sent: stats.frames_sent,
        bytes_sent: stats.bytes_sent,
        stats,
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::fault_profile;

    fn small() -> BubblesConfig {
        BubblesConfig {
            seed: 11,
            nodes_per_bubble: 2,
            horizon: Duration::from_secs(600),
            ..BubblesConfig::default()
        }
    }

    /// Tentpole acceptance: a group spanning 3 disjoint radio bubbles
    /// converges — every member sees the full membership, and a payload
    /// published in bubble 0 reaches every member everywhere, at >= 2
    /// radio hops for the far bubble.
    #[test]
    fn three_disjoint_bubbles_converge_via_ferries() {
        let report = run(&small()).expect("valid config");
        assert_eq!(
            report.delivery_ratio, 1.0,
            "blob must reach every member: {report:?}"
        );
        assert_eq!(
            report.convergence_ratio, 1.0,
            "every member must see the full group: {report:?}"
        );
        assert!(
            report.hops_max >= 2,
            "far-bubble deliveries need at least two hops: {report:?}"
        );
        assert!(report.latency_max_s > 0.0);
        assert!(
            report.stats.gossip_eager > 0,
            "epidemic traffic must be counted: {report:?}"
        );
    }

    /// The multi-bubble digest is a function of seed and fault profile
    /// only — worker count never moves it, with or without a live lossy
    /// fault plan.
    #[test]
    fn bubble_digests_survive_threads_lanes_and_faults() {
        for faults in ["none", "lossy"] {
            let base = BubblesConfig {
                horizon: Duration::from_secs(300),
                faults: fault_profile(faults).expect("named profile"),
                ..small()
            };
            let serial = run(&base).expect("valid config");
            for threads in [4, 2] {
                let par = run(&BubblesConfig {
                    threads,
                    ..base.clone()
                })
                .expect("valid config");
                assert_eq!(
                    format!("{:016x}", serial.digest),
                    format!("{:016x}", par.digest),
                    "digest diverged: faults={faults} threads={threads}"
                );
                assert_eq!(serial.stats, par.stats, "faults={faults} threads={threads}");
            }
        }
    }

    #[test]
    fn pathological_configs_are_rejected() {
        let base = BubblesConfig::default();
        assert_eq!(
            BubblesConfig {
                bubbles: 0,
                ..base.clone()
            }
            .validate()
            .err(),
            Some(BubblesError::NoBubbles)
        );
        assert_eq!(
            BubblesConfig {
                ferries: 0,
                ..base.clone()
            }
            .validate()
            .err(),
            Some(BubblesError::NoFerries)
        );
        assert!(matches!(
            BubblesConfig {
                spacing_m: 12.0,
                ..base.clone()
            }
            .validate()
            .err(),
            Some(BubblesError::BubblesOverlap { .. })
        ));
        assert_eq!(
            BubblesConfig {
                publish_at: Duration::from_secs(600),
                ..base.clone()
            }
            .validate()
            .err(),
            Some(BubblesError::PublishAfterHorizon)
        );
        assert!(base.validate().is_ok());
    }

    #[test]
    fn ferry_paths_bounce_across_all_bubbles() {
        let config = BubblesConfig::default();
        // Ferry 0 starts in bubble 0 heading outward; its scripted walk
        // must visit the far bubble within the horizon.
        use netsim::mobility::Mobility;
        let mut path = ferry_path(0, &config);
        let far = bubble_centre(config.bubbles - 1, config.spacing_m);
        let mut seen_far = false;
        let mut t = SimTime::ZERO;
        while t < SimTime::ZERO.saturating_add(config.horizon) {
            let p = path.position(t);
            if (p.x - far.x).abs() < 1.0 && (p.y - far.y).abs() < 1.0 {
                seen_far = true;
                break;
            }
            t = t.saturating_add(Duration::from_secs(5));
        }
        assert!(seen_far, "ferry 0 never reached the far bubble");
    }
}
