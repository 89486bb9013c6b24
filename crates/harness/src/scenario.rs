//! Standard experiment scenarios.
//!
//! The thesis evaluated in ComLab room 6604: a handful of stationary PCs
//! and laptops within one Bluetooth cell ([`lab`]). The concept chapter also
//! motivates mobile communities — a bus ride, a campus walk — which the
//! examples and ablations build from the same pieces.

use netsim::geometry::Point2;
use netsim::world::{NodeBuilder, NodeId};
use netsim::{FaultPlan, FaultProfile, RadioEnv, Technology, TraceStats};
use peerhood::gossip::GossipConfig;
use peerhood::sim::Cluster;
use peerhood::RecoveryPolicy;

use community::node::{CommunityApp, OpMode, RetryPolicy};
use community::profile::Profile;

/// Resolves a named fault profile — the shared `--faults <name>`
/// vocabulary of `repro lab`, `repro crowd` and `repro bubbles`, and the
/// presets [`LabConfig`], [`crate::crowd::CrowdConfig`] and
/// [`crate::bubbles::BubblesConfig`] accept as a [`FaultPlan`].
///
/// * `"none"` — the inert plan (the default).
/// * `"lossy"` — the thesis's hostile-radio conditions: 10% independent
///   Bluetooth frame loss plus Gilbert burst episodes (enter 0.02, exit
///   0.25, loss 0.60 while bursting).
pub fn fault_profile(name: &str) -> Option<FaultPlan> {
    match name {
        "none" => Some(FaultPlan::none()),
        "lossy" => Some(FaultPlan::none().with_profile(
            Technology::Bluetooth,
            FaultProfile {
                frame_loss: 0.10,
                burst_enter: 0.02,
                burst_exit: 0.25,
                burst_loss: 0.60,
                ..FaultProfile::NONE
            },
        )),
        _ => None,
    }
}

/// A built lab scenario: one observer device plus peer devices, all within
/// Bluetooth range.
pub struct LabScenario {
    /// The running cluster.
    pub cluster: Cluster<CommunityApp>,
    /// The device whose user drives the measured tasks.
    pub observer: NodeId,
    /// The other devices, in creation order (members `member1`,
    /// `member2`, …).
    pub peers: Vec<NodeId>,
}

/// Configuration for [`lab`].
#[derive(Clone, Debug)]
pub struct LabConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Number of peer devices besides the observer.
    pub peer_count: usize,
    /// Connection mode for every app.
    pub op_mode: OpMode,
    /// Whether user operations block on a fresh inquiry first (the thesis
    /// client behaviour; see
    /// [`CommunityApp::with_fresh_inquiry_per_op`]).
    pub fresh_inquiry_per_op: bool,
    /// The interest every peer shares with the observer.
    pub shared_interest: String,
    /// Extra distinct interests given to each peer (`extra-1`, …).
    pub extra_interests_per_peer: usize,
    /// Number of interests on the observer (the shared one plus
    /// `own-1`, …).
    pub observer_interests: usize,
    /// Fault plan injected into the radio environment. When not inert,
    /// every daemon runs with the default [`RecoveryPolicy`] and every
    /// app with the default client [`RetryPolicy`] (idempotent retried
    /// requests); an inert plan reproduces the fault-free run
    /// bit-for-bit.
    pub faults: FaultPlan,
    /// When set, every app runs the epidemic gossip layer with this
    /// configuration (see [`GossipConfig`]); `None` reproduces the
    /// gossip-free lab bit-for-bit.
    pub gossip: Option<GossipConfig>,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            seed: 1,
            peer_count: 3,
            op_mode: OpMode::PerOperation,
            fresh_inquiry_per_op: true,
            shared_interest: "Football".to_owned(),
            extra_interests_per_peer: 2,
            observer_interests: 1,
            faults: FaultPlan::none(),
            gossip: None,
        }
    }
}

/// Builds and starts the ComLab-room scenario: `peer_count + 1` stationary
/// devices in a circle of radius 3 m (all within one Bluetooth cell), each
/// logged in as its member, every peer sharing `shared_interest` with the
/// observer (`user1`).
pub fn lab(config: &LabConfig) -> LabScenario {
    let faulted = !config.faults.is_inert();
    let mut cluster = Cluster::with_env(
        config.seed,
        RadioEnv::default().with_faults(config.faults.clone()),
    );
    let add = |cluster: &mut Cluster<CommunityApp>, builder, app: CommunityApp| {
        let app = match &config.gossip {
            Some(g) => app.with_gossip(g.clone()),
            None => app,
        };
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

    let mut observer_profile =
        Profile::new("User One").with_interests([config.shared_interest.as_str()]);
    for i in 1..config.observer_interests {
        observer_profile.interests.add(format!("own-{i}"));
    }
    let observer_app = CommunityApp::with_member("user1", "pw", observer_profile)
        .with_op_mode(config.op_mode)
        .with_fresh_inquiry_per_op(config.fresh_inquiry_per_op);
    let observer = add(
        &mut cluster,
        NodeBuilder::new("user1-laptop").at(Point2::ORIGIN),
        observer_app,
    );

    let mut peers = Vec::new();
    for i in 1..=config.peer_count {
        let angle = i as f64 / config.peer_count as f64 * std::f64::consts::TAU;
        let pos = Point2::new(3.0 * angle.cos(), 3.0 * angle.sin());
        let name = format!("member{i}");
        let mut profile =
            Profile::new(format!("Member {i}")).with_interests([config.shared_interest.as_str()]);
        for j in 1..=config.extra_interests_per_peer {
            profile.interests.add(format!("extra-{i}-{j}"));
        }
        let app = CommunityApp::with_member(&name, "pw", profile)
            .with_op_mode(config.op_mode)
            .with_fresh_inquiry_per_op(config.fresh_inquiry_per_op);
        peers.push(add(
            &mut cluster,
            NodeBuilder::new(format!("{name}-pc")).at(pos),
            app,
        ));
    }

    cluster.start();
    LabScenario {
        cluster,
        observer,
        peers,
    }
}

/// Folds the gossip counters of `nodes`' apps into the cluster's
/// [`TraceStats`], so the digest and the reported stats cover the
/// epidemic traffic. Apps without gossip add nothing; the sums do not
/// depend on the worker count.
pub fn fold_gossip_stats(
    cluster: &mut Cluster<CommunityApp>,
    nodes: impl IntoIterator<Item = NodeId>,
) {
    let mut sum = TraceStats::default();
    for id in nodes {
        if let Some(rt) = cluster.app(id).gossip() {
            let st = rt.stats();
            sum.gossip_eager += st.eager;
            sum.gossip_lazy += st.lazy;
            sum.gossip_graft += st.graft;
            sum.gossip_prune += st.prune;
            sum.gossip_duplicate += st.duplicate;
        }
    }
    cluster.trace_mut().stats_mut().add(&sum);
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;

    #[test]
    fn lab_scenario_forms_the_shared_group() {
        let mut s = lab(&LabConfig {
            seed: 3,
            peer_count: 2,
            ..LabConfig::default()
        });
        s.cluster.run_until(SimTime::from_secs(60));
        let groups = s.cluster.app(s.observer).groups();
        assert_eq!(groups.len(), 1, "{groups:?}");
        assert_eq!(groups[0].key, "football");
        assert_eq!(groups[0].members.len(), 3);
    }

    #[test]
    fn named_fault_profiles_resolve() {
        assert!(fault_profile("none").expect("known").is_inert());
        let lossy = fault_profile("lossy").expect("known");
        assert!(!lossy.is_inert());
        assert_eq!(lossy.profile(Technology::Bluetooth).frame_loss, 0.10);
        assert!(lossy.profile(Technology::Wlan).is_inert());
        assert!(fault_profile("chaos-monkey").is_none());
    }

    #[test]
    fn lab_scenario_runs_with_gossip_enabled() {
        let mut s = lab(&LabConfig {
            seed: 5,
            peer_count: 2,
            gossip: Some(GossipConfig::default().rng_salt(5)),
            ..LabConfig::default()
        });
        s.cluster.run_until(SimTime::from_secs(60));
        // The shared group still forms, and every node actually runs the
        // gossip layer (in one radio cell it is pure overhead, but the
        // runtime must be live and announcing members).
        assert_eq!(s.cluster.app(s.observer).groups().len(), 1);
        let rt = s.cluster.app(s.observer).gossip().expect("gossip enabled");
        assert!(
            !rt.remote_members().is_empty() || rt.stats().eager > 0,
            "gossip layer produced no traffic at all"
        );
    }

    #[test]
    fn lab_scenario_respects_persistent_mode() {
        let mut s = lab(&LabConfig {
            seed: 4,
            peer_count: 2,
            op_mode: OpMode::Persistent,
            fresh_inquiry_per_op: false,
            ..LabConfig::default()
        });
        s.cluster.run_until(SimTime::from_secs(60));
        assert_eq!(s.cluster.app(s.observer).op_mode(), OpMode::Persistent);
        assert_eq!(s.cluster.app(s.observer).groups().len(), 1);
    }
}
