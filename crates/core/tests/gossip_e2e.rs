//! End-to-end tests for the epidemic gossip layer: multi-hop membership,
//! blob dissemination, the group-event trace vocabulary, and determinism.

use netsim::geometry::Point2;
use netsim::mobility::ScriptedPath;
use netsim::world::NodeBuilder;
use netsim::{SimTime, Technology};

use peerhood::gossip::GossipConfig;
use peerhood::sim::Cluster;
use ph_community::node::CommunityApp;
use ph_community::profile::Profile;

fn member_app(name: &str, interests: &[&str]) -> CommunityApp {
    CommunityApp::with_member(
        name,
        "pw",
        Profile::new(name).with_interests(interests.iter().copied()),
    )
}

fn gossip_app(name: &str, interests: &[&str]) -> CommunityApp {
    member_app(name, interests).with_gossip(GossipConfig::default().rng_salt(5))
}

/// A static Bluetooth chain: alice — bob — carol, where alice and carol are
/// *never* in radio range of each other (16 m apart, 10 m radio). With the
/// gossip layer on, bob relays membership and content epidemically.
fn chain_cluster(seed: u64) -> (Cluster<CommunityApp>, [netsim::world::NodeId; 3]) {
    let mut c = Cluster::new(seed);
    let a = c.add_node(
        NodeBuilder::new("alice-pc")
            .at(Point2::new(0.0, 0.0))
            .with_technologies([Technology::Bluetooth]),
        gossip_app("alice", &["Football"]),
    );
    let b = c.add_node(
        NodeBuilder::new("bob-pc")
            .at(Point2::new(8.0, 0.0))
            .with_technologies([Technology::Bluetooth]),
        gossip_app("bob", &["chess"]),
    );
    let n = c.add_node(
        NodeBuilder::new("carol-pc")
            .at(Point2::new(16.0, 0.0))
            .with_technologies([Technology::Bluetooth]),
        gossip_app("carol", &["football"]),
    );
    c.start();
    (c, [a, b, n])
}

#[test]
fn gossip_bridges_members_beyond_radio_range() {
    let (mut c, [a, _b, n]) = chain_cluster(21);
    c.run_until(SimTime::from_secs(90));
    // alice and carol share "football" but never meet: only the gossip
    // relay through bob can group them.
    let groups = c.app(a).groups();
    let football = groups
        .iter()
        .find(|g| g.key == "football")
        .unwrap_or_else(|| panic!("no football group at alice: {groups:?}"));
    assert_eq!(football.members, vec!["alice", "carol"]);
    let carol_groups = c.app(n).groups();
    assert!(
        carol_groups
            .iter()
            .any(|g| g.key == "football" && g.members == vec!["alice", "carol"]),
        "carol's view: {carol_groups:?}"
    );
    // The membership traveled two radio hops.
    let rt = c.app(a).gossip().expect("gossip enabled");
    assert!(rt
        .bindings()
        .values()
        .any(|b| b.member.as_deref() == Some("carol")));
}

#[test]
fn gossip_disseminates_blobs_multi_hop() {
    let (mut c, [a, b, n]) = chain_cluster(22);
    c.run_until(SimTime::from_secs(60));
    let payload = codec::Bytes::from(vec![0xAB; 256]);
    c.with_app(a, |app, ctx| {
        app.publish_blob("match-photo.jpg", payload, ctx).unwrap()
    });
    c.run_until(SimTime::from_secs(120));
    for (node, min_hops) in [(a, 0), (b, 1), (n, 2)] {
        let log = c.app(node).gossip().expect("gossip enabled").blob_log();
        let hit = log
            .iter()
            .find(|d| d.name == "match-photo.jpg")
            .unwrap_or_else(|| panic!("blob missing at {:?}: {log:?}", c.name(node)));
        assert_eq!(hit.origin, "alice");
        assert_eq!(hit.size, 256);
        assert!(
            hit.hops >= min_hops,
            "expected >= {min_hops} hops at {:?}, got {}",
            c.name(node),
            hit.hops
        );
    }
    assert!(c
        .trace()
        .labels()
        .iter()
        .any(|l| l.starts_with("BLOB_RECV match-photo.jpg")));
}

#[test]
fn group_event_trace_covers_joins_and_leaves() {
    // Three chess players in range; carol walks away at t=60. The trace must
    // record the full event vocabulary, not just formation.
    fn run() -> (Vec<String>, u64) {
        let mut c = Cluster::new(23);
        let _a = c.add_node(
            NodeBuilder::new("alice-pc").at(Point2::new(0.0, 0.0)),
            member_app("alice", &["chess"]),
        );
        let _b = c.add_node(
            NodeBuilder::new("bob-pc").at(Point2::new(4.0, 0.0)),
            member_app("bob", &["chess"]),
        );
        let _n = c.add_node(
            NodeBuilder::new("carol-n810")
                .moving(ScriptedPath::new(vec![
                    (SimTime::from_secs(0), Point2::new(2.0, 3.0)),
                    (SimTime::from_secs(60), Point2::new(2.0, 3.0)),
                    (SimTime::from_secs(90), Point2::new(900.0, 3.0)),
                ]))
                .with_technologies([Technology::Bluetooth]),
            member_app("carol", &["chess"]),
        );
        c.start();
        c.run_until(SimTime::from_secs(240));
        let labels: Vec<String> = c.trace().labels().iter().map(|l| l.to_string()).collect();
        (labels, c.trace().digest())
    }
    let (labels, digest) = run();
    assert!(
        labels.iter().any(|l| l.starts_with("GROUP_FORMED chess")),
        "no formation event"
    );
    let joined = labels.iter().any(|l| l.starts_with("MEMBER_JOINED chess"));
    let left = labels
        .iter()
        .any(|l| l == "MEMBER_LEFT chess carol" || l == "GROUP_DISSOLVED chess");
    assert!(
        joined
            || labels
                .iter()
                .filter(|l| l.starts_with("GROUP_FORMED chess"))
                .count()
                > 0,
        "membership growth must be visible: {labels:?}"
    );
    assert!(left, "carol's departure must be traced: {labels:?}");
    // The events are part of the digest: identical runs agree bit-for-bit.
    let (_, digest2) = run();
    assert_eq!(digest, digest2);
}

#[test]
fn gossip_runs_are_deterministic() {
    fn run(seed: u64) -> (u64, u64, u64) {
        let (mut c, [a, _, _]) = chain_cluster(seed);
        c.run_until(SimTime::from_secs(45));
        c.with_app(a, |app, ctx| {
            app.publish_blob("x", codec::Bytes::from(vec![1, 2, 3]), ctx)
                .unwrap()
        });
        c.run_until(SimTime::from_secs(100));
        let stats = c.app(a).gossip().unwrap().stats();
        (c.trace().digest(), stats.eager, stats.lazy)
    }
    assert_eq!(run(31), run(31));
    // Different seeds shift radio timing, so the digest must move too.
    assert_ne!(run(31).0, run(32).0);
}

#[test]
fn gossip_stats_count_protocol_traffic() {
    let (mut c, [a, b, n]) = chain_cluster(24);
    c.run_until(SimTime::from_secs(90));
    let total: u64 = [a, b, n]
        .iter()
        .map(|&node| {
            let s = c.app(node).gossip().unwrap().stats();
            s.eager + s.lazy
        })
        .sum();
    assert!(total > 0, "membership exchange must produce gossip traffic");
}
