//! Property tests for the gossip layer's partial-view invariants: view
//! bounds hold, the views stay disjoint and self-free under arbitrary
//! churn/message interleavings, and a post-churn clique converges (every
//! node delivers every published payload).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use codec::prop::{check, Config, Gen};
use codec::Bytes;
use netsim::SimTime;
use ph_peerhood::gossip::{message_id, Gossip, GossipConfig};

const NAMES: [&str; 6] = ["n0", "n1", "n2", "n3", "n4", "n5"];

/// A tiny in-memory transport: N gossip machines plus a symmetric
/// connectivity matrix. Messages are relayed only while both ends stay
/// connected, mirroring the radio-link contract of the real harness.
struct Mesh {
    nodes: Vec<Gossip>,
    /// `NAMES` as the shared names the transport hands to the machines.
    names: Vec<Arc<str>>,
    linked: Vec<Vec<bool>>,
    now: SimTime,
}

impl Mesh {
    fn new(cfg: &GossipConfig) -> Mesh {
        let nodes = NAMES
            .iter()
            .map(|name| Gossip::new(*name, cfg.clone()))
            .collect();
        Mesh {
            nodes,
            names: NAMES.iter().map(|name| Arc::from(*name)).collect(),
            linked: vec![vec![false; NAMES.len()]; NAMES.len()],
            now: SimTime::ZERO,
        }
    }

    fn index_of(name: &str) -> usize {
        NAMES.iter().position(|n| *n == name).expect("known name")
    }

    fn link(&mut self, a: usize, b: usize) {
        if a == b || self.linked[a][b] {
            return;
        }
        self.linked[a][b] = true;
        self.linked[b][a] = true;
        let now = self.now;
        self.nodes[a].neighbor_up(&self.names[b], now);
        self.nodes[b].neighbor_up(&self.names[a], now);
    }

    fn unlink(&mut self, a: usize, b: usize) {
        if a == b || !self.linked[a][b] {
            return;
        }
        self.linked[a][b] = false;
        self.linked[b][a] = false;
        let now = self.now;
        self.nodes[a].neighbor_down(NAMES[b], now);
        self.nodes[b].neighbor_down(NAMES[a], now);
    }

    /// Drains every outbox once, delivering only over live links.
    /// Returns how many messages moved.
    // Indexing: the loop takes `nodes[i]`'s outbox and delivers into
    // `nodes[j]`, which an iterator borrow cannot express.
    #[allow(clippy::needless_range_loop)]
    fn relay_once(&mut self) -> usize {
        let mut moved = 0;
        for i in 0..self.nodes.len() {
            let out = self.nodes[i].take_outbox();
            for (dest, msg) in out {
                let j = Mesh::index_of(&dest);
                if self.linked[i][j] {
                    moved += 1;
                    let now = self.now;
                    self.nodes[j].on_msg(&self.names[i], msg, now);
                }
            }
        }
        moved
    }

    fn relay_until_quiet(&mut self) {
        // Bounded: each relay round can only shrink the outstanding work in
        // a static topology; the cap guards against a protocol livelock.
        for _ in 0..64 {
            if self.relay_once() == 0 {
                return;
            }
        }
        panic!("gossip mesh failed to quiesce in 64 relay rounds");
    }

    fn assert_view_invariants(&self, cfg: &GossipConfig) {
        for (i, node) in self.nodes.iter().enumerate() {
            let active = node.active_view();
            let passive = node.passive_view();
            assert!(
                active.len() <= cfg.active_limit(),
                "{}: active view over bound: {active:?}",
                NAMES[i]
            );
            assert!(
                passive.len() <= cfg.passive_limit(),
                "{}: passive view over bound: {passive:?}",
                NAMES[i]
            );
            assert!(
                !active.contains(NAMES[i]) && !passive.contains(NAMES[i]),
                "{}: view contains self",
                NAMES[i]
            );
            let overlap: BTreeSet<_> = active.intersection(passive).collect();
            assert!(
                overlap.is_empty(),
                "{}: views overlap: {overlap:?}",
                NAMES[i]
            );
        }
    }
}

fn small_cfg(g: &mut Gen) -> GossipConfig {
    GossipConfig::default()
        .active_view(g.usize_in(1, 4))
        .passive_view(g.usize_in(0, 5))
        // The dedup cache must outlive the in-flight id set (≤ 49 distinct
        // ids under gen_ops: 6 origins × 8 seqs + the converge payload) or
        // Plumtree's seen-check forgets circulating ids and re-forwards
        // them forever — see `GossipConfig::cache_capacity`.
        .cache_capacity(g.usize_in(50, 96))
        .shuffle_every(Duration::from_secs(5))
        .graft_timeout(Duration::from_secs(1))
        .rng_salt(g.any_u64())
}

#[derive(Debug, Clone)]
enum Op {
    Link(usize, usize),
    Unlink(usize, usize),
    Publish(usize, u64),
    Tick(u64),
    Relay,
}

fn gen_ops(g: &mut Gen) -> (GossipConfig, Vec<Op>) {
    let cfg = small_cfg(g);
    let n = NAMES.len();
    let ops = g.vec_of(60, |g| match g.u64(5) {
        0 => Op::Link(g.usize(n), g.usize(n)),
        1 => Op::Unlink(g.usize(n), g.usize(n)),
        2 => Op::Publish(g.usize(n), g.u64(8)),
        3 => Op::Tick(g.u64_in(1, 10)),
        _ => Op::Relay,
    });
    (cfg, ops)
}

fn run_ops(mesh: &mut Mesh, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Link(a, b) => mesh.link(a, b),
            Op::Unlink(a, b) => mesh.unlink(a, b),
            Op::Publish(i, seq) => {
                let id = message_id(NAMES[i], seq);
                let now = mesh.now;
                mesh.nodes[i].publish(id, Bytes::from(vec![seq as u8]), now);
            }
            Op::Tick(secs) => {
                mesh.now += Duration::from_secs(secs);
                let now = mesh.now;
                for node in &mut mesh.nodes {
                    node.on_tick(now);
                }
            }
            Op::Relay => {
                mesh.relay_once();
            }
        }
    }
}

#[test]
fn partial_views_hold_invariants_under_churn() {
    check(
        &Config::with_cases(200),
        "gossip_view_invariants",
        gen_ops,
        |(cfg, ops)| {
            let mut mesh = Mesh::new(cfg);
            run_ops(&mut mesh, ops);
            mesh.assert_view_invariants(cfg);
        },
    );
}

#[test]
fn post_churn_clique_converges() {
    check(
        &Config::with_cases(60),
        "gossip_churn_convergence",
        gen_ops,
        |(cfg, ops)| {
            let mut mesh = Mesh::new(cfg);
            run_ops(&mut mesh, ops);
            // Churn over: bring the whole mesh into one clique, publish a
            // fresh payload, and let it settle.
            let n = mesh.nodes.len();
            for a in 0..n {
                for b in (a + 1)..n {
                    mesh.link(a, b);
                }
            }
            mesh.relay_until_quiet();
            let id = message_id(NAMES[0], 0xdead);
            let now = mesh.now;
            mesh.nodes[0].publish(id, Bytes::from(b"converge".to_vec()), now);
            mesh.relay_until_quiet();
            for (i, node) in mesh.nodes.iter().enumerate() {
                assert!(node.has_seen(id), "{} missed the payload", NAMES[i]);
            }
            mesh.assert_view_invariants(cfg);
        },
    );
}

#[test]
fn view_bounds_are_plain_assertions_not_lint_rules() {
    // ci.sh advertises a `gossip-view-bound` check; the bound is a runtime
    // property of the state machine (not a syntactic pattern), so it lives
    // here as a direct assertion instead of a ph-lint rule. Saturate one
    // node far past both bounds and check the caps directly.
    let cfg = GossipConfig::default().active_view(3).passive_view(7);
    let mut g = Gossip::new("me", cfg.clone());
    let now = SimTime::ZERO;
    for i in 0..50 {
        g.neighbor_up(&Arc::from(format!("peer{i:02}")), now);
    }
    assert_eq!(g.active_view().len(), 3);
    assert!(g.passive_view().len() <= 7);
    for i in 0..50 {
        g.neighbor_down(&format!("peer{i:02}"), now);
    }
    assert!(g.active_view().is_empty());
    assert!(g.passive_view().len() <= 7);
}
