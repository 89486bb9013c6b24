//! Differential property test: the spatial-grid neighbor queries must be
//! *exactly* the naive all-pairs scan — same nodes, same order — for any
//! population, technology mix, mobility model and query time.

use codec::prop::{check, Config, Gen};
use ph_netsim::geometry::{Point2, Rect};
use ph_netsim::mobility::{Mobility, RandomWalk, RandomWaypoint, ScriptedPath};
use ph_netsim::world::{GatherBuf, NodeBuilder, NodeId};
use ph_netsim::{SimRng, SimTime, Technology, World};

/// One generated device: spawn point, radio mix, mobility choice.
#[derive(Debug)]
struct NodeSpec {
    x: f64,
    y: f64,
    /// Bit 0 = Bluetooth, bit 1 = WLAN, bit 2 = GPRS (0 = no radios).
    techs: u8,
    /// 0 = stationary, 1 = random waypoint, 2 = random walk.
    mobility: u8,
    seed: u64,
}

#[derive(Debug)]
struct Scenario {
    /// Campus side, metres. Small enough that cells interact, large
    /// enough to cross the 80 m cell size.
    side: f64,
    nodes: Vec<NodeSpec>,
    /// Query times, microseconds.
    times: Vec<u64>,
}

fn gen_scenario(g: &mut Gen) -> Scenario {
    let side = g.f64_in(10.0, 400.0);
    let nodes = g.vec_of(30, |g| NodeSpec {
        x: g.f64_in(0.0, side),
        y: g.f64_in(0.0, side),
        techs: g.u64(8) as u8,
        mobility: g.u64(3) as u8,
        seed: g.any_u64(),
    });
    let times = g.vec_of(4, |g| g.u64(120_000_000));
    Scenario { side, nodes, times }
}

/// `id`'s neighbors over `tech` at `t` through the simulator's query path:
/// make the snapshot usable at `t`, then ask an [`EpochView`] pinned there.
///
/// [`EpochView`]: ph_netsim::world::EpochView
fn neighbors(world: &mut World, id: NodeId, tech: Technology, t: SimTime) -> Vec<NodeId> {
    world.prepare_epoch(t);
    world
        .epoch_view(t)
        .neighbors(id, tech, &mut GatherBuf::default())
}

fn build_world(s: &Scenario) -> World {
    let area = Rect::sized(s.side, s.side);
    let mut world = World::new();
    for (i, spec) in s.nodes.iter().enumerate() {
        let start = area.clamp(Point2::new(spec.x, spec.y));
        let mut techs = Vec::new();
        for (bit, tech) in Technology::ALL.iter().enumerate() {
            if spec.techs & (1 << bit) != 0 {
                techs.push(*tech);
            }
        }
        let builder = NodeBuilder::new(format!("n{i}")).with_technologies(techs);
        let builder = match spec.mobility {
            0 => builder.at(start),
            1 => builder.moving(RandomWaypoint::new(
                area,
                start,
                (0.5, 3.0),
                (
                    std::time::Duration::ZERO,
                    std::time::Duration::from_secs(10),
                ),
                SimRng::from_seed(spec.seed),
            )),
            _ => builder.moving(RandomWalk::new(
                area,
                start,
                2.0,
                std::time::Duration::from_secs(5),
                SimRng::from_seed(spec.seed),
            )),
        };
        world.add_node(builder);
    }
    world
}

#[test]
fn grid_neighbors_match_naive_exactly() {
    check(
        &Config::with_cases(96),
        "grid neighbors == naive neighbors",
        gen_scenario,
        |s| {
            let mut world = build_world(s);
            let ids: Vec<_> = world.node_ids().collect();
            for &at in &s.times {
                let t = SimTime::from_micros(at);
                for &id in &ids {
                    for tech in Technology::ALL {
                        assert_eq!(
                            neighbors(&mut world, id, tech, t),
                            world.neighbors_naive(id, tech, t),
                            "neighbors({id:?}, {tech:?}, {t:?}) diverged"
                        );
                    }
                    assert_eq!(
                        world.neighbors_any(id, t),
                        world.neighbors_any_naive(id, t),
                        "neighbors_any({id:?}, {t:?}) diverged"
                    );
                }
            }
        },
    );
}

#[test]
fn grid_reachability_matches_naive_exactly() {
    check(
        &Config::with_cases(96),
        "grid reachable == naive reachable",
        gen_scenario,
        |s| {
            let mut world = build_world(s);
            let ids: Vec<_> = world.node_ids().collect();
            for &at in &s.times {
                let t = SimTime::from_micros(at);
                // Warm the epoch cache through a batched query so the
                // cached-position path is the one under test too.
                if let Some(&first) = ids.first() {
                    world.neighbors_any(first, t);
                }
                for &a in &ids {
                    for &b in &ids {
                        for tech in Technology::ALL {
                            assert_eq!(
                                world.reachable(a, b, tech, t),
                                world.reachable_naive(a, b, tech, t),
                                "reachable({a:?}, {b:?}, {tech:?}, {t:?}) diverged"
                            );
                        }
                    }
                }
            }
        },
    );
}

/// A mover that advertises no speed bound (the trait's default), so the
/// region index never buckets it and samples it on every gather.
#[derive(Debug)]
struct Unbounded(ScriptedPath);

impl Mobility for Unbounded {
    fn position(&mut self, t: SimTime) -> Point2 {
        self.0.position(t)
    }
}

/// Speed of the scripted movers below. Their leg ends round, so their
/// speed bounds may exceed this by an ulp or so.
const SPEED: f64 = 2.0;
/// Length of every scripted leg.
const LEG_SECS: u64 = 1000;

/// A node that sits at `from` until `t0`, then heads along unit direction
/// `dir` at `speed` for [`LEG_SECS`].
fn scripted(t0: SimTime, from: Point2, dir: (f64, f64), speed: f64) -> ScriptedPath {
    let len = speed * LEG_SECS as f64;
    ScriptedPath::new(vec![
        (t0, from),
        (
            t0 + std::time::Duration::from_secs(LEG_SECS),
            Point2::new(from.x + dir.0 * len, from.y + dir.1 * len),
        ),
    ])
}

/// The fastest node of a boundary world: far off, twice [`SPEED`], on a
/// leg of exactly representable length, so it alone sets the world's
/// speed bound to exactly `2 * SPEED`.
fn pacer(t0: SimTime) -> NodeBuilder {
    NodeBuilder::new("pacer").moving(scripted(
        t0,
        Point2::new(-50_000.0, 0.0),
        (1.0, 0.0),
        2.0 * SPEED,
    ))
}

/// The drift allowance a boundary world grants at `t0 + dt` for a snapshot
/// taken at `t0`.
fn allowance(t0: SimTime, dt: std::time::Duration) -> f64 {
    let mut probe = World::new();
    probe.add_node(pacer(t0));
    probe.prepare_epoch(t0);
    probe.drift_allowance(t0 + dt)
}

/// A seeker at the origin, stationary, plus movers whose *snapshot*
/// distance sits exactly at — and one ulp either side of — `range −
/// drift`, `range − travelled`, `range`, `range + travelled` and `range +
/// drift` for Bluetooth and WLAN, each heading away, towards, and across
/// the seeker's line of sight, along both axes; plus parked nodes at the
/// same distances and one speed-unbounded node that lands exactly on the
/// Bluetooth range at `t0 + dt`.
fn boundary_world(t0: SimTime, dt: std::time::Duration, drift: f64) -> World {
    let travelled = SPEED * dt.as_secs_f64();
    let mut w = World::new();
    w.add_node(NodeBuilder::new("seeker").at(Point2::ORIGIN));
    w.add_node(pacer(t0));
    let radios = [
        vec![Technology::Bluetooth, Technology::Wlan],
        vec![Technology::Bluetooth],
        vec![Technology::Wlan, Technology::Gprs],
    ];
    let mut k = 0;
    for range in [10.0, 80.0] {
        for base in [
            range - drift,
            range - travelled,
            range,
            range + travelled,
            range + drift,
        ] {
            for d in [base.next_down(), base, base.next_up()] {
                if d <= 0.0 {
                    continue;
                }
                // Along +x and +y, so the snapshot distance is exactly `d`.
                for (at, out, across) in [
                    (Point2::new(d, 0.0), (1.0, 0.0), (0.0, 1.0)),
                    (Point2::new(0.0, d), (0.0, 1.0), (1.0, 0.0)),
                ] {
                    let inward = (-out.0, -out.1);
                    for dir in [out, inward, across] {
                        w.add_node(
                            NodeBuilder::new(format!("m{k}"))
                                .moving(scripted(t0, at, dir, SPEED))
                                .with_technologies(radios[k % radios.len()].clone()),
                        );
                        k += 1;
                    }
                    w.add_node(
                        NodeBuilder::new(format!("p{k}"))
                            .at(at)
                            .with_technologies(radios[k % radios.len()].clone()),
                    );
                    k += 1;
                }
            }
        }
    }
    // Far away at the snapshot, exactly at Bluetooth range when queried.
    w.add_node(
        NodeBuilder::new("unbounded").moving(Unbounded(ScriptedPath::new(vec![
            (t0, Point2::new(5000.0, 0.0)),
            (t0 + dt, Point2::new(10.0, 0.0)),
        ]))),
    );
    w
}

#[test]
fn snapshot_classification_is_exact_at_its_bounds() {
    let t0 = SimTime::from_secs(1);
    // Rebuilds happen once the allowance passes the 80 m region edge:
    // 19.99 s at the pacer's 4 m/s sits just below that threshold.
    for dt_ms in [1_250u64, 2_500, 10_000, 19_990] {
        let dt = std::time::Duration::from_millis(dt_ms);
        let t = t0 + dt;
        let drift = allowance(t0, dt);
        assert!(drift > 0.0);
        let mut w = boundary_world(t0, dt, drift);
        w.prepare_epoch(t0);
        let ids: Vec<NodeId> = w.node_ids().collect();
        let techs = [Technology::Bluetooth, Technology::Wlan];

        w.prepare_epoch(t);
        let view_answers: Vec<Vec<NodeId>> = {
            let view = w.epoch_view(t);
            let mut scratch = GatherBuf::default();
            ids.iter()
                .flat_map(|&id| techs.map(|tech| (id, tech)))
                .map(|(id, tech)| view.neighbors(id, tech, &mut scratch))
                .collect()
        };
        for (k, (id, tech)) in ids
            .iter()
            .flat_map(|&id| techs.map(|tech| (id, tech)))
            .enumerate()
        {
            let naive = w.neighbors_naive(id, tech, t);
            assert_eq!(view_answers[k], naive, "view {id:?} {tech:?} dt={dt:?}");
        }
        for &id in &ids {
            assert_eq!(
                w.neighbors_any(id, t),
                w.neighbors_any_naive(id, t),
                "any {id:?} dt={dt:?}"
            );
        }
        // The queries above ran against the t0 snapshot, not a rebuilt one.
        assert_eq!(w.drift_allowance(t), drift, "dt={dt:?}");
        let seeker = ids[0];
        assert!(neighbors(&mut w, seeker, Technology::Bluetooth, t).contains(ids.last().unwrap()));
    }
}

#[test]
fn snapshot_classification_is_exact_on_the_range_circle() {
    // Squared snapshot distances and the exact filter's `hypot` round
    // differently right on the range circle. The drift allowance's 1e-6 m
    // padding hides that at campus ranges, so this uses a range (and
    // region edge) large enough for ulps to outgrow the padding: nodes a
    // few ulps either side of the circle, at every angle, must still match
    // the exact scan.
    use ph_netsim::radio::BLUETOOTH;
    use ph_netsim::RadioEnv;
    let range = 1e12;
    let mut bt = BLUETOOTH.clone();
    bt.range_m = range;
    let mut w = World::with_env(RadioEnv::default().with_profile(Technology::Bluetooth, bt));
    w.set_region_edge(range);
    let (sx, sy) = (0.25 * range, -0.5 * range);
    w.add_node(NodeBuilder::new("seeker").at(Point2::new(sx, sy)));
    for k in 0..720 {
        let angle = k as f64 * std::f64::consts::TAU / 720.0;
        let x = sx + range * angle.cos();
        let y = sy + range * angle.sin();
        for (x, y) in [
            (x, y),
            (x.next_up(), y),
            (x.next_down(), y),
            (x, y.next_up()),
            (x, y.next_down()),
        ] {
            w.add_node(NodeBuilder::new(format!("c{k}")).at(Point2::new(x, y)));
        }
    }
    let seeker = NodeId::from_index(0);
    let t = SimTime::from_secs(3);
    let found = neighbors(&mut w, seeker, Technology::Bluetooth, t);
    assert_eq!(found, w.neighbors_naive(seeker, Technology::Bluetooth, t));
    assert!(!found.is_empty() && found.len() < w.len() - 1);
    assert_eq!(w.neighbors_any(seeker, t), w.neighbors_any_naive(seeker, t));
}
