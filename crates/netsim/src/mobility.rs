//! Node mobility models.
//!
//! A mobility model answers "where is this node at virtual time *t*?". Models
//! that involve randomness (random waypoint, random walk) extend their
//! trajectory lazily from a private [`SimRng`], so positions are a pure
//! function of `(seed, t)` and any query order yields the same answers.
//!
//! Provided models:
//!
//! * [`Stationary`] — a fixed position (the thesis's lab desktop PCs);
//! * [`ScriptedPath`] — piecewise-linear waypoints with explicit times
//!   (a pedestrian walking through a corridor, a bus route);
//! * [`RandomWaypoint`] — the classic ad-hoc-networking model: pick a random
//!   destination in an area, move at a random speed, pause, repeat;
//! * [`RandomWalk`] — fixed-length random steps, reflecting at area borders;
//! * [`Offset`] — a fixed displacement from another model (passengers seated
//!   in a moving bus).

use std::fmt::Debug;
use std::time::Duration;

use crate::geometry::{Point2, Rect, Vec2};
use crate::rng::SimRng;
use crate::time::SimTime;

/// Position as a function of virtual time.
///
/// Implementations take `&mut self` so that stochastic models can lazily
/// extend an internal trajectory; re-querying any earlier time must return
/// the same answer (the built-in models keep only their current leg and
/// replay earlier ones from their initial state).
///
/// This purity contract is what lets the parallel epoch engine
/// ([`World::prepare_epoch`](crate::World::prepare_epoch)) sample node
/// positions from worker threads: each node's model is visited by exactly
/// one worker per epoch (`Send` suffices, no sharing), and because the
/// answer depends only on `(seed, t)` — never on which other times were
/// sampled before — a parallel run computes bit-identical positions to a
/// serial one. `query_order_never_changes_positions` in this module pins
/// the contract down for every stochastic model.
pub trait Mobility: Debug + Send {
    /// The node's position at time `t`.
    fn position(&mut self, t: SimTime) -> Point2;

    /// An upper bound on the node's speed in metres per second, used by the
    /// region index to bound how far a node can stray from its bucketed
    /// position between membership rebuilds. Must satisfy
    /// `position(a).distance(position(b)) <= max_speed_mps() * |b - a|` for
    /// all `a`, `b`.
    ///
    /// The default is `f64::INFINITY`: a model without a bound is correct
    /// but forfeits region locality — the index re-checks such nodes on
    /// every query instead of only the ones bucketed nearby. All built-in
    /// models report a finite bound.
    fn max_speed_mps(&self) -> f64 {
        f64::INFINITY
    }
}

/// A node that never moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stationary {
    at: Point2,
}

impl Stationary {
    /// Creates a stationary node at `at`.
    pub fn new(at: Point2) -> Self {
        Stationary { at }
    }
}

impl Mobility for Stationary {
    fn position(&mut self, _t: SimTime) -> Point2 {
        self.at
    }

    fn max_speed_mps(&self) -> f64 {
        0.0
    }
}

/// Piecewise-linear movement through explicit `(time, point)` waypoints.
///
/// Before the first waypoint the node sits at the first point; after the last
/// waypoint it sits at the last point.
///
/// # Example
///
/// ```rust
/// use ph_netsim::mobility::{Mobility, ScriptedPath};
/// use ph_netsim::geometry::Point2;
/// use ph_netsim::SimTime;
///
/// let mut path = ScriptedPath::new(vec![
///     (SimTime::from_secs(0), Point2::new(0.0, 0.0)),
///     (SimTime::from_secs(10), Point2::new(100.0, 0.0)),
/// ]);
/// assert_eq!(path.position(SimTime::from_secs(5)), Point2::new(50.0, 0.0));
/// assert_eq!(path.position(SimTime::from_secs(99)), Point2::new(100.0, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedPath {
    waypoints: Vec<(SimTime, Point2)>,
}

impl ScriptedPath {
    /// Creates a path from waypoints.
    ///
    /// # Panics
    ///
    /// Panics if `waypoints` is empty or its times are not strictly
    /// increasing.
    pub fn new(waypoints: Vec<(SimTime, Point2)>) -> Self {
        assert!(!waypoints.is_empty(), "ScriptedPath needs >= 1 waypoint");
        for pair in waypoints.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "ScriptedPath waypoint times must be strictly increasing"
            );
        }
        ScriptedPath { waypoints }
    }

    /// Convenience: a walk from `from` to `to` starting at `start`, at
    /// `speed_mps` metres per second, then standing still.
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps` is not positive.
    pub fn walk(start: SimTime, from: Point2, to: Point2, speed_mps: f64) -> Self {
        assert!(speed_mps > 0.0, "walking speed must be positive");
        let dist = from.distance(to);
        let travel = Duration::from_secs_f64(dist / speed_mps);
        if travel.is_zero() {
            ScriptedPath::new(vec![(start, from)])
        } else {
            ScriptedPath::new(vec![(start, from), (start + travel, to)])
        }
    }
}

impl Mobility for ScriptedPath {
    fn position(&mut self, t: SimTime) -> Point2 {
        let wps = &self.waypoints;
        if t <= wps[0].0 {
            return wps[0].1;
        }
        if t >= wps[wps.len() - 1].0 {
            return wps[wps.len() - 1].1;
        }
        // Find the segment containing t.
        let idx = wps.partition_point(|(wt, _)| *wt <= t);
        let (t0, p0) = wps[idx - 1];
        let (t1, p1) = wps[idx];
        let frac = (t - t0).as_secs_f64() / (t1 - t0).as_secs_f64();
        p0.lerp(p1, frac)
    }

    fn max_speed_mps(&self) -> f64 {
        // The fastest leg bounds the whole path (the node stands still
        // before the first and after the last waypoint).
        self.waypoints
            .windows(2)
            .map(|pair| {
                let (t0, p0) = pair[0];
                let (t1, p1) = pair[1];
                p0.distance(p1) / (t1 - t0).as_secs_f64()
            })
            .fold(0.0, f64::max)
    }
}

/// One leg of a lazily generated stochastic trajectory.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: SimTime,
    end: SimTime,
    from: Point2,
    to: Point2,
}

impl Segment {
    /// The zero-length leg every stochastic trajectory starts with:
    /// standing at `at` at time zero.
    fn still(at: Point2) -> Self {
        Segment {
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            from: at,
            to: at,
        }
    }

    fn position(&self, t: SimTime) -> Point2 {
        if self.end <= self.start {
            return self.to;
        }
        let frac =
            t.saturating_since(self.start).as_secs_f64() / (self.end - self.start).as_secs_f64();
        self.from.lerp(self.to, frac.clamp(0.0, 1.0))
    }
}

/// A lazily generated trajectory with O(1) history: the current leg and
/// the generator state `S` (the model's RNG plus whatever else steers its
/// next leg) that extends it, together with the initial state to replay
/// from.
///
/// Legs are contiguous, and every leg after the zero-length first one
/// lasts at least 1 µs, so a time `t > 0` lies in exactly one leg with
/// `start < t <= end`. A query answers from the first leg whose `end >= t`.
/// The current leg answers only the times it owns (and the first leg
/// `t == 0`); any earlier time replays the trajectory from its initial
/// state. Answering `t == start` from the current leg would not do: the
/// leg ending there (`lerp` at frac 1) and the one starting there (frac 0)
/// can round differently.
#[derive(Debug)]
struct Cursor<S> {
    leg: Segment,
    state: S,
    origin: Point2,
    initial: S,
}

// One per random-waypoint crowd device, replacing a leg history that grew
// with virtual time (a 24-byte `Vec` header plus 48 bytes per leg, 192
// bytes after 20 s of walking). `RandomWaypoint` is 224 bytes with it.
const _: () = assert!(std::mem::size_of::<Cursor<(SimRng, bool)>>() <= 144);

impl<S: Clone> Cursor<S> {
    fn new(origin: Point2, state: S) -> Self {
        Cursor {
            leg: Segment::still(origin),
            state: state.clone(),
            origin,
            initial: state,
        }
    }

    /// The position at `t`; `extend` draws the leg after the given one.
    fn position(
        &mut self,
        t: SimTime,
        mut extend: impl FnMut(&mut S, &Segment) -> Segment,
    ) -> Point2 {
        // Only the first leg ends at time zero.
        if t <= self.leg.start && self.leg.end != SimTime::ZERO {
            self.leg = Segment::still(self.origin);
            self.state = self.initial.clone();
        }
        while self.leg.end < t {
            self.leg = extend(&mut self.state, &self.leg);
        }
        self.leg.position(t)
    }
}

/// The random waypoint model.
///
/// The node repeatedly picks a uniform destination inside `area`, travels
/// there at a uniform speed from `speed_mps`, pauses for a uniform time from
/// `pause`, and repeats. This is the standard mobility model of the ad-hoc
/// networking literature the thesis cites for dynamic group discovery.
#[derive(Debug)]
pub struct RandomWaypoint {
    area: Rect,
    speed_mps: (f64, f64),
    pause: (Duration, Duration),
    /// The RNG and whether the current leg is a pause.
    path: Cursor<(SimRng, bool)>,
}

impl RandomWaypoint {
    /// Creates a random-waypoint mover starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the speed range is not positive or `start` lies outside
    /// `area`.
    pub fn new(
        area: Rect,
        start: Point2,
        speed_mps: (f64, f64),
        pause: (Duration, Duration),
        rng: SimRng,
    ) -> Self {
        assert!(
            speed_mps.0 > 0.0 && speed_mps.1 >= speed_mps.0,
            "speed range must be positive and ordered"
        );
        assert!(pause.0 <= pause.1, "pause range must be ordered");
        assert!(area.contains(start), "start must lie inside the area");
        RandomWaypoint {
            area,
            speed_mps,
            pause,
            path: Cursor::new(start, (rng, false)),
        }
    }
}

impl Mobility for RandomWaypoint {
    fn position(&mut self, t: SimTime) -> Point2 {
        let area = self.area;
        let (lo, hi) = self.speed_mps;
        let pause = self.pause;
        self.path.position(t, |(rng, pausing), last| {
            if *pausing {
                // Travel leg to a fresh destination.
                *pausing = false;
                let dest = Point2::new(
                    rng.range_f64(area.min.x..area.max.x.max(area.min.x + f64::EPSILON)),
                    rng.range_f64(area.min.y..area.max.y.max(area.min.y + f64::EPSILON)),
                );
                let speed = if hi > lo { rng.range_f64(lo..hi) } else { lo };
                let travel = Duration::from_secs_f64(last.to.distance(dest) / speed)
                    .max(Duration::from_micros(1));
                Segment {
                    start: last.end,
                    end: last.end + travel,
                    from: last.to,
                    to: dest,
                }
            } else {
                // Pause leg.
                *pausing = true;
                let d = rng
                    .duration_between(pause.0, pause.1)
                    .max(Duration::from_micros(1));
                Segment {
                    start: last.end,
                    end: last.end + d,
                    from: last.to,
                    to: last.to,
                }
            }
        })
    }

    fn max_speed_mps(&self) -> f64 {
        self.speed_mps.1
    }
}

/// A random walk with fixed-duration steps, reflecting off area borders.
#[derive(Debug)]
pub struct RandomWalk {
    area: Rect,
    speed_mps: f64,
    step: Duration,
    path: Cursor<SimRng>,
}

impl RandomWalk {
    /// Creates a random walker starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps` is not positive, `step` is zero, or `start`
    /// lies outside `area`.
    pub fn new(area: Rect, start: Point2, speed_mps: f64, step: Duration, rng: SimRng) -> Self {
        assert!(speed_mps > 0.0, "speed must be positive");
        assert!(!step.is_zero(), "step duration must be non-zero");
        assert!(area.contains(start), "start must lie inside the area");
        RandomWalk {
            area,
            speed_mps,
            step,
            path: Cursor::new(start, rng),
        }
    }
}

impl Mobility for RandomWalk {
    fn position(&mut self, t: SimTime) -> Point2 {
        let area = self.area;
        let speed = self.speed_mps;
        let step = self.step;
        self.path.position(t, |rng, last| {
            let angle = rng.range_f64(0.0..std::f64::consts::TAU);
            let dist = speed * step.as_secs_f64();
            let raw = last.to + Vec2::new(angle.cos(), angle.sin()) * dist;
            let dest = area.clamp(raw);
            Segment {
                start: last.end,
                end: last.end + step,
                from: last.to,
                to: dest,
            }
        })
    }

    fn max_speed_mps(&self) -> f64 {
        // Border clamping only shortens a step, never lengthens it.
        self.speed_mps
    }
}

/// The four unit grid directions, in the order a [`ManhattanGrid`] draws
/// from.
const GRID_DIRS: [Vec2; 4] = [
    Vec2::new(1.0, 0.0),
    Vec2::new(-1.0, 0.0),
    Vec2::new(0.0, 1.0),
    Vec2::new(0.0, -1.0),
];

/// Movement constrained to a city-block grid (the Manhattan mobility model
/// of the ad-hoc networking literature).
///
/// The node travels along grid lines spaced `block_m` apart inside `area`;
/// at each intersection it continues straight with probability 1/2 or turns
/// left/right with probability 1/4 each (reversing only at the area edge).
/// Useful for urban scenarios where Bluetooth contacts happen at street
/// corners.
#[derive(Debug)]
pub struct ManhattanGrid {
    area: Rect,
    block_m: f64,
    speed_mps: f64,
    /// The RNG and the current heading as a unit grid direction.
    path: Cursor<(SimRng, Vec2)>,
}

impl ManhattanGrid {
    /// Creates a grid mover starting at the intersection nearest `start`.
    ///
    /// # Panics
    ///
    /// Panics if `block_m` or `speed_mps` is not positive, or if `area` is
    /// smaller than one block in either dimension.
    pub fn new(area: Rect, start: Point2, block_m: f64, speed_mps: f64, mut rng: SimRng) -> Self {
        assert!(block_m > 0.0, "block size must be positive");
        assert!(speed_mps > 0.0, "speed must be positive");
        assert!(
            area.width() >= block_m && area.height() >= block_m,
            "area must hold at least one block"
        );
        let snap = |v: f64, lo: f64, hi: f64| -> f64 {
            ((v - lo) / block_m)
                .round()
                .mul_add(block_m, lo)
                .clamp(lo, hi)
        };
        let origin = Point2::new(
            snap(start.x, area.min.x, area.max.x),
            snap(start.y, area.min.y, area.max.y),
        );
        let heading = *rng.pick(&GRID_DIRS).expect("non-empty");
        ManhattanGrid {
            area,
            block_m,
            speed_mps,
            path: Cursor::new(origin, (rng, heading)),
        }
    }
}

impl Mobility for ManhattanGrid {
    fn position(&mut self, t: SimTime) -> Point2 {
        let block = self.block_m;
        let speed = self.speed_mps;
        let travel = Duration::from_secs_f64(block / speed).max(Duration::from_micros(1));
        let area = self.area;
        self.path.position(t, |(rng, heading), last| {
            let at = last.to;
            // Keep going straight with p=1/2 when possible; otherwise pick
            // uniformly among the legal turns.
            let mut options = [Vec2::ZERO; 4];
            let mut legal = 0;
            for d in GRID_DIRS {
                if area.contains(at + d * block) {
                    options[legal] = d;
                    legal += 1;
                }
            }
            let options = &options[..legal];
            let straight_ok = options.contains(heading);
            let dir = if straight_ok && rng.chance(0.5) {
                *heading
            } else {
                *rng.pick(options)
                    .expect("a grid point always has a legal move")
            };
            *heading = dir;
            Segment {
                start: last.end,
                end: last.end + travel,
                from: at,
                to: at + dir * block,
            }
        })
    }

    fn max_speed_mps(&self) -> f64 {
        self.speed_mps
    }
}

/// A fixed displacement from a base trajectory.
///
/// Used for group mobility: the bus follows a [`ScriptedPath`] and each
/// passenger is an `Offset` of it, so all passengers stay within Bluetooth
/// range of each other for the whole ride.
#[derive(Debug, Clone)]
pub struct Offset<M> {
    base: M,
    offset: Vec2,
}

impl<M: Mobility> Offset<M> {
    /// Creates a trajectory displaced from `base` by `offset`.
    pub fn new(base: M, offset: Vec2) -> Self {
        Offset { base, offset }
    }
}

impl<M: Mobility> Mobility for Offset<M> {
    fn position(&mut self, t: SimTime) -> Point2 {
        self.base.position(t) + self.offset
    }

    fn max_speed_mps(&self) -> f64 {
        // A rigid displacement preserves distances between any two samples.
        self.base.max_speed_mps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_never_moves() {
        let p = Point2::new(3.0, 4.0);
        let mut m = Stationary::new(p);
        assert_eq!(m.position(SimTime::ZERO), p);
        assert_eq!(m.position(SimTime::from_secs(1000)), p);
    }

    #[test]
    fn scripted_path_interpolates() {
        let mut m = ScriptedPath::new(vec![
            (SimTime::from_secs(10), Point2::new(0.0, 0.0)),
            (SimTime::from_secs(20), Point2::new(10.0, 0.0)),
            (SimTime::from_secs(30), Point2::new(10.0, 10.0)),
        ]);
        assert_eq!(m.position(SimTime::ZERO), Point2::new(0.0, 0.0));
        assert_eq!(m.position(SimTime::from_secs(15)), Point2::new(5.0, 0.0));
        assert_eq!(m.position(SimTime::from_secs(25)), Point2::new(10.0, 5.0));
        assert_eq!(m.position(SimTime::from_secs(99)), Point2::new(10.0, 10.0));
    }

    #[test]
    fn scripted_walk_speed() {
        let mut m = ScriptedPath::walk(SimTime::ZERO, Point2::ORIGIN, Point2::new(10.0, 0.0), 1.0);
        assert_eq!(m.position(SimTime::from_secs(5)), Point2::new(5.0, 0.0));
        assert_eq!(m.position(SimTime::from_secs(10)), Point2::new(10.0, 0.0));
    }

    #[test]
    fn scripted_walk_zero_distance() {
        let mut m = ScriptedPath::walk(SimTime::ZERO, Point2::ORIGIN, Point2::ORIGIN, 1.0);
        assert_eq!(m.position(SimTime::from_secs(3)), Point2::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn scripted_path_rejects_unsorted() {
        let _ = ScriptedPath::new(vec![
            (SimTime::from_secs(5), Point2::ORIGIN),
            (SimTime::from_secs(5), Point2::new(1.0, 1.0)),
        ]);
    }

    #[test]
    fn random_waypoint_stays_in_area_and_is_deterministic() {
        let area = Rect::sized(100.0, 100.0);
        let start = Point2::new(50.0, 50.0);
        let mk = || {
            RandomWaypoint::new(
                area,
                start,
                (0.5, 2.0),
                (Duration::ZERO, Duration::from_secs(5)),
                SimRng::from_seed(11),
            )
        };
        let mut a = mk();
        let mut b = mk();
        for s in 0..600 {
            let t = SimTime::from_secs(s);
            let pa = a.position(t);
            assert!(area.contains(pa), "escaped area at {t}: {pa}");
            assert_eq!(pa, b.position(t), "nondeterministic at {t}");
        }
    }

    #[test]
    fn random_waypoint_revisits_past_consistently() {
        let area = Rect::sized(50.0, 50.0);
        let mut m = RandomWaypoint::new(
            area,
            Point2::new(10.0, 10.0),
            (1.0, 1.0),
            (Duration::from_secs(1), Duration::from_secs(1)),
            SimRng::from_seed(3),
        );
        let late = m.position(SimTime::from_secs(300));
        let early = m.position(SimTime::from_secs(10));
        // Re-query both: the early time replays from the seed, answers stable.
        assert_eq!(m.position(SimTime::from_secs(10)), early);
        assert_eq!(m.position(SimTime::from_secs(300)), late);
    }

    #[test]
    fn random_walk_stays_in_area() {
        let area = Rect::sized(20.0, 20.0);
        let mut m = RandomWalk::new(
            area,
            Point2::new(10.0, 10.0),
            1.4,
            Duration::from_secs(2),
            SimRng::from_seed(4),
        );
        for s in 0..500 {
            let p = m.position(SimTime::from_secs(s));
            assert!(area.contains(p));
        }
    }

    #[test]
    fn random_walk_actually_moves() {
        let area = Rect::sized(1000.0, 1000.0);
        let start = Point2::new(500.0, 500.0);
        let mut m = RandomWalk::new(
            area,
            start,
            1.0,
            Duration::from_secs(1),
            SimRng::from_seed(5),
        );
        let moved = (0..100)
            .map(|s| m.position(SimTime::from_secs(s)))
            .any(|p| p.distance(start) > 1.0);
        assert!(moved);
    }

    #[test]
    fn manhattan_grid_stays_on_grid_and_in_area() {
        let area = Rect::sized(100.0, 100.0);
        let mut m = ManhattanGrid::new(
            area,
            Point2::new(48.0, 52.0),
            10.0,
            2.0,
            SimRng::from_seed(9),
        );
        for s in 0..1000 {
            let p = m.position(SimTime::from_secs(s));
            assert!(area.contains(p), "escaped at {s}s: {p}");
            // At least one coordinate is always on a grid line.
            let on_x = (p.x / 10.0 - (p.x / 10.0).round()).abs() < 1e-9;
            let on_y = (p.y / 10.0 - (p.y / 10.0).round()).abs() < 1e-9;
            assert!(on_x || on_y, "off-grid at {s}s: {p}");
        }
    }

    #[test]
    fn manhattan_grid_is_deterministic_and_moves() {
        let area = Rect::sized(60.0, 60.0);
        let mk = || {
            ManhattanGrid::new(
                area,
                Point2::new(30.0, 30.0),
                15.0,
                1.5,
                SimRng::from_seed(4),
            )
        };
        let mut a = mk();
        let mut b = mk();
        let mut moved = false;
        for s in 0..400 {
            let t = SimTime::from_secs(s);
            let pa = a.position(t);
            assert_eq!(pa, b.position(t));
            if pa.distance(Point2::new(30.0, 30.0)) > 14.0 {
                moved = true;
            }
        }
        assert!(moved, "walker never left its starting block");
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn manhattan_grid_rejects_tiny_areas() {
        let _ = ManhattanGrid::new(
            Rect::sized(5.0, 5.0),
            Point2::new(1.0, 1.0),
            10.0,
            1.0,
            SimRng::from_seed(1),
        );
    }

    #[test]
    fn offset_tracks_base() {
        let base = ScriptedPath::walk(SimTime::ZERO, Point2::ORIGIN, Point2::new(100.0, 0.0), 10.0);
        let mut passenger = Offset::new(base, Vec2::new(0.0, 2.0));
        assert_eq!(
            passenger.position(SimTime::from_secs(5)),
            Point2::new(50.0, 2.0)
        );
    }

    /// Checks one stochastic model against the query-order contract:
    /// adversarial orders (late-first, descending, repeated) against a
    /// twin queried in ascending order, then, after moving forward, every
    /// leg boundary (`t == leg.start` and `t == leg.end`) queried
    /// backwards and out of order against a fresh model. Boundaries before
    /// the current leg take the replay path. At a boundary the leg ending
    /// there and the one starting there can round differently; the
    /// waypoint seed below has such a boundary (short walk steps and grid
    /// legs rarely or never round).
    fn check_query_order<M: Mobility>(name: &str, mk: impl Fn() -> M, leg: impl Fn(&M) -> Segment) {
        let mut ordered = mk();
        let mut boundaries = Vec::new();
        let baseline: Vec<Point2> = (0..240)
            .map(|s| {
                let p = ordered.position(SimTime::from_secs(s));
                let l = leg(&ordered);
                boundaries.extend([l.start, l.end]);
                p
            })
            .collect();
        boundaries.dedup();
        assert!(boundaries.len() > 20, "{name}: too few legs to test");

        let mut adversarial = mk();
        // Far future first, then a descending sweep, then re-queries.
        adversarial.position(SimTime::from_secs(239));
        for s in (0..240).rev() {
            assert_eq!(
                adversarial.position(SimTime::from_secs(s)),
                baseline[s as usize],
                "{name}: descending query diverged at {s}s"
            );
        }
        for s in [0u64, 100, 239, 50, 50, 239] {
            assert_eq!(
                adversarial.position(SimTime::from_secs(s)),
                baseline[s as usize],
                "{name}: re-query diverged at {s}s"
            );
        }

        // Every leg boundary, latest first, each right after a query 1 µs
        // later (so the leg starting there is current and must not answer
        // it); then each boundary right after the far end (a replay).
        let far = SimTime::from_secs(239);
        let step = Duration::from_micros(1);
        let backwards = boundaries.iter().rev().flat_map(|&b| [b + step, b]);
        let from_far = boundaries.iter().flat_map(|&b| [far, b]);
        for t in backwards.chain(from_far) {
            assert_eq!(
                adversarial.position(t),
                mk().position(t),
                "{name}: boundary query diverged at {t}"
            );
        }
    }

    #[test]
    fn query_order_never_changes_positions() {
        // The epoch engine's determinism rests on this: sampling extra
        // times, or the same times in a different order, must not perturb
        // any answer. Exercise every stochastic model.
        let area = Rect::sized(200.0, 200.0);
        check_query_order(
            "waypoint",
            || {
                RandomWaypoint::new(
                    area,
                    Point2::new(100.0, 100.0),
                    (0.5, 2.0),
                    (Duration::ZERO, Duration::from_secs(3)),
                    SimRng::from_seed(21),
                )
            },
            |m| m.path.leg,
        );
        check_query_order(
            "walk",
            || {
                RandomWalk::new(
                    area,
                    Point2::new(100.0, 100.0),
                    1.2,
                    Duration::from_secs(2),
                    SimRng::from_seed(22),
                )
            },
            |m| m.path.leg,
        );
        check_query_order(
            "manhattan",
            || {
                ManhattanGrid::new(
                    area,
                    Point2::new(100.0, 100.0),
                    20.0,
                    1.5,
                    SimRng::from_seed(23),
                )
            },
            |m| m.path.leg,
        );
    }

    #[test]
    fn max_speed_bounds_observed_displacement() {
        // The region index trusts `max_speed_mps` to bound how far a node
        // can drift between bucket snapshots; a model that under-reports
        // would silently corrupt neighbor queries. Sample each stochastic
        // model at 1 s granularity and check the advertised bound.
        let area = Rect::sized(200.0, 200.0);
        let mut models: Vec<(&str, Box<dyn Mobility>)> = vec![
            (
                "waypoint",
                Box::new(RandomWaypoint::new(
                    area,
                    Point2::new(100.0, 100.0),
                    (0.5, 2.0),
                    (Duration::ZERO, Duration::from_secs(3)),
                    SimRng::from_seed(31),
                )),
            ),
            (
                "walk",
                Box::new(RandomWalk::new(
                    area,
                    Point2::new(100.0, 100.0),
                    1.2,
                    Duration::from_secs(2),
                    SimRng::from_seed(32),
                )),
            ),
            (
                "manhattan",
                Box::new(ManhattanGrid::new(
                    area,
                    Point2::new(100.0, 100.0),
                    20.0,
                    1.5,
                    SimRng::from_seed(33),
                )),
            ),
            (
                "offset",
                Box::new(Offset::new(
                    ScriptedPath::walk(SimTime::ZERO, Point2::ORIGIN, Point2::new(90.0, 0.0), 3.0),
                    Vec2::new(0.0, 2.0),
                )),
            ),
            ("stationary", Box::new(Stationary::new(Point2::ORIGIN))),
        ];
        for (name, m) in &mut models {
            let bound = m.max_speed_mps();
            assert!(bound.is_finite(), "{name}: built-in bound must be finite");
            let mut prev = m.position(SimTime::ZERO);
            for s in 1..400u64 {
                let p = m.position(SimTime::from_secs(s));
                // Interpolation rounding can overshoot by a few ULPs; the
                // region index inflates the bound the same way.
                assert!(
                    prev.distance(p) <= bound * (1.0 + 1e-6) + 1e-9,
                    "{name}: moved {} m in 1 s, bound {bound}",
                    prev.distance(p)
                );
                prev = p;
            }
        }
    }

    #[test]
    #[should_panic(expected = "inside the area")]
    fn waypoint_start_outside_area_panics() {
        let _ = RandomWaypoint::new(
            Rect::sized(10.0, 10.0),
            Point2::new(50.0, 50.0),
            (1.0, 2.0),
            (Duration::ZERO, Duration::ZERO),
            SimRng::from_seed(1),
        );
    }
}
