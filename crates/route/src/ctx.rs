//! Per-route context and scratch arenas.
//!
//! The router redesign makes [`Router`](crate::Router) impls stateless
//! strategy objects: all mutable routing state lives in a
//! [`RouterScratch`] owned by the machine and lent to the router for
//! the duration of one `route()` call, bundled with the machine and
//! the lookahead window into a [`RoutingCtx`]. Scratch buffers (decay
//! table, window pairs, the gather search's arrays) are reused across
//! gates, so the steady-state hot path performs no allocation at all.
//!
//! [`BfsScratch`] is the Toffoli gather search both routers share: an
//! exact, goal-directed replacement for the historical budgeted
//! avoid-BFS (see `BfsScratch::gather_path`).

use std::ops::Range;

use square_arch::{PhysId, Topology};
use square_qir::{Gate, VirtId};

use crate::machine::Machine;
use crate::placement::Placement;

/// Reusable per-machine routing scratch: the arenas behind both
/// routers. Parked in the machine and `take`n around each route call.
#[derive(Debug, Default)]
pub struct RouterScratch {
    /// Lookahead: per-cell decay factors (≥ 1.0), reset between gates
    /// via `touched` so the cost stays proportional to swaps inserted.
    pub(crate) decay: Vec<f64>,
    /// Lookahead: cells whose decay is currently above 1.0.
    pub(crate) touched: Vec<PhysId>,
    /// Lookahead: virtual operand pairs of the window gates.
    pub(crate) pairs: Vec<(VirtId, VirtId)>,
    /// The Toffoli gather search.
    pub(crate) bfs: BfsScratch,
}

/// Everything a stateless router needs to route one gate: the machine
/// (topology, placement, clock, sink), its scratch arenas, and the
/// upcoming-gate hint window.
pub struct RoutingCtx<'m> {
    /// The machine being routed onto.
    pub(crate) machine: &'m mut Machine,
    /// Scratch arenas, reused across gates.
    pub(crate) scratch: &'m mut RouterScratch,
    /// Upcoming-gate hints (empty unless the executor knows the
    /// router wants them).
    pub(crate) window: &'m [Gate<VirtId>],
}

impl<'m> RoutingCtx<'m> {
    /// The machine being routed onto.
    pub fn machine(&mut self) -> &mut Machine {
        self.machine
    }

    /// The upcoming-gate hint window.
    pub fn window(&self) -> &[Gate<VirtId>] {
        self.window
    }
}

/// Visit budget of the gather search: a full search gives up after
/// dequeuing this many cells.
const MAX_VISITS: usize = 4096;

/// Cells within Manhattan distance `r` of a cell in the plane.
const fn manhattan_ball(r: usize) -> usize {
    2 * r * r + 2 * r + 1
}

/// Largest goal depth `D` whose radius-`D − 1` Manhattan ball holds at
/// most [`MAX_VISITS`] cells (45): up to this depth a full search on a
/// Manhattan layout cannot run out of budget.
const BUDGET_SAFE_DEPTH: u32 = {
    let mut d = 1;
    while manhattan_ball(d) <= MAX_VISITS {
        d += 1;
    }
    d as u32
};

/// The Toffoli gather search: flat, epoch-stamped BFS state over a CSR
/// copy of the machine's coupling graph. Arrays are sized on first use
/// and never cleared: a bumped epoch invalidates every stamp and goal
/// mark in O(1), so repeated gathers reuse the same memory. One
/// scratch serves one machine — the adjacency is built from the first
/// machine it searches.
#[derive(Debug, Default)]
pub struct BfsScratch {
    /// CSR adjacency: the neighbours of cell `i` are
    /// `adj[adj_start[i]..adj_start[i + 1]]`, in `for_each_neighbor`
    /// order.
    adj_start: Vec<u32>,
    adj: Vec<PhysId>,
    /// Predecessor cell index, valid only where `stamp == epoch`.
    prev: Vec<u32>,
    /// `epoch` marks a cell already discovered (or blocked).
    stamp: Vec<u32>,
    /// `epoch` marks a goal cell.
    goal: Vec<u32>,
    epoch: u32,
    /// Goal coordinates, for the Manhattan lower bound.
    goal_xy: Vec<(i32, i32)>,
    /// FIFO queue (head index instead of pop_front).
    queue: Vec<PhysId>,
    /// The last path found, inclusive of both ends.
    path: Vec<PhysId>,
}

impl BfsScratch {
    /// Builds the adjacency and sizes the arrays for `topo`, once.
    fn ensure(&mut self, topo: &dyn Topology) {
        let n = topo.qubit_count();
        if self.adj_start.len() == n + 1 {
            return;
        }
        self.adj_start.clear();
        self.adj.clear();
        self.adj_start.push(0);
        for i in 0..n {
            topo.for_each_neighbor(PhysId(i as u32), &mut |nb| self.adj.push(nb));
            self.adj_start.push(self.adj.len() as u32);
        }
        self.prev = vec![0; n];
        self.stamp = vec![0; n];
        self.goal = vec![0; n];
        self.epoch = 0;
    }

    /// Index range of `c`'s neighbours in `adj`.
    fn adj_range(&self, c: PhysId) -> Range<usize> {
        self.adj_start[c.index()] as usize..self.adj_start[c.index() + 1] as usize
    }

    /// Opens a fresh epoch: marks the neighbours of `pt` other than
    /// `p0` as goals and `pt`/`p0` as already seen. A wrapping epoch
    /// clears both stamp arrays, since stale marks could otherwise
    /// alias the restarted count.
    fn begin(&mut self, pt: PhysId, p0: PhysId) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.goal.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        for i in self.adj_range(pt) {
            let nb = self.adj[i];
            if nb != p0 {
                self.goal[nb.index()] = self.epoch;
            }
        }
        self.stamp[pt.index()] = self.epoch;
        self.stamp[p0.index()] = self.epoch;
    }

    /// A shortest path from `from` to a cell coupled to `pt` other
    /// than `p0` that never enters `pt` or `p0`, inclusive of both
    /// ends — exactly the path a FIFO BFS returns that visits
    /// neighbours in topology order, tests goals at discovery, and
    /// gives up after dequeuing [`MAX_VISITS`] cells (`None` then, or
    /// when no such path exists).
    ///
    /// That BFS returns the shortest path to the goal set that is
    /// lexicographically smallest by neighbour index: a cell's parent
    /// is its first discoverer, and level `k` is dequeued in the
    /// lexicographic order of its cells' paths. On Manhattan layouts
    /// (grid, line) `h(c)`, the Manhattan distance from `c` to the
    /// nearest goal, is a lower bound on `c`'s blocked distance to the
    /// goals, so every cell on a shortest path of length `D` satisfies
    /// `depth + h ≤ D`. A BFS that drops cells with
    /// `depth + h > bound` therefore finds nothing while
    /// `bound < D`, and for any `bound ≥ D` keeps every cell of every
    /// shortest path, at its true depth and in the same relative
    /// order, so it discovers the same goal through the same parents.
    /// The search deepens `bound` from `h(from)` in steps of two: an
    /// edge changes `x + y` parity and all goals share one parity, so
    /// `D ≡ h(from) (mod 2)` and an odd step would repeat the
    /// previous pass.
    ///
    /// Deepening is exact only while the full BFS could not have run
    /// out of budget. Before finding a goal at depth `D` it dequeues
    /// at most the radius-`D − 1` Manhattan ball around `from`,
    /// `2r² + 2r + 1` cells with `r = D − 1`, which fits the budget up
    /// to `D =` [`BUDGET_SAFE_DEPTH`]. Past that depth, and on every
    /// other layout, the full budgeted search runs instead: it is the
    /// definition.
    pub(crate) fn gather_path(
        &mut self,
        m: &Machine,
        from: PhysId,
        pt: PhysId,
        p0: PhysId,
    ) -> Option<&[PhysId]> {
        self.path.clear();
        if m.coupled(from, pt) && from != p0 {
            self.path.push(from);
            return Some(&self.path);
        }
        self.ensure(m.topo());
        let found = self
            .deepen(m, from, pt, p0)
            .or_else(|| self.pass(m.placement(), from, pt, p0, None))?;
        let mut c = found;
        self.path.push(c);
        while c != from {
            c = PhysId(self.prev[c.index()]);
            self.path.push(c);
        }
        self.path.reverse();
        Some(&self.path)
    }

    /// The goal-directed passes, `bound = h(from), h(from) + 2, …` up
    /// to [`BUDGET_SAFE_DEPTH`]. `None` when the layout is not
    /// Manhattan or no pass found a goal.
    fn deepen(&mut self, m: &Machine, from: PhysId, pt: PhysId, p0: PhysId) -> Option<PhysId> {
        if !m.topo().manhattan_distance() {
            return None;
        }
        let cells = m.placement();
        self.goal_xy.clear();
        for i in self.adj_range(pt) {
            let nb = self.adj[i];
            if nb != p0 {
                self.goal_xy.push(cells.coord(nb));
            }
        }
        if self.goal_xy.is_empty() {
            return None;
        }
        let mut bound = nearest(&self.goal_xy, cells.coord(from));
        while bound <= BUDGET_SAFE_DEPTH {
            if let Some(g) = self.pass(cells, from, pt, p0, Some(bound)) {
                return Some(g);
            }
            bound += 2;
        }
        None
    }

    /// One FIFO pass from `from` in a fresh epoch, returning the first
    /// goal discovered. With `bound`, a cell discovered at depth `d`
    /// is dropped when `d + h > bound`; without, the pass gives up
    /// after dequeuing [`MAX_VISITS`] cells.
    fn pass(
        &mut self,
        cells: &Placement,
        from: PhysId,
        pt: PhysId,
        p0: PhysId,
        bound: Option<u32>,
    ) -> Option<PhysId> {
        self.begin(pt, p0);
        let BfsScratch {
            adj_start,
            adj,
            prev,
            stamp,
            goal,
            epoch,
            goal_xy,
            queue,
            ..
        } = self;
        let epoch = *epoch;
        queue.clear();
        queue.push(from);
        stamp[from.index()] = epoch;
        prev[from.index()] = from.0;
        let (mut head, mut depth, mut level_end) = (0usize, 0u32, 1usize);
        while head < queue.len() {
            if head == level_end {
                depth += 1;
                level_end = queue.len();
            }
            let cur = queue[head];
            head += 1;
            if bound.is_none() && head > MAX_VISITS {
                return None;
            }
            let (lo, hi) = (adj_start[cur.index()], adj_start[cur.index() + 1]);
            for &nb in &adj[lo as usize..hi as usize] {
                let i = nb.index();
                if stamp[i] == epoch {
                    continue;
                }
                stamp[i] = epoch;
                if let Some(bound) = bound {
                    if depth + 1 + nearest(goal_xy, cells.coord(nb)) > bound {
                        continue;
                    }
                }
                prev[i] = cur.0;
                if goal[i] == epoch {
                    return Some(nb);
                }
                queue.push(nb);
            }
        }
        None
    }

    /// Sets the epoch, so tests can drive it across the wrap.
    #[cfg(test)]
    fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// Manhattan distance from `xy` to the nearest of the (non-empty)
/// `goals`.
fn nearest(goals: &[(i32, i32)], (x, y): (i32, i32)) -> u32 {
    goals.iter().fold(u32::MAX, |h, &(gx, gy)| {
        h.min(x.abs_diff(gx) + y.abs_diff(gy))
    })
}

#[cfg(test)]
#[path = "../tests/support/bfs_avoiding.rs"]
mod bfs_avoiding;

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;

    use proptest::prelude::*;
    use square_arch::{FullTopology, GridTopology, HeavyHexTopology, LineTopology, RingTopology};

    use super::bfs_avoiding::bfs_avoiding;
    use super::*;
    use crate::machine::MachineConfig;

    /// A machine over one fabric, its gather search, and a coordinate
    /// index for building targeted queries.
    struct Fabric {
        m: Machine,
        bfs: BfsScratch,
        by_xy: HashMap<(i32, i32), PhysId>,
    }

    impl Fabric {
        fn new(topo: Box<dyn Topology>) -> Self {
            let topo: Arc<dyn Topology> = Arc::from(topo);
            let by_xy = (0..topo.qubit_count() as u32)
                .map(|i| (topo.coord(PhysId(i)), PhysId(i)))
                .collect();
            Fabric {
                m: Machine::with_shared(topo, MachineConfig::nisq()),
                bfs: BfsScratch::default(),
                by_xy,
            }
        }

        fn n(&self) -> u32 {
            self.m.qubit_count() as u32
        }

        /// The cell at `c`'s coordinates shifted by `k · (dx, dy)`.
        fn offset(&self, c: PhysId, (dx, dy): (i32, i32), k: i32) -> Option<PhysId> {
            let (x, y) = self.m.placement().coord(c);
            self.by_xy.get(&(x + k * dx, y + k * dy)).copied()
        }

        /// Runs one query through the search and the reference and
        /// returns the reference's answer after checking they agree.
        fn check(&mut self, from: PhysId, pt: PhysId, p0: PhysId) -> Option<Vec<PhysId>> {
            let want = bfs_avoiding(self.m.topo(), from, pt, p0);
            let got = self
                .bfs
                .gather_path(&self.m, from, pt, p0)
                .map(<[_]>::to_vec);
            assert_eq!(
                got,
                want,
                "{}: from {from:?}, pt {pt:?}, p0 {p0:?}",
                self.m.topo().name()
            );
            want
        }
    }

    /// A query shape, chosen so the cases the search treats specially
    /// all come up: `from` already a goal, `from` behind `p0` on the
    /// `pt`–`p0` line, `from` at a chosen Manhattan distance (around
    /// the budget-safe depth on large grids), or anywhere.
    fn query(f: &Fabric, shape: u8, a: u32, b: u32, pick: u8, k: u8) -> (PhysId, PhysId, PhysId) {
        let pt = PhysId(a % f.n());
        let nbs = f.m.topo().neighbors(pt);
        let p0 = nbs[usize::from(pick) % nbs.len()];
        let from = match shape % 4 {
            0 => nbs.iter().copied().find(|&c| c != p0),
            1 => {
                let (x0, y0) = f.m.placement().coord(p0);
                let (xt, yt) = f.m.placement().coord(pt);
                f.offset(p0, (x0 - xt, y0 - yt), i32::from(k % 8) + 1)
            }
            2 => {
                let r = 20 + i32::from(k % 40);
                let dx = (b % (2 * r as u32 + 1)) as i32 - r;
                let dy = (r - dx.abs()) * if b & 1 == 0 { 1 } else { -1 };
                f.offset(pt, (dx, dy), 1)
            }
            _ => None,
        };
        (from.unwrap_or(PhysId(b % f.n())), pt, p0)
    }

    fn small_fabrics() -> Vec<Fabric> {
        vec![
            Fabric::new(Box::new(GridTopology::new(12, 9))),
            Fabric::new(Box::new(GridTopology::new(1, 7))),
            Fabric::new(Box::new(LineTopology::new(40))),
            Fabric::new(Box::new(RingTopology::new(20))),
            Fabric::new(Box::new(HeavyHexTopology::new(3))),
            Fabric::new(Box::new(FullTopology::new(8))),
        ]
    }

    type Query = (u8, u32, u32, u8, u8);

    fn queries(n: usize) -> impl Strategy<Value = Vec<Query>> {
        proptest::collection::vec(
            (
                any::<u8>(),
                any::<u32>(),
                any::<u32>(),
                any::<u8>(),
                any::<u8>(),
            ),
            n,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn gather_path_matches_reference_bfs_on_small_fabrics(qs in queries(16)) {
            for mut f in small_fabrics() {
                for &(shape, a, b, pick, k) in &qs {
                    let (from, pt, p0) = query(&f, shape, a, b, pick, k);
                    f.check(from, pt, p0);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// MUL64's 127×127 lattice and a 130×130 one: the sizes where
        /// the visit budget binds and the search must fall back.
        #[test]
        #[ignore = "large grids; run with --ignored (release)"]
        fn gather_path_matches_reference_bfs_on_large_grids(qs in queries(24)) {
            for side in [127, 130] {
                let mut f = Fabric::new(Box::new(GridTopology::new(side, side)));
                for &(shape, a, b, pick, k) in &qs {
                    let (from, pt, p0) = query(&f, shape, a, b, pick, k);
                    f.check(from, pt, p0);
                }
            }
        }
    }

    #[test]
    fn gather_path_covers_every_regime_on_the_mul64_lattice() {
        let mut f = Fabric::new(Box::new(GridTopology::new(127, 127)));
        let at = |f: &Fabric, x, y| f.by_xy[&(x, y)];
        let pt = at(&f, 63, 63);
        let p0 = at(&f, 62, 63);
        // `from` already a goal: the path is the cell itself.
        let goal = at(&f, 63, 64);
        assert_eq!(f.check(goal, pt, p0), Some(vec![goal]));
        // `from` behind `p0` on the `pt`–`p0` line: the obstacle makes
        // the path detour around `p0`.
        let behind = at(&f, 60, 63);
        let path = f.check(behind, pt, p0).expect("reachable");
        assert_eq!(path.len() - 1, 4, "three columns and one row over");
        // From the centre, where the radius-45 ball fits the lattice:
        // the deepest goal the goal-directed passes answer alone...
        let centre = at(&f, 63, 63);
        let (pt, p0) = (at(&f, 86, 86), at(&f, 85, 86));
        let path = f.check(centre, pt, p0).expect("within budget");
        assert_eq!(path.len() - 1, BUDGET_SAFE_DEPTH as usize);
        // ...one deeper, where the full search runs and still finds
        // the goal inside its budget...
        let (pt, p0) = (at(&f, 86, 87), at(&f, 86, 86));
        let path = f.check(centre, pt, p0).expect("within budget");
        assert_eq!(path.len() - 1, BUDGET_SAFE_DEPTH as usize + 1);
        // ...and one as deep where the budget runs out first.
        let (pt, p0) = (at(&f, 40, 39), at(&f, 40, 40));
        assert_eq!(f.check(centre, pt, p0), None);
        // A line cut by the obstacles: no path at all.
        let mut line = Fabric::new(Box::new(LineTopology::new(100)));
        assert_eq!(line.check(PhysId(3), PhysId(50), PhysId(49)), None);
    }

    #[test]
    fn budget_safe_depth_is_the_largest_depth_whose_ball_fits() {
        assert_eq!(BUDGET_SAFE_DEPTH, 45);
        let r = BUDGET_SAFE_DEPTH as usize - 1;
        assert!(manhattan_ball(r) <= MAX_VISITS);
        assert!(manhattan_ball(r + 1) > MAX_VISITS);
    }

    #[test]
    fn epoch_wraparound_clears_goal_marks() {
        let mut f = Fabric::new(Box::new(GridTopology::new(9, 9)));
        let at = |f: &Fabric, x, y| f.by_xy[&(x, y)];
        // Leave goal marks around (3, 3) at epoch 1, which the
        // restarted count reaches again right after the wrap.
        f.check(at(&f, 0, 0), at(&f, 3, 3), at(&f, 2, 3));
        assert_eq!(f.bfs.epoch, 1, "one pass");
        f.bfs.set_epoch(u32::MAX - 1);
        // The first search runs at epoch `u32::MAX`, the second at
        // epoch 1 again, sweeping the square the stale marks sit in.
        for (from, pt, p0) in [((8, 0), (6, 2), (6, 1)), ((0, 0), (6, 6), (5, 6))] {
            let (from, pt, p0) = (
                at(&f, from.0, from.1),
                at(&f, pt.0, pt.1),
                at(&f, p0.0, p0.1),
            );
            assert!(f.check(from, pt, p0).is_some());
        }
        assert!(f.bfs.epoch < 16, "the searches crossed the wrap");
    }
}
