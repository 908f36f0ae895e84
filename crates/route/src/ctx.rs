//! Per-route context and scratch arenas.
//!
//! The router redesign makes [`Router`](crate::Router) impls stateless
//! strategy objects: all mutable routing state lives in a
//! [`RouterScratch`] owned by the machine and lent to the router for
//! the duration of one `route()` call, bundled with the machine and
//! the lookahead window into a [`RoutingCtx`]. Scratch buffers (decay
//! table, BFS arrays, path buffers) are reused across gates, so
//! the steady-state hot path performs no allocation at all.

use square_arch::{PhysId, Topology};
use square_qir::{Gate, VirtId};

use crate::machine::Machine;

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
    /// Bounded-BFS arrays for operand gathering.
    pub(crate) bfs: BfsScratch,
    /// Path / swap-chain cell buffer.
    pub(crate) chain: Vec<PhysId>,
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

/// Flat, epoch-stamped bounded-BFS state. Arrays are sized on first
/// use and never cleared: a bumped epoch invalidates all stamps in
/// O(1), so repeated gathers reuse the same memory.
#[derive(Debug, Default)]
pub struct BfsScratch {
    /// Predecessor cell index, valid only where `stamp == epoch`.
    prev: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// FIFO queue (head index instead of pop_front).
    queue: Vec<PhysId>,
}

impl BfsScratch {
    fn ensure(&mut self, n: usize) {
        if self.prev.len() < n {
            self.prev.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Bounded BFS from `from` to any cell satisfying `goal`, avoiding
    /// `blocked` cells, visiting the graph in exactly the order the
    /// historical `HashMap`-based search did (FIFO, neighbours in
    /// topology order, goal tested at discovery). On success writes
    /// the path — inclusive of both ends — into `path` and returns
    /// true.
    pub(crate) fn bfs_to(
        &mut self,
        topo: &dyn Topology,
        from: PhysId,
        goal: &mut dyn FnMut(PhysId) -> bool,
        blocked: &[PhysId],
        max_visits: usize,
        path: &mut Vec<PhysId>,
    ) -> bool {
        path.clear();
        if goal(from) {
            path.push(from);
            return true;
        }
        self.ensure(topo.qubit_count());
        let epoch = self.epoch;
        self.queue.clear();
        self.queue.push(from);
        self.stamp[from.index()] = epoch;
        self.prev[from.index()] = from.0;
        let mut head = 0usize;
        let mut visits = 0usize;
        let mut found: Option<PhysId> = None;
        while head < self.queue.len() && found.is_none() {
            let cur = self.queue[head];
            head += 1;
            visits += 1;
            if visits > max_visits {
                return false;
            }
            let BfsScratch {
                prev, stamp, queue, ..
            } = self;
            topo.for_each_neighbor(cur, &mut |nb| {
                if found.is_some() || stamp[nb.index()] == epoch || blocked.contains(&nb) {
                    return;
                }
                stamp[nb.index()] = epoch;
                prev[nb.index()] = cur.0;
                if goal(nb) {
                    found = Some(nb);
                    return;
                }
                queue.push(nb);
            });
        }
        let Some(nb) = found else {
            return false;
        };
        path.push(nb);
        let mut c = nb;
        while c != from {
            c = PhysId(self.prev[c.index()]);
            path.push(c);
        }
        path.reverse();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use square_arch::GridTopology;

    #[test]
    fn bfs_routes_around_blocked_cells() {
        let topo = GridTopology::new(3, 3);
        let mut bfs = BfsScratch::default();
        let mut path = Vec::new();
        // From (0,0) to any neighbour of (2,0)=PhysId(2), with the
        // direct row blocked at (1,0)=PhysId(1).
        let target = PhysId(2);
        let ok = bfs.bfs_to(
            &topo,
            PhysId(0),
            &mut |c| topo.are_coupled(c, target),
            &[PhysId(1), target],
            4096,
            &mut path,
        );
        assert!(ok);
        assert_eq!(path.first(), Some(&PhysId(0)));
        assert!(topo.are_coupled(*path.last().unwrap(), target));
        assert!(!path.contains(&PhysId(1)), "blocked cell avoided");
        for w in path.windows(2) {
            assert!(topo.are_coupled(w[0], w[1]));
        }
        // Scratch reuse: a second, trivial query (goal at start).
        let ok2 = bfs.bfs_to(
            &topo,
            PhysId(4),
            &mut |c| c == PhysId(4),
            &[],
            4096,
            &mut path,
        );
        assert!(ok2);
        assert_eq!(path, vec![PhysId(4)]);
    }

    #[test]
    fn bfs_respects_visit_budget() {
        let topo = GridTopology::new(10, 10);
        let mut bfs = BfsScratch::default();
        let mut path = Vec::new();
        let ok = bfs.bfs_to(
            &topo,
            PhysId(0),
            &mut |c| c == PhysId(99),
            &[],
            3,
            &mut path,
        );
        assert!(!ok, "budget of 3 visits cannot reach the far corner");
    }
}
