//! Graph-backed coupling store: adjacency lists plus lazily-built
//! all-pairs BFS distance and next-hop tables.
//!
//! The hand-coded layouts (grid, full, line) derive distance and
//! shortest paths in closed form; irregular layouts (heavy-hex, ring)
//! cannot. [`CouplingGraph`] is the backing store for those: it owns
//! the adjacency lists and geometric embedding, and on first distance
//! query builds the full `n × n` BFS distance matrix together with a
//! *next-hop* table (`next[a][b]` = the neighbour of `a` that is first
//! on a shortest `a → b` path), one BFS per source. Afterwards every
//! distance and next-hop lookup is O(1) and every shortest path walks
//! the table without re-running a search — which is what lets the lookahead router score
//! thousands of candidate swaps per gate without allocating.

use std::sync::{Arc, OnceLock};

use crate::topology::PhysId;

/// Sentinel in the next-hop table: no hop (self or unreachable).
const NO_HOP: u32 = u32::MAX;

/// Shared views of a graph's flat all-pairs tables: `n × n` row-major
/// hop counts and first hops. `Arc`-backed so routing scratch state
/// can hold the tables without borrowing the topology — the cheap,
/// clonable handle a `RoutingCtx` keeps for incremental distance
/// maintenance across swaps.
#[derive(Debug, Clone)]
pub struct FlatTables {
    n: usize,
    dist: Arc<[u32]>,
    next: Arc<[u32]>,
}

impl FlatTables {
    /// Hop-count distance via one flat-array read.
    #[inline]
    pub fn distance(&self, a: PhysId, b: PhysId) -> u32 {
        self.dist[a.index() * self.n + b.index()]
    }

    /// First hop of a shortest `a → b` path via one flat-array read
    /// (`None` when `a == b` or unreachable).
    #[inline]
    pub fn next_hop(&self, a: PhysId, b: PhysId) -> Option<PhysId> {
        match self.next[a.index() * self.n + b.index()] {
            NO_HOP => None,
            hop => Some(PhysId(hop)),
        }
    }
}

/// An undirected coupling graph with a 2-D geometric embedding and
/// cached all-pairs shortest-path tables.
#[derive(Debug)]
pub struct CouplingGraph {
    coords: Vec<(i32, i32)>,
    adj: Vec<Vec<PhysId>>,
    /// Flattened `n × n` hop-count matrix, built on first use
    /// (`Arc` so [`FlatTables`] handles share it without copying).
    dist: OnceLock<Arc<[u32]>>,
    /// Flattened `n × n` next-hop matrix (same build).
    next: OnceLock<Arc<[u32]>>,
}

impl CouplingGraph {
    /// Builds the graph from per-qubit coordinates and undirected
    /// edges. Neighbour lists are kept sorted by index so BFS orders —
    /// and therefore next-hop choices and routed swap chains — are
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics on an empty graph or an out-of-range edge endpoint.
    pub fn new(coords: Vec<(i32, i32)>, edges: &[(u32, u32)]) -> Self {
        let n = coords.len();
        assert!(n > 0, "coupling graph must have at least one qubit");
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!((a as usize) < n && (b as usize) < n, "edge out of range");
            assert_ne!(a, b, "self-coupling");
            adj[a as usize].push(PhysId(b));
            adj[b as usize].push(PhysId(a));
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        CouplingGraph {
            coords,
            adj,
            dist: OnceLock::new(),
            next: OnceLock::new(),
        }
    }

    /// Number of qubits.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True for the (disallowed) empty graph — present for clippy's
    /// `len_without_is_empty`; construction guarantees `false`.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Geometric position of a qubit.
    pub fn coord(&self, q: PhysId) -> (i32, i32) {
        self.coords[q.index()]
    }

    /// Neighbours of `q`, sorted by index.
    pub fn neighbors(&self, q: PhysId) -> &[PhysId] {
        &self.adj[q.index()]
    }

    /// True if `a` and `b` share an edge.
    pub fn are_coupled(&self, a: PhysId, b: PhysId) -> bool {
        self.adj[a.index()].binary_search(&b).is_ok()
    }

    /// Builds (once) both all-pairs tables: one BFS per source.
    /// `next[s*n + v]` is the first hop of a shortest `s → v` path —
    /// the shortest path whose hops BFS in ascending-neighbour order
    /// discovers first, so routing is deterministic.
    fn tables(&self) -> (&[u32], &[u32]) {
        let dist = self.dist.get_or_init(|| {
            let n = self.len();
            let mut dist = vec![u32::MAX; n * n];
            let mut next = vec![NO_HOP; n * n];
            let mut queue = std::collections::VecDeque::with_capacity(n);
            for (s, (d, h)) in dist.chunks_mut(n).zip(next.chunks_mut(n)).enumerate() {
                self.bfs_row(s, d, h, &mut queue);
            }
            // Publish the next-hop half through its own cell; both
            // halves come from the same build so they stay consistent.
            let _ = self.next.set(next.into());
            dist.into()
        });
        let next = self.next.get().expect("set together with dist");
        (dist, next)
    }

    /// Shared handles to the flat tables (building them on first use).
    pub fn shared_tables(&self) -> FlatTables {
        let _ = self.tables();
        FlatTables {
            n: self.len(),
            dist: Arc::clone(self.dist.get().expect("built above")),
            next: Arc::clone(self.next.get().expect("built above")),
        }
    }

    /// One BFS row: fills `dist` (preset to `u32::MAX`) and `next`
    /// (preset to [`NO_HOP`]) with distances and first hops from
    /// source `s`. `queue` is reusable scratch, empty on return.
    fn bfs_row(
        &self,
        s: usize,
        dist: &mut [u32],
        next: &mut [u32],
        queue: &mut std::collections::VecDeque<usize>,
    ) {
        dist[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &nb in &self.adj[u] {
                let v = nb.index();
                if dist[v] != u32::MAX {
                    continue;
                }
                dist[v] = dist[u] + 1;
                // First hop toward v: the neighbour itself when we are
                // the source, else whatever first hop reached u.
                next[v] = if u == s { v as u32 } else { next[u] };
                queue.push_back(v);
            }
        }
    }

    /// Hop-count distance (`u32::MAX` between disconnected qubits —
    /// the shipped layouts are all connected).
    pub fn distance(&self, a: PhysId, b: PhysId) -> u32 {
        if a == b {
            return 0;
        }
        let (dist, _) = self.tables();
        dist[a.index() * self.len() + b.index()]
    }

    /// The neighbour of `a` that is first on a shortest path to `b`
    /// (`None` when `a == b` or `b` is unreachable).
    pub fn next_hop(&self, a: PhysId, b: PhysId) -> Option<PhysId> {
        if a == b {
            return None;
        }
        let (_, next) = self.tables();
        match next[a.index() * self.len() + b.index()] {
            NO_HOP => None,
            hop => Some(PhysId(hop)),
        }
    }

    /// A shortest path from `a` to `b` inclusive of both endpoints,
    /// reconstructed by walking the next-hop table.
    pub fn shortest_path(&self, a: PhysId, b: PhysId) -> Vec<PhysId> {
        let mut path = Vec::with_capacity(self.distance(a, b) as usize + 1);
        let mut cur = a;
        path.push(cur);
        while cur != b {
            match self.next_hop(cur, b) {
                Some(hop) => {
                    cur = hop;
                    path.push(cur);
                }
                None => break, // disconnected; return the partial walk
            }
        }
        path
    }

    /// The qubit whose embedding is geometrically nearest `center`
    /// (Manhattan; ties broken by lowest index).
    pub fn nearest_to(&self, center: (i32, i32)) -> PhysId {
        let mut best = PhysId(0);
        let mut best_d = i64::MAX;
        for (i, &(x, y)) in self.coords.iter().enumerate() {
            let d = (x as i64 - center.0 as i64).abs() + (y as i64 - center.1 as i64).abs();
            if d < best_d {
                best_d = d;
                best = PhysId(i as u32);
            }
        }
        best
    }

    /// Every qubit ordered by nondecreasing *graph* distance from the
    /// qubit nearest `center` (ties by index) — the ring order the
    /// locality-aware allocator consumes.
    pub fn ring_order(&self, center: (i32, i32)) -> Vec<PhysId> {
        let anchor = self.nearest_to(center);
        let mut order: Vec<PhysId> = (0..self.len() as u32).map(PhysId).collect();
        order.sort_by_key(|&q| (self.distance(anchor, q), q.0));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-cycle with a tail: 0-1-2-3-0, 3-4.
    fn cycle_with_tail() -> CouplingGraph {
        CouplingGraph::new(
            vec![(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)],
        )
    }

    #[test]
    fn distances_are_bfs_hops() {
        let g = cycle_with_tail();
        assert_eq!(g.distance(PhysId(0), PhysId(0)), 0);
        assert_eq!(g.distance(PhysId(0), PhysId(2)), 2);
        assert_eq!(g.distance(PhysId(1), PhysId(4)), 3);
        assert_eq!(g.distance(PhysId(4), PhysId(1)), 3, "symmetry");
    }

    #[test]
    fn next_hop_walks_a_shortest_path() {
        let g = cycle_with_tail();
        let path = g.shortest_path(PhysId(1), PhysId(4));
        assert_eq!(path.len() as u32, g.distance(PhysId(1), PhysId(4)) + 1);
        assert_eq!(path.first(), Some(&PhysId(1)));
        assert_eq!(path.last(), Some(&PhysId(4)));
        for w in path.windows(2) {
            assert!(g.are_coupled(w[0], w[1]));
        }
        assert_eq!(g.next_hop(PhysId(2), PhysId(2)), None);
        // Deterministic tie-break: 0→2 via the lower-indexed branch.
        assert_eq!(g.next_hop(PhysId(0), PhysId(2)), Some(PhysId(1)));
    }

    #[test]
    fn ring_order_is_nondecreasing_graph_distance() {
        let g = cycle_with_tail();
        let order = g.ring_order((0, 0));
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], PhysId(0));
        let dists: Vec<u32> = order.iter().map(|&q| g.distance(PhysId(0), q)).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]), "{dists:?}");
    }

    #[test]
    fn neighbors_sorted_and_deduped() {
        let g = CouplingGraph::new(vec![(0, 0), (1, 0), (2, 0)], &[(1, 0), (2, 1), (0, 1)]);
        assert_eq!(g.neighbors(PhysId(1)), &[PhysId(0), PhysId(2)]);
        assert!(g.are_coupled(PhysId(0), PhysId(1)));
        assert!(!g.are_coupled(PhysId(0), PhysId(2)));
    }
}
