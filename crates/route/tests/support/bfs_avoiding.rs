//! The historical avoid-BFS behind Toffoli gathering, kept naive on
//! purpose (`VecDeque`, per-call arrays, the topology's own closed
//! forms): the reference the flat gather search is checked against.

use std::collections::VecDeque;

use square_arch::{PhysId, Topology};

/// Shortest path from `from` to any cell coupled to `pt` other than
/// `p0`, never crossing `pt` or `p0`, goal-tested at discovery, with a
/// 4096-visit budget. Inclusive of both ends.
pub fn bfs_avoiding(
    topo: &dyn Topology,
    from: PhysId,
    pt: PhysId,
    p0: PhysId,
) -> Option<Vec<PhysId>> {
    let goal = |c: PhysId| topo.distance(c, pt) == 1 && c != p0;
    if goal(from) {
        return Some(vec![from]);
    }
    let n = topo.qubit_count();
    let mut prev: Vec<Option<PhysId>> = vec![None; n];
    let mut queue = VecDeque::new();
    queue.push_back(from);
    prev[from.index()] = Some(from);
    let mut visits = 0usize;
    while let Some(cur) = queue.pop_front() {
        visits += 1;
        if visits > 4096 {
            return None;
        }
        let mut found = None;
        topo.for_each_neighbor(cur, &mut |nb| {
            if found.is_some() || prev[nb.index()].is_some() || nb == pt || nb == p0 {
                return;
            }
            prev[nb.index()] = Some(cur);
            if goal(nb) {
                found = Some(nb);
                return;
            }
            queue.push_back(nb);
        });
        if let Some(nb) = found {
            let mut path = vec![nb];
            let mut c = nb;
            while c != from {
                c = prev[c.index()].expect("walked cells have parents");
                path.push(c);
            }
            path.reverse();
            return Some(path);
        }
    }
    None
}
