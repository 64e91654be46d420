//! Loopless path enumeration between data centers.
//!
//! Requests in the Metis model are unsplittable: each accepted request is
//! pinned to exactly one path from a precomputed candidate set `P_i`. This
//! module provides Dijkstra shortest paths and Yen's algorithm for the
//! `k` cheapest loopless paths; a request's `P_i` is the
//! [`k_shortest_paths`] set of its ordered DC pair.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{EdgeId, NodeId, Topology};

/// A loopless directed path.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    edges: Vec<EdgeId>,
    nodes: Vec<NodeId>,
}

impl Path {
    /// Builds a path from its edge sequence, deriving the node sequence.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not contiguous in `topo`.
    pub fn from_edges(topo: &Topology, edges: Vec<EdgeId>) -> Self {
        assert!(!edges.is_empty(), "a path needs at least one edge");
        let mut nodes = vec![topo.edge(edges[0]).from];
        for &e in &edges {
            let edge = topo.edge(e);
            assert_eq!(
                edge.from,
                *nodes.last().unwrap(),
                "edges do not form a contiguous path"
            );
            nodes.push(edge.to);
        }
        Path { edges, nodes }
    }

    /// Edge ids in order.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Node ids in order (one more than edges).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Source data center.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination data center.
    pub fn dest(&self) -> NodeId {
        *self.nodes.last().unwrap()
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Always false: paths have at least one edge.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the path uses `e`.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// Sum of per-unit prices along the path.
    pub fn price(&self, topo: &Topology) -> f64 {
        self.edges.iter().map(|&e| topo.price(e)).sum()
    }
}

#[derive(Clone, Copy, PartialEq)]
struct HeapItem {
    dist: f64,
    node: u32,
}

impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| self.node.cmp(&other.node))
    }
}

/// Dijkstra shortest path with per-edge and per-node exclusions.
///
/// Returns `None` when `dst` is unreachable.
fn dijkstra(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned_edges: &[bool],
    banned_nodes: &[bool],
) -> Option<Vec<EdgeId>> {
    let n = topo.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        node: src.0,
    });
    while let Some(HeapItem { dist: d, node }) = heap.pop() {
        if d > dist[node as usize] {
            continue;
        }
        if node == dst.0 {
            break;
        }
        for &e in topo.out_edges(NodeId(node)) {
            if banned_edges[e.index()] {
                continue;
            }
            let to = topo.edge(e).to;
            if banned_nodes[to.index()] {
                continue;
            }
            let nd = d + topo.price(e);
            if nd < dist[to.index()] - 1e-15 {
                dist[to.index()] = nd;
                prev[to.index()] = Some(e);
                heap.push(HeapItem {
                    dist: nd,
                    node: to.0,
                });
            }
        }
    }
    if dist[dst.index()].is_infinite() {
        return None;
    }
    let mut edges = Vec::new();
    let mut cur = dst;
    while cur != src {
        let e = prev[cur.index()]?;
        edges.push(e);
        cur = topo.edge(e).from;
    }
    edges.reverse();
    Some(edges)
}

/// The cheapest path from `src` to `dst`, or `None` if unreachable.
pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
    if src == dst {
        return None;
    }
    let banned_e = vec![false; topo.num_edges()];
    let banned_n = vec![false; topo.num_nodes()];
    dijkstra(topo, src, dst, &banned_e, &banned_n).map(|edges| Path::from_edges(topo, edges))
}

/// Yen's algorithm: up to `k` cheapest loopless paths from `src` to `dst`,
/// ordered by increasing cost.
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// loopless alternatives, and an empty vector when `dst` is unreachable or
/// `src == dst`.
pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if k == 0 || src == dst {
        return Vec::new();
    }
    let Some(first) = shortest_path(topo, src, dst) else {
        return Vec::new();
    };
    let mut found = vec![first];
    // Candidate pool: (cost, edge list). Linear scan is fine at WAN scale.
    let mut candidates: Vec<(f64, Vec<EdgeId>)> = Vec::new();

    while found.len() < k {
        let last = found.last().unwrap().clone();
        for spur_idx in 0..last.len() {
            let spur_node = last.nodes()[spur_idx];
            let root_edges = &last.edges()[..spur_idx];

            let mut banned_e = vec![false; topo.num_edges()];
            let mut banned_n = vec![false; topo.num_nodes()];
            // Ban edges that would recreate an already-found path sharing
            // this root.
            for p in &found {
                if p.len() > spur_idx && p.edges()[..spur_idx] == *root_edges {
                    banned_e[p.edges()[spur_idx].index()] = true;
                }
            }
            // Ban root nodes (except the spur node) to keep paths loopless.
            for &nd in &last.nodes()[..spur_idx] {
                banned_n[nd.index()] = true;
            }

            if let Some(spur) = dijkstra(topo, spur_node, dst, &banned_e, &banned_n) {
                let mut total: Vec<EdgeId> = root_edges.to_vec();
                total.extend(spur);
                let path = Path::from_edges(topo, total);
                let cost = path.price(topo);
                let dup = found.iter().any(|p| p.edges() == path.edges())
                    || candidates.iter().any(|(_, e)| *e == path.edges());
                if !dup {
                    candidates.push((cost, path.edges().to_vec()));
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Pop the cheapest candidate.
        let (best_idx, _) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
            .unwrap();
        let (_, edges) = candidates.swap_remove(best_idx);
        found.push(Path::from_edges(topo, edges));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Region, Topology};

    /// Square with a diagonal: 1-2-4 (cost 2), 1-3-4 (cost 5), 1-4 (cost 10).
    fn square() -> Topology {
        let mut b = Topology::builder();
        let n: Vec<_> = (0..4)
            .map(|i| b.add_node(format!("DC{}", i + 1), Region::Europe))
            .collect();
        b.add_link(n[0], n[1], 1.0);
        b.add_link(n[1], n[3], 1.0);
        b.add_link(n[0], n[2], 2.0);
        b.add_link(n[2], n[3], 3.0);
        b.add_link(n[0], n[3], 10.0);
        b.build()
    }

    #[test]
    fn shortest_is_cheapest() {
        let t = square();
        let p = shortest_path(&t, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.len(), 2);
        assert!((p.price(&t) - 2.0).abs() < 1e-12);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.dest(), NodeId(3));
    }

    #[test]
    fn yen_orders_by_cost() {
        let t = square();
        let ps = k_shortest_paths(&t, NodeId(0), NodeId(3), 5);
        assert_eq!(ps.len(), 3, "exactly three loopless 1→4 paths exist");
        let costs: Vec<f64> = ps.iter().map(|p| p.price(&t)).collect();
        assert!((costs[0] - 2.0).abs() < 1e-12);
        assert!((costs[1] - 5.0).abs() < 1e-12);
        assert!((costs[2] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn yen_paths_are_loopless_and_distinct() {
        let t = square();
        let ps = k_shortest_paths(&t, NodeId(0), NodeId(3), 10);
        for p in &ps {
            let mut nodes = p.nodes().to_vec();
            nodes.sort();
            nodes.dedup();
            assert_eq!(nodes.len(), p.nodes().len(), "loop in path");
        }
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                assert_ne!(ps[i].edges(), ps[j].edges(), "duplicate path");
            }
        }
    }

    #[test]
    fn k_limits_result() {
        let t = square();
        let ps = k_shortest_paths(&t, NodeId(0), NodeId(3), 2);
        assert_eq!(ps.len(), 2);
        assert_eq!(k_shortest_paths(&t, NodeId(0), NodeId(3), 0).len(), 0);
    }

    #[test]
    fn unreachable_and_self() {
        let mut b = Topology::builder();
        let a = b.add_node("a", Region::Europe);
        let c = b.add_node("c", Region::Europe);
        let d = b.add_node("d", Region::Europe);
        b.add_link(a, c, 1.0);
        let t = b.build();
        assert!(shortest_path(&t, a, d).is_none());
        assert!(k_shortest_paths(&t, a, d, 3).is_empty());
        assert!(k_shortest_paths(&t, a, a, 3).is_empty());
        let _ = d;
    }

    #[test]
    fn path_from_edges_validates() {
        let t = square();
        let e01 = t.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e13 = t.find_edge(NodeId(1), NodeId(3)).unwrap();
        let p = Path::from_edges(&t, vec![e01, e13]);
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert!(p.contains_edge(e01));
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_rejected() {
        let t = square();
        let e01 = t.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e23 = t.find_edge(NodeId(2), NodeId(3)).unwrap();
        let _ = Path::from_edges(&t, vec![e01, e23]);
    }
}
