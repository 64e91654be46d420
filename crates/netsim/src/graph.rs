//! Directed inter-DC WAN topology with per-link bandwidth prices.

use std::fmt;

/// Identifier of a data center (node) within one [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DC{}", self.0 + 1)
    }
}

/// Identifier of a directed link (edge) within one [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Index of this edge.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Geographic pricing region of a data center.
///
/// Relative bandwidth prices follow the Cloudflare "bandwidth costs around
/// the world" breakdown the paper cites: Europe and North America are the
/// cheapest (1×), Asia roughly 6.5×, Oceania and South America roughly 17×.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// North America (relative price 1.0).
    NorthAmerica,
    /// Europe (relative price 1.0).
    Europe,
    /// Asia (relative price 6.5).
    Asia,
    /// South America (relative price 17.0).
    SouthAmerica,
    /// Oceania (relative price 17.0).
    Oceania,
}

impl Region {
    /// Relative price of one unit of bandwidth terminating in this region.
    pub fn price_factor(self) -> f64 {
        match self {
            Region::NorthAmerica | Region::Europe => 1.0,
            Region::Asia => 6.5,
            Region::SouthAmerica | Region::Oceania => 17.0,
        }
    }
}

/// A data center.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// Human-readable name, e.g. `"DC3"`.
    pub name: String,
    /// Pricing region.
    pub region: Region,
}

/// A directed link between two data centers.
#[derive(Clone, Debug, PartialEq)]
pub struct Edge {
    /// Source data center.
    pub from: NodeId,
    /// Destination data center.
    pub to: NodeId,
    /// Price of one unit (10 Gbps) of bandwidth per billing cycle.
    pub price: f64,
}

/// A directed inter-DC WAN.
///
/// Nodes are data centers; edges are directed leased links, each with a
/// per-unit bandwidth price `u_e`. Bidirectional physical links are stored
/// as two directed edges. Construct with [`Topology::builder`] or a
/// ready-made topology from [`crate::topologies`].
///
/// # Examples
///
/// ```
/// use metis_netsim::{Region, Topology};
///
/// let mut b = Topology::builder();
/// let a = b.add_node("A", Region::NorthAmerica);
/// let c = b.add_node("C", Region::Europe);
/// b.add_link(a, c, 2.0); // both directions, price 2.0/unit
/// let topo = b.build();
/// assert_eq!(topo.num_nodes(), 2);
/// assert_eq!(topo.num_edges(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node.
    out_adj: Vec<Vec<EdgeId>>,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Number of data centers.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The node record behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The edge record behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Price `u_e` of one bandwidth unit on `id`.
    pub fn price(&self, id: EdgeId) -> f64 {
        self.edges[id.index()].price
    }

    /// Iterates all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Outgoing edges of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_adj[node.index()]
    }

    /// The directed edge from `from` to `to`, if one exists.
    pub fn find_edge(&self, from: NodeId, to: NodeId) -> Option<EdgeId> {
        self.out_adj[from.index()]
            .iter()
            .copied()
            .find(|&e| self.edges[e.index()].to == to)
    }

    /// Whether every node can reach every other node.
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.num_nodes();
        if n <= 1 {
            return true;
        }
        // BFS from node 0 forward, then check every node reaches node 0 by
        // BFS on the reverse graph.
        let reach_fwd = self.bfs_reach(NodeId(0), false);
        let reach_bwd = self.bfs_reach(NodeId(0), true);
        reach_fwd.iter().all(|&r| r) && reach_bwd.iter().all(|&r| r)
    }

    /// Renders the topology as a GraphViz DOT document: one undirected
    /// edge per bidirectional link pair (directed edges without a reverse
    /// twin are drawn with an arrow), labelled with the per-unit price,
    /// nodes colored by region.
    ///
    /// # Examples
    ///
    /// ```
    /// let dot = metis_netsim::topologies::sub_b4().to_dot();
    /// assert!(dot.starts_with("graph wan {"));
    /// assert!(dot.contains("DC1"));
    /// ```
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("graph wan {\n");
        let _ = writeln!(out, "  layout=neato; overlap=false;");
        for (i, n) in self.nodes.iter().enumerate() {
            let color = match n.region {
                Region::NorthAmerica => "#88aaff",
                Region::Europe => "#88ddaa",
                Region::Asia => "#ffcc88",
                Region::SouthAmerica => "#ff9999",
                Region::Oceania => "#dd99ff",
            };
            let _ = writeln!(
                out,
                "  n{i} [label=\"{}\" style=filled fillcolor=\"{color}\"];",
                n.name
            );
        }
        // Collapse bidirectional pairs.
        let mut drawn = vec![false; self.edges.len()];
        for (i, e) in self.edges.iter().enumerate() {
            if drawn[i] {
                continue;
            }
            drawn[i] = true;
            #[expect(
                clippy::float_cmp,
                reason = "a twin is drawn as one edge only when both directions store the same price"
            )]
            let twin = self
                .find_edge(e.to, e.from)
                .filter(|t| self.edges[t.index()].price == e.price && !drawn[t.index()]);
            if let Some(t) = twin {
                drawn[t.index()] = true;
                let _ = writeln!(
                    out,
                    "  n{} -- n{} [label=\"{:.2}\"];",
                    e.from.index(),
                    e.to.index(),
                    e.price
                );
            } else {
                let _ = writeln!(
                    out,
                    "  n{} -- n{} [dir=forward label=\"{:.2}\"];",
                    e.from.index(),
                    e.to.index(),
                    e.price
                );
            }
        }
        out.push_str("}\n");
        out
    }

    fn bfs_reach(&self, start: NodeId, reverse: bool) -> Vec<bool> {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        while let Some(u) = stack.pop() {
            for e in &self.edges {
                let (a, b) = if reverse {
                    (e.to, e.from)
                } else {
                    (e.from, e.to)
                };
                if a == u && !seen[b.index()] {
                    seen[b.index()] = true;
                    stack.push(b);
                }
            }
        }
        seen
    }
}

/// Incremental [`Topology`] construction.
#[derive(Clone, Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl TopologyBuilder {
    /// Adds a data center and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, region: Region) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: name.into(),
            region,
        });
        id
    }

    /// Adds one directed edge with an explicit price.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown, the endpoints are equal, or
    /// `price` is not finite and positive.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, price: f64) -> EdgeId {
        assert!(from.index() < self.nodes.len(), "unknown `from` node");
        assert!(to.index() < self.nodes.len(), "unknown `to` node");
        assert_ne!(from, to, "self-loop links are not allowed");
        assert!(
            price.is_finite() && price > 0.0,
            "price must be finite and positive, got {price}"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { from, to, price });
        id
    }

    /// Adds a bidirectional link (two directed edges, same price).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, price: f64) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b, price), self.add_edge(b, a, price))
    }

    /// Adds a bidirectional link priced from the endpoint regions:
    /// `base · (factor(a) + factor(b)) / 2`.
    pub fn add_regional_link(&mut self, a: NodeId, b: NodeId, base: f64) -> (EdgeId, EdgeId) {
        let fa = self.nodes[a.index()].region.price_factor();
        let fb = self.nodes[b.index()].region.price_factor();
        self.add_link(a, b, base * (fa + fb) / 2.0)
    }

    /// Finalizes the topology.
    pub fn build(self) -> Topology {
        let mut out_adj = vec![Vec::new(); self.nodes.len()];
        for (i, e) in self.edges.iter().enumerate() {
            out_adj[e.from.index()].push(EdgeId(i as u32));
        }
        Topology {
            nodes: self.nodes,
            edges: self.edges,
            out_adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut b = Topology::builder();
        let n1 = b.add_node("DC1", Region::NorthAmerica);
        let n2 = b.add_node("DC2", Region::Europe);
        let n3 = b.add_node("DC3", Region::Asia);
        b.add_link(n1, n2, 1.0);
        b.add_link(n2, n3, 2.0);
        b.add_link(n3, n1, 3.0);
        b.build()
    }

    #[test]
    fn builder_produces_directed_pairs() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 6);
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn adjacency_and_lookup() {
        let t = triangle();
        let e = t.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(t.edge(e).to, NodeId(1));
        assert_eq!(t.price(e), 1.0);
        assert!(t.find_edge(NodeId(0), NodeId(0)).is_none());
        assert_eq!(t.out_edges(NodeId(0)).len(), 2);
    }

    #[test]
    fn regional_pricing() {
        let mut b = Topology::builder();
        let na = b.add_node("na", Region::NorthAmerica);
        let asia = b.add_node("asia", Region::Asia);
        let (e, _) = b.add_regional_link(na, asia, 2.0);
        let t = b.build();
        // (1.0 + 6.5)/2 * 2.0 = 7.5
        assert!((t.price(e) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn region_factors_ordered() {
        assert!(Region::NorthAmerica.price_factor() < Region::Asia.price_factor());
        assert!(Region::Asia.price_factor() < Region::Oceania.price_factor());
        assert_eq!(
            Region::Europe.price_factor(),
            Region::NorthAmerica.price_factor()
        );
    }

    #[test]
    fn disconnected_detected() {
        let mut b = Topology::builder();
        let a = b.add_node("a", Region::Europe);
        let c = b.add_node("c", Region::Europe);
        b.add_edge(a, c, 1.0); // one-way only
        let t = b.build();
        assert!(!t.is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut b = Topology::builder();
        let a = b.add_node("a", Region::Europe);
        b.add_edge(a, a, 1.0);
    }

    #[test]
    #[should_panic(expected = "price must be finite and positive")]
    fn bad_price_rejected() {
        let mut b = Topology::builder();
        let a = b.add_node("a", Region::Europe);
        let c = b.add_node("c", Region::Europe);
        b.add_edge(a, c, 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(0).to_string(), "DC1");
        assert_eq!(EdgeId(3).to_string(), "e3");
    }
}
