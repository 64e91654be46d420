//! The service-profit-maximization (SPM) problem instance.

use serde::{Deserialize, Serialize};

use metis_lp::VarId;
use metis_netsim::{Path, PathCatalog, PathMetric, Topology};
use metis_workload::{Request, RequestId};

use crate::error::InstanceError;

/// Default number of candidate paths enumerated per DC pair.
pub const DEFAULT_PATHS_PER_PAIR: usize = 3;

/// A complete SPM instance: the WAN, the billing cycle, the requests, and
/// each request's candidate path set `P_i`.
///
/// # Examples
///
/// ```
/// use metis_core::SpmInstance;
/// use metis_netsim::topologies;
/// use metis_workload::{generate, WorkloadConfig};
///
/// let topo = topologies::sub_b4();
/// let requests = generate(&topo, &WorkloadConfig::paper(20, 1));
/// let instance = SpmInstance::new(topo, requests, 12, 3);
/// assert_eq!(instance.num_requests(), 20);
/// assert!(instance.paths(metis_workload::RequestId(0)).len() >= 1);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpmInstance {
    topo: Topology,
    requests: Vec<Request>,
    /// Candidate paths per request, cheapest first.
    paths: Vec<Vec<Path>>,
    num_slots: usize,
}

impl SpmInstance {
    /// Builds an instance, enumerating up to `paths_per_pair` cheapest
    /// loopless paths for every request.
    ///
    /// # Panics
    ///
    /// Panics on the [`SpmInstance::try_new`] error conditions: a request
    /// fails validation against the topology and cycle length, a
    /// request's endpoints are disconnected, or the cycle has no slots.
    #[expect(
        clippy::panic,
        reason = "documented panicking convenience wrapper over try_new"
    )]
    pub fn new(
        topo: Topology,
        requests: Vec<Request>,
        num_slots: usize,
        paths_per_pair: usize,
    ) -> Self {
        Self::try_new(topo, requests, num_slots, paths_per_pair).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SpmInstance::new`]: returns the first problem found
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// [`InstanceError::InvalidRequest`] for a request whose fields fail
    /// [`Request::validate`] (including `src == dst` and non-finite or
    /// non-positive rates/values), [`InstanceError::DisconnectedEndpoints`]
    /// when the topology offers no path, [`InstanceError::NoSlots`] for an
    /// empty billing cycle.
    pub fn try_new(
        topo: Topology,
        requests: Vec<Request>,
        num_slots: usize,
        paths_per_pair: usize,
    ) -> Result<Self, InstanceError> {
        let catalog = PathCatalog::build(&topo, paths_per_pair, PathMetric::Price);
        Self::try_with_catalog(topo, requests, num_slots, &catalog)
    }

    /// Builds an instance reusing a prebuilt [`PathCatalog`] (useful when
    /// many instances share a topology).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpmInstance::try_new`].
    pub fn try_with_catalog(
        topo: Topology,
        requests: Vec<Request>,
        num_slots: usize,
        catalog: &PathCatalog,
    ) -> Result<Self, InstanceError> {
        if num_slots < 1 {
            return Err(InstanceError::NoSlots);
        }
        let mut paths = Vec::with_capacity(requests.len());
        for r in &requests {
            r.validate(topo.num_nodes(), num_slots)
                .map_err(|e| InstanceError::InvalidRequest {
                    id: r.id,
                    reason: e,
                })?;
            let ps = catalog.paths(r.src, r.dst);
            if ps.is_empty() {
                return Err(InstanceError::DisconnectedEndpoints {
                    id: r.id,
                    src: r.src,
                    dst: r.dst,
                });
            }
            paths.push(ps.to_vec());
        }
        Ok(SpmInstance {
            topo,
            requests,
            paths,
            num_slots,
        })
    }

    /// The WAN.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// All requests, indexed by [`RequestId::index`].
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// One request.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn request(&self, id: RequestId) -> &Request {
        &self.requests[id.index()]
    }

    /// Number of requests `K`.
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// Number of slots `T` in the billing cycle.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Candidate paths `P_i` for a request, cheapest first.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn paths(&self, id: RequestId) -> &[Path] {
        &self.paths[id.index()]
    }

    /// Iterates `(request, candidate paths)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Request, &[Path])> {
        self.requests
            .iter()
            .zip(self.paths.iter().map(|p| p.as_slice()))
    }

    /// Sum of all bids: the revenue ceiling `Σ v_i`.
    pub fn total_value(&self) -> f64 {
        self.requests.iter().map(|r| r.value).sum()
    }

    /// The load rows every SPM program shares. For each `(edge, slot)`
    /// cell that some candidate path touches, one `(edge index, terms)`
    /// entry lists `(xvars[i][j], r_i)` for every request `i` active in
    /// that slot whose path `j` crosses the edge. Cells come edge-major
    /// with slots ascending, and no cell is empty. Terms are ordered by
    /// request, then path. An empty `xvars[i]` leaves request `i` out;
    /// otherwise it holds one column per candidate path. Each program
    /// completes the row itself, with a charge column or a capacity.
    ///
    /// # Panics
    ///
    /// Panics if `xvars` does not hold one entry per request, or a
    /// non-empty entry does not hold one column per candidate path.
    pub fn load_rows(&self, xvars: &[Vec<VarId>]) -> Vec<(usize, Vec<(VarId, f64)>)> {
        assert_eq!(xvars.len(), self.requests.len(), "xvars per request");
        let slots = self.num_slots;
        let mut cells: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); self.topo.num_edges() * slots];
        for ((r, paths), vars) in self.iter().zip(xvars) {
            if vars.is_empty() {
                continue;
            }
            assert_eq!(vars.len(), paths.len(), "one column per candidate path");
            for (path, &x) in paths.iter().zip(vars) {
                for &e in path.edges() {
                    for t in r.start..=r.end {
                        // INDEX: e < num_edges and t ≤ r.end < slots by instance validation; flat edge×slot layout.
                        cells[e.index() * slots + t].push((x, r.rate));
                    }
                }
            }
        }
        cells
            .into_iter()
            .enumerate()
            .filter(|(_, terms)| !terms.is_empty())
            .map(|(cell, terms)| (cell / slots, terms))
            .collect()
    }

    /// A new instance over a subset of this one's requests (re-indexed
    /// densely in the given order), sharing the topology and path sets.
    ///
    /// # Errors
    ///
    /// [`InstanceError::IndexOutOfRange`] or
    /// [`InstanceError::DuplicateIndex`] for bad subset indices.
    pub fn try_subset(&self, indices: &[usize]) -> Result<SpmInstance, InstanceError> {
        let mut seen = vec![false; self.requests.len()];
        let mut requests = Vec::with_capacity(indices.len());
        let mut paths = Vec::with_capacity(indices.len());
        for (new_id, &i) in indices.iter().enumerate() {
            if i >= self.requests.len() {
                return Err(InstanceError::IndexOutOfRange {
                    index: i,
                    len: self.requests.len(),
                });
            }
            if seen[i] {
                return Err(InstanceError::DuplicateIndex { index: i });
            }
            seen[i] = true;
            let mut r = self.requests[i].clone();
            r.id = RequestId(new_id as u32);
            requests.push(r);
            paths.push(self.paths[i].clone());
        }
        Ok(SpmInstance {
            topo: self.topo.clone(),
            requests,
            paths,
            num_slots: self.num_slots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_netsim::topologies;
    use metis_workload::{generate, WorkloadConfig};

    fn instance(k: usize) -> SpmInstance {
        let topo = topologies::sub_b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(k, 1));
        SpmInstance::new(topo, reqs, 12, 3)
    }

    #[test]
    fn paths_connect_request_endpoints() {
        let inst = instance(30);
        for (r, ps) in inst.iter() {
            assert!(!ps.is_empty());
            for p in ps {
                assert_eq!(p.source(), r.src);
                assert_eq!(p.dest(), r.dst);
            }
        }
    }

    #[test]
    fn accessors() {
        let inst = instance(5);
        assert_eq!(inst.num_requests(), 5);
        assert_eq!(inst.num_slots(), 12);
        assert_eq!(inst.request(RequestId(2)).id, RequestId(2));
        assert!(inst.total_value() > 0.0);
        assert_eq!(inst.topology().num_nodes(), 6);
    }

    #[test]
    fn try_with_catalog_matches_new() {
        let topo = topologies::sub_b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(10, 4));
        let cat = PathCatalog::build(&topo, 3, PathMetric::Price);
        let a = SpmInstance::new(topo.clone(), reqs.clone(), 12, 3);
        let b = SpmInstance::try_with_catalog(topo, reqs, 12, &cat).unwrap();
        for id in 0..10 {
            let id = RequestId(id);
            assert_eq!(a.paths(id), b.paths(id));
        }
    }

    #[test]
    #[should_panic(expected = "invalid request")]
    fn invalid_request_rejected() {
        let topo = topologies::sub_b4();
        let mut reqs = generate(&topo, &WorkloadConfig::paper(3, 1));
        reqs[1].end = 99;
        SpmInstance::new(topo, reqs, 12, 3);
    }

    #[test]
    fn try_new_rejects_loop_requests() {
        // src == dst must surface as a validation error, not the
        // "endpoints are disconnected" panic it used to hit.
        let topo = topologies::sub_b4();
        let mut reqs = generate(&topo, &WorkloadConfig::paper(3, 1));
        reqs[2].dst = reqs[2].src;
        let err = SpmInstance::try_new(topo, reqs, 12, 3).unwrap_err();
        match err {
            InstanceError::InvalidRequest { id, ref reason } => {
                assert_eq!(id, RequestId(2));
                assert!(reason.contains("source equals destination"), "{reason}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    #[test]
    fn try_new_rejects_degenerate_numbers() {
        let topo = topologies::sub_b4();

        let mut reqs = generate(&topo, &WorkloadConfig::paper(3, 1));
        reqs[0].rate = f64::NAN;
        let err = SpmInstance::try_new(topo.clone(), reqs, 12, 3).unwrap_err();
        assert!(err.to_string().contains("rate"), "{err}");

        let mut reqs = generate(&topo, &WorkloadConfig::paper(3, 1));
        reqs[1].value = -2.0;
        let err = SpmInstance::try_new(topo.clone(), reqs, 12, 3).unwrap_err();
        assert!(err.to_string().contains("value"), "{err}");

        let mut reqs = generate(&topo, &WorkloadConfig::paper(3, 1));
        reqs[1].rate = -1.0;
        let err = SpmInstance::try_new(topo, reqs, 12, 3).unwrap_err();
        assert!(matches!(err, InstanceError::InvalidRequest { .. }));
    }

    #[test]
    fn try_new_rejects_zero_slots() {
        let topo = topologies::sub_b4();
        let err = SpmInstance::try_new(topo, Vec::new(), 0, 3).unwrap_err();
        assert_eq!(err, InstanceError::NoSlots);
    }

    #[test]
    fn load_rows_hold_each_term_once_in_its_cell() {
        use metis_lp::{Problem, Sense};
        use std::collections::BTreeSet;

        let inst = instance(30);
        let masked = 3;
        let mut p = Problem::new(Sense::Minimize);
        let xvars: Vec<Vec<VarId>> = inst
            .iter()
            .enumerate()
            .map(|(i, (_, paths))| {
                let n = if i == masked { 0 } else { paths.len() };
                (0..n).map(|_| p.add_var(0.0, 0.0, 1.0)).collect()
            })
            .collect();
        // Every (request, path) crossing `e` while active in `t`, in
        // request-then-path order, read off cell by cell.
        let crossing = |e: usize, t: usize| -> Vec<(VarId, f64)> {
            let mut terms = Vec::new();
            for ((r, paths), vars) in inst.iter().zip(&xvars) {
                for (path, &x) in paths.iter().zip(vars) {
                    let on_edge = path.edges().iter().any(|ed| ed.index() == e);
                    if on_edge && (r.start..=r.end).contains(&t) {
                        terms.push((x, r.rate));
                    }
                }
            }
            terms
        };
        let cells: BTreeSet<(usize, usize)> = (0..inst.topology().num_edges())
            .flat_map(|e| (0..inst.num_slots()).map(move |t| (e, t)))
            .filter(|&(e, t)| !crossing(e, t).is_empty())
            .collect();

        let rows = inst.load_rows(&xvars);
        assert_eq!(rows.len(), cells.len());
        for ((e, terms), &(cell_e, t)) in rows.iter().zip(&cells) {
            assert_eq!(*e, cell_e, "rows are edge-major");
            assert!(!terms.is_empty());
            assert_eq!(*terms, crossing(cell_e, t), "cell ({cell_e}, {t})");
        }
        // One term per (i, j, e, t); the masked request would have had
        // some, and contributes none.
        let terms_of = |(r, paths): (&Request, &[Path])| -> usize {
            paths.iter().map(|q| q.edges().len() * r.duration()).sum()
        };
        let total: usize = rows.iter().map(|(_, terms)| terms.len()).sum();
        let all: usize = inst.iter().map(terms_of).sum();
        let masked_terms = terms_of((
            inst.request(RequestId(masked as u32)),
            inst.paths(RequestId(masked as u32)),
        ));
        assert!(masked_terms > 0);
        assert_eq!(total, all - masked_terms);
    }

    #[test]
    fn try_subset_rejects_bad_indices() {
        let inst = instance(4);
        assert_eq!(
            inst.try_subset(&[0, 9]).unwrap_err(),
            InstanceError::IndexOutOfRange { index: 9, len: 4 }
        );
        assert_eq!(
            inst.try_subset(&[1, 2, 1]).unwrap_err(),
            InstanceError::DuplicateIndex { index: 1 }
        );
        let sub = inst.try_subset(&[3, 0]).unwrap();
        assert_eq!(sub.num_requests(), 2);
        assert_eq!(sub.request(RequestId(0)).id, RequestId(0));
    }
}
