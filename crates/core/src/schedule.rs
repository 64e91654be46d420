//! Schedules (accept/decline + path assignment) and their evaluation.

use serde::{Deserialize, Serialize};

use metis_netsim::{LoadMatrix, UtilizationStats};
use metis_workload::RequestId;

use crate::instance::SpmInstance;

/// An accept/decline decision plus path assignment for every request.
///
/// `assignment[i] == Some(j)` routes request `i` over its `j`-th candidate
/// path; `None` declines it. A schedule is only meaningful together with
/// the [`SpmInstance`] it was built for.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    assignment: Vec<Option<u32>>,
}

impl Schedule {
    /// The all-declined schedule for `k` requests.
    pub fn decline_all(k: usize) -> Self {
        Schedule {
            assignment: vec![None; k],
        }
    }

    /// Number of requests covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the schedule covers zero requests.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The path choice for one request (`None` = declined).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn path_choice(&self, id: RequestId) -> Option<usize> {
        self.assignment[id.index()].map(|j| j as usize)
    }

    /// Assigns request `id` to candidate path `j`, or declines it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&mut self, id: RequestId, choice: Option<usize>) {
        self.assignment[id.index()] = choice.map(|j| j as u32);
    }

    /// Whether request `id` is accepted.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn is_accepted(&self, id: RequestId) -> bool {
        self.assignment[id.index()].is_some()
    }

    /// Number of accepted requests.
    pub fn num_accepted(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Ids of accepted requests.
    pub fn accepted_ids(&self) -> Vec<RequestId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_some())
            .map(|(i, _)| RequestId(i as u32))
            .collect()
    }

    /// Aggregates the load this schedule places on the WAN.
    ///
    /// # Panics
    ///
    /// Panics if the schedule and instance disagree on the request count
    /// or a path index is out of range.
    pub fn load(&self, instance: &SpmInstance) -> LoadMatrix {
        assert_eq!(
            self.assignment.len(),
            instance.num_requests(),
            "schedule does not match instance"
        );
        let mut load = LoadMatrix::new(instance.topology().num_edges(), instance.num_slots());
        for (i, choice) in self.assignment.iter().enumerate() {
            if let Some(j) = choice {
                let id = RequestId(i as u32);
                let r = instance.request(id);
                let path = &instance.paths(id)[*j as usize];
                for &e in path.edges() {
                    load.add(e, r.start, r.end, r.rate);
                }
            }
        }
        load
    }

    /// Evaluates revenue, cost (peak-based integer charging), and profit.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Schedule::load`].
    pub fn evaluate(&self, instance: &SpmInstance) -> Evaluation {
        let load = self.load(instance);
        // `+ 0.0` normalizes the empty sum's IEEE −0.0 to +0.0.
        let revenue: f64 = self
            .assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_some())
            .map(|(i, _)| instance.requests()[i].value)
            .sum::<f64>()
            + 0.0;
        let charged = load.charged_capacities();
        let cost = load.total_cost(instance.topology());
        let utilization = load.utilization(&charged);
        Evaluation {
            revenue,
            cost,
            profit: revenue - cost,
            accepted: self.num_accepted(),
            charged,
            utilization,
            load,
        }
    }

    /// Checks the link-capacity constraint (2) against explicit per-edge
    /// capacities, e.g. in the bandwidth-limited setting.
    ///
    /// # Errors
    ///
    /// Returns the first violated cell as a [`CapacityViolation`]
    /// carrying `(edge index, slot, load, capacity)`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Schedule::load`], plus a capacity-vector
    /// length mismatch.
    pub fn check_capacities(
        &self,
        instance: &SpmInstance,
        capacities: &[f64],
    ) -> Result<(), CapacityViolation> {
        let load = self.load(instance);
        assert_eq!(
            capacities.len(),
            instance.topology().num_edges(),
            "capacity vector length mismatch"
        );
        for e in instance.topology().edge_ids() {
            for t in 0..instance.num_slots() {
                let l = load.get(e, t);
                if l > capacities[e.index()] + metis_netsim::CEIL_EPS {
                    return Err(CapacityViolation {
                        edge: e.index(),
                        slot: t,
                        load: l,
                        capacity: capacities[e.index()],
                    });
                }
            }
        }
        Ok(())
    }
}

/// A link-capacity violation found by [`Schedule::check_capacities`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityViolation {
    /// Edge index.
    pub edge: usize,
    /// Time slot.
    pub slot: usize,
    /// Offending load (units).
    pub load: f64,
    /// Capacity (units).
    pub capacity: f64,
}

impl std::fmt::Display for CapacityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "edge e{} overloaded at slot {}: {:.4} > {:.4} units",
            self.edge, self.slot, self.load, self.capacity
        )
    }
}

/// Economic outcome of a schedule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Service revenue `Σ v_i` over accepted requests.
    pub revenue: f64,
    /// Bandwidth cost `Σ u_e · c_e` with `c_e = ⌈peak load⌉`.
    pub cost: f64,
    /// `revenue − cost`.
    pub profit: f64,
    /// Number of accepted requests.
    pub accepted: usize,
    /// Charged units per edge (`c_e`).
    pub charged: Vec<f64>,
    /// Link utilization vs the charged bandwidth.
    pub utilization: UtilizationStats,
    /// The underlying load matrix.
    pub load: LoadMatrix,
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_netsim::topologies;
    use metis_workload::{generate, Request, WorkloadConfig};

    fn small_instance() -> SpmInstance {
        let topo = topologies::sub_b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(8, 2));
        SpmInstance::new(topo, reqs, 12, 3)
    }

    #[test]
    fn decline_all_is_zero_profit() {
        let inst = small_instance();
        let s = Schedule::decline_all(inst.num_requests());
        let ev = s.evaluate(&inst);
        assert_eq!(ev.revenue, 0.0);
        assert_eq!(ev.cost, 0.0);
        assert_eq!(ev.profit, 0.0);
        assert_eq!(ev.accepted, 0);
        assert!(s.check_capacities(&inst, &[0.0; 14]).is_ok());
    }

    #[test]
    fn single_acceptance_accounting() {
        let inst = small_instance();
        let mut s = Schedule::decline_all(inst.num_requests());
        let id = RequestId(0);
        s.set(id, Some(0));
        assert!(s.is_accepted(id));
        assert_eq!(s.num_accepted(), 1);
        assert_eq!(s.accepted_ids(), vec![id]);

        let r = inst.request(id);
        let path = &inst.paths(id)[0];
        let ev = s.evaluate(&inst);
        assert!((ev.revenue - r.value).abs() < 1e-12);
        // One request of rate < 1 unit charges exactly 1 unit per edge.
        let expected_cost: f64 = path.edges().iter().map(|&e| inst.topology().price(e)).sum();
        assert!((ev.cost - expected_cost).abs() < 1e-12);
        assert!((ev.profit - (ev.revenue - ev.cost)).abs() < 1e-12);
    }

    #[test]
    fn load_matches_manual_accounting() {
        let inst = small_instance();
        let mut s = Schedule::decline_all(inst.num_requests());
        s.set(RequestId(1), Some(0));
        s.set(RequestId(2), Some(1));
        let load = s.load(&inst);
        let mut manual = LoadMatrix::new(inst.topology().num_edges(), 12);
        for (id, j) in [(RequestId(1), 0usize), (RequestId(2), 1usize)] {
            let r = inst.request(id);
            for &e in inst.paths(id)[j].edges() {
                manual.add(e, r.start, r.end, r.rate);
            }
        }
        assert_eq!(load, manual);
    }

    #[test]
    fn capacity_check_detects_violation() {
        let topo = topologies::sub_b4();
        // Two identical whole-cycle requests between the same pair.
        let mk = |id: u32| Request {
            id: metis_workload::RequestId(id),
            src: metis_netsim::NodeId(0),
            dst: metis_netsim::NodeId(1),
            start: 0,
            end: 11,
            rate: 0.6,
            value: 1.0,
        };
        let inst = SpmInstance::new(topo, vec![mk(0), mk(1)], 12, 1);
        let mut s = Schedule::decline_all(2);
        s.set(RequestId(0), Some(0));
        s.set(RequestId(1), Some(0));
        // Combined 1.2 units > capacity 1.0 somewhere on the shared path.
        let caps = vec![1.0; inst.topology().num_edges()];
        let viol = s.check_capacities(&inst, &caps).unwrap_err();
        assert!(viol.load > viol.capacity);
        assert!(viol.to_string().contains("overloaded"));
        // With capacity 2 it fits.
        let caps2 = vec![2.0; inst.topology().num_edges()];
        assert!(s.check_capacities(&inst, &caps2).is_ok());
    }

    #[test]
    fn evaluate_profit_identity_holds() {
        let inst = small_instance();
        let mut s = Schedule::decline_all(inst.num_requests());
        for i in 0..inst.num_requests() {
            s.set(RequestId(i as u32), Some(0));
        }
        let ev = s.evaluate(&inst);
        assert_eq!(ev.accepted, inst.num_requests());
        assert!((ev.profit - (ev.revenue - ev.cost)).abs() < 1e-9);
        assert!((ev.revenue - inst.total_value()).abs() < 1e-9);
        // Charged units cover the peak load on every edge.
        for e in inst.topology().edge_ids() {
            assert!(ev.charged[e.index()] + 1e-9 >= ev.load.peak(e));
        }
    }
}
