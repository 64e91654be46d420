//! Post-hoc schedule analytics: who pays for which link, and which
//! accepted bids actually carry the profit.
//!
//! The billing model charges peaks per link, so cost is inherently
//! shared; this module attributes each link's bill to the requests using
//! it **proportionally to their time-integrated load** on that link, then
//! reports per-request attributed profit and per-link economics. The
//! attribution is exact in aggregate: attributed costs sum to the bill.

use metis_netsim::EdgeId;
use metis_workload::RequestId;

use crate::instance::SpmInstance;
use crate::schedule::Schedule;

/// Per-request verdict with attributed economics.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestOutcome {
    /// The request.
    pub id: RequestId,
    /// Chosen candidate-path index, or `None` if declined.
    pub path: Option<usize>,
    /// The bid `v_i`.
    pub bid: f64,
    /// Share of the total bandwidth bill attributed to this request
    /// (0 for declined requests).
    pub attributed_cost: f64,
    /// `bid − attributed_cost` for accepted requests, 0 otherwise.
    pub attributed_profit: f64,
}

/// Per-link economics.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkOutcome {
    /// The directed edge.
    pub edge: EdgeId,
    /// Charged units `c_e`.
    pub charged_units: u64,
    /// Peak load (units).
    pub peak: f64,
    /// Mean load over the cycle (units).
    pub mean: f64,
    /// `u_e · c_e`.
    pub cost: f64,
    /// Number of accepted requests routed over this edge.
    pub users: usize,
}

/// Full analysis of one schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleAnalysis {
    /// One entry per request, in id order.
    pub requests: Vec<RequestOutcome>,
    /// One entry per edge with purchased bandwidth, sorted by cost
    /// descending.
    pub links: Vec<LinkOutcome>,
    /// Total revenue.
    pub revenue: f64,
    /// Total bandwidth cost.
    pub cost: f64,
    /// Number of accepted requests whose attributed profit is negative —
    /// bids carried by the profitable ones through shared peaks.
    pub cross_subsidized: usize,
}

/// Analyzes a schedule against its instance.
///
/// # Panics
///
/// Panics if the schedule does not match the instance.
///
/// # Examples
///
/// ```
/// use metis_core::{analyze, metis, MetisConfig, SpmInstance};
/// use metis_netsim::topologies;
/// use metis_workload::{generate, WorkloadConfig};
///
/// let topo = topologies::sub_b4();
/// let requests = generate(&topo, &WorkloadConfig::paper(30, 1));
/// let instance = SpmInstance::new(topo, requests, 12, 3);
/// let result = metis(&instance, &MetisConfig::with_theta(4))?;
///
/// let analysis = analyze(&instance, &result.schedule);
/// let attributed: f64 = analysis.requests.iter().map(|r| r.attributed_cost).sum();
/// assert!((attributed - analysis.cost).abs() < 1e-6); // exact in aggregate
/// # Ok::<(), metis_core::MetisError>(())
/// ```
pub fn analyze(instance: &SpmInstance, schedule: &Schedule) -> ScheduleAnalysis {
    let topo = instance.topology();
    let load = schedule.load(instance);

    // Time-integrated load share per (edge, request).
    let mut edge_total: Vec<f64> = vec![0.0; topo.num_edges()];
    let mut edge_users: Vec<usize> = vec![0; topo.num_edges()];
    let mut per_request_usage: Vec<Vec<(usize, f64)>> = vec![Vec::new(); instance.num_requests()];
    for (i, r) in instance.requests().iter().enumerate() {
        if let Some(j) = schedule.path_choice(r.id) {
            let weight = r.rate * r.duration() as f64;
            for &e in instance.paths(r.id)[j].edges() {
                edge_total[e.index()] += weight;
                edge_users[e.index()] += 1;
                per_request_usage[i].push((e.index(), weight));
            }
        }
    }

    let edge_cost: Vec<f64> = topo
        .edge_ids()
        .map(|e| topo.price(e) * load.charged_units(e) as f64)
        .collect();

    let mut requests = Vec::with_capacity(instance.num_requests());
    let mut revenue = 0.0;
    let mut cross_subsidized = 0;
    for (i, r) in instance.requests().iter().enumerate() {
        let path = schedule.path_choice(r.id);
        let mut attributed_cost = 0.0;
        if path.is_some() {
            revenue += r.value;
            for &(e, w) in &per_request_usage[i] {
                if edge_total[e] > 0.0 {
                    attributed_cost += edge_cost[e] * w / edge_total[e];
                }
            }
        }
        let attributed_profit = if path.is_some() {
            r.value - attributed_cost
        } else {
            0.0
        };
        if path.is_some() && attributed_profit < 0.0 {
            cross_subsidized += 1;
        }
        requests.push(RequestOutcome {
            id: r.id,
            path,
            bid: r.value,
            attributed_cost,
            attributed_profit,
        });
    }

    let mut links: Vec<LinkOutcome> = topo
        .edge_ids()
        .filter(|&e| load.charged_units(e) > 0)
        .map(|e| LinkOutcome {
            edge: e,
            charged_units: load.charged_units(e),
            peak: load.peak(e),
            mean: load.mean(e),
            cost: edge_cost[e.index()],
            users: edge_users[e.index()],
        })
        .collect();
    links.sort_by(|a, b| b.cost.total_cmp(&a.cost));

    let cost: f64 = edge_cost.iter().sum();
    ScheduleAnalysis {
        requests,
        links,
        revenue,
        cost,
        cross_subsidized,
    }
}

impl ScheduleAnalysis {
    /// The accepted requests sorted by attributed profit, best first.
    pub fn most_profitable(&self) -> Vec<&RequestOutcome> {
        let mut out: Vec<&RequestOutcome> =
            self.requests.iter().filter(|r| r.path.is_some()).collect();
        out.sort_by(|a, b| b.attributed_profit.total_cmp(&a.attributed_profit));
        out
    }

    /// Renders a compact text report (top links and extremes of the
    /// attributed-profit distribution).
    pub fn render_text(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "revenue {:.2}  cost {:.2}  profit {:.2}  cross-subsidized {}",
            self.revenue,
            self.cost,
            self.revenue - self.cost,
            self.cross_subsidized
        );
        let _ = writeln!(out, "costliest links:");
        for l in self.links.iter().take(top) {
            let _ = writeln!(
                out,
                "  {}: {} units (peak {:.2}, mean {:.2}), cost {:.2}, {} users",
                l.edge, l.charged_units, l.peak, l.mean, l.cost, l.users
            );
        }
        let ranked = self.most_profitable();
        let _ = writeln!(out, "best attributed bids:");
        for r in ranked.iter().take(top) {
            let _ = writeln!(
                out,
                "  {}: bid {:.3}, attributed cost {:.3}, profit {:+.3}",
                r.id, r.bid, r.attributed_cost, r.attributed_profit
            );
        }
        let _ = writeln!(out, "worst attributed bids:");
        for r in ranked.iter().rev().take(top) {
            let _ = writeln!(
                out,
                "  {}: bid {:.3}, attributed cost {:.3}, profit {:+.3}",
                r.id, r.bid, r.attributed_cost, r.attributed_profit
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{metis, MetisConfig};
    use crate::rlspm::{maa, MaaOptions};
    use metis_netsim::topologies;
    use metis_workload::{generate, WorkloadConfig};

    fn instance(k: usize, seed: u64) -> SpmInstance {
        let topo = topologies::sub_b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(k, seed));
        SpmInstance::new(topo, reqs, 12, 3)
    }

    #[test]
    fn attribution_sums_to_bill() {
        let inst = instance(40, 1);
        let m = metis(&inst, &MetisConfig::with_theta(4)).unwrap();
        let a = analyze(&inst, &m.schedule);
        let attributed: f64 = a.requests.iter().map(|r| r.attributed_cost).sum();
        assert!((attributed - a.cost).abs() < 1e-6);
        assert!((a.revenue - m.evaluation.revenue).abs() < 1e-9);
        assert!((a.cost - m.evaluation.cost).abs() < 1e-9);
    }

    #[test]
    fn declined_requests_attribute_nothing() {
        let inst = instance(30, 2);
        let m = metis(&inst, &MetisConfig::with_theta(4)).unwrap();
        let a = analyze(&inst, &m.schedule);
        for r in &a.requests {
            if r.path.is_none() {
                assert_eq!(r.attributed_cost, 0.0);
                assert_eq!(r.attributed_profit, 0.0);
            }
        }
    }

    #[test]
    fn links_sorted_by_cost_and_counted() {
        let inst = instance(50, 3);
        let accepted = vec![true; 50];
        let m = maa(&inst, &accepted, &MaaOptions::default()).unwrap();
        let a = analyze(&inst, &m.schedule);
        for w in a.links.windows(2) {
            assert!(w[0].cost >= w[1].cost);
        }
        for l in &a.links {
            assert!(l.charged_units as f64 + 1e-9 >= l.peak);
            assert!(l.users > 0, "charged link with no users");
        }
    }

    #[test]
    fn empty_schedule_analysis() {
        let inst = instance(10, 4);
        let a = analyze(&inst, &Schedule::decline_all(10));
        assert_eq!(a.revenue, 0.0);
        assert_eq!(a.cost, 0.0);
        assert!(a.links.is_empty());
        assert_eq!(a.cross_subsidized, 0);
        assert!(a.most_profitable().is_empty());
    }

    #[test]
    fn text_report_mentions_key_numbers() {
        let inst = instance(25, 5);
        let m = metis(&inst, &MetisConfig::with_theta(4)).unwrap();
        let a = analyze(&inst, &m.schedule);
        let text = a.render_text(3);
        assert!(text.contains("revenue"));
        assert!(text.contains("costliest links"));
        assert!(text.contains("best attributed bids"));
    }

    #[test]
    fn ranking_is_descending() {
        let inst = instance(35, 6);
        let m = metis(&inst, &MetisConfig::with_theta(4)).unwrap();
        let a = analyze(&inst, &m.schedule);
        let ranked = a.most_profitable();
        for w in ranked.windows(2) {
            assert!(w[0].attributed_profit >= w[1].attributed_profit);
        }
    }
}
