//! Versioned scenario files: a declarative description of one experiment.
//!
//! A scenario bundles everything a run needs — the topology, the horizon
//! (slots per billing cycle × number of cycles), the workload generator
//! family with its parameters, and the solver knobs `θ` and path count —
//! into one JSON document under `scenarios/`. The loader is *strict*:
//! unknown fields, missing fields, and out-of-range values are rejected
//! with the exact field path (`workload.diurnal.peak_to_trough: must be
//! at least 1`), so a typo in a scenario file fails loudly instead of
//! silently falling back to a default.
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "version": 1,
//!   "name": "diurnal_b4",
//!   "description": "optional free text",
//!   "topology": "b4",
//!   "horizon": { "slots_per_cycle": 12, "cycles": 2 },
//!   "seed": 7,
//!   "theta": 6,
//!   "paths": 3,
//!   "workload": { "<family>": { ... } }
//! }
//! ```
//!
//! `topology` is a name (`b4`, `sub-b4`, `abilene`, `geant`) or
//! `{"random": {"nodes": N, "extra_links": E, "seed": S}}`. The five
//! workload families are [`uniform`](FamilySpec::Uniform) (the paper's
//! §V-A model), [`geo_locality`](FamilySpec::GeoLocality),
//! [`diurnal`](FamilySpec::Diurnal), [`auction`](FamilySpec::Auction),
//! and [`hose`](FamilySpec::Hose); see each spec type for its fields.
//!
//! Every scenario checked into `scenarios/` is swept by the
//! `tests/scenarios.rs` conformance harness: schema validation, generator
//! invariants, thread determinism, fault injection, audits, and a
//! pinned golden outcome.
//!
//! # Examples
//!
//! ```
//! use metis_workload::scenario::Scenario;
//!
//! let text = r#"{
//!   "version": 1,
//!   "name": "tiny",
//!   "topology": "sub-b4",
//!   "horizon": { "slots_per_cycle": 12, "cycles": 1 },
//!   "seed": 1,
//!   "workload": { "uniform": {
//!     "num_requests": 20,
//!     "rate_gbps": [0.1, 5.0],
//!     "value_model": { "priced_path": { "low": 0.5, "high": 4.0 } }
//!   } }
//! }"#;
//! let scenario = Scenario::from_json_text(text).unwrap();
//! let topo = scenario.build_topology();
//! let requests = scenario.generate(&topo);
//! assert_eq!(requests.len(), 20);
//! ```

use std::fmt;
use std::path::Path;

use metis_netsim::{topologies, Topology};
use metis_telemetry::json::Json;

use crate::families;
use crate::generator::{generate as generate_uniform, ValueModel, WorkloadConfig};
use crate::request::Request;

/// The scenario schema version this build reads and writes.
///
/// Bump only with a migration note in DESIGN.md; the loader rejects every
/// other version so old binaries never misread new fields.
pub const SCENARIO_VERSION: u64 = 1;

/// Hard cap on `horizon.slots_per_cycle × horizon.cycles`: beyond this the
/// BL-SPM LP is too large for any interactive or CI use.
pub const MAX_HORIZON_SLOTS: usize = 10_000;

/// Hard cap on a random topology's `nodes`: the generator allocates per
/// node, so an unchecked count lets a small file exhaust memory.
pub const MAX_RANDOM_NODES: u32 = 1_000;

/// Hard cap on the requests a workload may emit
/// ([`FamilySpec::max_requests`]): the generators allocate per request,
/// so an unchecked count lets a small file exhaust memory. A million
/// keeps the largest workloads expressible.
pub const MAX_REQUESTS: usize = 1_000_000;

/// A malformed scenario document: the offending field and what is wrong
/// with it.
///
/// `path` is dotted from the document root (`workload.diurnal.burst.prob`)
/// with `[i]` segments for array elements; the root itself is `scenario`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError {
    /// Dotted path of the offending field from the document root.
    pub path: String,
    /// What is wrong at that path.
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for ScenarioError {}

/// Which WAN a scenario runs on.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// Google's B4 (12 DCs, 19 links).
    B4,
    /// The paper's SUB-B4 subset.
    SubB4,
    /// The Abilene research network.
    Abilene,
    /// The GÉANT pan-European network.
    Geant,
    /// A seeded random WAN (ring + chords), deterministic per spec.
    Random {
        /// Number of data centers (≥ 3).
        nodes: u32,
        /// Random chords added on top of the connectivity ring.
        extra_links: usize,
        /// Seed for the chord placement.
        seed: u64,
    },
}

impl TopologySpec {
    /// Builds the topology this spec describes.
    pub fn build(&self) -> Topology {
        match self {
            TopologySpec::B4 => topologies::b4(),
            TopologySpec::SubB4 => topologies::sub_b4(),
            TopologySpec::Abilene => topologies::abilene(),
            TopologySpec::Geant => topologies::geant(),
            TopologySpec::Random {
                nodes,
                extra_links,
                seed,
            } => topologies::random_wan(*nodes, *extra_links, *seed),
        }
    }

    /// Short human-readable label (`b4`, `random(10,6,42)`, …).
    pub fn label(&self) -> String {
        match self {
            TopologySpec::B4 => "b4".into(),
            TopologySpec::SubB4 => "sub-b4".into(),
            TopologySpec::Abilene => "abilene".into(),
            TopologySpec::Geant => "geant".into(),
            TopologySpec::Random {
                nodes,
                extra_links,
                seed,
            } => format!("random({nodes},{extra_links},{seed})"),
        }
    }

    /// Parses a bare topology name.
    pub fn parse_name(name: &str) -> Option<TopologySpec> {
        match name {
            "b4" => Some(TopologySpec::B4),
            "sub-b4" | "sub_b4" => Some(TopologySpec::SubB4),
            "abilene" => Some(TopologySpec::Abilene),
            "geant" => Some(TopologySpec::Geant),
            _ => None,
        }
    }
}

/// The time axis of a scenario: `cycles` repetitions of a billing cycle
/// of `slots_per_cycle` slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Horizon {
    /// Slots per billing cycle (the paper uses 12).
    pub slots_per_cycle: usize,
    /// Number of consecutive cycles in the horizon.
    pub cycles: usize,
}

impl Horizon {
    /// Total number of slots, `slots_per_cycle × cycles`.
    pub fn num_slots(&self) -> usize {
        self.slots_per_cycle * self.cycles
    }
}

/// The paper's §V-A workload: Poisson arrivals, uniform endpoints,
/// uniform rates, route-priced bids.
#[derive(Clone, Debug, PartialEq)]
pub struct UniformSpec {
    /// Number of requests `K` over the horizon.
    pub num_requests: usize,
    /// Bandwidth requirement range in Gbps (uniform).
    pub rate_gbps: (f64, f64),
    /// Bid derivation.
    pub value_model: ValueModel,
}

/// Population-weighted geo-distributed demand with a tunable locality
/// factor.
///
/// Endpoints are drawn by *population* (explicit per-DC weights, or node
/// degree when omitted — better-connected DCs serve more demand), and the
/// destination is additionally biased toward the source by `locality`:
/// destination weight is `pop(d) · ((1 − locality) + locality · 2^{1−hops(s,d)})`,
/// so `0.0` is pure population gravity and `1.0` halves the weight per
/// extra hop from the source.
#[derive(Clone, Debug, PartialEq)]
pub struct GeoLocalitySpec {
    /// Number of requests `K` over the horizon.
    pub num_requests: usize,
    /// Bandwidth requirement range in Gbps (uniform).
    pub rate_gbps: (f64, f64),
    /// Bid derivation.
    pub value_model: ValueModel,
    /// Locality factor in `[0, 1]`: 0 = population gravity only,
    /// 1 = strong preference for nearby destinations.
    pub locality: f64,
    /// Optional explicit per-DC demand weights (must match the topology's
    /// node count); defaults to node degree.
    pub populations: Option<Vec<f64>>,
}

/// A short demand burst multiplying some slots' arrival intensity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstSpec {
    /// Per-slot probability of a burst (seeded, in `[0, 1]`).
    pub prob: f64,
    /// Intensity multiplier applied to burst slots (≥ 1).
    pub multiplier: f64,
}

/// Diurnal (and optionally bursty) arrivals over a multi-cycle horizon.
///
/// Arrival intensity over each cycle follows a raised cosine peaking at
/// `peak_slot` with peak-to-trough ratio `peak_to_trough`; a seeded burst
/// mask can further multiply individual slots. Conditional on the total
/// request count, non-homogeneous Poisson arrival times are i.i.d. with
/// density proportional to the intensity, which is exactly how slots are
/// sampled here.
#[derive(Clone, Debug, PartialEq)]
pub struct DiurnalSpec {
    /// Number of requests `K` over the whole horizon.
    pub num_requests: usize,
    /// Bandwidth requirement range in Gbps (uniform).
    pub rate_gbps: (f64, f64),
    /// Bid derivation.
    pub value_model: ValueModel,
    /// Ratio of peak to trough arrival intensity (≥ 1).
    pub peak_to_trough: f64,
    /// Cycle slot of peak intensity (`< slots_per_cycle`).
    pub peak_slot: usize,
    /// Optional burst model layered on the diurnal curve.
    pub burst: Option<BurstSpec>,
    /// Longest reservation in slots (default: one cycle).
    pub max_duration_slots: Option<usize>,
}

/// Auction-style workload: `v_i` is a *strategic bid*, following the
/// truthful (1−ε)-optimal mechanism of Zhang et al. (PAPERS.md).
///
/// Every bidder has a true valuation `v = rate · (duration/cycle) ·
/// cheapest_path_price · markup`. Under a (1−ε)-optimal truthful
/// mechanism, truthful reporting is dominant up to the ε slack, so a
/// `strategic_fraction` of bidders shade their bid to `v · (1 − u·ε)`
/// with `u ~ U[0,1]` (attempting to free-ride the slack) while the rest
/// bid truthfully. The emitted request value is the *bid*.
#[derive(Clone, Debug, PartialEq)]
pub struct AuctionSpec {
    /// Number of requests `K` over the horizon.
    pub num_requests: usize,
    /// Bandwidth requirement range in Gbps (uniform).
    pub rate_gbps: (f64, f64),
    /// True-valuation markup range over the cheapest-path price.
    pub markup: (f64, f64),
    /// The mechanism's optimality slack ε, strictly between 0 and 1.
    pub epsilon: f64,
    /// Fraction of bidders that shade their bid, in `[0, 1]`.
    pub strategic_fraction: f64,
}

/// Hose-model virtual-cluster requests per Ludwig et al. (PAPERS.md).
///
/// Each cluster picks `endpoints` distinct DCs and a shared time window;
/// the member with the smallest total hop distance to the others becomes
/// the hub (the "virtual switch" of the hose model), and every other
/// member contributes an uplink *and* a downlink request to/from the hub
/// at its hose rate. This stresses the path-assignment layer with many
/// correlated src→dst pairs instead of independent point-to-point flows.
#[derive(Clone, Debug, PartialEq)]
pub struct HoseSpec {
    /// Number of virtual clusters.
    pub clusters: usize,
    /// Endpoints per cluster, uniform in `[min, max]` (min ≥ 2, max ≤
    /// the topology's node count).
    pub endpoints: (usize, usize),
    /// Per-member hose bandwidth range in Gbps (uniform).
    pub hose_gbps: (f64, f64),
    /// Flat tariff: revenue per bandwidth unit per slot.
    pub per_unit_slot: f64,
    /// Cluster-level markup range multiplying every member's bid.
    pub markup: (f64, f64),
    /// Longest cluster window in slots (default: one cycle).
    pub max_duration_slots: Option<usize>,
}

/// One workload generator family with its parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum FamilySpec {
    /// The paper's §V-A model ([`UniformSpec`]).
    Uniform(UniformSpec),
    /// Population-weighted geo demand ([`GeoLocalitySpec`]).
    GeoLocality(GeoLocalitySpec),
    /// Diurnal/bursty arrivals ([`DiurnalSpec`]).
    Diurnal(DiurnalSpec),
    /// Strategic-bid auction workload ([`AuctionSpec`]).
    Auction(AuctionSpec),
    /// Hose-model virtual clusters ([`HoseSpec`]).
    Hose(HoseSpec),
}

impl FamilySpec {
    /// The family's schema tag (`uniform`, `geo_locality`, …).
    pub fn family(&self) -> &'static str {
        match self {
            FamilySpec::Uniform(_) => "uniform",
            FamilySpec::GeoLocality(_) => "geo_locality",
            FamilySpec::Diurnal(_) => "diurnal",
            FamilySpec::Auction(_) => "auction",
            FamilySpec::Hose(_) => "hose",
        }
    }

    /// The configured rate range in Gbps every emitted request must
    /// respect (hose clusters draw per-member hose rates).
    pub fn rate_range_gbps(&self) -> (f64, f64) {
        match self {
            FamilySpec::Uniform(s) => s.rate_gbps,
            FamilySpec::GeoLocality(s) => s.rate_gbps,
            FamilySpec::Diurnal(s) => s.rate_gbps,
            FamilySpec::Auction(s) => s.rate_gbps,
            FamilySpec::Hose(s) => s.hose_gbps,
        }
    }

    /// The most requests the family can emit: its `num_requests`, or for
    /// hose an uplink and a downlink per non-hub member of `clusters`
    /// clusters of `endpoints.1` members. Saturates rather than overflow.
    pub fn max_requests(&self) -> usize {
        match self {
            FamilySpec::Uniform(s) => s.num_requests,
            FamilySpec::GeoLocality(s) => s.num_requests,
            FamilySpec::Diurnal(s) => s.num_requests,
            FamilySpec::Auction(s) => s.num_requests,
            FamilySpec::Hose(s) => s
                .clusters
                .saturating_mul(2)
                .saturating_mul(s.endpoints.1.saturating_sub(1)),
        }
    }
}

/// A fully validated scenario document.
///
/// Construct with [`Scenario::load`] / [`Scenario::from_json_text`] (both
/// validate), or directly field-by-field in tests. Same scenario + same
/// seed ⇒ bit-identical request stream, on any host.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Schema version; always [`SCENARIO_VERSION`] after loading.
    pub version: u64,
    /// Machine-readable name (`[a-z0-9_-]+`); conformance requires it to
    /// match the file stem.
    pub name: String,
    /// Optional free-text description.
    pub description: Option<String>,
    /// The WAN to run on.
    pub topology: TopologySpec,
    /// The time axis.
    pub horizon: Horizon,
    /// Master RNG seed for workload generation.
    pub seed: u64,
    /// Alternation rounds `θ` for the solver.
    pub theta: usize,
    /// Candidate paths per request.
    pub paths: usize,
    /// The workload generator family.
    pub workload: FamilySpec,
}

impl Scenario {
    /// Loads and validates a scenario file.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError {
            path: "scenario".into(),
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Scenario::from_json_text(&text)
    }

    /// Parses and validates a scenario document from JSON text.
    pub fn from_json_text(text: &str) -> Result<Scenario, ScenarioError> {
        let v = Json::parse(text).map_err(|e| ScenarioError {
            path: "scenario".into(),
            message: format!("invalid JSON: {e}"),
        })?;
        Scenario::from_json(&v)
    }

    /// Parses and validates a scenario document from a parsed JSON value.
    pub fn from_json(v: &Json) -> Result<Scenario, ScenarioError> {
        parse_scenario(v)
    }

    /// Total number of slots in the horizon.
    pub fn num_slots(&self) -> usize {
        self.horizon.num_slots()
    }

    /// Builds the scenario's topology.
    pub fn build_topology(&self) -> Topology {
        self.topology.build()
    }

    /// The workload family tag.
    pub fn family(&self) -> &'static str {
        self.workload.family()
    }

    /// Generates the scenario's request stream on `topo`.
    ///
    /// Deterministic: the same scenario and topology always produce the
    /// same requests, bit for bit. Requests come out sorted by start slot
    /// with sequential ids.
    ///
    /// # Panics
    ///
    /// Panics if `topo` is inconsistent with the spec (fewer than two
    /// nodes, or an explicit population table of the wrong length) — the
    /// loader's cross-validation rules out both for loaded scenarios.
    pub fn generate(&self, topo: &Topology) -> Vec<Request> {
        match &self.workload {
            FamilySpec::Uniform(spec) => generate_uniform(
                topo,
                &WorkloadConfig {
                    num_requests: spec.num_requests,
                    num_slots: self.horizon.num_slots(),
                    rate_gbps: spec.rate_gbps,
                    value_model: spec.value_model,
                    seed: self.seed,
                },
            ),
            FamilySpec::GeoLocality(spec) => {
                families::geo::generate(topo, &self.horizon, self.seed, spec)
            }
            FamilySpec::Diurnal(spec) => {
                families::diurnal::generate(topo, &self.horizon, self.seed, spec)
            }
            FamilySpec::Auction(spec) => {
                families::auction::generate(topo, &self.horizon, self.seed, spec)
            }
            FamilySpec::Hose(spec) => {
                families::hose::generate(topo, &self.horizon, self.seed, spec)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Strict parsing with field-path errors.

/// A JSON node plus its dotted path from the document root, so every
/// error names exactly the field it is about.
struct Ctx<'a> {
    path: String,
    v: &'a Json,
}

impl<'a> Ctx<'a> {
    fn root(v: &'a Json) -> Ctx<'a> {
        Ctx {
            path: "scenario".into(),
            v,
        }
    }

    fn child(&self, key: &str, v: &'a Json) -> Ctx<'a> {
        Ctx {
            path: format!("{}.{key}", self.path),
            v,
        }
    }

    fn index(&self, i: usize, v: &'a Json) -> Ctx<'a> {
        Ctx {
            path: format!("{}[{i}]", self.path),
            v,
        }
    }

    fn err(&self, message: impl Into<String>) -> ScenarioError {
        ScenarioError {
            path: self.path.clone(),
            message: message.into(),
        }
    }

    /// Error about a *missing or unknown* field under this object.
    fn field_err(&self, key: &str, message: impl Into<String>) -> ScenarioError {
        ScenarioError {
            path: format!("{}.{key}", self.path),
            message: message.into(),
        }
    }

    fn obj(&self) -> Result<&'a [(String, Json)], ScenarioError> {
        self.v.as_obj().ok_or_else(|| self.err("must be an object"))
    }

    fn str(&self) -> Result<&'a str, ScenarioError> {
        self.v.as_str().ok_or_else(|| self.err("must be a string"))
    }

    fn f64(&self) -> Result<f64, ScenarioError> {
        let n = self
            .v
            .as_f64()
            .ok_or_else(|| self.err("must be a number"))?;
        if !n.is_finite() {
            return Err(self.err("must be a finite number"));
        }
        Ok(n)
    }

    fn u64(&self) -> Result<u64, ScenarioError> {
        self.v
            .as_u64()
            .ok_or_else(|| self.err("must be a non-negative integer"))
    }

    fn usize(&self) -> Result<usize, ScenarioError> {
        Ok(self.u64()? as usize)
    }

    /// A two-element `[low, high]` number array.
    fn range(&self) -> Result<(f64, f64), ScenarioError> {
        let items = self
            .v
            .as_arr()
            .ok_or_else(|| self.err("must be a [low, high] array"))?;
        if items.len() != 2 {
            return Err(self.err(format!(
                "must have exactly two entries, found {}",
                items.len()
            )));
        }
        let lo = self.index(0, &items[0]).f64()?;
        let hi = self.index(1, &items[1]).f64()?;
        if lo > hi {
            return Err(self.err(format!(
                "bounds must satisfy low <= high, found [{lo}, {hi}]"
            )));
        }
        Ok((lo, hi))
    }

    /// A `[low, high]` range that must be strictly positive.
    fn positive_range(&self) -> Result<(f64, f64), ScenarioError> {
        let (lo, hi) = self.range()?;
        if lo <= 0.0 {
            return Err(self.err(format!("low bound must be positive, found {lo}")));
        }
        Ok((lo, hi))
    }

    fn unit_interval(&self) -> Result<f64, ScenarioError> {
        let x = self.f64()?;
        if !(0.0..=1.0).contains(&x) {
            return Err(self.err(format!("must be within [0, 1], found {x}")));
        }
        Ok(x)
    }
}

/// Walks an object's fields strictly: every field must be consumed by
/// `visit`, which returns `false` for keys it does not recognize.
fn walk_obj<'a>(
    ctx: &Ctx<'a>,
    known: &[&str],
    mut visit: impl FnMut(&str, Ctx<'a>) -> Result<bool, ScenarioError>,
) -> Result<(), ScenarioError> {
    for (key, value) in ctx.obj()? {
        if !visit(key, ctx.child(key, value))? {
            return Err(ctx.field_err(
                key,
                format!("unknown field (known fields: {})", known.join(", ")),
            ));
        }
    }
    Ok(())
}

fn parse_scenario(v: &Json) -> Result<Scenario, ScenarioError> {
    let ctx = Ctx::root(v);
    const KNOWN: &[&str] = &[
        "version",
        "name",
        "description",
        "topology",
        "horizon",
        "seed",
        "theta",
        "paths",
        "workload",
    ];

    let mut version = None;
    let mut name = None;
    let mut description = None;
    let mut topology = None;
    let mut horizon = None;
    let mut seed = None;
    let mut theta = 8usize;
    let mut paths = 3usize;
    let mut workload = None;

    walk_obj(&ctx, KNOWN, |key, c| {
        match key {
            "version" => version = Some(c.u64()?),
            "name" => {
                let s = c.str()?;
                let ok = !s.is_empty()
                    && s.bytes().all(|b| {
                        b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-'
                    });
                if !ok {
                    return Err(c.err(format!("must match [a-z0-9_-]+, found `{s}`")));
                }
                name = Some(s.to_string());
            }
            "description" => description = Some(c.str()?.to_string()),
            "topology" => topology = Some(parse_topology(&c)?),
            "horizon" => horizon = Some(parse_horizon(&c)?),
            "seed" => seed = Some(c.u64()?),
            "theta" => theta = c.usize()?,
            "paths" => {
                paths = c.usize()?;
                if paths == 0 {
                    return Err(c.err("must be at least 1"));
                }
            }
            "workload" => workload = Some(c),
            _ => return Ok(false),
        }
        Ok(true)
    })?;

    let version = version.ok_or_else(|| ctx.field_err("version", "missing required field"))?;
    if version != SCENARIO_VERSION {
        return Err(ctx.field_err(
            "version",
            format!(
                "unsupported schema version {version} (this build supports {SCENARIO_VERSION})"
            ),
        ));
    }
    let name = name.ok_or_else(|| ctx.field_err("name", "missing required field"))?;
    let topology = topology.ok_or_else(|| ctx.field_err("topology", "missing required field"))?;
    let horizon = horizon.ok_or_else(|| ctx.field_err("horizon", "missing required field"))?;
    let seed = seed.ok_or_else(|| ctx.field_err("seed", "missing required field"))?;
    let workload_ctx =
        workload.ok_or_else(|| ctx.field_err("workload", "missing required field"))?;
    let workload = parse_family(&workload_ctx, &horizon)?;

    let scenario = Scenario {
        version,
        name,
        description,
        topology,
        horizon,
        seed,
        theta,
        paths,
        workload,
    };
    cross_validate(&scenario, &workload_ctx)?;
    Ok(scenario)
}

/// Checks that depend on more than one field (topology × workload,
/// horizon × workload).
fn cross_validate(s: &Scenario, workload_ctx: &Ctx<'_>) -> Result<(), ScenarioError> {
    let num_nodes = match &s.topology {
        TopologySpec::Random { nodes, .. } => *nodes as usize,
        named => named.build().num_nodes(),
    };
    let fam = s.workload.family();
    let fctx = |field: &str| format!("{}.{fam}.{field}", workload_ctx.path);
    match &s.workload {
        FamilySpec::GeoLocality(spec) => {
            if let Some(pop) = &spec.populations {
                if pop.len() != num_nodes {
                    return Err(ScenarioError {
                        path: fctx("populations"),
                        message: format!(
                            "must have one weight per data center ({num_nodes}), found {}",
                            pop.len()
                        ),
                    });
                }
            }
        }
        FamilySpec::Diurnal(spec) => {
            if spec.peak_slot >= s.horizon.slots_per_cycle {
                return Err(ScenarioError {
                    path: fctx("peak_slot"),
                    message: format!(
                        "must be below horizon.slots_per_cycle ({}), found {}",
                        s.horizon.slots_per_cycle, spec.peak_slot
                    ),
                });
            }
            if let Some(d) = spec.max_duration_slots {
                if d > s.horizon.num_slots() {
                    return Err(ScenarioError {
                        path: fctx("max_duration_slots"),
                        message: format!(
                            "must not exceed the horizon ({} slots), found {d}",
                            s.horizon.num_slots()
                        ),
                    });
                }
            }
        }
        FamilySpec::Hose(spec) => {
            if spec.endpoints.1 > num_nodes {
                return Err(ScenarioError {
                    path: fctx("endpoints"),
                    message: format!(
                        "cluster may not exceed the topology's {num_nodes} data centers, found max {}",
                        spec.endpoints.1
                    ),
                });
            }
            if let Some(d) = spec.max_duration_slots {
                if d > s.horizon.num_slots() {
                    return Err(ScenarioError {
                        path: fctx("max_duration_slots"),
                        message: format!(
                            "must not exceed the horizon ({} slots), found {d}",
                            s.horizon.num_slots()
                        ),
                    });
                }
            }
        }
        FamilySpec::Uniform(_) | FamilySpec::Auction(_) => {}
    }
    let most = s.workload.max_requests();
    if most > MAX_REQUESTS {
        let (field, found) = match &s.workload {
            FamilySpec::Hose(_) => ("clusters", format!("up to {most}")),
            _ => ("num_requests", most.to_string()),
        };
        return Err(ScenarioError {
            path: fctx(field),
            message: format!("at most {MAX_REQUESTS} requests, found {found}"),
        });
    }
    Ok(())
}

fn parse_topology(ctx: &Ctx<'_>) -> Result<TopologySpec, ScenarioError> {
    if let Some(name) = ctx.v.as_str() {
        return TopologySpec::parse_name(name).ok_or_else(|| {
            ctx.err(format!(
                "unknown topology `{name}` (known: b4, sub-b4, abilene, geant)"
            ))
        });
    }
    let fields = ctx
        .v
        .as_obj()
        .ok_or_else(|| ctx.err("must be a topology name or a {\"random\": {...}} object"))?;
    let [(tag, body)] = fields else {
        return Err(ctx.err("must have exactly one variant key"));
    };
    if tag != "random" {
        return Err(ctx.err(format!("unknown topology variant `{tag}` (known: random)")));
    }
    let rctx = ctx.child("random", body);
    let (mut nodes, mut extra_links, mut seed) = (None, None, None);
    walk_obj(&rctx, &["nodes", "extra_links", "seed"], |key, c| {
        match key {
            "nodes" => {
                let n = c.u64()?;
                if n < 3 {
                    return Err(c.err(format!("need at least three nodes, found {n}")));
                }
                let n = u32::try_from(n)
                    .ok()
                    .filter(|&n| n <= MAX_RANDOM_NODES)
                    .ok_or_else(|| c.err(format!("at most {MAX_RANDOM_NODES} nodes, found {n}")))?;
                nodes = Some(n);
            }
            "extra_links" => extra_links = Some(c.usize()?),
            "seed" => seed = Some(c.u64()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let nodes = nodes.ok_or_else(|| rctx.field_err("nodes", "missing required field"))?;
    let extra_links =
        extra_links.ok_or_else(|| rctx.field_err("extra_links", "missing required field"))?;
    // The node pairs an n-cycle leaves unlinked (n ≥ 3 was checked).
    let max_chords = nodes as usize * (nodes as usize - 3) / 2;
    if extra_links > max_chords {
        return Err(rctx.field_err(
            "extra_links",
            format!(
                "a {nodes}-node ring has room for at most {max_chords} chords, found {extra_links}"
            ),
        ));
    }
    Ok(TopologySpec::Random {
        nodes,
        extra_links,
        seed: seed.ok_or_else(|| rctx.field_err("seed", "missing required field"))?,
    })
}

fn parse_horizon(ctx: &Ctx<'_>) -> Result<Horizon, ScenarioError> {
    let (mut spc, mut cycles) = (None, None);
    walk_obj(ctx, &["slots_per_cycle", "cycles"], |key, c| {
        match key {
            "slots_per_cycle" => {
                let n = c.usize()?;
                if n == 0 {
                    return Err(c.err("must be at least 1"));
                }
                spc = Some(n);
            }
            "cycles" => {
                let n = c.usize()?;
                if n == 0 {
                    return Err(c.err("must be at least 1"));
                }
                cycles = Some(n);
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let horizon = Horizon {
        slots_per_cycle: spc
            .ok_or_else(|| ctx.field_err("slots_per_cycle", "missing required field"))?,
        cycles: cycles.ok_or_else(|| ctx.field_err("cycles", "missing required field"))?,
    };
    // Checked: the product of two parsed integers may overflow.
    let slots = horizon.slots_per_cycle.checked_mul(horizon.cycles);
    if slots.is_none_or(|n| n > MAX_HORIZON_SLOTS) {
        return Err(ctx.err(format!(
            "horizon of {} × {} slots is too large (max {MAX_HORIZON_SLOTS})",
            horizon.slots_per_cycle, horizon.cycles
        )));
    }
    Ok(horizon)
}

fn parse_value_model(ctx: &Ctx<'_>) -> Result<ValueModel, ScenarioError> {
    let fields = ctx.obj()?;
    let [(tag, body)] = fields else {
        return Err(ctx.err("must have exactly one variant key (known: priced_path, flat)"));
    };
    let bctx = ctx.child(tag, body);
    match tag.as_str() {
        "priced_path" => {
            let (mut low, mut high) = (None, None);
            walk_obj(&bctx, &["low", "high"], |key, c| {
                match key {
                    "low" => low = Some(c.f64()?),
                    "high" => high = Some(c.f64()?),
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            let low = low.ok_or_else(|| bctx.field_err("low", "missing required field"))?;
            let high = high.ok_or_else(|| bctx.field_err("high", "missing required field"))?;
            if low < 0.0 || low > high {
                return Err(bctx.err(format!(
                    "markup bounds must satisfy 0 <= low <= high, found [{low}, {high}]"
                )));
            }
            Ok(ValueModel::PricedPath { low, high })
        }
        "flat" => {
            let mut per = None;
            walk_obj(&bctx, &["per_unit_slot"], |key, c| {
                match key {
                    "per_unit_slot" => {
                        let p = c.f64()?;
                        if p < 0.0 {
                            return Err(c.err(format!("must be non-negative, found {p}")));
                        }
                        per = Some(p);
                    }
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(ValueModel::Flat {
                per_unit_slot: per
                    .ok_or_else(|| bctx.field_err("per_unit_slot", "missing required field"))?,
            })
        }
        other => Err(ctx.err(format!(
            "unknown value_model `{other}` (known: priced_path, flat)"
        ))),
    }
}

fn parse_family(ctx: &Ctx<'_>, horizon: &Horizon) -> Result<FamilySpec, ScenarioError> {
    let fields = ctx.obj()?;
    let [(tag, body)] = fields else {
        return Err(ctx.err(
            "must have exactly one family key (known: uniform, geo_locality, diurnal, auction, hose)",
        ));
    };
    let fctx = ctx.child(tag, body);
    match tag.as_str() {
        "uniform" => parse_uniform(&fctx).map(FamilySpec::Uniform),
        "geo_locality" => parse_geo(&fctx).map(FamilySpec::GeoLocality),
        "diurnal" => parse_diurnal(&fctx, horizon).map(FamilySpec::Diurnal),
        "auction" => parse_auction(&fctx).map(FamilySpec::Auction),
        "hose" => parse_hose(&fctx).map(FamilySpec::Hose),
        other => Err(ctx.err(format!(
            "unknown workload family `{other}` (known: uniform, geo_locality, diurnal, auction, hose)"
        ))),
    }
}

fn require_requests(ctx: &Ctx<'_>, k: Option<usize>) -> Result<usize, ScenarioError> {
    let k = k.ok_or_else(|| ctx.field_err("num_requests", "missing required field"))?;
    if k == 0 {
        return Err(ctx.field_err("num_requests", "must be at least 1"));
    }
    Ok(k)
}

fn parse_uniform(ctx: &Ctx<'_>) -> Result<UniformSpec, ScenarioError> {
    let (mut k, mut rate, mut vm) = (None, None, None);
    walk_obj(
        ctx,
        &["num_requests", "rate_gbps", "value_model"],
        |key, c| {
            match key {
                "num_requests" => k = Some(c.usize()?),
                "rate_gbps" => rate = Some(c.positive_range()?),
                "value_model" => vm = Some(parse_value_model(&c)?),
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    Ok(UniformSpec {
        num_requests: require_requests(ctx, k)?,
        rate_gbps: rate.ok_or_else(|| ctx.field_err("rate_gbps", "missing required field"))?,
        value_model: vm.ok_or_else(|| ctx.field_err("value_model", "missing required field"))?,
    })
}

fn parse_geo(ctx: &Ctx<'_>) -> Result<GeoLocalitySpec, ScenarioError> {
    let (mut k, mut rate, mut vm, mut locality, mut populations) = (None, None, None, None, None);
    walk_obj(
        ctx,
        &[
            "num_requests",
            "rate_gbps",
            "value_model",
            "locality",
            "populations",
        ],
        |key, c| {
            match key {
                "num_requests" => k = Some(c.usize()?),
                "rate_gbps" => rate = Some(c.positive_range()?),
                "value_model" => vm = Some(parse_value_model(&c)?),
                "locality" => locality = Some(c.unit_interval()?),
                "populations" => {
                    let items = c.v.as_arr().ok_or_else(|| c.err("must be an array"))?;
                    let mut pop = Vec::with_capacity(items.len());
                    for (i, item) in items.iter().enumerate() {
                        let ic = c.index(i, item);
                        let w = ic.f64()?;
                        if w <= 0.0 {
                            return Err(ic.err(format!("weights must be positive, found {w}")));
                        }
                        pop.push(w);
                    }
                    populations = Some(pop);
                }
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    Ok(GeoLocalitySpec {
        num_requests: require_requests(ctx, k)?,
        rate_gbps: rate.ok_or_else(|| ctx.field_err("rate_gbps", "missing required field"))?,
        value_model: vm.ok_or_else(|| ctx.field_err("value_model", "missing required field"))?,
        locality: locality.ok_or_else(|| ctx.field_err("locality", "missing required field"))?,
        populations,
    })
}

fn parse_diurnal(ctx: &Ctx<'_>, horizon: &Horizon) -> Result<DiurnalSpec, ScenarioError> {
    let (mut k, mut rate, mut vm) = (None, None, None);
    let (mut p2t, mut peak, mut burst, mut maxdur) = (None, None, None, None);
    walk_obj(
        ctx,
        &[
            "num_requests",
            "rate_gbps",
            "value_model",
            "peak_to_trough",
            "peak_slot",
            "burst",
            "max_duration_slots",
        ],
        |key, c| {
            match key {
                "num_requests" => k = Some(c.usize()?),
                "rate_gbps" => rate = Some(c.positive_range()?),
                "value_model" => vm = Some(parse_value_model(&c)?),
                "peak_to_trough" => {
                    let r = c.f64()?;
                    if r < 1.0 {
                        return Err(c.err(format!("must be at least 1, found {r}")));
                    }
                    p2t = Some(r);
                }
                "peak_slot" => peak = Some(c.usize()?),
                "burst" => {
                    let (mut prob, mut mult) = (None, None);
                    walk_obj(&c, &["prob", "multiplier"], |bkey, bc| {
                        match bkey {
                            "prob" => prob = Some(bc.unit_interval()?),
                            "multiplier" => {
                                let m = bc.f64()?;
                                if m < 1.0 {
                                    return Err(bc.err(format!("must be at least 1, found {m}")));
                                }
                                mult = Some(m);
                            }
                            _ => return Ok(false),
                        }
                        Ok(true)
                    })?;
                    burst = Some(BurstSpec {
                        prob: prob.ok_or_else(|| c.field_err("prob", "missing required field"))?,
                        multiplier: mult
                            .ok_or_else(|| c.field_err("multiplier", "missing required field"))?,
                    });
                }
                "max_duration_slots" => {
                    let d = c.usize()?;
                    if d == 0 {
                        return Err(c.err("must be at least 1"));
                    }
                    maxdur = Some(d);
                }
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    let _ = horizon; // peak_slot/max_duration bounds are checked in cross_validate
    Ok(DiurnalSpec {
        num_requests: require_requests(ctx, k)?,
        rate_gbps: rate.ok_or_else(|| ctx.field_err("rate_gbps", "missing required field"))?,
        value_model: vm.ok_or_else(|| ctx.field_err("value_model", "missing required field"))?,
        peak_to_trough: p2t
            .ok_or_else(|| ctx.field_err("peak_to_trough", "missing required field"))?,
        peak_slot: peak.ok_or_else(|| ctx.field_err("peak_slot", "missing required field"))?,
        burst,
        max_duration_slots: maxdur,
    })
}

fn parse_auction(ctx: &Ctx<'_>) -> Result<AuctionSpec, ScenarioError> {
    let (mut k, mut rate, mut markup, mut eps, mut frac) = (None, None, None, None, None);
    walk_obj(
        ctx,
        &[
            "num_requests",
            "rate_gbps",
            "markup",
            "epsilon",
            "strategic_fraction",
        ],
        |key, c| {
            match key {
                "num_requests" => k = Some(c.usize()?),
                "rate_gbps" => rate = Some(c.positive_range()?),
                "markup" => markup = Some(c.positive_range()?),
                "epsilon" => {
                    let e = c.f64()?;
                    if !(e > 0.0 && e < 1.0) {
                        return Err(c.err(format!("must lie strictly between 0 and 1, found {e}")));
                    }
                    eps = Some(e);
                }
                "strategic_fraction" => frac = Some(c.unit_interval()?),
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    Ok(AuctionSpec {
        num_requests: require_requests(ctx, k)?,
        rate_gbps: rate.ok_or_else(|| ctx.field_err("rate_gbps", "missing required field"))?,
        markup: markup.ok_or_else(|| ctx.field_err("markup", "missing required field"))?,
        epsilon: eps.ok_or_else(|| ctx.field_err("epsilon", "missing required field"))?,
        strategic_fraction: frac
            .ok_or_else(|| ctx.field_err("strategic_fraction", "missing required field"))?,
    })
}

fn parse_hose(ctx: &Ctx<'_>) -> Result<HoseSpec, ScenarioError> {
    let (mut clusters, mut endpoints, mut gbps, mut per, mut markup, mut maxdur) =
        (None, None, None, None, None, None);
    walk_obj(
        ctx,
        &[
            "clusters",
            "endpoints",
            "hose_gbps",
            "per_unit_slot",
            "markup",
            "max_duration_slots",
        ],
        |key, c| {
            match key {
                "clusters" => {
                    let n = c.usize()?;
                    if n == 0 {
                        return Err(c.err("must be at least 1"));
                    }
                    clusters = Some(n);
                }
                "endpoints" => {
                    let items =
                        c.v.as_arr()
                            .ok_or_else(|| c.err("must be a [min, max] array"))?;
                    if items.len() != 2 {
                        return Err(c.err(format!(
                            "must have exactly two entries, found {}",
                            items.len()
                        )));
                    }
                    let min = c.index(0, &items[0]).usize()?;
                    let max = c.index(1, &items[1]).usize()?;
                    if min < 2 {
                        return Err(c.err(format!(
                            "a cluster needs at least 2 endpoints, found min {min}"
                        )));
                    }
                    if min > max {
                        return Err(c.err(format!(
                            "bounds must satisfy min <= max, found [{min}, {max}]"
                        )));
                    }
                    endpoints = Some((min, max));
                }
                "hose_gbps" => gbps = Some(c.positive_range()?),
                "per_unit_slot" => {
                    let p = c.f64()?;
                    if p <= 0.0 {
                        return Err(c.err(format!("must be positive, found {p}")));
                    }
                    per = Some(p);
                }
                "markup" => markup = Some(c.positive_range()?),
                "max_duration_slots" => {
                    let d = c.usize()?;
                    if d == 0 {
                        return Err(c.err("must be at least 1"));
                    }
                    maxdur = Some(d);
                }
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    Ok(HoseSpec {
        clusters: clusters.ok_or_else(|| ctx.field_err("clusters", "missing required field"))?,
        endpoints: endpoints.ok_or_else(|| ctx.field_err("endpoints", "missing required field"))?,
        hose_gbps: gbps.ok_or_else(|| ctx.field_err("hose_gbps", "missing required field"))?,
        per_unit_slot: per
            .ok_or_else(|| ctx.field_err("per_unit_slot", "missing required field"))?,
        markup: markup.ok_or_else(|| ctx.field_err("markup", "missing required field"))?,
        max_duration_slots: maxdur,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        r#"{
          "version": 1,
          "name": "tiny",
          "topology": "sub-b4",
          "horizon": { "slots_per_cycle": 12, "cycles": 1 },
          "seed": 1,
          "workload": { "uniform": {
            "num_requests": 5,
            "rate_gbps": [0.1, 5.0],
            "value_model": { "flat": { "per_unit_slot": 2.0 } }
          } }
        }"#
        .to_string()
    }

    #[test]
    fn minimal_scenario_parses() {
        let s = Scenario::from_json_text(&minimal()).unwrap();
        assert_eq!(s.name, "tiny");
        assert_eq!(s.theta, 8, "theta defaults to 8");
        assert_eq!(s.paths, 3, "paths defaults to 3");
        assert_eq!(s.num_slots(), 12);
        assert_eq!(s.family(), "uniform");
    }

    #[test]
    fn parses_demo_scenario_shape() {
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/demo.json"),
        )
        .expect("demo scenario present");
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("version").and_then(Json::as_u64), Some(1));
        let family = v.get("workload").unwrap().get("uniform").unwrap();
        assert!(family.get("value_model").is_some());
    }

    #[test]
    fn uniform_family_matches_legacy_generator() {
        // The uniform family must be the §V-A generator, bit for bit.
        let s = Scenario::from_json_text(&minimal()).unwrap();
        let topo = s.build_topology();
        let legacy = generate_uniform(
            &topo,
            &WorkloadConfig {
                num_requests: 5,
                num_slots: 12,
                rate_gbps: (0.1, 5.0),
                value_model: ValueModel::Flat { per_unit_slot: 2.0 },
                seed: 1,
            },
        );
        assert_eq!(s.generate(&topo), legacy);
    }

    #[test]
    fn unknown_root_field_names_its_path() {
        let text = minimal().replace("\"seed\": 1", "\"seed\": 1, \"thteta\": 3");
        let e = Scenario::from_json_text(&text).unwrap_err();
        assert_eq!(e.path, "scenario.thteta");
        assert!(e.message.contains("unknown field"), "{e}");
    }

    #[test]
    fn nested_error_paths_are_precise() {
        let text = minimal().replace("[0.1, 5.0]", "[5.0, 0.1]");
        let e = Scenario::from_json_text(&text).unwrap_err();
        assert_eq!(e.path, "scenario.workload.uniform.rate_gbps");
        assert!(e.message.contains("low <= high"), "{e}");
    }

    #[test]
    fn version_gate() {
        let text = minimal().replace("\"version\": 1", "\"version\": 2");
        let e = Scenario::from_json_text(&text).unwrap_err();
        assert_eq!(e.path, "scenario.version");
        assert!(e.message.contains("unsupported schema version 2"), "{e}");
    }

    #[test]
    fn horizon_cap() {
        let text = minimal().replace(
            "\"slots_per_cycle\": 12, \"cycles\": 1",
            "\"slots_per_cycle\": 1000, \"cycles\": 11",
        );
        let e = Scenario::from_json_text(&text).unwrap_err();
        assert_eq!(e.path, "scenario.horizon");
        assert!(e.message.contains("too large"), "{e}");
    }

    #[test]
    fn random_topology_caps() {
        let random = |nodes: &str, extra: &str| {
            minimal().replace(
                "\"topology\": \"sub-b4\"",
                &format!(
                    "\"topology\": {{\"random\": {{\"nodes\": {nodes}, \"extra_links\": {extra}, \"seed\": 1}}}}"
                ),
            )
        };
        for (nodes, extra, field, needle) in [
            ("4294967295", "0", "nodes", "at most 1000 nodes"),
            ("1001", "0", "nodes", "at most 1000 nodes"),
            ("3", "1", "extra_links", "at most 0 chords"),
            ("10", "36", "extra_links", "at most 35 chords"),
            (
                "1000",
                "9007199254740992",
                "extra_links",
                "at most 498500 chords",
            ),
        ] {
            let e = Scenario::from_json_text(&random(nodes, extra)).unwrap_err();
            assert_eq!(e.path, format!("scenario.topology.random.{field}"), "{e}");
            assert!(e.message.contains(needle), "{e}");
        }
        // The limits themselves parse.
        for (nodes, extra) in [("10", "35"), ("1000", "498500")] {
            let s = Scenario::from_json_text(&random(nodes, extra)).unwrap();
            assert_eq!(s.topology.label(), format!("random({nodes},{extra},1)"));
        }
    }

    #[test]
    fn request_count_cap() {
        let with =
            |k: &str| minimal().replace("\"num_requests\": 5", &format!("\"num_requests\": {k}"));
        for (k, needle) in [
            ("18446744073709551615", "must be a non-negative integer"),
            ("9007199254740992", "at most 1000000 requests"),
            ("1000001", "at most 1000000 requests"),
        ] {
            let e = Scenario::from_json_text(&with(k)).unwrap_err();
            assert_eq!(e.path, "scenario.workload.uniform.num_requests", "{e}");
            assert!(e.message.contains(needle), "{e}");
        }
        // The limit itself parses; nothing is generated.
        let s = Scenario::from_json_text(&with(&MAX_REQUESTS.to_string())).unwrap();
        let FamilySpec::Uniform(spec) = s.workload else {
            panic!("uniform workload expected");
        };
        assert_eq!(spec.num_requests, MAX_REQUESTS);
    }

    #[test]
    fn hose_request_count_cap() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/hose_b4.json");
        let hose = std::fs::read_to_string(path).unwrap();
        let s = Scenario::from_json_text(&hose).unwrap();
        assert_eq!(s.workload.max_requests(), 6 * 2 * 4);
        let huge = hose.replace("\"clusters\": 6", "\"clusters\": 9007199254740992");
        let e = Scenario::from_json_text(&huge).unwrap_err();
        assert_eq!(e.path, "scenario.workload.hose.clusters", "{e}");
        assert!(e.message.contains("at most 1000000 requests"), "{e}");
    }

    #[test]
    fn display_includes_path_and_message() {
        let e = ScenarioError {
            path: "scenario.seed".into(),
            message: "must be a non-negative integer".into(),
        };
        assert_eq!(
            e.to_string(),
            "scenario.seed: must be a non-negative integer"
        );
    }
}
