//! Compact string specs for machines, workloads, and mappers — the ONE
//! parsing/error path shared by the CLI subcommands and the mapping
//! server (requests carry these same spec strings on the wire).
//!
//! | kind | examples |
//! |------|----------|
//! | topology | `torus:8x8`, `mesh:4x4x4`, `hypercube:6`, `ring:16`, `star:9`, `crossbar:8`, `fattree:4:3`, `dragonfly:4:8` |
//! | pattern | `stencil2d:16x16`, `stencil3d:8x8x8`, `pstencil2d:8x8` (periodic), `leanmd:64`, `ring:32`, `all2all:16`, `butterfly:64`, `transpose:8`, `sweep2d:6x6`, `tree:32`, `random:100:4` |
//! | mapper | every name in [`MapperSpec::NAMES`]: `topolb`, `refine`, `hier`, `sfc`, … (an unknown name's error lists them all) |

use std::time::Duration;
use topomap_core::{
    auto_arities, Curve, EstimationOrder, GeneticMap, HierMapper, IdentityMap, LinearOrderMap,
    Mapper, Parallelism, RandomMap, RcbMap, RefineTopoLb, SfcMap, SimulatedAnnealingMap,
    TopoCentLb, TopoLb,
};
use topomap_taskgraph::{gen, TaskGraph};
use topomap_topology::{
    Dragonfly, FatTree, GraphTopology, Hierarchy, Hypercube, NodeId, RoutedTopology, Topology,
    Torus,
};

/// Parse `AxBxC` into dimension sizes.
fn parse_dims(s: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> = s.split('x').map(|p| p.parse::<usize>()).collect();
    let dims = dims.map_err(|_| format!("bad dimension list '{s}'"))?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(format!("bad dimension list '{s}'"));
    }
    Ok(dims)
}

/// Parse a size of at least `min`, so that no constructor's assert is
/// reachable from a spec.
fn parse_at_least<T>(s: &str, what: &str, min: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    match s.parse::<T>() {
        Ok(v) if v >= min => Ok(v),
        Ok(v) => Err(format!("{what} must be at least {min}, got {v}")),
        Err(_) => Err(format!("bad {what} '{s}'")),
    }
}

/// A parsed topology, split by capability: `simulate` needs routing,
/// `map`/`eval` only need the metric.
pub enum ParsedTopology {
    Routed(Box<dyn RoutedTopology>),
    MetricOnly(Box<dyn Topology>),
}

impl ParsedTopology {
    pub fn as_topology(&self) -> &dyn Topology {
        match self {
            ParsedTopology::Routed(t) => t,
            ParsedTopology::MetricOnly(t) => t.as_ref(),
        }
    }

    /// The machine as an owned metric, routing dropped.
    pub(crate) fn into_topology(self) -> Box<dyn Topology> {
        match self {
            ParsedTopology::Routed(t) => t,
            ParsedTopology::MetricOnly(t) => t,
        }
    }

    pub fn as_routed(&self) -> Result<&dyn RoutedTopology, String> {
        match self {
            ParsedTopology::Routed(t) => Ok(t.as_ref()),
            ParsedTopology::MetricOnly(t) => Err(format!(
                "topology '{}' is metric-only (no per-link routing); it cannot be simulated",
                t.name()
            )),
        }
    }
}

/// The largest machine a topology spec may describe: `torus:128x128`, the
/// biggest machine any workload, experiment or test maps, whose distance
/// oracle (a p × p matrix of `u32`) takes 1 GiB.
pub(crate) const MAX_PROCESSORS: usize = 16_384;

/// Refuse a machine of `count` processors (`None` = the product
/// overflowed) before anything sized by it is built.
fn within_bound(spec: &str, count: Option<usize>) -> Result<(), String> {
    match count {
        Some(p) if p <= MAX_PROCESSORS => Ok(()),
        Some(p) => Err(format!(
            "topology '{spec}' has {p} processors, more than the {MAX_PROCESSORS} allowed"
        )),
        None => Err(format!(
            "topology '{spec}' has more than the {MAX_PROCESSORS} processors allowed"
        )),
    }
}

/// The machine of a `torus:` or `mesh:` spec (`None` for any other
/// kind), its size checked against [`MAX_PROCESSORS`] before it is built.
fn parse_grid(spec: &str) -> Result<Option<Torus>, String> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let build = match kind {
        "torus" => Torus::torus,
        "mesh" => Torus::mesh,
        _ => return Ok(None),
    };
    let dims = parse_dims(rest)?;
    within_bound(spec, dims.iter().try_fold(1usize, |p, &d| p.checked_mul(d)))?;
    Ok(Some(build(&dims)))
}

/// Parse a topology spec. Every size is checked, with checked arithmetic,
/// against `MAX_PROCESSORS` before a machine is constructed.
pub fn parse_topology(spec: &str) -> Result<ParsedTopology, String> {
    let routed = |t: Box<dyn RoutedTopology>| Ok(ParsedTopology::Routed(t));
    if let Some(grid) = parse_grid(spec)? {
        return routed(Box::new(grid));
    }
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let bound = |count: Option<usize>| within_bound(spec, count);
    match kind {
        "hypercube" => {
            let d = parse_at_least(rest, "hypercube dims", 0u32)?;
            bound(1usize.checked_shl(d))?;
            routed(Box::new(Hypercube::new(d)))
        }
        "ring" => {
            let n = parse_at_least(rest, "ring size", 2)?;
            bound(Some(n))?;
            routed(Box::new(GraphTopology::ring(n)))
        }
        "star" => {
            let n = parse_at_least(rest, "star size", 2)?;
            bound(Some(n))?;
            routed(Box::new(GraphTopology::star(n)))
        }
        "crossbar" => {
            let n = parse_at_least(rest, "crossbar size", 1)?;
            bound(Some(n))?;
            routed(Box::new(GraphTopology::complete(n)))
        }
        "fattree" => {
            let (a, l) = rest
                .split_once(':')
                .ok_or_else(|| format!("fattree spec is fattree:ARITY:LEVELS, got '{rest}'"))?;
            let arity: usize = parse_at_least(a, "fattree arity", 2)?;
            let levels = parse_at_least(l, "fattree levels", 1)?;
            bound(arity.checked_pow(levels))?;
            Ok(ParsedTopology::MetricOnly(Box::new(FatTree::new(
                arity, levels,
            ))))
        }
        "dragonfly" => {
            let (g, a) = rest.split_once(':').ok_or_else(|| {
                format!("dragonfly spec is dragonfly:GROUPS:ROUTERS, got '{rest}'")
            })?;
            let groups: usize = g
                .parse()
                .map_err(|_| "bad dragonfly group count".to_string())?;
            let routers: usize = a
                .parse()
                .map_err(|_| "bad dragonfly routers-per-group".to_string())?;
            if groups == 0 || routers == 0 {
                return Err(format!("dragonfly needs positive sizes, got '{rest}'"));
            }
            bound(groups.checked_mul(routers))?;
            routed(Box::new(Dragonfly::new(groups, routers)))
        }
        other => Err(format!(
            "unknown topology kind '{other}' \
             (try torus/mesh/hypercube/ring/star/crossbar/fattree/dragonfly)"
        )),
    }
}

/// Parse a workload pattern spec into a task graph. `bytes` scales the
/// per-message volume; `seed` feeds the random families.
pub fn parse_pattern(spec: &str, bytes: f64, seed: u64) -> Result<TaskGraph, String> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    match kind {
        "stencil2d" | "pstencil2d" => {
            let d = parse_dims(rest)?;
            if d.len() != 2 {
                return Err(format!("{kind} needs WxH, got '{rest}'"));
            }
            Ok(gen::stencil2d(
                d[0],
                d[1],
                2.0 * bytes,
                kind == "pstencil2d",
            ))
        }
        "stencil3d" | "pstencil3d" => {
            let d = parse_dims(rest)?;
            if d.len() != 3 {
                return Err(format!("{kind} needs XxYxZ, got '{rest}'"));
            }
            Ok(gen::stencil3d(
                d[0],
                d[1],
                d[2],
                2.0 * bytes,
                kind == "pstencil3d",
            ))
        }
        "leanmd" => {
            let p: usize = rest
                .parse()
                .map_err(|_| format!("bad leanmd size '{rest}'"))?;
            Ok(gen::leanmd(
                p,
                &gen::LeanMdConfig {
                    coord_bytes: bytes,
                    seed,
                    ..Default::default()
                },
            ))
        }
        "ring" => {
            let n: usize = rest
                .parse()
                .map_err(|_| format!("bad ring size '{rest}'"))?;
            Ok(gen::ring(n, bytes))
        }
        "all2all" => {
            let n: usize = rest
                .parse()
                .map_err(|_| format!("bad all2all size '{rest}'"))?;
            Ok(gen::all_to_all(n, bytes))
        }
        "butterfly" => {
            let n: usize = rest
                .parse()
                .map_err(|_| format!("bad butterfly size '{rest}'"))?;
            Ok(gen::butterfly(n, bytes))
        }
        "transpose" => {
            let s: usize = rest
                .parse()
                .map_err(|_| format!("bad transpose side '{rest}'"))?;
            Ok(gen::transpose(s, bytes))
        }
        "sweep2d" => {
            let d = parse_dims(rest)?;
            if d.len() != 2 {
                return Err(format!("sweep2d needs WxH, got '{rest}'"));
            }
            Ok(gen::sweep2d(d[0], d[1], bytes))
        }
        "tree" => {
            let n: usize = rest
                .parse()
                .map_err(|_| format!("bad tree size '{rest}'"))?;
            Ok(gen::reduction_tree(n, bytes))
        }
        "random" => {
            let (n, deg) = rest
                .split_once(':')
                .ok_or_else(|| format!("random spec is random:N:AVGDEG, got '{rest}'"))?;
            let n: usize = n.parse().map_err(|_| "bad random size".to_string())?;
            let deg: f64 = deg.parse().map_err(|_| "bad random degree".to_string())?;
            Ok(gen::random_graph(n, deg, 0.5 * bytes, 1.5 * bytes, seed))
        }
        other => Err(format!("unknown pattern kind '{other}'")),
    }
}

/// Parse a `--threads` spec: `auto` (detect, overridable via the
/// `TOPOMAP_THREADS` environment variable) or a fixed positive count.
/// Every mapper produces the same result for every setting; threads only
/// change how fast it is computed.
pub fn parse_threads(spec: &str) -> Result<Parallelism, String> {
    match spec {
        "auto" => Ok(Parallelism::default()),
        n => {
            let n: usize = n
                .parse()
                .map_err(|_| format!("bad thread count '{n}' (want auto or N>=1)"))?;
            if n == 0 {
                return Err("bad thread count '0' (want auto or N>=1)".into());
            }
            Ok(Parallelism::fixed(n))
        }
    }
}

/// The reusable product of hierarchy-spec parsing: the validated
/// [`Hierarchy`] plus the machine-specific block layout (torus/mesh
/// machines get a factored `pe_order`; other machines use the identity
/// layout). Deriving this costs an O(p·levels) factorization plus, for
/// identity layouts, O(p) distance probes — the mapping server caches it
/// keyed by the trimmed (topology, hierarchy, dist) specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierPlan {
    pub(crate) hier: Hierarchy,
    /// Block layout for grid machines; `None` = identity layout.
    pub(crate) pe_order: Option<Vec<NodeId>>,
}

/// Derive a [`HierPlan`] from `--hierarchy H` / `--hier-dist D` specs
/// (`H` like `4:8:16`, innermost level first; omitted = auto-chosen
/// arities for the machine size). Torus/mesh machines get the block
/// layout from [`Hierarchy::factor_torus`]; any other machine uses the
/// identity layout, with level distances derived from its metric
/// ([`Hierarchy::identity_over`]) unless `dist_spec` pins them.
pub fn parse_hier_plan(
    topo_spec: &str,
    topo: &dyn Topology,
    hier_spec: Option<&str>,
    dist_spec: Option<&str>,
) -> Result<HierPlan, String> {
    let arities = match hier_spec {
        Some(h) => Hierarchy::parse_arities(h)?,
        None => auto_arities(topo.num_nodes()),
    };
    if let Some(i) = arities.iter().position(|&a| a == 0) {
        return Err(format!(
            "hierarchy level {} has zero children (every level must be >= 1)",
            i + 1
        ));
    }
    if let Some(grid) = parse_grid(topo_spec)? {
        let (hier, pe_order) = Hierarchy::factor_torus(&grid, &arities)?;
        let hier = match dist_spec {
            Some(d) => Hierarchy::try_new(arities, Hierarchy::parse_dists(d)?)?,
            None => hier,
        };
        Ok(HierPlan {
            hier,
            pe_order: Some(pe_order),
        })
    } else {
        let hier = match dist_spec {
            Some(d) => {
                let h = Hierarchy::try_new(arities, Hierarchy::parse_dists(d)?)?;
                if h.num_nodes() != topo.num_nodes() {
                    return Err(format!(
                        "hierarchy covers {} processors but the machine has {}",
                        h.num_nodes(),
                        topo.num_nodes()
                    ));
                }
                h
            }
            None => Hierarchy::identity_over(topo, &arities)?,
        };
        Ok(HierPlan {
            hier,
            pe_order: None,
        })
    }
}

/// Instantiate the hierarchical mapper from a (possibly cached) plan.
pub fn hier_mapper_from_plan(plan: &HierPlan, par: Parallelism) -> HierMapper {
    let mapper = match &plan.pe_order {
        Some(order) => HierMapper::with_layout(plan.hier.clone(), order.clone()),
        None => HierMapper::new(plan.hier.clone()),
    };
    mapper.with_parallelism(par)
}

/// A mapper request parsed once: which mapper, and how it composes with a
/// warm start or a hardware hierarchy. The CLI flags and the wire fields
/// (`mapper`, `init`, `hierarchy`, `hier_dist`) both resolve through
/// [`MapperSpec::parse`], so every combination rule and every mapper name
/// lives here and nowhere else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapperSpec {
    Random,
    TopoLb(EstimationOrder),
    TopoCentLb,
    /// RefineTopoLB over `init`'s mapping (a plain `refine` starts from
    /// second-order TopoLB).
    Refine {
        init: Box<MapperSpec>,
    },
    Identity,
    Linear,
    Anneal,
    Genetic,
    Sfc(Curve),
    Rcb,
    /// The hierarchical mapper; the raw `H` / `D` specs are resolved
    /// against the machine by [`parse_hier_plan`] (`None` = auto-chosen
    /// arities / distances derived from the machine).
    Hier {
        arities: Option<String>,
        dists: Option<String>,
    },
}

/// Writes [`MapperSpec::NAMES`] and `MapperSpec::from_name` from one list
/// of `name => spec` rows, so the two cannot drift.
macro_rules! mapper_table {
    ($($name:literal => $spec:expr,)*) => {
        /// Every mapper name, in the order help text lists them.
        pub const NAMES: &'static [&'static str] = &[$($name),*];

        /// Resolve a bare mapper name.
        fn from_name(name: &str) -> Result<MapperSpec, String> {
            Ok(match name {
                $($name => $spec,)*
                other => {
                    return Err(format!(
                        "unknown mapper '{other}' (try {})",
                        Self::NAMES.join("/")
                    ))
                }
            })
        }
    };
}

impl MapperSpec {
    mapper_table! {
        "random" => MapperSpec::Random,
        "topolb" => MapperSpec::TopoLb(EstimationOrder::Second),
        "topolb-first" => MapperSpec::TopoLb(EstimationOrder::First),
        "topolb-third" => MapperSpec::TopoLb(EstimationOrder::Third),
        "topocentlb" => MapperSpec::TopoCentLb,
        "refine" => MapperSpec::Refine {
            init: Box::new(MapperSpec::TopoLb(EstimationOrder::Second)),
        },
        "identity" => MapperSpec::Identity,
        "linear" => MapperSpec::Linear,
        "anneal" => MapperSpec::Anneal,
        "genetic" => MapperSpec::Genetic,
        "hier" => MapperSpec::Hier {
            arities: None,
            dists: None,
        },
        "sfc" => MapperSpec::Sfc(Curve::Hilbert),
        "sfc-morton" => MapperSpec::Sfc(Curve::Morton),
        "rcb" => MapperSpec::Rcb,
    }

    /// Resolve the four request fields (the CLI flags of the same
    /// names). A hierarchy selects `hier` (the mapper name may then be
    /// omitted); `init` warm-starts `refine` and nothing else (a
    /// near-linear geometric init saves the quadratic TopoLB pass and is
    /// a fixed point of the refiner on a matching stencil; elsewhere it
    /// ends 2 % to 81 % worse in hop-bytes after 3× or more the accepted
    /// exchanges — EXPERIMENTS.md `geom_warm`); `hier_dist` needs a
    /// hierarchy.
    pub fn parse(
        mapper: Option<&str>,
        init: Option<&str>,
        hierarchy: Option<&str>,
        hier_dist: Option<&str>,
    ) -> Result<MapperSpec, String> {
        if hierarchy.is_some() || mapper == Some("hier") {
            if let Some(other) = mapper.filter(|&m| m != "hier") {
                return Err(format!(
                    "a hierarchy selects the hierarchical mapper; drop mapper '{other}' \
                     (or spell it 'hier')"
                ));
            }
            if init.is_some() {
                return Err("init only applies to the 'refine' mapper, not hierarchies".into());
            }
            return Ok(MapperSpec::Hier {
                arities: hierarchy.map(str::to_string),
                dists: hier_dist.map(str::to_string),
            });
        }
        if hier_dist.is_some() {
            return Err("hier-dist needs a hierarchy (or mapper 'hier')".into());
        }
        let name =
            mapper.ok_or("no mapper given: name one, or give a hierarchy (it selects 'hier')")?;
        let Some(init) = init else {
            return Self::from_name(name);
        };
        if name != "refine" {
            return Err(format!(
                "--init only applies to the 'refine' mapper (got '{name}')"
            ));
        }
        let init = Self::from_name(init).map_err(|e| format!("bad --init mapper: {e}"))?;
        Ok(MapperSpec::Refine {
            init: Box::new(init),
        })
    }

    /// Whether the built mapper reads the `seed` given to
    /// `build`: two seeds then make two mappings.
    pub fn is_seeded(&self) -> bool {
        match self {
            MapperSpec::Random | MapperSpec::Anneal | MapperSpec::Genetic => true,
            MapperSpec::Refine { init } => init.is_seeded(),
            MapperSpec::TopoLb(_)
            | MapperSpec::TopoCentLb
            | MapperSpec::Identity
            | MapperSpec::Linear
            | MapperSpec::Sfc(_)
            | MapperSpec::Rcb
            | MapperSpec::Hier { .. } => false,
        }
    }

    /// The raw `H` / `D` specs the mapper (or its warm start) needs
    /// resolved into a [`HierPlan`]; `None` = no hierarchy involved.
    pub(crate) fn hier_specs(&self) -> Option<(Option<&str>, Option<&str>)> {
        match self {
            MapperSpec::Hier { arities, dists } => Some((arities.as_deref(), dists.as_deref())),
            MapperSpec::Refine { init } => init.hier_specs(),
            _ => None,
        }
    }

    /// Instantiate the mapper. `par` configures the deterministic
    /// parallel execution layer for the mappers that support it; `plan`
    /// is the resolved [`hier_specs`](Self::hier_specs) — from
    /// [`parse_hier_plan`] in the CLI, the LRU in the server.
    pub(crate) fn build(
        &self,
        seed: u64,
        par: Parallelism,
        plan: Option<&HierPlan>,
    ) -> Result<Box<dyn Mapper>, String> {
        Ok(match self {
            MapperSpec::Random => Box::new(RandomMap::new(seed)),
            MapperSpec::TopoLb(order) => Box::new(TopoLb::with_parallelism(*order, par)),
            MapperSpec::TopoCentLb => Box::new(TopoCentLb),
            // The sweep is serial; `par` reaches the initial mapper only.
            MapperSpec::Refine { init } => {
                Box::new(RefineTopoLb::new(init.build(seed, par, plan)?))
            }
            MapperSpec::Identity => Box::new(IdentityMap),
            MapperSpec::Linear => Box::new(LinearOrderMap::bfs()),
            MapperSpec::Anneal => Box::new(SimulatedAnnealingMap::new(seed)),
            MapperSpec::Genetic => Box::new(GeneticMap {
                par,
                ..GeneticMap::new(seed)
            }),
            MapperSpec::Sfc(curve) => Box::new(SfcMap::with_parallelism(*curve, par)),
            MapperSpec::Rcb => Box::new(RcbMap::with_parallelism(par)),
            MapperSpec::Hier { .. } => Box::new(hier_mapper_from_plan(
                plan.ok_or("mapper 'hier' needs the machine: resolve a hierarchy plan first")?,
                par,
            )),
        })
    }

    /// `build` on a plan derived from the machine itself
    /// (the uncached path: CLI, experiments, tests).
    pub fn build_on(
        &self,
        topo_spec: &str,
        topo: &dyn Topology,
        seed: u64,
        par: Parallelism,
    ) -> Result<Box<dyn Mapper>, String> {
        let plan = self
            .hier_specs()
            .map(|(h, d)| parse_hier_plan(topo_spec, topo, h, d))
            .transpose()?;
        self.build(seed, par, plan.as_ref())
    }

    /// Rough wall-clock estimate on an n-task, p-processor job, used only
    /// by the server's fast-lane decision. The quadratic greedy mappers
    /// touch ~n·p candidate cells; `refine` multiplies that by its sweep
    /// passes; the search heuristics by their population/schedule
    /// factor. The near-linear mappers never trip the estimate.
    pub(crate) fn estimated_cost(&self, n: usize, p: usize) -> Duration {
        // `core.topolb.ns_per_cell` of the repo benchmark
        // (benchmark/README.md): ≈ 10 on `place_weighted` (the general
        // f64 kernel, rounded up), 2.2 on `place_uniform`. One constant,
        // the slower kernel's: under-estimating lets a job miss its
        // deadline, over-estimating only swaps in the SFC lane early.
        const CELL_NS: u64 = 10;
        let cells = (n as u64).saturating_mul(p as u64);
        let ns = match self {
            MapperSpec::TopoLb(_) | MapperSpec::TopoCentLb => cells.saturating_mul(CELL_NS),
            MapperSpec::Refine { .. } => cells.saturating_mul(CELL_NS * 4),
            MapperSpec::Anneal | MapperSpec::Genetic => cells.saturating_mul(CELL_NS * 8),
            MapperSpec::Random
            | MapperSpec::Identity
            | MapperSpec::Linear
            | MapperSpec::Sfc(_)
            | MapperSpec::Rcb
            | MapperSpec::Hier { .. } => (n as u64).saturating_mul(200),
        };
        Duration::from_nanos(ns)
    }
}

/// Resolve and build a bare mapper name ([`MapperSpec::parse`] +
/// `MapperSpec::build` without a machine, so no `hier`).
pub fn parse_mapper(spec: &str, seed: u64, par: Parallelism) -> Result<Box<dyn Mapper>, String> {
    parse_mapper_with_init(spec, None, seed, par)
}

/// [`parse_mapper`] with an optional warm start for `refine`.
pub fn parse_mapper_with_init(
    spec: &str,
    init: Option<&str>,
    seed: u64,
    par: Parallelism,
) -> Result<Box<dyn Mapper>, String> {
    MapperSpec::parse(Some(spec), init, None, None)?.build(seed, par, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_specs_parse() {
        for (spec, n) in [
            ("torus:4x4", 16),
            ("mesh:2x3x4", 24),
            ("hypercube:5", 32),
            ("ring:7", 7),
            ("star:5", 5),
            ("crossbar:6", 6),
            ("fattree:2:3", 8),
            ("dragonfly:4:8", 32),
            ("torus:128x128", MAX_PROCESSORS),
            ("hypercube:14", MAX_PROCESSORS),
        ] {
            let t = parse_topology(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(t.as_topology().num_nodes(), n, "{spec}");
        }
    }

    #[test]
    fn fattree_is_metric_only() {
        let t = parse_topology("fattree:4:2").unwrap();
        assert!(t.as_routed().is_err());
        assert!(parse_topology("torus:4x4").unwrap().as_routed().is_ok());
        assert!(parse_topology("dragonfly:3:4").unwrap().as_routed().is_ok());
    }

    #[test]
    fn bad_topology_specs_rejected() {
        for spec in [
            "torus:0x4",
            "torus:",
            "nope:3",
            "hypercube:x",
            "fattree:4",
            "ring:0",
            "ring:1",
            "star:0",
            "star:1",
            "crossbar:0",
            "hypercube:31",
            "hypercube:70",
            "fattree:0:3",
            "fattree:1:3",
            "fattree:2:0",
            "dragonfly:4",
            "dragonfly:0:8",
            "dragonfly:4:x",
            // Above MAX_PROCESSORS, or a size that overflows usize.
            "torus:5x29x113",
            "ring:16385",
            "crossbar:16385",
            "dragonfly:128:129",
            "fattree:2:15",
            "hypercube:64",
            "torus:99999999999x2",
            "mesh:4294967296x4294967296",
            "fattree:16:16",
        ] {
            assert!(parse_topology(spec).is_err(), "{spec} should fail");
        }
    }

    #[test]
    fn pattern_specs_parse() {
        for (spec, n) in [
            ("stencil2d:4x4", 16),
            ("pstencil2d:4x4", 16),
            ("stencil3d:2x2x2", 8),
            ("ring:9", 9),
            ("all2all:5", 5),
            ("butterfly:8", 8),
            ("transpose:3", 9),
            ("sweep2d:3x3", 9),
            ("tree:10", 10),
            ("random:20:3", 20),
        ] {
            let g = parse_pattern(spec, 1000.0, 1).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(g.num_tasks(), n, "{spec}");
        }
        let md = parse_pattern("leanmd:8", 1000.0, 1).unwrap();
        assert_eq!(md.num_tasks(), 3240 + 8);
    }

    #[test]
    fn periodic_vs_open_stencil_differ() {
        let open = parse_pattern("stencil2d:4x4", 1.0, 0).unwrap();
        let per = parse_pattern("pstencil2d:4x4", 1.0, 0).unwrap();
        assert!(per.num_edges() > open.num_edges());
    }

    /// Walks [`MapperSpec::NAMES`]: a mapper added to the table is
    /// parsed, built, run and priced here without touching this test.
    #[test]
    fn mapper_specs_parse() {
        let par = Parallelism::default();
        let machine = parse_topology("torus:4x4").unwrap();
        let topo = machine.as_topology();
        let tasks = parse_pattern("stencil2d:4x4", 1024.0, 1).unwrap();
        let unknown = MapperSpec::parse(Some("bogus"), None, None, None).unwrap_err();
        for &name in MapperSpec::NAMES {
            let spec = MapperSpec::parse(Some(name), None, None, None)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mapper = spec
                .build_on("torus:4x4", topo, 1, par)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!mapper.name().is_empty(), "{name}");
            let mapping = mapper.map(&tasks, topo);
            let mut seen = [false; 16];
            for &proc in mapping.as_slice() {
                assert!(!std::mem::replace(&mut seen[proc], true), "{name}: {proc}");
            }
            if !spec.is_seeded() {
                let reseeded = spec.build_on("torus:4x4", topo, 2, par).unwrap();
                assert_eq!(reseeded.map(&tasks, topo), mapping, "{name} reads its seed");
            }
            assert!(!spec.estimated_cost(16, 16).is_zero(), "{name}");
            assert!(unknown.contains(name), "'{name}' missing from: {unknown}");
        }
    }

    #[test]
    fn combination_rules_live_in_parse() {
        let hier = |h: Option<&str>, d: Option<&str>| MapperSpec::Hier {
            arities: h.map(str::to_string),
            dists: d.map(str::to_string),
        };
        // A hierarchy selects `hier`, with or without the name.
        let parse = MapperSpec::parse;
        assert_eq!(
            parse(None, None, Some("4:4"), None),
            Ok(hier(Some("4:4"), None))
        );
        assert_eq!(
            parse(Some("hier"), None, Some("4:4"), Some("1:2")),
            Ok(hier(Some("4:4"), Some("1:2")))
        );
        assert_eq!(parse(Some("hier"), None, None, None), Ok(hier(None, None)));
        for (mapper, init, h, d, needle) in [
            (
                Some("topolb"),
                None,
                Some("4:4"),
                None,
                "drop mapper 'topolb'",
            ),
            (Some("hier"), Some("sfc"), None, None, "not hierarchies"),
            (Some("topolb"), None, None, Some("1:2"), "needs a hierarchy"),
            (None, None, None, None, "no mapper given"),
        ] {
            let err = parse(mapper, init, h, d).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
        // Without a machine there is no plan to build `hier` on.
        let err = parse_mapper("hier", 1, Parallelism::default())
            .err()
            .expect("hier needs a machine");
        assert!(err.contains("needs the machine"), "{err}");
    }

    #[test]
    fn init_specs_wrap_refine() {
        let par = Parallelism::default();
        // Warm-started refine names the init mapper.
        let m = parse_mapper_with_init("refine", Some("sfc"), 1, par).unwrap();
        assert_eq!(m.name(), "SFC(Hilbert)+Refine");
        let m = parse_mapper_with_init("refine", Some("rcb"), 1, par).unwrap();
        assert_eq!(m.name(), "RCB+Refine");
        // A warm start reads the seed exactly when its init does.
        let refine = |init| MapperSpec::parse(Some("refine"), Some(init), None, None).unwrap();
        assert!(refine("random").is_seeded() && !refine("sfc").is_seeded());
        // No init = the plain spec path.
        let m = parse_mapper_with_init("refine", None, 1, par).unwrap();
        assert_eq!(m.name(), "TopoLB+Refine");
        // Init only composes with refine; bad inits are reported.
        match parse_mapper_with_init("topolb", Some("sfc"), 1, par) {
            Err(e) => assert!(e.contains("refine"), "{e}"),
            Ok(_) => panic!("init on non-refine should fail"),
        }
        match parse_mapper_with_init("refine", Some("bogus"), 1, par) {
            Err(e) => assert!(e.contains("--init"), "{e}"),
            Ok(_) => panic!("bogus init should fail"),
        }
    }

    #[test]
    fn hier_mapper_specs_parse() {
        let par = Parallelism::default();
        let name = |spec: &str, topo: &ParsedTopology, h: Option<&str>, d: Option<&str>| {
            let plan = parse_hier_plan(spec, topo.as_topology(), h, d)
                .unwrap_or_else(|e| panic!("{h:?}: {e}"));
            hier_mapper_from_plan(&plan, par).name()
        };
        // Torus gets a factored block layout; auto arities when omitted.
        let torus = parse_topology("torus:8x8").unwrap();
        for h in [Some("4:4:4"), Some("16:4"), None] {
            let n = name("torus:8x8", &torus, h, None);
            assert!(n.starts_with("HierMapper("), "{n}");
        }
        // Fat-trees (and any non-grid machine) take the identity layout.
        let ft = parse_topology("fattree:2:3").unwrap();
        assert_eq!(
            name("fattree:2:3", &ft, Some("2:2:2"), None),
            "HierMapper(2:2:2)"
        );
        // Explicit distance ladder.
        assert_eq!(
            name("fattree:2:3", &ft, Some("2:2:2"), Some("1:10:100")),
            "HierMapper(2:2:2)"
        );
    }

    #[test]
    fn hier_plan_layouts_split_by_machine_kind() {
        let torus = parse_topology("torus:8x8").unwrap();
        let plan = parse_hier_plan("torus:8x8", torus.as_topology(), Some("4:4:4"), None).unwrap();
        assert!(plan.pe_order.is_some(), "grid machines get a block layout");
        assert_eq!(plan.hier.num_nodes(), 64);

        let ft = parse_topology("fattree:2:3").unwrap();
        let plan = parse_hier_plan("fattree:2:3", ft.as_topology(), Some("2:2:2"), None).unwrap();
        assert!(plan.pe_order.is_none(), "non-grid machines use identity");
    }

    #[test]
    fn malformed_hierarchy_specs_rejected() {
        let torus = parse_topology("torus:8x8").unwrap();
        for (h, d, needle) in [
            // Zero-arity level.
            ("4:0:8", None, "zero children"),
            // Trailing colon.
            ("4:8:", None, "empty level"),
            // Garbage level.
            ("4:x:8", None, "not a non-negative integer"),
            // Product does not cover the machine.
            ("4:4", None, "64"),
            // Distance count mismatch.
            ("4:4:4", Some("1:10"), "distances"),
            // Decreasing distances.
            ("4:4:4", Some("10:5:1"), "non-decreasing"),
        ] {
            let err = parse_hier_plan("torus:8x8", torus.as_topology(), Some(h), d)
                .expect_err("malformed spec");
            assert!(err.contains(needle), "H={h} D={d:?}: {err}");
        }
        // The grid is bounded before it is built, as in `parse_topology`.
        let err = parse_hier_plan("mesh:99999999999x2", torus.as_topology(), None, None)
            .expect_err("oversized grid");
        assert!(err.contains("more than the"), "{err}");
    }

    #[test]
    fn threads_specs_parse() {
        assert!(parse_threads("auto").is_ok());
        assert!(parse_threads("1").is_ok());
        assert!(parse_threads("8").is_ok());
        for bad in ["0", "-1", "many", ""] {
            assert!(parse_threads(bad).is_err(), "'{bad}' should fail");
        }
    }
}
