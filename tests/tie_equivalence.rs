//! Tie-heavy differential check of the general f64 estimation kernel.
//!
//! `tests/incremental_equivalence.rs` drives random graphs of at most 20
//! tasks with weights drawn from a continuum, where two cells of a row
//! rarely hold the same `fest`. The kernel's folds find `(FMin, argmin)`
//! as the smallest processor id among the cells equal to the row
//! minimum, so a bug in that tie-break only shows on rows with many
//! exact ties. The graphs here are built to have them: integer weights
//! on machines whose distance rows repeat, at 256–512 processors. Each
//! run is held bit for bit to the naive oracle: the whole mapping, the
//! selection and placement at every step, and `(FMin, FSum)` and the
//! best processor of every frontier task at every 64th step.

use topomap::core::estimation::EstimationState;
use topomap::core::estimation_naive::NaiveEstimationState;
use topomap::core::naive::NaiveTopoLb;
use topomap::prelude::*;
use topomap::taskgraph::gen;

/// A 3-D stencil whose edges alternate between two weights (by the
/// parity of the lower endpoint), so the uniform-integer kernel does not
/// apply and every `fest` is still an exact small multiple of 1024.
fn two_weight_stencil(side: usize, periodic: bool) -> TaskGraph {
    let base = gen::stencil3d(side, side, side, 1.0, periodic);
    let mut b = TaskGraph::builder(base.num_tasks());
    for (u, v, _) in base.edges() {
        b.add_comm(u, v, if u.min(v) % 2 == 0 { 1024.0 } else { 2048.0 });
    }
    b.build()
}

/// 256 LeanMD groups: the paper's molecular-dynamics workload, coalesced
/// onto one group per processor of a 4×8×8 torus.
fn leanmd_groups() -> TaskGraph {
    let md = gen::leanmd(256, &gen::LeanMdConfig::default());
    MultilevelKWay::default().partition(&md, 256).coalesce(&md)
}

/// Step the fast facade and the naive oracle through one run, comparing
/// selection and placement every step and the maintained stats of every
/// frontier task every 64th step; then compare `TopoLb` with
/// `NaiveTopoLb` end to end.
fn audit(g: &TaskGraph, topo: &dyn Topology, order: EstimationOrder, label: &str) {
    let mut fast = EstimationState::new(g, topo, order);
    let mut naive = NaiveEstimationState::new(g, topo, order);
    assert_eq!(fast.kernel_label(), "general", "{label}");
    assert_eq!(naive.kernel_label(), "general", "{label}");
    let mut placed = vec![false; g.num_tasks()];
    let mut tied_rows = 0;
    for step in 0..g.num_tasks() {
        if step % 64 == 0 {
            for t in (0..g.num_tasks()).filter(|&t| !placed[t]) {
                assert_eq!(fast.is_active(t), naive.is_active(t), "{label} step {step}");
                if !fast.is_active(t) {
                    continue;
                }
                let fmin = fast.stats(t).0;
                let at_min = fast
                    .free_procs()
                    .iter()
                    .filter(|&&q| fast.fest(t, q) == fmin);
                tied_rows += usize::from(at_min.count() > 1);
                let (sf, sn) = (fast.stats(t), naive.stats(t));
                assert_eq!(
                    (sf.0.to_bits(), sf.1.to_bits()),
                    (sn.0.to_bits(), sn.1.to_bits()),
                    "{label}: (FMin, FSum) of task {t} at step {step}: {sf:?} vs {sn:?}"
                );
                assert_eq!(
                    fast.best_proc(t),
                    naive.best_proc(t),
                    "{label}: best processor of task {t} at step {step}"
                );
            }
        }
        let t = fast.select_task();
        assert_eq!(t, naive.select_task(), "{label}: selection at step {step}");
        let q = fast.best_proc(t);
        assert_eq!(
            q,
            naive.best_proc(t),
            "{label}: placement of {t} at step {step}"
        );
        fast.assign(t, q);
        naive.assign(t, q);
        placed[t] = true;
    }
    assert!(
        tied_rows > 0,
        "{label}: no frontier row tied at its minimum"
    );
    assert_eq!(
        TopoLb::new(order).map(g, topo),
        NaiveTopoLb { order }.map(g, topo),
        "{label}: mapping"
    );
}

#[test]
fn two_weight_stencil_on_torus_8x8x8() {
    let g = two_weight_stencil(8, true);
    let topo = Torus::torus_3d(8, 8, 8);
    for order in [EstimationOrder::First, EstimationOrder::Second] {
        audit(&g, &topo, order, &format!("torus {order:?}"));
    }
}

#[test]
fn two_weight_stencil_on_mesh_8x8x8() {
    let g = two_weight_stencil(8, false);
    let topo = Torus::mesh_3d(8, 8, 8);
    for order in [EstimationOrder::First, EstimationOrder::Second] {
        audit(&g, &topo, order, &format!("mesh {order:?}"));
    }
}

#[test]
fn leanmd_groups_on_torus_4x8x8() {
    let g = leanmd_groups();
    let topo = Torus::torus_3d(4, 8, 8);
    for order in [
        EstimationOrder::First,
        EstimationOrder::Second,
        EstimationOrder::Third,
    ] {
        audit(&g, &topo, order, &format!("leanmd {order:?}"));
    }
}
