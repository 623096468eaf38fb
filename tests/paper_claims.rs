//! The paper's qualitative claims — the "shape" every experiment must
//! reproduce — asserted in tier-1. Each test runs its experiments at test
//! scale through the evaluation matrix's own runner
//! (`topomap_bench::run`) and asserts named entries of
//! `topomap_bench::claims::CLAIMS`, the same predicates `matrix` holds the
//! default-scale run to; `experiments_md_matches_results` closes the
//! chain from the committed results file to the document.

use topomap_bench::cases::Scale;
use topomap_bench::claims::assert_claim;
use topomap_bench::{from_tsv, render, repo_root, run::run};

fn hold(experiments: &[&str], claims: &[&str]) {
    let records: Vec<_> = experiments
        .iter()
        .flat_map(|exp| run(exp, Scale::Test))
        .collect();
    claims
        .iter()
        .for_each(|claim| assert_claim(&records, claim));
}

/// §5.2.1 / Figure 1: random placement of a 2D-mesh pattern on a 2D-torus
/// costs ≈ √p/2 hops per byte.
#[test]
fn random_placement_matches_sqrt_p_over_2() {
    hold(&["fig1_2"], &["fig1_2.random_tracks_sqrt_p_over_2"]);
}

/// §5.2.2 / Figure 3: on a 3D-torus the analytic value is 3·∛p/4.
#[test]
fn random_placement_matches_3d_formula() {
    hold(&["fig3_4"], &["fig3_4.random_tracks_3_cbrt_p_over_4"]);
}

/// Figure 1/2: TopoLB maps the 2D-mesh onto the 2D-torus optimally
/// ("TopoLB actually produces an optimal mapping in most cases").
#[test]
fn topolb_optimal_on_mesh_to_torus() {
    hold(&["fig1_2"], &["fig1_2.topolb_ideal_topocentlb_between"]);
}

/// Figure 4: the 8×8 mesh is a subgraph of the (4,4,4) torus, and TopoLB
/// finds the dilation-1 embedding.
#[test]
fn topolb_embeds_mesh_in_3d_torus_at_64() {
    let claims = [
        "fig3_4.topolb_embeds_mesh_at_64",
        "fig3_4.topolb_at_or_below_topocentlb",
    ];
    hold(&["fig3_4"], &claims);
}

/// The paper's consistent ordering: TopoLB ≤ TopoCentLB (within noise) and
/// both far below random, across workloads and topologies (the stencils of
/// Figures 1–4 and physopt's random geometric graph, its one test-scale row).
#[test]
fn strategy_ordering_holds_across_workloads() {
    hold(
        &["fig1_2", "fig3_4", "physopt"],
        &["ordering.topolb_topocentlb_random"],
    );
}

/// §5.2.3: RefineTopoLB only ever improves on TopoLB on the coalesced
/// LeanMD graph, and the mappers keep their order there.
#[test]
fn refine_improves_leanmd() {
    let claims = [
        "fig5_6.refine_never_regresses",
        "fig5_6.topolb_below_topocentlb_below_random",
    ];
    hold(&["fig5_6"], &claims);
}

/// Table 1's premise, via the simulator: the same trace completes faster
/// under the optimal mapping than under a random one, and the gap widens
/// with message size.
#[test]
fn optimal_mapping_gap_grows_with_message_size() {
    hold(&["table1"], &["table1.gap_grows_with_message_size"]);
}

/// §5.4: removing wraparound links (torus → mesh) hurts, and hurts random
/// placement more than TopoLB.
#[test]
fn mesh_hurts_random_more_than_topolb() {
    let claims = [
        "ablation4_mesh.mesh_costs_random_more_than_topolb",
        "ablation4.gain_largest_on_2d_torus_smallest_on_fat_tree",
    ];
    hold(&["ablation4", "ablation4_mesh"], &claims);
}

/// EXPERIMENTS.md's generated blocks are exactly what the committed
/// `results/matrix.tsv` renders to — no mapper runs here.
#[test]
fn experiments_md_matches_results() {
    let read = |path: &str| std::fs::read_to_string(repo_root().join(path)).unwrap();
    let (stamp, records) = from_tsv(&read("results/matrix.tsv")).unwrap();
    let doc = read("EXPERIMENTS.md");
    let rendered = render::rewrite(&doc, &stamp, &records).unwrap();
    for (committed, fresh) in doc.lines().zip(rendered.lines()) {
        assert_eq!(
            committed, fresh,
            "EXPERIMENTS.md differs from its results file: run `matrix`"
        );
    }
    assert_eq!(doc.len(), rendered.len());
    for block in render::BLOCKS {
        let marker = format!("<!-- matrix:{} -->", block.0);
        assert!(doc.contains(&marker), "EXPERIMENTS.md has no {marker}");
    }
}
