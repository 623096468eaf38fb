//! # topomap-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (see DESIGN.md §3 for the index), plus shared reporting utilities.
//!
//! Every binary prints the same rows/series the paper reports, in plain
//! aligned text (machine-greppable, human-readable). Absolute values
//! differ from the paper's 2006 hardware; the reproduced quantity is the
//! shape: who wins, by what rough factor, where crossovers fall.
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `exp_table1` | Table 1 (Jacobi, optimal vs random, message-size sweep) |
//! | `exp_fig1_2` | Figures 1–2 (2D-mesh → 2D-torus hops-per-byte) |
//! | `exp_fig3_4` | Figures 3–4 (2D-mesh → 3D-torus hops-per-byte) |
//! | `exp_fig5_6` | Figures 5–6 (LeanMD on 2D/3D tori) |
//! | `exp_fig7_8` | Figures 7–8 (message latency vs bandwidth) |
//! | `exp_fig9`   | Figure 9 (completion time vs bandwidth) |
//! | `exp_fig10_11` | Figures 10–11 (BlueGene 3D-torus/mesh iteration times) |
//! | `exp_ablation` | our ablations (estimation order, refine passes, partitioner) |
//! | `exp_physopt` | physical optimization (simulated-annealing / genetic search) vs the heuristics |
//! | `exp_routing` | deterministic vs adaptive routing under the same mappings |
//! | `exp_profile` | profiled smoke run: stamps `PROFILE_*.json` traces |
//! | `exp_scaling` | gate: 4096-PE TopoLB within 3x the naive 576-PE unit |
//! | `exp_hier`    | gate: HierMapper <= flat TopoLB / 3 at 4096 PEs, hop-bytes within 15% |
//! | `exp_geom`    | gate: SFC / RCB <= TopoLB / 10 at 4096 PEs, warm start, 16384 smoke |
//! | `exp_serve`   | gate: served mappings bit-identical to direct runs under load |
//! | `exp_contention` | gate: contention-refined makespan never worse, >= 5% on a degraded torus |
//! | `run_all`    | everything above in sequence |
//!
//! The gates assert and print; they write no result files. Timings with
//! host, threads and revision attached come from the repo's benchmark
//! (`benchmark/README.md`, `bash benchmark/run.sh`).

use std::fmt::Write as _;

/// Format and print an aligned table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", render_table(title, headers, rows));
}

/// Render an aligned table (exposed separately for tests and file output).
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width mismatch in table '{title}'");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(line, "{:>w$}  ", h, w = widths[i]);
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(line, "{:>w$}  ", cell, w = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Fixed-precision float formatting for table cells.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Human time formatting: picks ms or s.
pub fn fmt_time_ns(ns: u64) -> String {
    let ms = ns as f64 / 1e6;
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1000.0)
    } else {
        format!("{ms:.2}ms")
    }
}

/// Parse a `--full` flag from argv: experiments default to scaled-down
/// iteration counts on laptop hardware and use the paper's full counts
/// with `--full`.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Relative change `(from -> to)` in percent, negative = reduction.
pub fn pct_change(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        return 0.0;
    }
    (to - from) / from * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let s = render_table(
            "T",
            &["p", "value"],
            &[
                vec!["64".into(), "1.00".into()],
                vec!["4096".into(), "12.34".into()],
            ],
        );
        assert!(s.contains("== T =="));
        assert!(s.contains("4096"));
        // Columns right-aligned: "  64" under "   p"? p width = 4.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.iter().any(|l| l.trim_start().starts_with("64")));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        render_table("T", &["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(fmt_time_ns(1_500_000), "1.50ms");
        assert_eq!(fmt_time_ns(2_500_000_000), "2.50s");
        assert_eq!(pct_change(10.0, 7.0), -30.0);
        assert_eq!(pct_change(0.0, 5.0), 0.0);
    }
}
