//! The generated blocks of EXPERIMENTS.md: everything between a
//! `<!-- matrix:ID -->` line and the next `<!-- /matrix -->` is the output
//! of the block `ID` here, rendered from records (and the stamp) alone —
//! from the run by `matrix`, from the committed file by the tier-1 test
//! that compares the two byte for byte. A table is data too: what makes a
//! line, and a header and a cell function per column.

use crate::cases;
use crate::claims::contention_gain;
use crate::{Record, Sel, Stamp};

type Key = fn(&Record) -> String;
type Column = (&'static str, fn(&Sel) -> String);

/// Block id (an experiment id of `CASES`), what splits its records into
/// titled tables (if anything), what makes a line, and the columns —
/// none for one `hops per byte (map time)` column per mapper of the case.
pub(crate) type Block = (&'static str, Option<Key>, Key, &'static [Column]);

const ROW: Key = |r| [&r.pattern[..], &r.machine, &r.row].join(" ");
const MAPPER_IN_ROW: Key = |r| [&r.mapper[..], &r.pattern, &r.row].join(" ");

pub const BLOCKS: &[Block] = &[
    ("table1", None, ROW, TABLE1),
    ("fig1_2", None, ROW, HOPS_PER_BYTE),
    ("fig3_4", None, ROW, HOPS_PER_BYTE),
    (
        "fig5_6",
        Some(|r| r.machine.matches('x').count().to_string()),
        ROW,
        FIG5_6,
    ),
    ("fig7_8", None, ROW, FIG7_8),
    ("fig9", Some(|r| r.machine.clone()), ROW, FIG9),
    (
        "fig10_11",
        Some(|r| r.machine.starts_with("torus").to_string()),
        ROW,
        FIG10_11,
    ),
    ("ablation1", None, ROW, &[]),
    ("ablation2", None, |r| r.passes.to_string(), PASSES),
    ("ablation3", None, |r| r.variant.clone(), ABLATION3),
    ("ablation4", None, ROW, ABLATION4),
    ("ablation4_mesh", None, ROW, ABLATION4_MESH),
    ("ablation5", None, ROW, &[]),
    ("physopt", None, ROW, &[]),
    ("routing", None, MAPPER_IN_ROW, ROUTING),
    ("hier", None, ROW, &[]),
    ("geom", None, ROW, &[]),
    ("geom_warm", None, MAPPER_IN_ROW, GEOM_WARM),
    ("geom_replay", None, MAPPER_IN_ROW, REPLAY),
    ("geom_leanmd", None, ROW, &[]),
    ("contention", None, ROW, CONTENTION),
];

const OPEN: &str = "<!-- matrix:";
const CLOSE: &str = "<!-- /matrix -->";

/// `doc` with every generated block replaced by its rendering. An
/// unknown block id, or a marker left open, is an error.
pub fn rewrite(doc: &str, stamp: &Stamp, records: &[Record]) -> Result<String, String> {
    let mut out = String::new();
    let mut lines = doc.lines();
    while let Some(line) = lines.next() {
        out += &format!("{line}\n");
        let Some(id) = line.strip_prefix(OPEN).and_then(|l| l.strip_suffix(" -->")) else {
            continue;
        };
        out += &match BLOCKS.iter().find(|block| block.0 == id) {
            Some(block) => render(block, records),
            None if id == "environment" => environment(stamp),
            None => return Err(format!("no block '{id}'")),
        };
        if !lines.any(|l| l == CLOSE) {
            return Err(format!("block '{id}' is never closed"));
        }
        out += &format!("{CLOSE}\n");
    }
    Ok(out)
}

fn environment(stamp: &Stamp) -> String {
    let line = |(key, value): &(String, String)| format!("- {key}: {value}\n");
    stamp.iter().map(line).collect()
}

/// The tables of one block, each group titled by what it ran on.
pub fn render(&(id, group, line, columns): &Block, records: &[Record]) -> String {
    let table = |e: &Sel| match columns {
        [] => quality_and_time(e),
        columns => {
            let cells = |line: &Sel| columns.iter().map(|(_, cell)| cell(line)).collect();
            let header = columns.iter().map(|(name, _)| *name).collect();
            markdown(header, e.by(line).iter().map(cells).collect())
        }
    };
    let titled = |e: &Sel| {
        let (first, last) = (e.head(), e.0[e.0.len() - 1]);
        let span = match first.machine == last.machine {
            true => format!("`{}` on `{}`", first.pattern, first.machine),
            false => format!("`{}` to `{}`", first.machine, last.machine),
        };
        format!("{span}:\n\n{}", table(e))
    };
    let e = Sel::all(records).exp(id);
    match group {
        None => table(&e),
        Some(group) => e
            .by(group)
            .iter()
            .map(titled)
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

fn markdown(header: Vec<&str>, lines: Vec<Vec<String>>) -> String {
    let rule = "--:|".repeat(header.len());
    let mut out = format!("| {} |\n|{rule}\n", header.join(" | "));
    for cells in lines {
        out += &format!("| {} |\n", cells.join(" | "));
    }
    out
}

/// One column per mapper of the case — hops per byte, best-of-three map
/// time, and how many times TopoLB's time that is: Ablations 1 and 5,
/// physopt, and the `hier`, `geom` and `geom_leanmd` comparisons.
fn quality_and_time(e: &Sel) -> String {
    let mappers = cases::of(&e.head().exp)
        .next()
        .map_or(&[][..], |c| c.mappers);
    let cell = |row: &Sel, m: &&str| {
        let (ms, times) = (row.ms(m), row.ms(m) / row.ms("topolb"));
        let digits = if times >= 10.0 { 0 } else { 2 };
        format!("{} ({} ms, {times:.digits$}×)", f3(row.hpb(m)), f3(ms))
    };
    let line = |row: &Sel| {
        let cells = mappers.iter().map(|m| cell(row, m));
        [(P.1)(row), (WORKLOAD.1)(row)]
            .into_iter()
            .chain(cells)
            .collect()
    };
    let header = [P.0, WORKLOAD.0].into_iter().chain(mappers.iter().copied());
    markdown(header.collect(), e.by(ROW).iter().map(line).collect())
}

/// `x` to `digits` decimals; "–" for a metric that does not apply.
fn fixed(x: f64, digits: usize) -> String {
    match x.is_nan() {
        true => "–".to_string(),
        false => format!("{x:.digits$}"),
    }
}

fn f2(x: f64) -> String {
    fixed(x, 2)
}

fn f3(x: f64) -> String {
    fixed(x, 3)
}

fn pct(x: f64) -> String {
    f2(100.0 * x)
}

/// Milliseconds below a second, seconds above.
fn time(ns: f64) -> String {
    match ns / 1e6 {
        ms if ms >= 1000.0 => format!("{:.2}s", ms / 1000.0),
        ms => format!("{ms:.2}ms"),
    }
}

/// Percent of `from`'s hops per byte that `mapper` saves.
fn saves(row: &Sel, mapper: &str, from: &str) -> String {
    pct(1.0 - row.hpb(mapper) / row.hpb(from))
}

/// The record of the line's only run under `variant`.
fn under<'a>(line: &Sel<'a>, variant: &str) -> &'a Record {
    line.variant(variant).head()
}

/// The paper's own `i`-th cell for this row ("–" where it has none).
fn paper(row: &Sel, i: usize) -> String {
    let head = row.head();
    let mut rows = cases::of(&head.exp).flat_map(|c| c.paper);
    let cells = rows.find(|(label, _)| *label == head.row);
    let cell = cells.and_then(|(_, cells)| cells.get(i));
    cell.unwrap_or(&"–").to_string()
}

const P: Column = ("p", |r| r.head().row.clone());
const BANDWIDTH: Column = ("BW (MB/s)", P.1);
const WORKLOAD: Column = ("workload", |r| r.head().pattern.clone());
const MACHINE: Column = ("machine", |r| r.head().machine.clone());
const MAPPER: Column = ("mapper", |r| r.head().mapper.clone());
const SLOWDOWN: Column = ("Random/TopoLB", |r| f2(r.ns("random") / r.ns("topolb")));

const TABLE1: &[Column] = &[
    ("Msg size", |r| match r.at() / 1024.0 {
        kb if kb >= 1024.0 => format!("{}MB", kb / 1024.0),
        kb => format!("{kb}KB"),
    }),
    ("Paper random / optimal", |r| paper(r, 0)),
    ("Paper ratio", |r| paper(r, 1)),
    ("Ours random", |r| time(r.ns("random"))),
    ("Ours optimal", |r| time(r.ns("identity"))),
    ("Ours ratio", |r| f2(r.ns("random") / r.ns("identity"))),
];

/// Figures 1–2 and 3–4: the wide figure and its zoom in one table.
const HOPS_PER_BYTE: &[Column] = &[
    P,
    ("task mesh", |r| r.head().pattern.replace("stencil2d:", "")),
    ("Random", |r| f2(r.hpb("random"))),
    ("E[Random], closed form", |r| {
        let closed_form = cases::of(&r.head().exp).find_map(|c| c.analytic);
        closed_form.map_or("–".into(), |f| f2(f(r.at() as usize)))
    }),
    ("TopoCentLB", |r| f3(r.hpb("topocentlb"))),
    ("TopoLB", |r| f3(r.hpb("topolb"))),
    ("TopoCentLB excess %", |r| {
        pct(r.hpb("topocentlb") / r.hpb("topolb") - 1.0)
    }),
];

const FIG5_6: &[Column] = &[
    P,
    ("chares", |r| r.head().tasks.to_string()),
    ("coalesced degree", |r| f2(r.head().degree)),
    ("paper's degree", |r| paper(r, 0)),
    ("Random", |r| f2(r.hpb("random"))),
    ("TopoCentLB", |r| f2(r.hpb("topocentlb"))),
    ("TopoLB", |r| f2(r.hpb("topolb"))),
    ("TopoLB+Refine", |r| f2(r.hpb("refine"))),
    ("TopoCentLB red. %", |r| saves(r, "topocentlb", "random")),
    ("TopoLB red. %", |r| saves(r, "topolb", "random")),
    ("Refine extra %", |r| saves(r, "refine", "topolb")),
    ("total red. %", |r| saves(r, "refine", "random")),
];

const FIG7_8: &[Column] = &[
    BANDWIDTH,
    ("Random (µs)", |r| f2(r.lat("random") / 1e3)),
    ("TopoCentLB (µs)", |r| f2(r.lat("topocentlb") / 1e3)),
    ("TopoLB (µs)", |r| f2(r.lat("topolb") / 1e3)),
    ("Random/TopoLB", |r| f2(r.lat("random") / r.lat("topolb"))),
];

const FIG9: &[Column] = &[
    BANDWIDTH,
    ("Random (ms)", |r| f2(r.ns("random") / 1e6)),
    ("TopoCentLB (ms)", |r| f2(r.ns("topocentlb") / 1e6)),
    ("TopoLB (ms)", |r| f2(r.ns("topolb") / 1e6)),
    SLOWDOWN,
    ("TopoCentLB vs TopoLB %", |r| {
        pct(r.ns("topocentlb") / r.ns("topolb") - 1.0)
    }),
];

const FIG10_11: &[Column] = &[
    P,
    MACHINE,
    ("TopoLB (s)", |r| f2(r.ns("topolb") / 1e9)),
    ("TopoCentLB (s)", |r| f2(r.ns("topocentlb") / 1e9)),
    ("Random (s)", |r| f2(r.ns("random") / 1e9)),
    SLOWDOWN,
];

const PASSES: &[Column] = &[
    ("pass", |r| r.head().passes.to_string()),
    ("hops per byte", |r| f3(r.head().hpb)),
    ("accepted swaps", |r| r.head().accepts.to_string()),
];

const ABLATION3: &[Column] = &[
    ("partitioner", |r| r.head().variant.clone()),
    ("cut (MB)", |r| f2(r.head().edge_cut / 1e6)),
    ("imbalance", |r| f2(r.head().imbalance)),
    ("hpb w/ TopoLB", |r| f3(r.hpb("topolb"))),
    ("hpb w/ Random", |r| f3(r.hpb("random"))),
];

const ABLATION4: &[Column] = &[
    MACHINE,
    ("TopoLB hpb", |r| f3(r.hpb("topolb"))),
    ("Random hpb", |r| f2(r.hpb("random"))),
    ("Random/TopoLB", |r| f2(r.hpb("random") / r.hpb("topolb"))),
];

const ABLATION4_MESH: &[Column] = &[
    MACHINE,
    ("TopoLB hpb", |r| fixed(r.hpb("topolb"), 4)),
    ("Random hpb, four seeds", |r| fixed(r.hpb("random"), 4)),
];

const DOR: &str = "Deterministic";
const ADAPTIVE: &str = "MinimalAdaptive";

const ROUTING: &[Column] = &[
    BANDWIDTH,
    MAPPER,
    ("DOR latency (µs)", |r| {
        f2(under(r, DOR).avg_latency_ns / 1e3)
    }),
    ("DOR completion (ms)", |r| {
        f2(under(r, DOR).completion_ns / 1e6)
    }),
    ("adaptive latency (µs)", |r| {
        f2(under(r, ADAPTIVE).avg_latency_ns / 1e3)
    }),
    ("adaptive completion (ms)", |r| {
        f2(under(r, ADAPTIVE).completion_ns / 1e6)
    }),
    ("adaptive gain %", |r| {
        pct(1.0 - under(r, ADAPTIVE).completion_ns / under(r, DOR).completion_ns)
    }),
];

const GEOM_WARM: &[Column] = &[
    WORKLOAD,
    MAPPER,
    ("seed hops per byte", |r| f3(r.head().hpb)),
    ("refined hops per byte", |r| f3(r.refined().0)),
    ("passes", |r| r.refined().1.to_string()),
    ("accepted exchanges", |r| r.refined().2.to_string()),
];

const REPLAY: &[Column] = &[
    MAPPER,
    ("hops per byte", |r| f3(r.head().hpb)),
    ("completion (ms)", |r| f3(r.head().completion_ns / 1e6)),
];

const BEFORE: &str = "hop-bytes";
const AFTER: &str = "contention";

const CONTENTION: &[Column] = &[
    WORKLOAD,
    MACHINE,
    ("hop-bytes-refined (ms)", |r| {
        f2(under(r, BEFORE).completion_ns / 1e6)
    }),
    ("contention-refined (ms)", |r| {
        f2(under(r, AFTER).completion_ns / 1e6)
    }),
    ("gain %", |r| fixed(contention_gain(r), 1)),
    ("simulations", |r| under(r, AFTER).sims.to_string()),
    ("accepted", |r| under(r, AFTER).accepts.to_string()),
    ("hops per byte before", |r| f3(under(r, BEFORE).hpb)),
    ("after", |r| f3(under(r, AFTER).hpb)),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrite_replaces_block_bodies_and_nothing_else() {
        let stamp: Stamp = vec![("cores".into(), "2".into())];
        let doc = "intro\n<!-- matrix:environment -->\nstale\nlines\n<!-- /matrix -->\noutro\n";
        let fresh = rewrite(doc, &stamp, &[]).unwrap();
        let expect = "intro\n<!-- matrix:environment -->\n- cores: 2\n<!-- /matrix -->\noutro\n";
        assert_eq!(fresh, expect);
        assert_eq!(rewrite(&fresh, &stamp, &[]).unwrap(), fresh);
        assert!(rewrite("<!-- matrix:nope -->\n<!-- /matrix -->\n", &stamp, &[]).is_err());
        assert!(rewrite("<!-- matrix:environment -->\n", &stamp, &[]).is_err());
        assert!(cases::CASES
            .iter()
            .all(|c| BLOCKS.iter().any(|block| block.0 == c.exp)));
    }
}
