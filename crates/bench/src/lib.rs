//! # topomap-bench
//!
//! The evaluation matrix: every table of EXPERIMENTS.md — the paper's
//! Table 1 and Figures 1–11, our ablations, and the quality halves of
//! what used to be five gate programs — is rows of one table-driven run,
//! written to `results/matrix.tsv`, checked against named claims, and
//! rendered into the document between `<!-- matrix:ID -->` markers.
//!
//! | module | holds |
//! |--------|-------|
//! | [`cases`] | `CASES`: experiment id, workload, machine, mappers, seeds, sizes per scale, network scenario — data |
//! | [`run`] | the five measurements (score, simulate, refine pass by pass, partition → coalesce → place, contention refine) emitting flat [`Record`]s |
//! | [`claims`] | `CLAIMS`: named predicates over records, the same at test scale (tier-1) and at default scale (`matrix`) |
//! | [`render`] | the EXPERIMENTS.md blocks, from records alone |
//! | this file | [`Record`], the TSV file format, the `--check` comparison, the run stamp |
//!
//! | binary | does |
//! |--------|------|
//! | `matrix` | runs every case; writes the file and the document, `--check` compares with the committed file, `--full` prints the paper's sizes |
//! | `exp_profile` | profiled smoke run: stamps the `PROFILE_*.json` traces CI uploads |
//! | `exp_par` | thread-timing probe for `core::par` (prints, asserts nothing) |
//!
//! Absolute values differ from the paper's 2006 hardware; the reproduced
//! quantity is the shape, and the shapes are the claims. Wall-clock
//! numbers with host, threads and revision attached come from the repo's
//! benchmark (`benchmark/README.md`); `map_ms` here is a best-of-three
//! reading beside the quality it bought, not a gate.

pub mod cases;
pub mod claims;
pub mod render;
pub mod run;

use std::path::PathBuf;
use std::process::Command;
use topomap_core::Parallelism;

macro_rules! record {
    ($($key:ident),*; $($metric:ident),*) => {
        /// One measurement. Keys say what ran; a metric that does not
        /// apply is NaN in memory and an empty cell in the file.
        #[derive(Clone, Debug)]
        pub struct Record {
            $(pub $key: String,)*
            $(pub $metric: f64,)*
        }

        impl Record {
            pub(crate) const COLUMNS: &'static [&'static str] =
                &[$(stringify!($key),)* $(stringify!($metric),)*];

            fn cells(&self) -> Vec<String> {
                vec![$(self.$key.clone(),)* $(number(self.$metric),)*]
            }

            fn from_cells(cells: &[&str]) -> Result<Record, String> {
                if cells.len() != Self::COLUMNS.len() {
                    return Err(format!("{} cells, want {}", cells.len(), Self::COLUMNS.len()));
                }
                let mut it = cells.iter();
                Ok(Record {
                    $($key: it.next().expect("length checked").to_string(),)*
                    $($metric: parse_number(it.next().expect("length checked"))?,)*
                })
            }
        }

        /// What an empty selection's [`Sel::head`] reads: no labels, and
        /// NaN in every metric, which fails every comparison.
        static EMPTY: Record = Record { $($key: String::new(),)* $($metric: f64::NAN,)* };

        impl Default for Record {
            fn default() -> Self {
                EMPTY.clone()
            }
        }
    };
}

// `row` is the sweep value that keys a table row: PEs, unless the case
// sweeps message bytes or link bandwidth (MB/s). `variant` is whatever
// else distinguishes two records of a row: routing mode, partitioner,
// before/after contention refinement.
record!(exp, row, pattern, machine, mapper, seed, variant;
    tasks, degree, hpb, accepts, passes, map_ms, completion_ns, avg_latency_ns,
    edge_cut, imbalance, sims);

/// Shortest text that parses back to the same `f64`, so a table rendered
/// from the file equals one rendered from the run.
fn number(x: f64) -> String {
    if x.is_nan() {
        String::new()
    } else {
        x.to_string()
    }
}

fn parse_number(cell: &str) -> Result<f64, String> {
    if cell.is_empty() {
        return Ok(f64::NAN);
    }
    cell.parse().map_err(|_| format!("bad number '{cell}'"))
}

/// `(key, value)` lines describing the run, kept as `# key: value` above
/// the column header (the benchmark's meta block, for this file).
pub(crate) type Stamp = Vec<(String, String)>;

pub fn to_tsv(stamp: &Stamp, records: &[Record]) -> String {
    let mut out = String::new();
    for (key, value) in stamp {
        out += &format!("# {key}: {value}\n");
    }
    out += &Record::COLUMNS.join("\t");
    out.push('\n');
    for r in records {
        out += &r.cells().join("\t");
        out.push('\n');
    }
    out
}

pub fn from_tsv(text: &str) -> Result<(Stamp, Vec<Record>), String> {
    let mut stamp = Stamp::new();
    let mut lines = text.lines().enumerate();
    loop {
        let line = lines.next().ok_or("no column header")?.1;
        match line.strip_prefix("# ").and_then(|l| l.split_once(": ")) {
            Some((key, value)) => stamp.push((key.to_string(), value.to_string())),
            None if line == Record::COLUMNS.join("\t") => break,
            None => return Err(format!("not the column header: '{line}'")),
        }
    }
    let records = lines
        .map(|(i, line)| {
            Record::from_cells(&line.split('\t').collect::<Vec<_>>())
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect::<Result<_, _>>()?;
    Ok((stamp, records))
}

/// `matrix --check`: the first cell of `fresh` that differs from
/// `committed`, ignoring the stamp and `map_ms` — the two things a re-run
/// on the same tree may change.
pub fn first_difference(committed: &str, fresh: &str) -> Result<Option<String>, String> {
    let (committed, fresh) = (from_tsv(committed)?.1, from_tsv(fresh)?.1);
    for (i, (c, f)) in committed.iter().zip(&fresh).enumerate() {
        let cells = c.cells().into_iter().zip(f.cells());
        for (column, (was, is)) in Record::COLUMNS.iter().zip(cells) {
            if *column != "map_ms" && was != is {
                let key = &c.cells()[..7];
                return Ok(Some(format!(
                    "record {} ({}): {column} is '{is}', committed '{was}'",
                    i + 1,
                    key.join(" ")
                )));
            }
        }
    }
    Ok((committed.len() != fresh.len())
        .then(|| format!("{} records, committed {}", fresh.len(), committed.len())))
}

/// The checkout this crate was built from.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what a run was taken. The two files `matrix` itself
/// writes do not make the tree dirty: regenerating them on a clean
/// checkout stamps that checkout's revision.
pub fn stamp(scale: cases::Scale) -> Stamp {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outputs = [":!results/matrix.tsv", ":!EXPERIMENTS.md"];
    let status = ["status", "--porcelain", "--", ".", outputs[0], outputs[1]];
    let dirty = match command_line("git", &status).as_str() {
        "" => "",
        _ => " (dirty)",
    };
    let revision = command_line("git", &["rev-parse", "HEAD"]) + dirty;
    let lines = [
        ("host", command_line("uname", &["-srm"])),
        ("cores", cores.to_string()),
        (
            "threads",
            Parallelism::default().resolved_threads().to_string(),
        ),
        ("revision", revision),
        ("rustc", command_line("rustc", &["--version"])),
        ("scale", format!("{scale:?}").to_lowercase()),
    ];
    lines.map(|(key, value)| (key.to_string(), value)).to_vec()
}

/// A selection of records, the query side of [`claims`] and [`render`].
#[derive(Clone)]
pub struct Sel<'a>(pub(crate) Vec<&'a Record>);

impl<'a> Sel<'a> {
    pub(crate) fn all(records: &'a [Record]) -> Self {
        Sel(records.iter().collect())
    }

    pub(crate) fn exp(&self, exp: &str) -> Self {
        self.such(|r| r.exp == exp)
    }

    pub(crate) fn such(&self, keep: impl Fn(&Record) -> bool) -> Self {
        Sel(self.0.iter().copied().filter(|r| keep(r)).collect())
    }

    pub(crate) fn variant(&self, variant: &str) -> Self {
        self.such(|r| r.variant == variant)
    }

    /// Sub-selections with equal `key`, in first-seen order.
    pub(crate) fn by(&self, key: impl Fn(&Record) -> String) -> Vec<Sel<'a>> {
        let mut groups: Vec<(String, Sel<'a>)> = Vec::new();
        for &r in &self.0 {
            let k = key(r);
            match groups.iter_mut().find(|(seen, _)| *seen == k) {
                Some((_, group)) => group.0.push(r),
                None => groups.push((k, Sel(vec![r]))),
            }
        }
        groups.into_iter().map(|(_, group)| group).collect()
    }

    /// One selection per table row: equal experiment, pattern, machine
    /// and row label.
    pub(crate) fn rows(&self) -> Vec<Sel<'a>> {
        self.by(|r| [&r.exp[..], &r.pattern, &r.machine, &r.row].join("\t"))
    }

    /// The first record, for the labels a selection shares.
    pub(crate) fn head(&self) -> &'a Record {
        self.0.first().copied().unwrap_or(&EMPTY)
    }

    /// The row label as a number (PEs, bytes or MB/s).
    pub(crate) fn at(&self) -> f64 {
        self.head().row.parse().unwrap_or(f64::NAN)
    }

    /// Mean of `metric` over the records of `mapper` (that is, over its
    /// seeds); NaN when there are none.
    pub(crate) fn mean(&self, mapper: &str, metric: fn(&Record) -> f64) -> f64 {
        let of_mapper = self.0.iter().filter(|r| r.mapper == mapper);
        let values: Vec<f64> = of_mapper.map(|r| metric(r)).collect();
        values.iter().sum::<f64>() / values.len() as f64
    }

    pub(crate) fn hpb(&self, mapper: &str) -> f64 {
        self.mean(mapper, |r| r.hpb)
    }

    /// Simulated completion time.
    pub(crate) fn ns(&self, mapper: &str) -> f64 {
        self.mean(mapper, |r| r.completion_ns)
    }

    /// Average message latency, ns.
    pub(crate) fn lat(&self, mapper: &str) -> f64 {
        self.mean(mapper, |r| r.avg_latency_ns)
    }

    pub(crate) fn ms(&self, mapper: &str) -> f64 {
        self.mean(mapper, |r| r.map_ms)
    }

    /// Of one pass-by-pass refinement: final hops per byte, sweeps run,
    /// exchanges accepted in all.
    pub(crate) fn refined(&self) -> (f64, f64, f64) {
        let last = self.0.last().map_or(f64::NAN, |r| r.hpb);
        let accepts = self.0.iter().map(|r| r.accepts).sum();
        (last, self.0.len() as f64 - 1.0, accepts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "# revision: abc\n# scale: default\n\
        exp\trow\tpattern\tmachine\tmapper\tseed\tvariant\ttasks\tdegree\thpb\taccepts\tpasses\t\
        map_ms\tcompletion_ns\tavg_latency_ns\tedge_cut\timbalance\tsims\n\
        a\t64\tstencil2d:8x8\ttorus:8x8\ttopolb\t0\tdor\t64\t3.5\t1\t3\t1\t0.125\t87390000\t1000\t1e7\t1.0625\t92\n\
        a\t64\tstencil2d:8x8\ttorus:8x8\ttopolb\t1\tdor\t64\t3.5\t1.4133239392474204\t3\t1\t0.125\t87390000\t1413.3\t1e7\t1.0625\t92\n\
        \t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\n";

    /// `--check` ignores `map_ms` and the stamp, and nothing else.
    #[test]
    fn check_ignores_map_ms_and_the_stamp_only() {
        let restamped = SAMPLE.replace("abc", "def (dirty)");
        assert_eq!(first_difference(SAMPLE, &restamped).unwrap(), None);
        let (_, records) = from_tsv(SAMPLE).unwrap();
        for (i, column) in Record::COLUMNS.iter().enumerate() {
            let mut cells = records[1].cells();
            cells[i] = if i < 7 { "x".into() } else { "7".into() };
            let cells: Vec<&str> = cells.iter().map(String::as_str).collect();
            let fresh = [
                records[0].clone(),
                Record::from_cells(&cells).unwrap(),
                records[2].clone(),
            ];
            let diff = first_difference(SAMPLE, &to_tsv(&Stamp::new(), &fresh)).unwrap();
            assert_eq!(diff.is_none(), *column == "map_ms", "{column}: {diff:?}");
        }
        let shorter = to_tsv(&Stamp::new(), &records[..2]);
        assert!(first_difference(SAMPLE, &shorter).unwrap().is_some());
        assert!(from_tsv("exp\trow\n").is_err() && from_tsv("# scale: default\n").is_err());
        assert!(records[2].hpb.is_nan() && Sel::all(&records).exp("a").hpb("topolb") > 1.2);
    }
}
