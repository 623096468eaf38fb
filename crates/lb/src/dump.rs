//! The `+LBDump` mechanism (§5.1): "the runtime \[can\] log load information
//! from an actual parallel execution into a file for later analysis ...
//! A log file is generated for each of the steps specified in the range."

use crate::database::LbDatabase;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

/// One dumped load-balancing step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LbDump {
    /// The load-balancing step this database was captured at.
    pub step: usize,
    /// Number of processors the run used (for sanity checks at replay).
    pub num_procs: usize,
    pub database: LbDatabase,
}

/// Errors from dump I/O.
#[derive(Debug)]
pub enum DumpError {
    Io(std::io::Error),
    Format(serde_json::Error),
}

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumpError::Io(e) => write!(f, "dump I/O error: {e}"),
            DumpError::Format(e) => write!(f, "dump format error: {e}"),
        }
    }
}

impl std::error::Error for DumpError {}

impl From<std::io::Error> for DumpError {
    fn from(e: std::io::Error) -> Self {
        DumpError::Io(e)
    }
}

impl From<serde_json::Error> for DumpError {
    fn from(e: serde_json::Error) -> Self {
        DumpError::Format(e)
    }
}

/// The file a given step is dumped to: `<base>.step<k>.json`
/// (the Charm++ convention of one log file per step).
pub fn step_path(base: &Path, step: usize) -> PathBuf {
    let mut name = base
        .file_name()
        .map(|s| s.to_os_string())
        .unwrap_or_default();
    name.push(format!(".step{step}.json"));
    base.with_file_name(name)
}

/// Write one step's database (`+LBDump`).
pub fn write_step(base: &Path, dump: &LbDump) -> Result<PathBuf, DumpError> {
    let path = step_path(base, dump.step);
    let f = File::create(&path)?;
    serde_json::to_writer(BufWriter::new(f), dump)?;
    Ok(path)
}

/// Read one step's database back (`+LBDumpFile` + `+LBSim StepNum`).
pub fn read_step(base: &Path, step: usize) -> Result<LbDump, DumpError> {
    let f = File::open(step_path(base, step))?;
    Ok(serde_json::from_reader(BufReader::new(f))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topomap_taskgraph::gen;

    #[test]
    fn step_paths() {
        let base = Path::new("/tmp/x/leanmd");
        assert_eq!(step_path(base, 3), Path::new("/tmp/x/leanmd.step3.json"));
    }

    #[test]
    fn roundtrip_multiple_steps() {
        let dir = std::env::temp_dir().join("topomap-lb-dump-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("run");
        let dumps: Vec<LbDump> = (0..3)
            .map(|step| LbDump {
                step,
                num_procs: 8,
                database: LbDatabase::from_task_graph(&gen::ring(6 + step, 100.0)),
            })
            .collect();
        let paths: Vec<PathBuf> = dumps
            .iter()
            .map(|d| write_step(&base, d).unwrap())
            .collect();
        assert_eq!(paths.len(), 3);
        for (step, d) in dumps.iter().enumerate() {
            let back = read_step(&base, step).unwrap();
            assert_eq!(&back, d);
        }
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn missing_step_is_error() {
        let base = std::env::temp_dir().join("no-such-dump");
        assert!(matches!(read_step(&base, 0), Err(DumpError::Io(_))));
    }
}
