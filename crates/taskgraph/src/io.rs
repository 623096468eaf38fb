//! Task-graph (de)serialization.
//!
//! Mirrors the Charm++ `+LBDump` mechanism's role for this crate: graphs
//! can be written to JSON files and replayed later, so mapping strategies
//! are compared "on exactly the same load scenarios" (§5.1).

use crate::{TaskGraph, TaskGraphData};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from task-graph I/O.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    Format(serde_json::Error),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Format(e) => write!(f, "format error: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Format(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Format(e)
    }
}

/// Serialize a task graph to a JSON writer.
pub(crate) fn write_json<W: Write>(g: &TaskGraph, w: W) -> Result<(), IoError> {
    serde_json::to_writer(w, &TaskGraphData::from(g))?;
    Ok(())
}

/// Deserialize a task graph from a JSON reader.
pub(crate) fn read_json<R: Read>(r: R) -> Result<TaskGraph, IoError> {
    let data: TaskGraphData = serde_json::from_reader(r)?;
    Ok(TaskGraph::from(&data))
}

/// Write a task graph to a file.
pub fn save<P: AsRef<Path>>(g: &TaskGraph, path: P) -> Result<(), IoError> {
    let f = File::create(path)?;
    write_json(g, BufWriter::new(f))
}

/// Load a task graph from a file.
pub fn load<P: AsRef<Path>>(path: P) -> Result<TaskGraph, IoError> {
    let f = File::open(path)?;
    read_json(BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn json_roundtrip_in_memory() {
        let g = gen::stencil2d(4, 4, 128.0, false);
        let mut buf = Vec::new();
        write_json(&g, &mut buf).unwrap();
        let g2 = read_json(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn file_roundtrip() {
        let g = gen::random_graph(30, 3.0, 1.0, 100.0, 99);
        let dir = std::env::temp_dir().join("topomap-taskgraph-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.json");
        save(&g, &path).unwrap();
        let g2 = load(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn coords_roundtrip_and_legacy_dumps_load() {
        // stencil2d carries coordinates; they survive the JSON roundtrip.
        let g = gen::stencil2d(3, 4, 64.0, false);
        assert!(g.coords().is_some());
        let mut buf = Vec::new();
        write_json(&g, &mut buf).unwrap();
        assert_eq!(read_json(buf.as_slice()).unwrap(), g);
        // A pre-geometry dump (no "coords" key) still loads, as None.
        let legacy = r#"{"vertex_weights":[1.0,1.0],"edges":[[0,1,8.0]]}"#;
        let g2 = read_json(legacy.as_bytes()).unwrap();
        assert!(g2.coords().is_none());
        assert_eq!(g2.num_edges(), 1);
        // Coordinate-free graphs serialize coords as null and reload
        // as None.
        let mut buf = Vec::new();
        write_json(&g2, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("\"coords\":null"));
    }

    #[test]
    fn malformed_json_is_format_error() {
        let err = read_json("not json".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)));
        assert!(err.to_string().contains("format error"));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load("/nonexistent/path/g.json").unwrap_err();
        assert!(matches!(err, IoError::Io(_)));
    }
}
