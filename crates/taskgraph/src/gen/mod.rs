//! Workload generators reproducing the paper's benchmark task graphs.

mod collectives;
mod leanmd;
mod patterns;
mod random;
mod stencil;

pub use collectives::{butterfly, reduction_tree, sweep2d, transpose};
pub use leanmd::{leanmd, LeanMdConfig};
pub use patterns::{all_to_all, ring};
pub use random::{random_geometric, random_graph};
pub use stencil::{stencil2d, stencil3d};
