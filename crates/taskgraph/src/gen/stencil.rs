//! Jacobi-like stencil communication patterns.
//!
//! The paper's main micro-benchmark: "chares (or tasks) which communicate
//! in a 2D-Mesh pattern. Each chare communicates with its four neighbors
//! (three or two for boundary and corner chares)" (§5.2), plus the 3D
//! variant of the introduction's Table 1 experiment.

use crate::TaskGraph;

/// A 2D `nx × ny` stencil: each task exchanges `msg_bytes` per iteration
/// with its 4-neighborhood. With `periodic = true` the pattern wraps
/// (a 2D-torus pattern); otherwise boundary tasks have 3 and corners 2
/// neighbors, exactly the paper's benchmark.
pub fn stencil2d(nx: usize, ny: usize, msg_bytes: f64, periodic: bool) -> TaskGraph {
    stencil_nd(&[nx, ny], msg_bytes, periodic)
}

/// A 3D `nx × ny × nz` stencil with 6-neighborhood exchanges (the
/// "3D Jacobi-like program where elements are logically arranged in a
/// 3D-mesh and send messages to all its neighbours" of Table 1).
pub fn stencil3d(nx: usize, ny: usize, nz: usize, msg_bytes: f64, periodic: bool) -> TaskGraph {
    stencil_nd(&[nx, ny, nz], msg_bytes, periodic)
}

/// General N-dimensional stencil task graph.
///
/// Each undirected edge carries `2 * msg_bytes` — both endpoints send one
/// `msg_bytes` message per iteration, and task-graph edge weights represent
/// "total communication between the tasks at the end points" (§1).
pub(crate) fn stencil_nd(dims: &[usize], msg_bytes: f64, periodic: bool) -> TaskGraph {
    assert!(!dims.is_empty());
    assert!(dims.iter().all(|&d| d > 0));
    let n: usize = dims.iter().product();
    let mut b = TaskGraph::builder(n);

    // Row-major strides.
    let mut strides = vec![1usize; dims.len()];
    for d in (0..dims.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * dims[d + 1];
    }

    let edge_w = 2.0 * msg_bytes;
    for id in 0..n {
        for d in 0..dims.len() {
            let x = (id / strides[d]) % dims[d];
            let nd = dims[d];
            if nd == 1 {
                continue;
            }
            // Only emit the +1 edge from each node; builder symmetrizes.
            if x + 1 < nd {
                b.add_comm(id, id + strides[d], edge_w);
            } else if periodic && nd > 2 {
                b.add_comm(id, id - (nd - 1) * strides[d], edge_w);
            }
        }
    }
    // Grid positions are the natural task coordinates (padded to 3-D);
    // higher-dimensional stencils have no 3-D embedding, so none.
    if dims.len() <= 3 {
        let coords = (0..n)
            .map(|id| {
                let mut c = [0.0f64; 3];
                for (d, cd) in c.iter_mut().enumerate().take(dims.len()) {
                    *cd = ((id / strides[d]) % dims[d]) as f64;
                }
                c
            })
            .collect();
        b.set_coords(coords);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil2d_boundary_degrees() {
        let g = stencil2d(4, 5, 100.0, false);
        assert_eq!(g.num_tasks(), 20);
        // Corner (0,0) -> id 0: degree 2.
        assert_eq!(g.degree(0), 2);
        // Edge (0,2) -> id 2: degree 3.
        assert_eq!(g.degree(2), 3);
        // Interior (1,2) -> id 7: degree 4.
        assert_eq!(g.degree(7), 4);
    }

    #[test]
    fn stencil2d_edge_count() {
        // nx*(ny-1) + ny*(nx-1) undirected edges for open boundaries.
        let g = stencil2d(6, 7, 1.0, false);
        assert_eq!(g.num_edges(), 6 * 6 + 7 * 5);
    }

    #[test]
    fn periodic_stencil_is_regular() {
        let g = stencil2d(4, 4, 1.0, true);
        for t in 0..16 {
            assert_eq!(g.degree(t), 4);
        }
        assert_eq!(g.num_edges(), 32);
    }

    #[test]
    fn stencil3d_interior_degree() {
        let g = stencil3d(4, 4, 4, 1.0, false);
        assert_eq!(g.num_tasks(), 64);
        // Node (1,1,1): id = 1*16 + 1*4 + 1 = 21.
        assert_eq!(g.degree(21), 6);
        // Corner (0,0,0).
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn edge_weight_is_bidirectional_volume() {
        let g = stencil2d(2, 2, 50.0, false);
        assert_eq!(g.edge_weight(0, 1), Some(100.0));
    }

    #[test]
    fn degenerate_single_row() {
        let g = stencil2d(1, 5, 1.0, false);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn periodic_two_wide_dim_not_duplicated() {
        // With size-2 periodic dimension, wrap edge equals the direct edge.
        let g = stencil2d(2, 3, 1.0, true);
        // dim0 size 2: single edge pair per column; dim1 size 3: ring.
        assert_eq!(g.degree(0), 1 + 2);
    }

    #[test]
    fn stencil_coords_are_grid_positions() {
        let g = stencil2d(4, 5, 1.0, false);
        let cs = g.coords().unwrap();
        // Row-major: id = x*5 + y.
        assert_eq!(cs[0], [0.0, 0.0, 0.0]);
        assert_eq!(cs[7], [1.0, 2.0, 0.0]);
        let g3 = stencil3d(2, 3, 4, 1.0, false);
        assert_eq!(g3.coords().unwrap()[12 + 2 * 4 + 3], [1.0, 2.0, 3.0]);
        // 4-D stencils have no 3-D embedding.
        assert!(stencil_nd(&[2, 2, 2, 2], 1.0, false).coords().is_none());
    }

    #[test]
    fn total_comm_scales_with_msg_size() {
        let g1 = stencil3d(3, 3, 3, 1.0, false);
        let g2 = stencil3d(3, 3, 3, 1024.0, false);
        assert!((g2.total_comm() / g1.total_comm() - 1024.0).abs() < 1e-9);
    }
}
