//! Linearization helpers for N-dimensional grids.
//!
//! Nodes of a mesh/torus are numbered row-major: dimension 0 has the
//! largest stride, the last dimension is contiguous. All arithmetic stays
//! allocation-free via the fixed-capacity [`Coords`] type (up to
//! [`MAX_DIMS`] dimensions, which covers every machine in the paper — the
//! 6D tori of later BlueGene generations included).

/// Maximum supported grid dimensionality.
pub(crate) const MAX_DIMS: usize = 8;

/// A small, copyable coordinate vector (length ≤ [`MAX_DIMS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coords {
    len: u8,
    xs: [u32; MAX_DIMS],
}

impl Coords {
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    pub fn get(&self, dim: usize) -> usize {
        debug_assert!(dim < self.len());
        self.xs[dim] as usize
    }
}

/// Row-major strides for the given dimension sizes.
///
/// `strides[d]` is the node-id increment for a +1 step in dimension `d`.
pub(crate) fn strides(dims: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; dims.len()];
    for d in (0..dims.len().saturating_sub(1)).rev() {
        s[d] = s[d + 1] * dims[d + 1];
    }
    s
}

/// Linear node id of `coords` in a grid of size `dims` (row-major).
#[cfg(test)]
pub(crate) fn linearize(coords: &[usize], dims: &[usize]) -> usize {
    debug_assert_eq!(coords.len(), dims.len());
    let mut id = 0usize;
    for (d, (&c, &n)) in coords.iter().zip(dims).enumerate() {
        debug_assert!(c < n, "coordinate {c} out of range {n} in dim {d}");
        id = id * n + c;
    }
    id
}

/// Coordinates of node `id` in a grid of size `dims` (row-major).
pub(crate) fn delinearize(mut id: usize, dims: &[usize]) -> Coords {
    let mut xs = [0u32; MAX_DIMS];
    for d in (0..dims.len()).rev() {
        xs[d] = (id % dims[d]) as u32;
        id /= dims[d];
    }
    debug_assert_eq!(id, 0, "node id out of range for grid");
    Coords {
        len: dims.len() as u8,
        xs,
    }
}

/// The coordinate of node `id` in dimension `dim` without materializing
/// the full coordinate vector. `stride` must come from [`strides`].
#[inline]
pub(crate) fn coord_of(id: usize, dim_size: usize, stride: usize) -> usize {
    (id / stride) % dim_size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[4, 3, 5]), vec![15, 5, 1]);
        assert_eq!(strides(&[7]), vec![1]);
        assert_eq!(strides(&[2, 2]), vec![2, 1]);
    }

    #[test]
    fn linearize_roundtrip_exhaustive() {
        let dims = [3usize, 4, 5];
        for id in 0..60 {
            let c = delinearize(id, &dims);
            let xs: Vec<usize> = (0..c.len()).map(|d| c.get(d)).collect();
            assert_eq!(linearize(&xs, &dims), id);
        }
    }

    #[test]
    fn coord_of_matches_delinearize() {
        let dims = [4usize, 6, 2];
        let st = strides(&dims);
        for id in 0..48 {
            let c = delinearize(id, &dims);
            for d in 0..3 {
                assert_eq!(coord_of(id, dims[d], st[d]), c.get(d));
            }
        }
    }
}
