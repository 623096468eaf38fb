//! The index space of a topology's directed links.
//!
//! Every per-link ledger in the workspace — the simulator's busy/byte
//! accounting, `LinkLoads`, the contention refiner's hot-link ranking — is
//! a vector indexed by a link's position in [`RoutedTopology::links`].
//! [`LinkIndex`] is the one owner of that mapping: because `links()` is
//! ascending in `(from, to)`, the links leaving a node are a contiguous
//! run, so a lookup is a scan of at most `degree` entries and needs no
//! hashing.

use crate::{Link, NodeId, RoutedTopology};

/// `links()` of one topology plus, per node, where its out-links start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkIndex {
    links: Vec<Link>,
    /// `links[first[v]..first[v + 1]]` are the links leaving node `v`.
    first: Vec<u32>,
}

impl LinkIndex {
    /// Index the links of `topo`.
    pub fn new<T: RoutedTopology + ?Sized>(topo: &T) -> Self {
        Self::from_links(topo.num_nodes(), topo.links())
    }

    /// Index an explicit link list over nodes `0..num_nodes`.
    ///
    /// Panics unless `links` is strictly ascending in `(from, to)` with
    /// every `from` in range — the order [`RoutedTopology::links`]
    /// documents; anything else is a bug in the topology.
    pub(crate) fn from_links(num_nodes: usize, links: Vec<Link>) -> Self {
        assert!(
            u32::try_from(links.len()).is_ok(),
            "more than u32::MAX links"
        );
        let mut first = vec![0u32; num_nodes + 1];
        for (i, l) in links.iter().enumerate() {
            assert!(l.from < num_nodes, "link {l:?} leaves a nonexistent node");
            assert!(
                i == 0 || links[i - 1] < *l,
                "links must be strictly ascending in (from, to): {:?} precedes {l:?}",
                links[i.saturating_sub(1)]
            );
            first[l.from + 1] += 1;
        }
        for v in 0..num_nodes {
            first[v + 1] += first[v];
        }
        LinkIndex { links, first }
    }

    /// Position of the directed link `from → to` in `links()` order, or
    /// `None` when the two nodes are not adjacent (or out of range).
    #[inline]
    pub fn id(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let run = self.first.get(from..from.checked_add(2)?)?;
        let (lo, hi) = (run[0] as usize, run[1] as usize);
        self.links[lo..hi]
            .iter()
            .position(|l| l.to == to)
            .map(|i| lo + i)
    }

    /// The node link `id` leads to.
    #[inline]
    pub fn head(&self, id: usize) -> NodeId {
        self.links[id].to
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Give the link list back, in id order (e.g. to publish it beside a
    /// ledger).
    pub fn into_links(self) -> Vec<Link> {
        self.links
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dragonfly, GraphTopology, Hypercube, Torus};

    fn families() -> Vec<Box<dyn RoutedTopology>> {
        vec![
            Box::new(Torus::torus_3d(4, 3, 2)),
            Box::new(Torus::mesh_2d(3, 5)),
            Box::new(Torus::new(&[2, 4, 3], &[true, false, true])),
            Box::new(Torus::torus_1d(2)),
            Box::new(Hypercube::new(4)),
            Box::new(Dragonfly::new(4, 3)),
            Box::new(GraphTopology::ring(9)),
            Box::new(GraphTopology::star(6)),
        ]
    }

    #[test]
    fn id_is_the_position_in_links() {
        for topo in families() {
            let index = LinkIndex::new(&*topo);
            let links = topo.links();
            assert_eq!(index.num_links(), links.len());
            for (i, l) in links.iter().enumerate() {
                assert_eq!(index.id(l.from, l.to), Some(i), "{} {l:?}", topo.name());
                assert_eq!(index.head(i), l.to);
            }
            assert_eq!(index.into_links(), links);
        }
    }

    #[test]
    fn non_links_and_out_of_range_nodes_have_no_id() {
        for topo in families() {
            let index = LinkIndex::new(&*topo);
            let n = topo.num_nodes();
            for a in 0..n {
                let nbrs = topo.neighbors(a);
                for b in 0..n {
                    assert_eq!(
                        index.id(a, b).is_some(),
                        nbrs.contains(&b),
                        "{} {a}->{b}",
                        topo.name()
                    );
                }
                assert_eq!(index.id(a, n), None);
                assert_eq!(index.id(a, usize::MAX), None);
            }
            assert_eq!(index.id(n, 0), None);
            assert_eq!(index.id(usize::MAX, 0), None);
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_list_rejected() {
        LinkIndex::from_links(3, vec![Link::new(1, 0), Link::new(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_link_rejected() {
        LinkIndex::from_links(3, vec![Link::new(0, 1), Link::new(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn link_from_a_missing_node_rejected() {
        LinkIndex::from_links(2, vec![Link::new(2, 0)]);
    }

    #[test]
    fn empty_topology_of_isolated_nodes() {
        let index = LinkIndex::from_links(3, Vec::new());
        assert_eq!(index.num_links(), 0);
        assert_eq!(index.id(0, 1), None);
    }
}
