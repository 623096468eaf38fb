//! The placement bookkeeping shared by the greedy mappers' kernels.
//!
//! TopoLB's two estimation kernels and TopoCentLB grow an injective
//! placement one task at a time, and each unplaced task with a placed
//! neighbor owns a cost row over the free processors. [`Frontier`] is the
//! part of that skeleton that does not depend on what a row holds: the
//! placement, the positional free list every row is indexed by, the
//! row-owning tasks and the pool of row slots. The rows themselves, and
//! everything folded from them, stay in each kernel.

use topomap_taskgraph::TaskId;
use topomap_topology::NodeId;

/// "No processor" / "no position" / "no slot".
pub(crate) const NONE: usize = usize::MAX;

/// Placement, free list and row-owning frontier of one greedy run.
pub(crate) struct Frontier {
    /// Each task's processor, `NONE` while unplaced.
    pub(crate) placement: Vec<NodeId>,
    /// The free processors. Every kernel row is indexed by position in
    /// this list and drops position `qi` when [`Frontier::place`] returns
    /// it, which keeps the rows in step with its `swap_remove`s.
    pub(crate) free: Vec<NodeId>,
    /// Each processor's position in `free`, `NONE` once taken.
    pub(crate) free_pos: Vec<usize>,
    /// The frontier: unplaced tasks that own a row (a placed neighbor).
    pub(crate) active: Vec<TaskId>,
    active_pos: Vec<usize>,
    /// Each task's row slot, `NONE` unless it is on the frontier.
    pub(crate) row_slot: Vec<usize>,
    /// Slots released by placed tasks, reused before new ones.
    free_slots: Vec<usize>,
    /// Slots handed out so far; a kernel's row pool grows to match.
    slots: usize,
    unplaced: usize,
    /// The lowest unplaced task (`n` once all are placed).
    cursor: usize,
}

impl Frontier {
    pub(crate) fn new(n: usize, p: usize) -> Self {
        assert!(n <= p, "need at least as many processors as tasks");
        Frontier {
            placement: vec![NONE; n],
            free: (0..p).collect(),
            free_pos: (0..p).collect(),
            active: Vec::new(),
            active_pos: vec![NONE; n],
            row_slot: vec![NONE; n],
            free_slots: Vec::new(),
            slots: 0,
            unplaced: n,
            cursor: 0,
        }
    }

    #[inline]
    pub(crate) fn is_placed(&self, t: TaskId) -> bool {
        self.placement[t] != NONE
    }

    #[inline]
    pub(crate) fn is_active(&self, t: TaskId) -> bool {
        self.row_slot[t] != NONE
    }

    #[inline]
    pub(crate) fn is_free(&self, q: NodeId) -> bool {
        self.free_pos[q] != NONE
    }

    pub(crate) fn num_unplaced(&self) -> usize {
        self.unplaced
    }

    /// The lowest-id unplaced task: the selection rule when nothing on
    /// the frontier is left to choose from.
    pub(crate) fn first_unplaced(&self) -> TaskId {
        debug_assert!(self.unplaced > 0);
        self.cursor
    }

    /// Commit `t → q`: release `t`'s row slot if it had one and take `q`
    /// off the free list. Returns the position `q` held, which every live
    /// row must now `swap_remove` as the free list just did.
    pub(crate) fn place(&mut self, t: TaskId, q: NodeId) -> usize {
        assert!(self.placement[t] == NONE, "task {t} already placed");
        assert!(self.free_pos[q] != NONE, "processor {q} not free");
        self.placement[t] = q;
        self.unplaced -= 1;
        if self.row_slot[t] != NONE {
            self.free_slots.push(self.row_slot[t]);
            self.row_slot[t] = NONE;
            swap_remove_tracked(&mut self.active, &mut self.active_pos, t);
        }
        while self.cursor < self.placement.len() && self.placement[self.cursor] != NONE {
            self.cursor += 1;
        }
        let qi = self.free_pos[q];
        swap_remove_tracked(&mut self.free, &mut self.free_pos, q);
        qi
    }

    /// `j`'s row slot, and whether `j` just joined the frontier. A fresh
    /// slot's row is the kernel's to clear (or, at index `rows.len()`, to
    /// push) and fill; the free set only shrinks, so a recycled row never
    /// holds an entry that is read stale.
    pub(crate) fn activate(&mut self, j: TaskId) -> (usize, bool) {
        if self.row_slot[j] != NONE {
            return (self.row_slot[j], false);
        }
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slots += 1;
            self.slots - 1
        });
        self.row_slot[j] = slot;
        self.active_pos[j] = self.active.len();
        self.active.push(j);
        (slot, true)
    }
}

/// Remove `x` from `list` by `swap_remove`, keeping `pos` (each item's
/// index in `list`) in sync; `pos[x]` becomes `NONE`.
pub(crate) fn swap_remove_tracked(list: &mut Vec<usize>, pos: &mut [usize], x: usize) {
    let i = pos[x];
    let last = *list.last().unwrap();
    list.swap_remove(i);
    if last != x {
        pos[last] = i;
    }
    pos[x] = NONE;
}
