//! The tree-clock `Join` operation (Algorithm 2, lines 16–27 and
//! `getUpdatedNodesJoin`).
//!
//! `Join` walks `other`'s tree top-down, descending into a child only if
//! its time has *progressed* relative to `self` (direct monotonicity) and
//! abandoning a child list as soon as an attachment clock is already
//! known (indirect monotonicity). The progressed nodes are collected in
//! post-order on a stack `S`, detached from `self`, and re-attached in a
//! shape mirroring `other`; finally the updated subtree is hung under
//! `self`'s root.
//!
//! The `COUNT` const parameter selects the instrumented variant that
//! tallies [`OpStats`]; the plain variant compiles the counters out so
//! timed runs measure only the algorithm.
//!
//! The traversal borrows the scratch stacks (`gather`, `frames`)
//! directly as disjoint fields of `self` — no `mem::take`/restore pair
//! runs on the per-event path (that swap used to cost a handful of ns
//! per operation, a measurable slice of the sparse-regime fixed
//! overhead).
//!
//! In the timed dense regime the join is instead a branchless pointwise
//! maximum that leaves `self` a lazy star ([`TreeClock::flat_join`]);
//! a lazily flat *source* is walked through its implicit star
//! ([`TreeClock::gather_star`]) without materializing it.

use crate::clock::OpStats;
use crate::{LocalTime, ThreadId};

use super::node::{Node, NIL};
use super::TreeClock;

/// One frame of the iterative pre-order traversal: a node of `other` and
/// the next child of that node still to be examined.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    pub(crate) node: u32,
    pub(crate) next_child: u32,
}

/// The represented time of thread index `idx` in a dense times slice
/// (0 if out of range) — the split-borrow twin of
/// [`TreeClock::get_idx`].
#[inline]
pub(crate) fn time_at(clks: &[LocalTime], idx: u32) -> LocalTime {
    clks.get(idx as usize).copied().unwrap_or(0)
}

/// The fewest gathered entries for which a dense timed join finishes
/// flat instead of re-linking them: below this, the surgical re-link is
/// cheap in absolute terms and keeps the tree's granularity (small
/// clocks, such as the paper's worked examples, stay exact trees).
const FLAT_FINISH_MIN_MOVED: usize = 32;

impl TreeClock {
    /// Returns both the join's result statistics and (for the uncounted
    /// path) the number of surgically moved entries in `stats.moved`,
    /// which the hybrid clock reads as its density observation.
    pub(crate) fn join_impl<const COUNT: bool>(&mut self, other: &TreeClock) -> OpStats {
        let mut stats = OpStats::NOOP;
        let Some(zp) = other.root_idx() else {
            return stats; // joining an empty clock is a no-op
        };
        if COUNT {
            stats.examined += 1; // the root progress check
        }
        if other.clks[zp as usize] <= self.get_idx(zp) {
            return stats;
        }
        let Some(z) = self.root_idx() else {
            // Joining into an empty clock yields an exact copy.
            let mut s = self.clone_structure_from::<COUNT>(other);
            s.examined += stats.examined;
            return s;
        };
        assert!(
            zp != z && other.get_idx(z) <= self.clks[z as usize],
            "TreeClock::join: `other` has progressed on self's root thread {} — \
             this cannot happen in a causal ordering (misuse of the clock)",
            ThreadId::new(z),
        );

        // Timed-path fast path: when recent joins kept moving most of
        // the tree (dense communication — the regime where the surgical
        // walk's pointer chasing loses to a flat loop), join on the
        // dense times array instead and leave a lazy star. Value
        // identical; see the module docs of `tree_clock`.
        if !COUNT && self.take_dense_path() {
            self.flat_join::<false>(&other.clks, z);
            stats.moved = self.clks.len() as u64;
            return stats;
        }

        self.gather.clear();
        self.frames.clear();
        if other.star_aclk.is_some() {
            Self::gather_star::<COUNT>(&self.clks, other, NIL, &mut self.gather, &mut stats);
        } else {
            Self::gather_join::<COUNT>(
                &self.clks,
                other,
                zp,
                &mut self.gather,
                &mut self.frames,
                &mut stats,
            );
        }
        let moved = self.gather.len();
        if !COUNT {
            stats.moved = moved as u64;
            // A dense outcome finishes flat — the pointwise maximum costs
            // less than re-linking a sizable share of the arena — when
            // the clock is already lazily flat, its previous join was
            // dense too, or this join moved half the arena (a fresh
            // clock learning everything). An isolated, merely dense join
            // in a sparse regime stays surgical, so flatness does not
            // spread into sparse clocks.
            if self.note_density(moved, self.clks.len().max(other.clks.len()))
                && moved >= FLAT_FINISH_MIN_MOVED
                && (self.star_aclk.is_some()
                    || self.dense_streak >= 2
                    || moved * 2 >= self.clks.len())
            {
                self.flat_join::<false>(&other.clks, z);
                return stats;
            }
        }
        self.materialize();
        Self::detach_nodes_in(&mut self.nodes, self.root, &self.gather);
        Self::attach_nodes_in::<COUNT>(
            &mut self.nodes,
            &mut self.clks,
            other,
            &mut self.gather,
            &mut stats,
        );

        // Place the updated subtree under the root of `self`, attached at
        // the root's current time, at the front of the child list.
        self.nodes[zp as usize].aclk = self.clks[z as usize];
        Self::push_child_in(&mut self.nodes, zp, z);

        debug_assert_eq!(self.check_invariants(), Ok(()));
        stats
    }

    /// The dense-regime join against a times array (the source's, or
    /// the hybrid clock's flat representation): a branchless pointwise
    /// maximum the compiler vectorizes, then an O(1) stamp that makes
    /// `self` a lazy star under its root `z`, attached at the root's
    /// current time (sound by the argument in the module docs).
    ///
    /// With `COUNT_CHANGED`, returns the number of entries whose value
    /// changed (the hybrid clock's density observation and exact
    /// `VTWork` contribution); otherwise returns 0.
    pub(crate) fn flat_join<const COUNT_CHANGED: bool>(
        &mut self,
        times: &[LocalTime],
        z: u32,
    ) -> u64 {
        if times.len() > self.clks.len() {
            self.ensure_slot(times.len() as u32 - 1);
        }
        let mut changed = 0u64;
        for (mine, &theirs) in self.clks.iter_mut().zip(times.iter()) {
            if COUNT_CHANGED {
                changed += u64::from(theirs > *mine);
            }
            *mine = (*mine).max(theirs);
        }
        self.star_aclk = Some(self.clks[z as usize]);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        changed
    }

    /// Builds a tree from a flat times array: the values become
    /// `self`'s local times and every known thread hangs directly under
    /// `root` as a lazy star (the shape [`flat_join`](Self::flat_join)
    /// also leaves). This is the hybrid clock's dense→sparse
    /// re-materialization and the checkpoint restore: one copy, no link
    /// work until a surgical operation needs the links.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not empty.
    pub(crate) fn adopt_flat(&mut self, times: &[LocalTime], root: u32) {
        assert!(
            self.root == NIL,
            "TreeClock::adopt_flat: destination must be empty"
        );
        let max_idx = (times.len() as u32).max(root + 1) - 1;
        self.ensure_slot(max_idx);
        self.clks[..times.len()].copy_from_slice(times);
        // Entries past `times.len()` were zeroed by the teardown that
        // emptied this clock; nothing to reset.
        self.root = root;
        self.star_aclk = Some(self.clks[root as usize]);
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// `getUpdatedNodesJoin`/`getUpdatedNodesCopy` over a lazily flat
    /// source's implicit star, without materializing it: the children
    /// of the root are the nonzero entries in ascending index order, all
    /// attached at `star_aclk` and all leaves. Pushes, in post-order,
    /// every child that progressed relative to `self_clks` — and
    /// `old_root` (`NIL` for a join) even if it has not — followed by
    /// the root. Returns whether `old_root` was collected.
    ///
    /// Examines exactly the entries the pointer walk over the
    /// materialized star examines, so the counted figures are those of
    /// Algorithm 2.
    pub(crate) fn gather_star<const COUNT: bool>(
        self_clks: &[LocalTime],
        other: &TreeClock,
        old_root: u32,
        gathered: &mut Vec<u32>,
        stats: &mut OpStats,
    ) -> bool {
        let zp = other.root;
        let o_clks: &[LocalTime] = &other.clks;
        let aclk = other.star_aclk.expect("gather_star needs a lazy star");
        let known = time_at(self_clks, zp);
        let mut found_old_root = old_root == zp;
        for (i, &o) in o_clks.iter().enumerate() {
            let i = i as u32;
            if o == 0 || i == zp {
                continue;
            }
            if COUNT {
                stats.examined += 1;
            }
            let progressed = time_at(self_clks, i) < o;
            if progressed || i == old_root {
                gathered.push(i);
                found_old_root |= i == old_root;
            }
            if !progressed && aclk <= known {
                // Indirect monotonicity: every child shares `aclk`, so
                // the first known child cuts the whole list.
                break;
            }
        }
        gathered.push(zp);
        found_old_root
    }

    /// Iterative `getUpdatedNodesJoin`: collects, in post-order, every
    /// node of `other` (starting at `start`, which the caller has already
    /// determined to be progressed) whose clock has progressed relative
    /// to the receiver's times `self_clks`.
    pub(crate) fn gather_join<const COUNT: bool>(
        self_clks: &[LocalTime],
        other: &TreeClock,
        start: u32,
        gathered: &mut Vec<u32>,
        frames: &mut Vec<Frame>,
        stats: &mut OpStats,
    ) {
        let o_nodes: &[Node] = &other.nodes;
        let o_clks: &[LocalTime] = &other.clks;
        let mut frame = Frame {
            node: start,
            next_child: o_nodes[start as usize].head_child,
        };
        'outer: loop {
            let mut child = frame.next_child;
            let parent_known = time_at(self_clks, frame.node);
            while child != NIL {
                let v = &o_nodes[child as usize];
                if COUNT {
                    stats.examined += 1;
                }
                if time_at(self_clks, child) < o_clks[child as usize] {
                    // Direct monotonicity: the child has progressed —
                    // descend into it.
                    frame.next_child = v.next_sib;
                    frames.push(frame);
                    frame = Frame {
                        node: child,
                        next_child: v.head_child,
                    };
                    continue 'outer;
                }
                if v.aclk <= parent_known {
                    // Indirect monotonicity: this child (and, by the
                    // descending-aclk order, all later ones) was attached
                    // at a parent time `self` already knows about.
                    break;
                }
                child = v.next_sib;
            }
            // All relevant children handled: emit the node (post-order).
            gathered.push(frame.node);
            match frames.pop() {
                Some(f) => frame = f,
                None => return,
            }
        }
    }
}
