//! The tree-clock `MonotoneCopy` operation (Algorithm 2, lines 28–35 and
//! `getUpdatedNodesCopy`).
//!
//! When the destination is already dominated by the source
//! (`self ⊑ other`), copying has the same semantics as joining, so the
//! same monotonicity arguments let it run sublinearly. The one extra
//! wrinkle is that the destination's root must move: the destination
//! re-roots itself at the source's root thread, and its old root node is
//! repositioned like any other updated node (collected by the traversal
//! even if its time did not progress — line 67 of Algorithm 2).
//!
//! Like the join, the traversal borrows the scratch stacks as disjoint
//! fields — no per-operation swap-out/restore.
//!
//! In the timed path a copy follows its source: from a lazily flat
//! source it is a times-array copy that adopts the source's star,
//! unless the star's cut makes the surgical copy O(1) (see the module
//! docs of `tree_clock`).

use crate::clock::{LogicalClock, OpStats};
use crate::ThreadId;

use super::join::{time_at, Frame};
use super::node::NIL;
use super::TreeClock;

impl TreeClock {
    /// Like the join, the uncounted path reports the surgically moved
    /// entry count in `stats.moved` (and nothing else) — the hybrid
    /// clock's density observation for copies.
    pub(crate) fn monotone_copy_impl<const COUNT: bool>(&mut self, other: &TreeClock) -> OpStats {
        let mut stats = OpStats::NOOP;
        let Some(zp) = other.root_idx() else {
            assert!(
                self.is_empty(),
                "TreeClock::monotone_copy: copying an empty clock into a non-empty \
                 one violates the precondition self ⊑ other"
            );
            return stats;
        };
        let Some(z) = self.root_idx() else {
            // Copy into an empty clock: a deep copy, and every entry of
            // `other` is new information. The uncounted path reports
            // the transferred present-entry count as its `moved`
            // observation (the clone replicates exactly those).
            let mut s = self.clone_structure_from::<COUNT>(other);
            if !COUNT {
                s.moved = other.node_count() as u64;
            }
            return s;
        };
        assert!(
            self.clks[z as usize] <= other.get_idx(z),
            "TreeClock::monotone_copy: self ⋢ other on self's root thread {} — \
             use copy_check_monotone for unordered copies",
            ThreadId::new(z),
        );

        // Timed-path fast paths replicate `other` outright (a full
        // replica is always a valid monotone copy — the result must
        // represent `other`'s vector time, and `other`'s own shape
        // satisfies every invariant):
        // - from a lazily flat source, unless the star's cut makes the
        //   surgical copy O(1) on a materialized destination — the
        //   times-array copy adopts the source's star;
        // - from a materialized source into a lazily flat destination
        //   (replicating beats writing out the destination's star), or
        //   when recent copies kept replacing most of the tree.
        if !COUNT {
            let follow_source = match other.star_aclk {
                Some(aclk) => self.star_aclk.is_some() || aclk > self.get_idx(zp),
                None => self.star_aclk.is_some() || self.take_dense_path(),
            };
            if follow_source {
                self.clone_structure_from::<false>(other);
                stats.moved = self.clks.len().max(other.clks.len()) as u64;
                return stats;
            }
        }

        self.gather.clear();
        self.frames.clear();

        if COUNT {
            stats.examined += 1; // the root of `other` is always processed
        }
        let found_old_root = if other.star_aclk.is_some() {
            Self::gather_star::<COUNT>(&self.clks, other, z, &mut self.gather, &mut stats)
        } else {
            Self::gather_copy::<COUNT>(
                &self.clks,
                other,
                zp,
                z,
                &mut self.gather,
                &mut self.frames,
                &mut stats,
            )
        };
        let moved = self.gather.len();
        if !COUNT {
            self.note_density(moved, self.clks.len().max(other.clks.len()));
            stats.moved = moved as u64;
        }

        // The sibling pruning stops a scan once a child's attachment
        // clock shows the destination already knew the rest of the
        // siblings. That is value-correct, but when the destination's
        // old root has not progressed and sits past such a cut it is
        // never reached and cannot be repositioned. Star-shaped
        // sources (every child shares one attachment clock, so the
        // first known child cuts the whole list) make this reachable in
        // practice: fall back to a full replica, which is always a
        // valid monotone copy.
        if z != zp && !found_old_root {
            self.gather.clear();
            let clone_stats = self.clone_structure_from::<COUNT>(other);
            stats += clone_stats;
            return stats;
        }

        // Adaptive fallback: when most of the arena progressed, the
        // surgical detach/re-attach (scattered writes) is slower than
        // replacing the whole structure with `other`'s — which is a
        // valid monotone copy (the result must represent `other`'s
        // vector time, and `other`'s own tree trivially satisfies all
        // invariants). The threshold is *arena*-based because that is
        // what the timed path's flat replica costs; it also keeps the
        // examined-entry count within the Theorem 1 budget: the counted
        // clone walks the union of the two present-node sets — at most
        // `max(len)` entries here, and at least half that many changed.
        if moved >= self.clks.len().max(other.clks.len()) / 2 {
            // The clone's own traversal reuses the scratch stack; clear
            // it first so the copy walk starts fresh.
            self.gather.clear();
            let clone_stats = self.clone_structure_from::<COUNT>(other);
            stats += clone_stats;
            return stats;
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

        // Re-root at the source's root thread.
        self.root = zp;
        {
            let r = &mut self.nodes[zp as usize];
            r.parent = NIL;
            r.next_sib = NIL;
            r.prev_sib = NIL;
        }
        debug_assert!(
            {
                let old = &self.nodes[z as usize];
                z == zp || old.parent != NIL
            },
            "old root was not repositioned — monotone-copy precondition violated"
        );

        debug_assert_eq!(self.check_invariants(), Ok(()));
        stats
    }

    /// Iterative `getUpdatedNodesCopy`: like the join traversal, but the
    /// start node is unconditionally collected, and the destination's old
    /// root (`old_root`, the `z` parameter of Algorithm 2) is collected
    /// even when it has not progressed, so that it can be repositioned
    /// under the new root.
    ///
    /// Returns whether `old_root` was collected; the caller must handle
    /// the (rare) miss — the sibling pruning can cut a scan short of a
    /// non-progressed `old_root`.
    #[allow(clippy::too_many_arguments)]
    fn gather_copy<const COUNT: bool>(
        self_clks: &[crate::LocalTime],
        other: &TreeClock,
        start: u32,
        old_root: u32,
        gathered: &mut Vec<u32>,
        frames: &mut Vec<Frame>,
        stats: &mut OpStats,
    ) -> bool {
        let o_nodes = &other.nodes[..];
        let o_clks = &other.clks[..];
        let mut found_old_root = false;
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
                    frame.next_child = v.next_sib;
                    frames.push(frame);
                    frame = Frame {
                        node: child,
                        next_child: v.head_child,
                    };
                    continue 'outer;
                }
                // The destination's old root must be collected for
                // repositioning even though it has not progressed.
                if child == old_root {
                    gathered.push(child);
                    found_old_root = true;
                }
                if v.aclk <= parent_known {
                    break;
                }
                child = v.next_sib;
            }
            if frame.node == old_root {
                found_old_root = true;
            }
            gathered.push(frame.node);
            match frames.pop() {
                Some(f) => frame = f,
                None => return found_old_root,
            }
        }
    }
}
