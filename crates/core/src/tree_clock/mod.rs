//! The tree clock data structure (Algorithm 2 of the paper).
//!
//! A [`TreeClock`] represents the same vector timestamp as a
//! [`VectorClock`](crate::VectorClock), but arranges the per-thread
//! entries in a rooted tree whose edges record *how* the information was
//! acquired: if `v` is the parent of `u`, then the clock learned `u`'s
//! time through `v`, at `v`-time `u.aclk` (the *attachment clock*).
//!
//! Two consequences of causality make joins fast (Section 3.1):
//!
//! - **Direct monotonicity** — if the receiving clock already knows
//!   `u.clk` of `u.tid`, it already knows everything below `u`, so the
//!   join never descends into `u`'s subtree.
//! - **Indirect monotonicity** — children are kept in descending
//!   attachment-clock order, so once a child's `aclk` is at-or-before the
//!   receiver's knowledge of the parent, the rest of the child list can
//!   be skipped.
//!
//! The representation is the paper's "two arrays of length k" — a dense
//! array of local times plus a parallel arena of tree links, indexed by
//! thread id (the `ThrMap` of Algorithm 2 is the identity map) — and all
//! traversals are iterative.
//!
//! # The lazy star (timed dense regime)
//!
//! The instrumented operations (`*_counted`) always run Algorithm 2
//! verbatim, so every work figure (`OpStats`, Theorem 1) measures the
//! paper's algorithm. The timed operations have a *dense regime* for
//! when operations keep moving a sizable share of the arena — there a
//! surgical walk's pointer chasing loses to a flat array sweep. A dense
//! join is a branchless pointwise maximum over the times array that
//! records the resulting shape as an implicit **star**: the root is
//! unchanged, every other thread with a nonzero time hangs directly
//! under it in ascending index order, and all children share one
//! attachment clock, `star_aclk` (the root's time at the join). The
//! link arena is left stale. Attaching every child at the root's
//! current time is sound for both monotonicity principles: a later
//! joiner that already knows that root time transitively knows
//! everything the root knew then, including every child's value (the
//! argument behind Algorithm 2 hanging a joined subtree at the current
//! root time). What the star gives up is granularity, which is
//! worthless when most entries change on every operation anyway.
//!
//! A timed join takes the flat path when its clock is in dense mode
//! (three dense surgical joins or copies in a row, re-probed
//! surgically every 256 operations), or when a surgical join gathered a
//! dense share of at least 32 entries and the clock is already lazily
//! flat, its previous join was dense too, or the join moved half the
//! arena. The star is materialized
//! into links only when something needs them: a surgical operation on
//! the clock itself (a probe, a workload turning sparse, any counted
//! operation) or a counted clone. Reading a lazily flat clock never
//! materializes it: a sparse destination walks the implicit star
//! surgically (its children are the nonzero entries, and one
//! `star_aclk` comparison makes the indirect-monotonicity cut), and the
//! inspection APIs ([`node`](TreeClock::node),
//! [`children`](TreeClock::children), `Display`,
//! [`check_invariants`](TreeClock::check_invariants)) report the
//! implicit star exactly as its materialized form.
//!
//! **Copies follow their source.** A timed monotone copy from a lazily
//! flat source is a times-array copy that adopts the source's star —
//! unless the star's cut makes the surgical copy O(1) on a materialized
//! destination (the destination already knows the source root at the
//! star's time). This is the hybrid backend's copy-observes-on-source
//! rule: a lock's clock mirrors its publishing thread's regime. A copy
//! from a materialized source into a lazily flat destination replicates
//! the source's two arrays. Joins from a lazily flat source into a
//! sparse destination stay surgical, so flatness does not spread into
//! sparse clocks.

mod copy;
mod display;
mod join;
mod node;
mod validate;

#[cfg(test)]
mod tests;

pub use validate::InvariantViolation;

use crate::clock::{CopyMode, LogicalClock, OpStats};
use crate::{LocalTime, ThreadId, VectorTime};

use node::{Node, NIL};

/// One node of an explicit tree description for
/// [`TreeClock::from_structure`]: `(tid, clk, parent)` with `parent`
/// being `None` for the root and `Some((parent_tid, aclk))` otherwise.
pub type NodeDescriptor = (ThreadId, LocalTime, Option<(ThreadId, LocalTime)>);

/// A hierarchical logical clock with sublinear join and copy operations.
///
/// See the [module documentation](self) for the design and the crate
/// root for a usage example. `TreeClock` implements
/// [`LogicalClock`], so it is a drop-in replacement for
/// [`VectorClock`](crate::VectorClock) in any partial-order computation.
///
/// # Example
///
/// ```rust
/// use tc_core::{LogicalClock, ThreadId, TreeClock};
///
/// // Thread t2's clock after learning about t1:
/// let mut c2 = TreeClock::new();
/// c2.init_root(ThreadId::new(2));
/// c2.increment(2);
///
/// let mut c1 = TreeClock::new();
/// c1.init_root(ThreadId::new(1));
/// c1.increment(1);
///
/// c2.join(&c1);
/// assert_eq!(c2.get(ThreadId::new(1)), 1);
/// // The tree remembers that t1 was attached at t2-time 2:
/// let info = c2.node(ThreadId::new(1)).unwrap();
/// assert_eq!(info.parent, Some(ThreadId::new(2)));
/// assert_eq!(info.aclk, 2);
/// ```
#[derive(Clone)]
pub struct TreeClock {
    /// Dense local times; `clks[i] == 0` also covers absent threads
    /// (the "timestamps array" of the paper's implementation).
    clks: Vec<LocalTime>,
    /// Tree links, parallel to `clks` (the "shape array"). While the
    /// clock is a lazy star the arena is stale and may be shorter than
    /// `clks`; [`materialize`](Self::materialize) restores both.
    nodes: Vec<Node>,
    /// Root node index, or `NIL` when the clock is empty.
    root: u32,
    /// `Some(aclk)` while the shape is the lazy star of the module docs:
    /// every nonzero non-root entry is a child of the root attached at
    /// `aclk`, and `nodes` is stale. `None` while `nodes` holds the
    /// tree (and is exactly as long as `clks`).
    star_aclk: Option<LocalTime>,
    /// Consecutive *uncounted* operations that moved most of the tree.
    /// Drives the adaptive dense fast paths of the timed hot path (see
    /// the module docs); the instrumented (`COUNT`) variants always run
    /// the exact surgical algorithm.
    dense_streak: u8,
    /// Uncounted operations taken by a dense fast path since the last
    /// surgical probe (the fast path re-measures density periodically).
    dense_ops: u16,
    /// Scratch stack `S` of Algorithm 2, reused across operations.
    gather: Vec<u32>,
    /// Scratch traversal frames, reused across operations.
    frames: Vec<join::Frame>,
}

/// Consecutive dense operations before the timed path switches to the
/// dense (flat) fast paths.
const DENSE_STREAK_LIMIT: u8 = 3;

/// While in dense mode, every `DENSE_PROBE_PERIOD`-th operation runs the
/// surgical algorithm to re-measure density (and exit dense mode when
/// the workload turns sparse again).
const DENSE_PROBE_PERIOD: u16 = 256;

/// A read-only snapshot of one tree-clock node, for inspection and
/// testing (compare against the paper's figures).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeView {
    /// The thread whose time this node stores.
    pub tid: ThreadId,
    /// Last known local time of `tid`.
    pub clk: LocalTime,
    /// Attachment clock (0 and meaningless for the root).
    pub aclk: LocalTime,
    /// Parent thread, or `None` for the root.
    pub parent: Option<ThreadId>,
}

impl TreeClock {
    /// Creates an empty tree clock.
    pub fn new() -> Self {
        TreeClock {
            clks: Vec::new(),
            nodes: Vec::new(),
            root: NIL,
            star_aclk: None,
            dense_streak: 0,
            dense_ops: 0,
            gather: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Records whether an uncounted surgical operation was *dense*,
    /// feeding the adaptive fast-path switch, and returns the verdict.
    ///
    /// Density is judged against the *arena length*, not the tree size:
    /// the flat fast path costs Θ(arena) per operation, so it only pays
    /// off when the surgically moved set is a sizable fraction of the
    /// arena. (Judging against the tree size would classify every small
    /// tree as dense and make sparse scenarios sweep the whole arena.)
    #[inline]
    pub(crate) fn note_density(&mut self, moved: usize, arena: usize) -> bool {
        let dense = moved * 4 >= arena.max(1);
        if dense {
            self.dense_streak = self.dense_streak.saturating_add(1);
        } else {
            self.dense_streak = 0;
        }
        dense
    }

    /// Returns `true` when the timed path should take the dense fast
    /// path for this operation (recent operations were dense, and this
    /// one is not a periodic surgical re-probe).
    #[inline]
    pub(crate) fn take_dense_path(&mut self) -> bool {
        if self.dense_streak < DENSE_STREAK_LIMIT {
            return false;
        }
        self.dense_ops = self.dense_ops.wrapping_add(1);
        !self.dense_ops.is_multiple_of(DENSE_PROBE_PERIOD)
    }

    // ---- internal arena helpers -------------------------------------

    /// The represented time of thread index `idx` (0 if absent).
    #[inline]
    pub(crate) fn get_idx(&self, idx: u32) -> LocalTime {
        self.clks.get(idx as usize).copied().unwrap_or(0)
    }

    #[inline]
    pub(crate) fn root_idx(&self) -> Option<u32> {
        if self.root == NIL {
            None
        } else {
            Some(self.root)
        }
    }

    /// Whether thread index `idx` is in the tree (read through the
    /// implicit star while lazily flat).
    #[inline]
    pub(crate) fn is_present(&self, idx: u32) -> bool {
        if self.star_aclk.is_some() {
            idx == self.root || self.get_idx(idx) != 0
        } else {
            self.nodes.get(idx as usize).is_some_and(|n| n.present())
        }
    }

    /// The `(aclk, parent)` links of present node `idx`, read through
    /// the implicit star while lazily flat.
    #[inline]
    fn link_of(&self, idx: u32) -> (LocalTime, u32) {
        match self.star_aclk {
            Some(_) if idx == self.root => (0, NIL),
            Some(aclk) => (aclk, self.root),
            None => {
                let n = &self.nodes[idx as usize];
                (n.aclk, n.parent)
            }
        }
    }

    /// The children of a lazy star's root, in child-list order: every
    /// nonzero entry but the root's, ascending by thread index.
    fn star_children(&self) -> impl Iterator<Item = u32> + '_ {
        let root = self.root;
        (0..self.clks.len() as u32).filter(move |&i| i != root && self.clks[i as usize] != 0)
    }

    /// Writes the lazy star into the link arena (a no-op when the links
    /// are already materialized).
    #[inline]
    pub(crate) fn materialize(&mut self) {
        if let Some(aclk) = self.star_aclk {
            self.write_star(aclk);
        }
    }

    /// [`materialize`](Self::materialize)'s out-of-line body: one
    /// forward sweep that rewrites every slot, since the stale arena may
    /// hold any earlier shape.
    #[cold]
    #[inline(never)]
    fn write_star(&mut self, aclk: LocalTime) {
        self.star_aclk = None;
        let z = self.root;
        let mut head = NIL;
        let mut prev = NIL;
        self.nodes.resize_with(self.clks.len(), Node::default);
        for i in 0..self.nodes.len() as u32 {
            let iu = i as usize;
            if i == z {
                continue;
            }
            if self.clks[iu] == 0 {
                self.nodes[iu] = Node::default();
                continue;
            }
            self.nodes[iu] = Node {
                aclk,
                parent: z,
                head_child: NIL,
                next_sib: NIL,
                prev_sib: prev,
            };
            if prev == NIL {
                head = i;
            } else {
                self.nodes[prev as usize].next_sib = i;
            }
            prev = i;
        }
        self.nodes[z as usize] = Node {
            aclk: 0,
            parent: NIL,
            head_child: head,
            next_sib: NIL,
            prev_sib: NIL,
        };
    }

    /// Grows the arrays so index `idx` is addressable (a lazy star's
    /// stale arena is left for [`materialize`](Self::materialize)).
    pub(crate) fn ensure_slot(&mut self, idx: u32) {
        let len = idx as usize + 1;
        if len > self.clks.len() {
            self.clks.resize(len, 0);
            if self.star_aclk.is_none() {
                self.nodes.resize_with(len, Node::default);
            }
        }
    }

    /// Removes `child` from its parent's child list. The caller is
    /// responsible for re-linking it (or marking it absent).
    ///
    /// Takes the node arena directly so callers holding other disjoint
    /// field borrows (the scratch stacks) can still unlink.
    #[inline]
    pub(crate) fn unlink_in(nodes: &mut [Node], child: u32) {
        let Node {
            parent,
            next_sib: next,
            prev_sib: prev,
            ..
        } = nodes[child as usize];
        if prev == NIL {
            nodes[parent as usize].head_child = next;
        } else {
            nodes[prev as usize].next_sib = next;
        }
        if next != NIL {
            nodes[next as usize].prev_sib = prev;
        }
    }

    /// Pushes `child` at the front of `parent`'s child list (the paper's
    /// `pushChild`). The front position keeps the list in descending
    /// attachment-clock order.
    #[inline]
    pub(crate) fn push_child_in(nodes: &mut [Node], child: u32, parent: u32) {
        let old_head = nodes[parent as usize].head_child;
        {
            let c = &mut nodes[child as usize];
            c.parent = parent;
            c.prev_sib = NIL;
            c.next_sib = old_head;
        }
        if old_head != NIL {
            nodes[old_head as usize].prev_sib = child;
        }
        nodes[parent as usize].head_child = child;
    }

    /// Detaches from this tree every node whose thread appears in the
    /// gathered stack (the paper's `detachNodes`).
    pub(crate) fn detach_nodes_in(nodes: &mut [Node], root: u32, gathered: &[u32]) {
        for &vp in gathered {
            if let Some(n) = nodes.get(vp as usize) {
                if n.present() && vp != root {
                    Self::unlink_in(nodes, vp);
                }
            }
        }
    }

    /// Re-attaches the gathered nodes, mirroring the shape of `other`'s
    /// corresponding subtree (the paper's `attachNodes`). Pops from the
    /// stack so parents are processed before their children.
    ///
    /// Operates on the destination's fields directly (instead of
    /// `&mut self`) so the gathered stack can be the destination's own
    /// scratch buffer — borrowed disjointly, with no swap-out.
    pub(crate) fn attach_nodes_in<const COUNT: bool>(
        nodes: &mut Vec<Node>,
        clks: &mut Vec<LocalTime>,
        other: &TreeClock,
        gathered: &mut Vec<u32>,
        stats: &mut OpStats,
    ) {
        if let Some(max) = gathered.iter().copied().max() {
            let len = max as usize + 1;
            if len > nodes.len() {
                nodes.resize_with(len, Node::default);
                clks.resize(len, 0);
            }
        }
        while let Some(up) = gathered.pop() {
            let iu = up as usize;
            let o_clk = other.clks[iu];
            let (o_aclk, o_parent) = other.link_of(up);
            if COUNT {
                stats.moved += 1;
                if clks[iu] != o_clk {
                    stats.changed += 1;
                }
            }
            clks[iu] = o_clk;
            if o_parent != NIL {
                nodes[iu].aclk = o_aclk;
                Self::push_child_in(nodes, up, o_parent);
            } else if !nodes[iu].present() {
                // New root of an empty-side attach: mark in-tree; the
                // caller sets the root pointer.
                nodes[iu].parent = NIL;
            }
        }
    }

    /// Deep copy: makes `self` an exact structural replica of `other`.
    ///
    /// Used when joining into / copying into an empty clock and as the
    /// fallback of [`copy_check_monotone`](LogicalClock::copy_check_monotone).
    ///
    /// The copy is *sparse*: it walks the present nodes of the two trees
    /// instead of their dense arrays, so the cost — both the physical
    /// work and the `examined` entries reported when `COUNT` — is
    /// `O(|self| ∪ |other|)` present entries, not `Θ(k)` array length.
    /// This is what lets a first copy into a fresh per-variable clock
    /// cost only the information it actually transfers, which in turn is
    /// what keeps SHB/MAZ tree-clock work inside the paper's plain
    /// `3·VTWork` bound on short traces (the conformance checker used to
    /// need a per-copy dimension surcharge to excuse the dense copy).
    ///
    /// `changed` (the `VTWork` contribution) stays exact: every entry
    /// outside the union of present sets is 0 on both sides.
    pub(crate) fn clone_structure_from<const COUNT: bool>(&mut self, other: &TreeClock) -> OpStats {
        let mut stats = OpStats::NOOP;
        if !COUNT {
            // Timed path: replicating the two dense arrays is a pair of
            // memcpys — far faster than the sparse walk for the array
            // lengths a thread dimension produces — and a lazily flat
            // source is replicated by its times alone, adopting its
            // star. The walk below is the *model*-accurate variant: it
            // establishes that the information transferred is
            // O(present), which is what the counted runs (and Theorem
            // 1's corpus checks) measure.
            self.clks.clone_from(&other.clks);
            if other.star_aclk.is_none() {
                self.nodes.clone_from(&other.nodes);
            }
            self.root = other.root;
            self.star_aclk = other.star_aclk;
            return stats;
        }
        self.materialize();
        let Some(zp) = other.root_idx() else {
            // Copying an empty clock is just a (counted) clear.
            Self::clear_tree_in::<COUNT>(
                &mut self.nodes,
                &mut self.clks,
                &mut self.root,
                None,
                &mut stats,
            );
            return stats;
        };

        // Phase 1: walk `other`'s tree (preorder, via a cursor into the
        // scratch stack), comparing against self's *old* values.
        self.gather.clear();
        self.gather.push(zp);
        let mut max_idx = zp;
        let mut cursor = 0;
        while cursor < self.gather.len() {
            let u = self.gather[cursor];
            cursor += 1;
            max_idx = max_idx.max(u);
            if COUNT {
                stats.examined += 1;
                if join::time_at(&self.clks, u) != other.clks[u as usize] {
                    stats.changed += 1;
                }
                stats.moved += 1;
            }
            if other.star_aclk.is_some() {
                if u == zp {
                    self.gather.extend(other.star_children());
                }
                continue;
            }
            let mut c = other.nodes[u as usize].head_child;
            while c != NIL {
                self.gather.push(c);
                c = other.nodes[c as usize].next_sib;
            }
        }

        // Phase 2: tear down self's old tree. Entries present in self
        // but not in other drop back to 0; they are the only old entries
        // phase 1 has not already examined.
        Self::clear_tree_in::<COUNT>(
            &mut self.nodes,
            &mut self.clks,
            &mut self.root,
            Some(other),
            &mut stats,
        );

        // Phase 3: materialize other's nodes. Links can be copied
        // verbatim — they only reference present nodes of `other`, all
        // of which are in `gathered`. A lazily flat source's star is
        // adopted and written out.
        self.ensure_slot(max_idx);
        let lazy_src = other.star_aclk.is_some();
        for idx in 0..self.gather.len() {
            let u = self.gather[idx] as usize;
            if !lazy_src {
                self.nodes[u] = other.nodes[u].clone();
            }
            self.clks[u] = other.clks[u];
        }
        self.root = other.root;
        self.star_aclk = other.star_aclk;
        self.materialize();

        self.gather.clear();
        debug_assert_eq!(self.check_invariants(), Ok(()));
        stats
    }

    /// Iteratively dismantles a clock's tree in O(present) time and
    /// O(1) space (descending head-child chains, unlinking leaves),
    /// resetting every visited node and local time. Operates on the
    /// fields directly so callers can hold other disjoint borrows.
    ///
    /// When `COUNT`, accounts entries *not* present in `keep_counts_of`
    /// (they were not examined by the caller's own walk): each costs one
    /// `examined`, and one `changed` if its time drops from nonzero to 0.
    fn clear_tree_in<const COUNT: bool>(
        nodes: &mut [Node],
        clks: &mut [LocalTime],
        root: &mut u32,
        keep_counts_of: Option<&TreeClock>,
        stats: &mut OpStats,
    ) {
        let mut cur = *root;
        while cur != NIL {
            let head = nodes[cur as usize].head_child;
            if head != NIL {
                cur = head;
                continue;
            }
            let Node {
                parent,
                next_sib: next,
                ..
            } = nodes[cur as usize];
            if COUNT && !keep_counts_of.is_some_and(|o| o.is_present(cur)) {
                stats.examined += 1;
                if clks[cur as usize] != 0 {
                    stats.changed += 1;
                }
            }
            nodes[cur as usize] = Node::default();
            clks[cur as usize] = 0;
            if parent == NIL {
                break; // the root is always dismantled last
            }
            // `cur` was its parent's head child (we always descend the
            // head chain), so the sibling list shrinks from the front.
            nodes[parent as usize].head_child = next;
            cur = parent;
        }
        *root = NIL;
    }

    /// Read-only view of the dense local-times array — the value this
    /// clock represents, indexed by thread id (the hybrid clock's flat
    /// interop surface; non-present entries are 0 by invariant).
    #[inline]
    pub(crate) fn times(&self) -> &[LocalTime] {
        &self.clks
    }

    // ---- inspection --------------------------------------------------

    /// Returns a snapshot of the node for thread `t`, or `None` if the
    /// thread is not in the tree.
    pub fn node(&self, t: ThreadId) -> Option<NodeView> {
        if !self.is_present(t.raw()) {
            return None;
        }
        let (aclk, parent) = self.link_of(t.raw());
        Some(NodeView {
            tid: t,
            clk: self.clks[t.index()],
            aclk: if parent == NIL { 0 } else { aclk },
            parent: (parent != NIL).then(|| ThreadId::new(parent)),
        })
    }

    /// Returns the children of thread `t`'s node, front (largest
    /// attachment clock) to back.
    pub fn children(&self, t: ThreadId) -> Vec<ThreadId> {
        let mut out = Vec::new();
        if !self.is_present(t.raw()) {
            return out;
        }
        if self.star_aclk.is_some() {
            if t.raw() == self.root {
                out.extend(self.star_children().map(ThreadId::new));
            }
            return out;
        }
        let mut c = self.nodes[t.index()].head_child;
        while c != NIL {
            out.push(ThreadId::new(c));
            c = self.nodes[c as usize].next_sib;
        }
        out
    }

    /// Number of threads present in the tree (an O(k) count; a lazily
    /// flat clock counts its implicit star).
    pub fn node_count(&self) -> usize {
        (0..self.clks.len() as u32)
            .filter(|&i| self.is_present(i))
            .count()
    }

    // ---- construction from explicit structure ------------------------

    /// Builds a tree clock from an explicit node list, for tests and
    /// benchmarks that replay shapes from the paper's figures.
    ///
    /// Each entry is `(tid, clk, parent)` where `parent` is
    /// `None` for the root and `Some((parent_tid, aclk))` otherwise.
    /// Children end up in the child list in the order given (which must
    /// be descending in `aclk`, as the data structure maintains).
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] if the description is not a
    /// well-formed tree clock (duplicate threads, missing/cyclic parents,
    /// unordered sibling lists, …).
    pub fn from_structure(nodes: &[NodeDescriptor]) -> Result<TreeClock, InvariantViolation> {
        let mut tc = TreeClock::new();
        for &(tid, clk, parent) in nodes {
            tc.ensure_slot(tid.raw());
            if tc.nodes[tid.index()].present() {
                return Err(InvariantViolation::new(format!(
                    "duplicate node for thread {tid}"
                )));
            }
            tc.clks[tid.index()] = clk;
            match parent {
                None => {
                    if tc.root != NIL {
                        return Err(InvariantViolation::new("two roots specified"));
                    }
                    tc.nodes[tid.index()].parent = NIL;
                    tc.root = tid.raw();
                }
                Some((p, aclk)) => {
                    if !tc.is_present(p.raw()) {
                        return Err(InvariantViolation::new(format!(
                            "parent {p} of {tid} not defined before its child"
                        )));
                    }
                    tc.nodes[tid.index()].aclk = aclk;
                    // Append at the *back* so the input order becomes the
                    // front-to-back child order.
                    let mut tail = tc.nodes[p.index()].head_child;
                    if tail == NIL {
                        Self::push_child_in(&mut tc.nodes, tid.raw(), p.raw());
                    } else {
                        while tc.nodes[tail as usize].next_sib != NIL {
                            tail = tc.nodes[tail as usize].next_sib;
                        }
                        tc.nodes[tail as usize].next_sib = tid.raw();
                        tc.nodes[tid.index()].prev_sib = tail;
                        tc.nodes[tid.index()].parent = p.raw();
                    }
                }
            }
        }
        tc.check_invariants()?;
        Ok(tc)
    }
}

impl LogicalClock for TreeClock {
    const NAME: &'static str = "tree";

    fn new() -> Self {
        TreeClock::new()
    }

    fn with_threads(threads: usize) -> Self {
        let mut tc = TreeClock::new();
        tc.nodes.resize_with(threads, Node::default);
        tc.clks.resize(threads, 0);
        tc
    }

    fn init_root(&mut self, t: ThreadId) {
        assert!(
            self.root == NIL,
            "TreeClock::init_root: clock already initialized"
        );
        self.ensure_slot(t.raw());
        self.nodes[t.index()].parent = NIL;
        self.clks[t.index()] = 0;
        self.root = t.raw();
    }

    fn root_tid(&self) -> Option<ThreadId> {
        self.root_idx().map(ThreadId::new)
    }

    #[inline]
    fn get(&self, t: ThreadId) -> LocalTime {
        self.get_idx(t.raw())
    }

    fn increment(&mut self, amount: LocalTime) {
        assert!(
            self.root != NIL,
            "TreeClock::increment: clock has no root thread"
        );
        self.clks[self.root as usize] += amount;
    }

    /// O(1) root-entry comparison (the paper's `LessThan`); see the
    /// trait documentation for the validity contract.
    fn leq(&self, other: &Self) -> bool {
        match self.root_idx() {
            None => true,
            Some(r) => self.clks[r as usize] <= other.get_idx(r),
        }
    }

    fn join(&mut self, other: &Self) {
        self.join_impl::<false>(other);
    }

    fn join_counted(&mut self, other: &Self) -> OpStats {
        self.join_impl::<true>(other)
    }

    fn monotone_copy(&mut self, other: &Self) {
        self.monotone_copy_impl::<false>(other);
    }

    fn monotone_copy_counted(&mut self, other: &Self) -> OpStats {
        self.monotone_copy_impl::<true>(other)
    }

    fn copy_check_monotone(&mut self, other: &Self) -> CopyMode {
        if self.leq(other) {
            self.monotone_copy_impl::<false>(other);
            CopyMode::Monotone
        } else {
            self.clone_structure_from::<false>(other);
            CopyMode::Deep
        }
    }

    fn copy_check_monotone_counted(&mut self, other: &Self) -> (CopyMode, OpStats) {
        if self.leq(other) {
            (CopyMode::Monotone, self.monotone_copy_impl::<true>(other))
        } else {
            (CopyMode::Deep, self.clone_structure_from::<true>(other))
        }
    }

    fn vector_time(&self) -> VectorTime {
        VectorTime::from(self.clks.clone())
    }

    fn is_empty(&self) -> bool {
        self.root == NIL
    }

    fn num_threads(&self) -> usize {
        self.clks.len()
    }

    /// Restores the clock from a checkpointed value as the lazy star
    /// (every present thread directly under the root), the shape the
    /// dense fast path and the hybrid backend produce.
    fn restore_value(&mut self, times: &[LocalTime], root: Option<ThreadId>) {
        assert!(
            self.root == NIL,
            "TreeClock::restore_value: destination must be empty"
        );
        let Some(r) = root else {
            assert!(
                times.iter().all(|&t| t == 0),
                "TreeClock::restore_value: a rootless clock must be all-zero"
            );
            return;
        };
        self.adopt_flat(times, r.raw());
    }

    /// Sparse reset: dismantles the tree in O(present) time, keeping
    /// the arena buffers for reuse (e.g. via a
    /// [`ClockPool`](crate::pool::ClockPool)).
    fn clear(&mut self) {
        if self.star_aclk.take().is_some() {
            // The stale arena has no walkable tree: reset it wholesale.
            self.clks.fill(0);
            self.nodes.clear();
            self.nodes.resize_with(self.clks.len(), Node::default);
            self.root = NIL;
        } else {
            let mut ignored = OpStats::NOOP;
            Self::clear_tree_in::<false>(
                &mut self.nodes,
                &mut self.clks,
                &mut self.root,
                None,
                &mut ignored,
            );
        }
        // A recycled clock starts a fresh life: do not let a previous
        // role's density profile steer the adaptive fast paths.
        self.dense_streak = 0;
        self.dense_ops = 0;
    }

    fn reserve_threads(&mut self, threads: usize) {
        if threads > 0 {
            self.ensure_slot(threads as u32 - 1);
        }
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.clks.capacity() * size_of::<LocalTime>()
            + self.nodes.capacity() * size_of::<Node>()
            + self.gather.capacity() * size_of::<u32>()
            + self.frames.capacity() * size_of::<join::Frame>()
    }
}

impl Default for TreeClock {
    /// Same as [`TreeClock::new`]. (A derived `Default` would zero the
    /// root index, which is a valid thread id, not the `NIL` sentinel —
    /// the clock would silently claim thread 0 as its root.)
    fn default() -> Self {
        TreeClock::new()
    }
}

impl PartialEq for TreeClock {
    /// Two tree clocks are equal when they represent the same *vector
    /// time*; the tree shapes may differ. This is an O(k) comparison.
    fn eq(&self, other: &Self) -> bool {
        let n = self.clks.len().max(other.clks.len());
        (0..n as u32).all(|i| self.get_idx(i) == other.get_idx(i))
    }
}

impl Eq for TreeClock {}
