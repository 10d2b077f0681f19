//! Unit tests for the tree clock, including the paper's worked examples:
//! the traces of Figure 2 (producing the trees of Figure 3) and the full
//! Appendix B run (Figures 11 and 12), with exact work counts.

use crate::clock::{CopyMode, LogicalClock, OpStats};
use crate::{ThreadId, TreeClock, VectorTime};

fn t(i: u32) -> ThreadId {
    ThreadId::new(i)
}

/// A `sync(ℓ)` step as in Figure 2: one local event that acquires and
/// releases `lock` (the paper counts it as a single local time unit).
fn sync(thread: &mut TreeClock, lock: &mut TreeClock) {
    thread.increment(1);
    thread.join(lock);
    lock.monotone_copy(thread);
}

fn rooted(i: u32, time: u32) -> TreeClock {
    let mut c = TreeClock::new();
    c.init_root(t(i));
    c.increment(time);
    c
}

// ---------------------------------------------------------------------
// Basics
// ---------------------------------------------------------------------

#[test]
fn new_clock_is_empty() {
    let c = TreeClock::new();
    assert!(c.is_empty());
    assert_eq!(c.root_tid(), None);
    assert_eq!(c.get(t(5)), 0);
    assert_eq!(c.node_count(), 0);
}

#[test]
fn init_root_and_increment() {
    let c = rooted(2, 7);
    assert_eq!(c.root_tid(), Some(t(2)));
    assert_eq!(c.get(t(2)), 7);
    assert_eq!(c.node_count(), 1);
    assert!(!c.is_empty());
}

#[test]
#[should_panic(expected = "already initialized")]
fn double_init_panics() {
    let mut c = rooted(0, 1);
    c.init_root(t(1));
}

#[test]
#[should_panic(expected = "no root thread")]
fn increment_without_root_panics() {
    let mut c = TreeClock::new();
    c.increment(1);
}

#[test]
fn join_with_empty_clock_is_noop() {
    let mut c = rooted(0, 3);
    let stats = c.join_counted(&TreeClock::new());
    assert_eq!(stats, OpStats::NOOP);
    assert_eq!(c.get(t(0)), 3);
}

#[test]
fn join_into_empty_clock_copies() {
    let mut empty = TreeClock::new();
    let src = rooted(1, 4);
    empty.join(&src);
    assert_eq!(empty.get(t(1)), 4);
    assert_eq!(empty.root_tid(), Some(t(1)));
    assert_eq!(empty.check_invariants(), Ok(()));
}

#[test]
fn join_already_known_is_cheap_noop() {
    let mut a = rooted(0, 1);
    let b = rooted(1, 5);
    a.join(&b);
    // Joining the same information again touches only the root.
    let stats = a.join_counted(&b);
    assert_eq!(stats, OpStats::new(1, 0, 0));
}

#[test]
#[should_panic(expected = "progressed on self's root thread")]
fn join_rejects_foreign_progress_on_own_thread() {
    let mut src = rooted(1, 1);
    src.join(&rooted(0, 5));
    let mut a = rooted(0, 1);
    a.join(&src);
}

#[test]
fn monotone_copy_into_empty_is_deep_copy() {
    let mut lock = TreeClock::new();
    let mut c = rooted(0, 2);
    c.join(&rooted(1, 1));
    let stats = lock.monotone_copy_counted(&c);
    assert_eq!(lock.vector_time(), c.vector_time());
    assert_eq!(lock.root_tid(), Some(t(0)));
    assert_eq!(stats.changed, 2);
    assert_eq!(lock.check_invariants(), Ok(()));
}

#[test]
fn monotone_copy_of_empty_into_empty_is_noop() {
    let mut a = TreeClock::new();
    let stats = a.monotone_copy_counted(&TreeClock::new());
    assert_eq!(stats, OpStats::NOOP);
    assert!(a.is_empty());
}

#[test]
#[should_panic(expected = "self ⋢ other")]
fn monotone_copy_rejects_non_monotone_target() {
    let mut lw = rooted(1, 9);
    let c = rooted(0, 2);
    lw.monotone_copy(&c);
}

#[test]
fn copy_check_monotone_takes_fast_path_when_ordered() {
    let mut lw = TreeClock::new();
    let mut c = rooted(0, 1);
    lw.monotone_copy(&c); // lw = [1]
    c.increment(2);
    let mode = lw.copy_check_monotone(&c);
    assert_eq!(mode, CopyMode::Monotone);
    assert_eq!(lw.get(t(0)), 3);
}

#[test]
fn copy_check_monotone_falls_back_to_deep_copy() {
    // lw knows t1@9, which c does not: the copy is not monotone
    // (in SHB this is exactly a write-read race).
    let mut lw = rooted(1, 9);
    let c = rooted(0, 2);
    let mode = lw.copy_check_monotone(&c);
    assert_eq!(mode, CopyMode::Deep);
    assert_eq!(lw.get(t(1)), 0); // entries may decrease: copy, not join
    assert_eq!(lw.get(t(0)), 2);
    assert_eq!(lw.root_tid(), Some(t(0)));
    assert_eq!(lw.check_invariants(), Ok(()));
}

#[test]
fn clock_grows_for_large_thread_ids() {
    let mut a = rooted(0, 1);
    a.join(&rooted(100, 42));
    assert_eq!(a.get(t(100)), 42);
    assert!(a.num_threads() >= 101);
    assert_eq!(a.check_invariants(), Ok(()));
}

#[test]
fn equality_is_vector_time_equality() {
    // Same times, different shapes (learned in different orders).
    let mut a = rooted(0, 1);
    a.join(&rooted(1, 1));
    a.join(&rooted(2, 1));

    let mut via = rooted(1, 1);
    via.join(&rooted(2, 1));
    let mut b = rooted(0, 1);
    b.join(&via);

    assert_ne!(a.children(t(0)), b.children(t(0))); // shapes differ
    assert_eq!(a, b); // values agree
}

#[test]
fn leq_uses_root_entry() {
    let mut a = rooted(0, 1);
    let b = rooted(1, 1);
    a.join(&b);
    assert!(b.leq(&a));
    assert!(!a.leq(&b));
    assert!(TreeClock::new().leq(&b));
}

#[test]
fn vector_time_reflects_all_nodes() {
    let mut a = rooted(0, 2);
    a.join(&rooted(3, 5));
    assert_eq!(a.vector_time(), VectorTime::from(vec![2, 0, 0, 5]));
}

// ---------------------------------------------------------------------
// Figure 2a → Figure 3 (left): direct monotonicity
// ---------------------------------------------------------------------

#[test]
fn figure_2a_direct_monotonicity() {
    let mut c1 = TreeClock::new();
    let mut c2 = TreeClock::new();
    let mut c3 = TreeClock::new();
    let mut c4 = TreeClock::new();
    c1.init_root(t(1));
    c2.init_root(t(2));
    c3.init_root(t(3));
    c4.init_root(t(4));
    let (mut l1, mut l2, mut l3) = (TreeClock::new(), TreeClock::new(), TreeClock::new());

    sync(&mut c1, &mut l1); // e1: t1 sync(l1)
    sync(&mut c2, &mut l1); // e2: t2 sync(l1)
    sync(&mut c3, &mut l1); // e3: t3 sync(l1)
    sync(&mut c2, &mut l2); // e4: t2 sync(l2)
    sync(&mut c4, &mut l2); // e5: t4 sync(l2)
    sync(&mut c3, &mut l3); // e6: t3 sync(l3)

    // e7: t4 sync(l3). Before the join, t4 knows t2@2 while l3 records
    // t2@1, so the join must not descend below t2 (and never examine t1).
    c4.increment(1);
    let stats = c4.join_counted(&l3);
    // examined: the root progress check (t3) + one child comparison (t2).
    assert_eq!(stats.examined, 2);
    assert_eq!(stats.changed, 1); // only t3's entry progressed
    assert_eq!(stats.moved, 1);
    l3.monotone_copy(&c4);

    // Figure 3 (left): the tree clock of t4 after e7.
    assert_eq!(
        c4.to_string(),
        "(t4, 2, ⊥)[(t3, 2, 2), (t2, 2, 1)[(t1, 1, 1)]]"
    );
    assert_eq!(c4.check_invariants(), Ok(()));
}

// ---------------------------------------------------------------------
// Figure 2b → Figure 3 (right): indirect monotonicity
// ---------------------------------------------------------------------

#[test]
fn figure_2b_indirect_monotonicity() {
    let mut c1 = TreeClock::new();
    let mut c2 = TreeClock::new();
    let mut c3 = TreeClock::new();
    let mut c4 = TreeClock::new();
    c1.init_root(t(1));
    c2.init_root(t(2));
    c3.init_root(t(3));
    c4.init_root(t(4));
    let (mut l1, mut l2, mut l3) = (TreeClock::new(), TreeClock::new(), TreeClock::new());

    sync(&mut c1, &mut l1); // e1: t1 sync(l1)
    sync(&mut c2, &mut l2); // e2: t2 sync(l2)
    sync(&mut c3, &mut l1); // e3: t3 sync(l1), learns t1 at t3-time 1
    sync(&mut c3, &mut l2); // e4: t3 sync(l2), learns t2 at t3-time 2
    sync(&mut c4, &mut l2); // e5: t4 sync(l2), learns e1-e4 through t3
    assert_eq!(
        c4.to_string(),
        "(t4, 1, ⊥)[(t3, 2, 1)[(t2, 1, 2), (t1, 1, 1)]]"
    );
    sync(&mut c3, &mut l3); // e6: t3 sync(l3)

    // e7: t4 sync(l3): t3 progressed (2 -> 3), but its children were
    // attached at t3-times <= 2, all of which t4 already knows about:
    // the child scan stops at t2 and never reaches t1.
    c4.increment(1);
    let stats = c4.join_counted(&l3);
    assert_eq!(stats.examined, 2); // root check + t2, then the break
    assert_eq!(stats.changed, 1);
    assert_eq!(stats.moved, 1);

    // Figure 3 (right): the tree clock of t4 after e7.
    assert_eq!(
        c4.to_string(),
        "(t4, 2, ⊥)[(t3, 3, 2)[(t2, 1, 2), (t1, 1, 1)]]"
    );
    assert_eq!(c4.check_invariants(), Ok(()));
}

// ---------------------------------------------------------------------
// Appendix B: the full 16-event run of Figures 11 and 12
// ---------------------------------------------------------------------

/// Drives Algorithm 3 by hand on the Appendix B trace and checks the
/// intermediate clock trees shown in Figures 11b and 12, including the
/// exact sets of examined/updated nodes of Figure 12.
#[test]
fn appendix_b_example_run() {
    let mut c: Vec<TreeClock> = (0..6).map(|_| TreeClock::new()).collect();
    for i in 1..=5u32 {
        c[i as usize].init_root(t(i));
    }
    let mut l1 = TreeClock::new();
    let mut l2 = TreeClock::new();
    let mut l3 = TreeClock::new();

    let acq = |c: &mut TreeClock, l: &mut TreeClock| {
        c.increment(1);
        c.join_counted(l)
    };
    let rel = |c: &mut TreeClock, l: &mut TreeClock| {
        c.increment(1);
        l.monotone_copy_counted(c)
    };

    acq(&mut c[1], &mut l1); // e1
    rel(&mut c[1], &mut l1); // e2
    assert_eq!(l1.to_string(), "(t1, 2, ⊥)");
    acq(&mut c[4], &mut l2); // e3
    rel(&mut c[4], &mut l2); // e4
    assert_eq!(l2.to_string(), "(t4, 2, ⊥)");
    acq(&mut c[5], &mut l3); // e5
    rel(&mut c[5], &mut l3); // e6
    assert_eq!(l3.to_string(), "(t5, 2, ⊥)");

    acq(&mut c[3], &mut l1); // e7
    assert_eq!(c[3].to_string(), "(t3, 1, ⊥)[(t1, 2, 1)]");
    acq(&mut c[3], &mut l3); // e8
    assert_eq!(c[3].to_string(), "(t3, 2, ⊥)[(t5, 2, 2), (t1, 2, 1)]");
    rel(&mut c[3], &mut l3); // e9
    assert_eq!(l3.to_string(), "(t3, 3, ⊥)[(t5, 2, 2), (t1, 2, 1)]");
    rel(&mut c[3], &mut l1); // e10
    assert_eq!(l1.to_string(), "(t3, 4, ⊥)[(t5, 2, 2), (t1, 2, 1)]");
    acq(&mut c[3], &mut l2); // e11
    assert_eq!(
        c[3].to_string(),
        "(t3, 5, ⊥)[(t4, 2, 5), (t5, 2, 2), (t1, 2, 1)]"
    );
    rel(&mut c[3], &mut l2); // e12
    assert_eq!(
        l2.to_string(),
        "(t3, 6, ⊥)[(t4, 2, 5), (t5, 2, 2), (t1, 2, 1)]"
    );

    acq(&mut c[2], &mut l1); // e13
    assert_eq!(
        c[2].to_string(),
        "(t2, 1, ⊥)[(t3, 4, 1)[(t5, 2, 2), (t1, 2, 1)]]"
    );
    rel(&mut c[2], &mut l1); // e14
    assert_eq!(
        l1.to_string(),
        "(t2, 2, ⊥)[(t3, 4, 1)[(t5, 2, 2), (t1, 2, 1)]]"
    );

    // e15 (Figure 12a): t2 joins l2. The traversal compares the root t3
    // and children t4 (progressed) and t5 (known, attached at t3-time 2
    // <= t2's knowledge 4 of t3 -> break). t1 is never examined. The
    // updated nodes are exactly {t3, t4}.
    let stats = acq(&mut c[2], &mut l2);
    assert_eq!(stats.examined, 3);
    assert_eq!(stats.moved, 2);
    assert_eq!(stats.changed, 2);
    assert_eq!(
        c[2].to_string(),
        "(t2, 3, ⊥)[(t3, 6, 3)[(t4, 2, 5), (t5, 2, 2), (t1, 2, 1)]]"
    );

    // e16 (Figure 12b): l2 monotone-copies t2's clock. Only t2 (the new
    // root) and t3 (l2's old root, repositioned) are touched; t3's
    // subtree moves wholesale.
    let stats = rel(&mut c[2], &mut l2);
    assert_eq!(stats.examined, 2);
    assert_eq!(stats.moved, 2);
    assert_eq!(stats.changed, 1); // only t2's entry changes value
    assert_eq!(
        l2.to_string(),
        "(t2, 4, ⊥)[(t3, 6, 3)[(t4, 2, 5), (t5, 2, 2), (t1, 2, 1)]]"
    );
    assert_eq!(l2.check_invariants(), Ok(()));

    // Final sanity: every clock agrees with its vector-time meaning.
    assert_eq!(c[2].vector_time(), VectorTime::from(vec![0, 2, 4, 6, 2, 2]));
}

// ---------------------------------------------------------------------
// Re-rooting copies
// ---------------------------------------------------------------------

#[test]
fn monotone_copy_rewires_old_root_under_new_root() {
    // lock = (t1, 1); t2 joins it then releases: the lock clock must
    // re-root at t2 and keep t1 as a child.
    let mut lock = TreeClock::new();
    lock.monotone_copy(&rooted(1, 1));
    let mut c2 = rooted(2, 1);
    c2.join(&lock);
    c2.increment(1);
    let stats = lock.monotone_copy_counted(&c2);
    assert_eq!(lock.root_tid(), Some(t(2)));
    assert_eq!(lock.to_string(), "(t2, 2, ⊥)[(t1, 1, 1)]");
    assert_eq!(stats.moved, 2); // t2 (new root) + t1 (old root, rewired)
    assert_eq!(lock.check_invariants(), Ok(()));
}

#[test]
fn monotone_copy_with_same_root_thread_updates_in_place() {
    let mut lock = TreeClock::new();
    let mut c1 = rooted(1, 1);
    lock.monotone_copy(&c1); // lock rooted at t1
    c1.increment(3);
    let stats = lock.monotone_copy_counted(&c1); // same root thread, time 1 -> 4
    assert_eq!(lock.root_tid(), Some(t(1)));
    assert_eq!(lock.get(t(1)), 4);
    assert_eq!(stats.changed, 1);
    assert_eq!(lock.check_invariants(), Ok(()));
}

/// Regression: the gather traversal prunes siblings once a child's
/// attachment clock shows the destination already knew the rest of the
/// list — but the destination's old root may sit *past* that cut when
/// it has not progressed. Star-materialized sources (every child under
/// the root with `aclk = 0`, the shape the hybrid backend and
/// `restore_value` produce) hit this on the very first non-progressed
/// child. The copy must still re-root correctly and keep every entry.
#[test]
fn monotone_copy_star_source_repositions_unreached_old_root() {
    // Source: a star rooted at t9 — t0..t8 attached with aclk 0.
    let mut src_desc = vec![(t(9), 4u32, None)];
    let src_times = [5u32, 7, 7, 7, 7, 7, 7, 7, 6];
    for (i, &clk) in src_times.iter().enumerate() {
        src_desc.push((t(i as u32), clk, Some((t(9), 0))));
    }
    let src = TreeClock::from_structure(&src_desc).unwrap();

    // Destination: a lock clock rooted at t8 that equals the source on
    // t1..t6 and t8 and lags only on t0. The traversal descends into
    // t0, then breaks at t1 (aclk 0 ≤ known 0) — before reaching the
    // old root t8.
    let mut dst_desc = vec![(t(8), 6u32, None)];
    let dst_times = [3u32, 7, 7, 7, 7, 7, 7];
    for (i, &clk) in dst_times.iter().enumerate() {
        dst_desc.push((t(i as u32), clk, Some((t(8), 6 - i as u32))));
    }
    let mut lock = TreeClock::from_structure(&dst_desc).unwrap();

    lock.monotone_copy(&src);
    assert_eq!(lock.root_tid(), Some(t(9)));
    assert_eq!(lock.vector_time(), src.vector_time());
    assert_eq!(lock.check_invariants(), Ok(()));
}

#[test]
fn repeated_lock_handoff_keeps_invariants() {
    // A ring of threads passing one lock around twice.
    let k = 8u32;
    let mut threads: Vec<TreeClock> = (0..k).map(|i| rooted(i, 0)).collect();
    let mut lock = TreeClock::new();
    for round in 0..2 {
        for (i, thread) in threads.iter_mut().enumerate() {
            thread.increment(1);
            thread.join(&lock);
            thread.increment(1);
            lock.monotone_copy(thread);
            assert_eq!(lock.check_invariants(), Ok(()), "round {round}, thread {i}");
        }
    }
    // After the first full round, everyone is (transitively) known.
    let last = &threads[(k - 1) as usize];
    for i in 0..k {
        assert!(last.get(t(i)) > 0, "t{i} unknown to the last thread");
    }
}

// ---------------------------------------------------------------------
// Adaptive copy fallback
// ---------------------------------------------------------------------

/// When most of the tree progressed, `monotone_copy` switches to a flat
/// structural clone; semantics (vector time, invariants) must be
/// indistinguishable from the surgical path.
#[test]
fn adaptive_copy_fallback_is_semantically_transparent() {
    // Target knows a little; source knows a lot more about everyone.
    let mut lock = TreeClock::new();
    lock.monotone_copy(&rooted(0, 1));
    let mut c = rooted(0, 1);
    for i in 1..12u32 {
        c.increment(1);
        c.join(&rooted(i, 7));
    }
    c.increment(1);
    let stats = lock.monotone_copy_counted(&c);
    // Nearly every entry changed -> the fallback path ran; the result
    // must still be exactly `c`'s vector time with valid structure.
    assert!(stats.changed >= 11);
    assert_eq!(lock.vector_time(), c.vector_time());
    assert_eq!(lock.root_tid(), Some(t(0)));
    assert_eq!(lock.check_invariants(), Ok(()));
    // And the work accounting still respects the Theorem 1 budget.
    assert!(stats.examined <= 3 * (stats.changed + 1));
}

/// Small update sets must keep using the surgical path (the clone
/// would examine the whole arena).
#[test]
fn small_copies_stay_surgical() {
    let mut lock = TreeClock::new();
    let mut c = rooted(0, 1);
    for i in 1..32u32 {
        c.increment(1);
        c.join(&rooted(i, 1));
    }
    lock.monotone_copy(&c); // lock now mirrors c
    c.increment(1); // one new local event
    let stats = lock.monotone_copy_counted(&c);
    assert!(
        stats.examined < 8,
        "a one-entry copy must not examine the whole tree (examined {})",
        stats.examined
    );
    assert_eq!(lock.get(t(0)), c.get(t(0)));
    assert_eq!(lock.check_invariants(), Ok(()));
}

// ---------------------------------------------------------------------
// The lazy star (timed dense regime)
// ---------------------------------------------------------------------

/// A clock whose last timed joins were dense: `k` threads each publish
/// through one lock, and thread 0 keeps acquiring it, so its joins move
/// most of the arena and it settles into the lazy star.
fn dense_thread_clock(k: u32) -> TreeClock {
    let mut lock = TreeClock::new();
    let mut hub = rooted(0, 1);
    for i in 1..k {
        let mut c = rooted(i, i);
        c.join(&lock);
        c.increment(1);
        lock.monotone_copy(&c);
        hub.increment(1);
        hub.join(&lock);
    }
    hub
}

#[test]
fn dense_joins_leave_a_lazy_star() {
    let hub = dense_thread_clock(16);
    assert!(hub.star_aclk.is_some(), "dense timed joins must go flat");
    assert_eq!(hub.check_invariants(), Ok(()));
    for i in 1..16 {
        assert!(hub.get(t(i)) > 0);
    }
}

/// The inspection APIs report the implicit star exactly as its
/// materialized form.
#[test]
fn lazy_star_inspects_and_displays_like_its_materialized_form() {
    let lazy = dense_thread_clock(12);
    assert!(lazy.star_aclk.is_some());
    let mut eager = lazy.clone();
    eager.materialize();
    assert!(eager.star_aclk.is_none());

    assert_eq!(lazy.to_string(), eager.to_string());
    assert_eq!(format!("{lazy:?}"), format!("{eager:?}"));
    assert_eq!(lazy.node_count(), eager.node_count());
    assert_eq!(lazy.root_tid(), eager.root_tid());
    for i in 0..14 {
        assert_eq!(lazy.node(t(i)), eager.node(t(i)), "node t{i}");
        assert_eq!(
            lazy.children(t(i)),
            eager.children(t(i)),
            "children of t{i}"
        );
    }
    assert_eq!(lazy.check_invariants(), Ok(()));
    assert_eq!(eager.check_invariants(), Ok(()));
    // The star: every other thread hangs under the root at one aclk.
    let root = lazy.root_tid().unwrap();
    let kids = lazy.children(root);
    assert_eq!(kids.len(), 11);
    let aclk = lazy.node(kids[0]).unwrap().aclk;
    assert!(kids.iter().all(|&c| lazy.node(c).unwrap().aclk == aclk));
}

/// A copy from a lazily flat source adopts its star without writing
/// any links; a later counted operation materializes it first and
/// reports Algorithm 2's figures on the materialized star.
#[test]
fn copies_follow_a_lazy_source_and_counted_ops_materialize() {
    let hub = dense_thread_clock(12);
    let mut lock = TreeClock::new();
    lock.monotone_copy(&hub);
    assert_eq!(lock.star_aclk, hub.star_aclk);
    assert_eq!(lock.vector_time(), hub.vector_time());

    let mut reference = lock.clone();
    reference.materialize();
    let mut c = rooted(20, 3);
    let mut c_ref = c.clone();
    let stats = c.join_counted(&lock);
    assert_eq!(stats, c_ref.join_counted(&reference));
    assert_eq!(c.vector_time(), c_ref.vector_time());
    assert_eq!(c.to_string(), c_ref.to_string());

    // The counted copy into the lazy lock materializes it.
    let mut hub2 = hub.clone();
    hub2.increment(1);
    lock.monotone_copy_counted(&hub2);
    assert!(lock.star_aclk.is_none());
    assert_eq!(lock.vector_time(), hub2.vector_time());
    assert_eq!(lock.check_invariants(), Ok(()));
}

/// Clearing a lazily flat clock resets its stale arena: the recycled
/// clock is empty, valid and reusable under a new root.
#[test]
fn clearing_a_lazy_star_leaves_a_clean_empty_clock() {
    let mut hub = dense_thread_clock(10);
    assert!(hub.star_aclk.is_some());
    hub.clear();
    assert!(hub.is_empty());
    assert_eq!(hub.node_count(), 0);
    assert_eq!(hub.check_invariants(), Ok(()));
    hub.init_root(t(3));
    hub.increment(2);
    hub.join(&rooted(5, 4));
    assert_eq!(hub.vector_time(), VectorTime::from(vec![0, 0, 0, 2, 0, 4]));
    assert_eq!(hub.check_invariants(), Ok(()));
}

mod dense_regime_property {
    use proptest::prelude::*;

    use super::*;
    use crate::VectorClock;

    const LOCKS: usize = 3;
    const VARS: usize = 3;
    /// Threads that do most of the work, so their clocks see enough
    /// dense operations to enter the lazy star and reach the periodic
    /// surgical probes.
    const HOT: usize = 2;

    /// A tree-clock universe and its vector-clock shadow.
    struct Universe {
        threads: Vec<TreeClock>,
        locks: Vec<TreeClock>,
        vars: Vec<TreeClock>,
        shadow_threads: Vec<VectorClock>,
        shadow_locks: Vec<VectorClock>,
        shadow_vars: Vec<VectorClock>,
        went_lazy: usize,
        left_lazy: usize,
    }

    impl Universe {
        fn new(k: usize) -> Self {
            let mut u = Universe {
                threads: (0..k).map(|_| TreeClock::new()).collect(),
                locks: (0..LOCKS).map(|_| TreeClock::new()).collect(),
                vars: (0..VARS).map(|_| TreeClock::new()).collect(),
                shadow_threads: (0..k).map(|_| VectorClock::new()).collect(),
                shadow_locks: (0..LOCKS).map(|_| VectorClock::new()).collect(),
                shadow_vars: (0..VARS).map(|_| VectorClock::new()).collect(),
                went_lazy: 0,
                left_lazy: 0,
            };
            for i in 0..k {
                u.threads[i].init_root(t(i as u32));
                u.shadow_threads[i].init_root(t(i as u32));
            }
            u
        }

        fn tick(&mut self, i: usize) {
            self.threads[i].increment(1);
            self.shadow_threads[i].increment(1);
        }

        /// `acq(l); rel(l)` by thread `i`, each operation timed or
        /// counted.
        fn sync(&mut self, i: usize, l: usize, counted: (bool, bool)) {
            self.tick(i);
            if counted.0 {
                self.threads[i].join_counted(&self.locks[l]);
            } else {
                self.threads[i].join(&self.locks[l]);
            }
            self.shadow_threads[i].join(&self.shadow_locks[l]);
            self.tick(i);
            if counted.1 {
                self.locks[l].monotone_copy_counted(&self.threads[i]);
            } else {
                self.locks[l].monotone_copy(&self.threads[i]);
            }
            self.shadow_locks[l].monotone_copy(&self.shadow_threads[i]);
        }

        /// `w(x)` by thread `i`: a copy that may not be monotone.
        fn write(&mut self, i: usize, x: usize, counted: bool) {
            self.tick(i);
            if counted {
                self.vars[x].copy_check_monotone_counted(&self.threads[i]);
            } else {
                self.vars[x].copy_check_monotone(&self.threads[i]);
            }
            self.shadow_vars[x].copy_check_monotone(&self.shadow_threads[i]);
        }

        /// `r(x)` by thread `i`: a join with the last write.
        fn read(&mut self, i: usize, x: usize, counted: bool) {
            self.tick(i);
            if counted {
                self.threads[i].join_counted(&self.vars[x]);
            } else {
                self.threads[i].join(&self.vars[x]);
            }
            self.shadow_threads[i].join(&self.shadow_vars[x]);
        }

        /// Thread `i` joins thread `j` (a `join(j)` event).
        fn join_thread(&mut self, i: usize, j: usize, counted: bool) {
            if i == j {
                return;
            }
            self.tick(i);
            let (a, b) = if i < j {
                let (lo, hi) = self.threads.split_at_mut(j);
                (&mut lo[i], &hi[0])
            } else {
                let (lo, hi) = self.threads.split_at_mut(i);
                (&mut hi[0], &lo[j])
            };
            if counted {
                a.join_counted(b);
            } else {
                a.join(b);
            }
            let sj = self.shadow_threads[j].clone();
            self.shadow_threads[i].join(&sj);
        }

        /// Threads `start..start + len` (mod k) each sync on lock `l`,
        /// then hot thread `hot` acquires it and learns all of them.
        fn round(&mut self, l: usize, start: usize, len: usize, hot: usize, counted: (bool, bool)) {
            let k = self.threads.len();
            for i in start..start + len {
                self.sync(i % k, l, (false, false));
            }
            self.sync(hot, l, counted);
        }

        fn all(&self) -> impl Iterator<Item = (&TreeClock, &VectorClock)> {
            self.threads
                .iter()
                .zip(&self.shadow_threads)
                .chain(self.locks.iter().zip(&self.shadow_locks))
                .chain(self.vars.iter().zip(&self.shadow_vars))
        }

        fn lazy_count(&self) -> usize {
            self.all().filter(|(c, _)| c.star_aclk.is_some()).count()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Random causally valid executions over 64–300 threads, mixing
        /// timed and counted operations on the same clocks: values
        /// always equal the vector-clock shadow, and every clock —
        /// lazily flat or not — satisfies the invariants once
        /// materialized.
        #[test]
        fn dense_regime_matches_vector_clock_shadow(
            k in 64usize..300,
            steps in prop::collection::vec(
                (0u8..10, 0usize..1000, 0usize..1000, 0u8..8),
                1200..2400,
            ),
        ) {
            let mut u = Universe::new(k);
            // Three rounds in which every thread publishes before each
            // hot thread acquires: three dense joins in a row put the
            // hot threads in the dense regime.
            for _ in 0..3 {
                for hot in 0..HOT {
                    u.round(0, 0, k, hot, (false, false));
                }
            }
            let mut lazy_before = u.lazy_count();
            for &(kind, a, b, flags) in &steps {
                let hot = a % HOT;
                let any = a % k;
                let counted = flags & 1 != 0 && flags & 6 == 0;
                match kind {
                    0..=2 => u.round(b % LOCKS, b, 8 + 8 * usize::from(flags), hot, (counted, flags == 3)),
                    3 | 4 => u.sync(hot, b % LOCKS, (counted, flags == 3)),
                    5 => u.sync(any, b % LOCKS, (false, counted)),
                    6 => u.write(if flags & 2 == 0 { hot } else { any }, b % VARS, counted),
                    7 => u.read(hot, b % VARS, counted),
                    8 => u.join_thread(hot, b % k, counted),
                    _ => {
                        // Force a materialization (a clock leaves the
                        // lazy star) and check the tree.
                        let c = match b % 3 {
                            0 => &mut u.threads[any],
                            1 => &mut u.locks[b % LOCKS],
                            _ => &mut u.vars[b % VARS],
                        };
                        if c.star_aclk.is_some() {
                            u.left_lazy += 1;
                        }
                        c.materialize();
                        prop_assert!(c.star_aclk.is_none());
                        prop_assert_eq!(c.check_invariants(), Ok(()));
                    }
                }
                let lazy_now = u.lazy_count();
                if lazy_now > lazy_before {
                    u.went_lazy += lazy_now - lazy_before;
                }
                lazy_before = lazy_now;
                for (c, shadow) in [
                    (&u.threads[hot], &u.shadow_threads[hot]),
                    (&u.threads[any], &u.shadow_threads[any]),
                    (&u.locks[b % LOCKS], &u.shadow_locks[b % LOCKS]),
                    (&u.vars[b % VARS], &u.shadow_vars[b % VARS]),
                ] {
                    prop_assert_eq!(c.vector_time(), shadow.vector_time());
                }
            }
            for (c, shadow) in u.all() {
                prop_assert_eq!(c.vector_time(), shadow.vector_time());
                let mut m = c.clone();
                m.materialize();
                prop_assert_eq!(m.check_invariants(), Ok(()));
                prop_assert_eq!(m.to_string(), c.to_string());
            }
            prop_assert!(u.went_lazy > 0, "no clock entered the lazy star");
            prop_assert!(u.left_lazy > 0, "no lazy star was materialized");
            prop_assert!(
                u.threads[..HOT].iter().any(|c| c.dense_ops >= super::super::DENSE_PROBE_PERIOD),
                "no hot thread reached a surgical probe"
            );
        }
    }
}
