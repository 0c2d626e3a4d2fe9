//! Hash-based `Refine` with reference-identical semantics.
//!
//! The paper's open problem #1 asks whether `Classifier`'s `O(n³Δ)` can be
//! improved. The expensive part is `Refine`: comparing every node against
//! every representative costs `O(n²Δ)` per iteration. Hashing the key
//! `(old class, label)` makes that `O(nΔ)` expected — and by seeding the
//! table with the surviving representatives and processing nodes in the
//! fixed order, the resulting class *numbering* (not just the partition)
//! matches the reference exactly, so the canonical lists compiled from
//! either engine are identical. The property suite asserts this.
//!
//! The pass is allocation-conscious: old/new class vectors are
//! double-buffered inside `RefState` (one `mem::swap`, no clone), and
//! `refine_fast_by` is generic over the per-node key so the
//! [`ClassifierWorkspace`](crate::workspace::ClassifierWorkspace) can
//! refine on interned `u32` label ids through a *persistent* hash table —
//! a warm pass performs zero heap allocation.

use std::hash::Hash;

use radio_util::FxHashMap;

use crate::reference::RefState;
#[cfg(test)]
use crate::triple::Label;

/// One hash-based `Refine` pass, semantically identical to
/// [`crate::reference`]'s. Keys borrow the labels slice — hashing a key
/// costs a walk over at most Δ triples but never a clone or allocation.
/// Production code refines through [`refine_fast_by`] on interned ids;
/// this label-keyed form is the differential harness pinning the hash
/// refine against the paper-literal one.
#[cfg(test)]
pub(crate) fn refine_fast(state: &mut RefState, labels: &[Label]) {
    let mut table: FxHashMap<(u32, &Label), u32> = FxHashMap::default();
    refine_fast_by(state, |v| &labels[v], &mut table);
}

/// The generic core of the hash refine: one pass keyed on
/// `(old class, key_of(v))`, reusing `table`'s capacity across calls
/// (callers clear-by-contract here, so a persistent table never
/// reallocates once warmed).
///
/// Semantics pinned to [`crate::reference::refine_reference`]: the table
/// is seeded with the surviving representatives (class ids stay stable)
/// and nodes are processed in ascending order, so fresh classes are
/// numbered exactly as the paper's mid-loop representatives would number
/// them.
pub(crate) fn refine_fast_by<K: Hash + Eq>(
    state: &mut RefState,
    key_of: impl Fn(usize) -> K,
    table: &mut FxHashMap<(u32, K), u32>,
) {
    state.begin_pass();
    let n = state.prev.len();

    table.clear();
    table.reserve(state.num_classes as usize + 8);
    for k in 1..=state.num_classes {
        let rep = state.reps[(k - 1) as usize] as usize;
        let prev = table.insert((state.prev[rep], key_of(rep)), k);
        debug_assert!(prev.is_none(), "representatives must have distinct keys");
    }

    for v in 0..n {
        match table.entry((state.prev[v], key_of(v))) {
            std::collections::hash_map::Entry::Occupied(e) => {
                state.classes[v] = *e.get();
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                state.num_classes += 1;
                e.insert(state.num_classes);
                state.classes[v] = state.num_classes;
                state.reps.push(v as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::refine_reference;
    use crate::triple::{Multi, Triple};

    fn lbl(a: u32, b: u64) -> Label {
        Label::from_triples(vec![Triple::new(a, b, Multi::One)])
    }

    #[test]
    fn agrees_with_reference_on_fixed_case() {
        let labels = vec![lbl(1, 1), lbl(1, 5), lbl(1, 5), lbl(2, 1), Label::empty()];
        let mut a = RefState::initial(5);
        let mut b = RefState::initial(5);
        refine_reference(&mut a, &labels);
        refine_fast(&mut b, &labels);
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.num_classes, b.num_classes);
        assert_eq!(a.reps, b.reps);
    }

    #[test]
    fn agrees_with_reference_across_random_sequences() {
        use radio_util::rng::rng_from;
        use rand::Rng;
        let mut rng = rng_from(123);
        for _ in 0..50 {
            let n = rng.random_range(1..20usize);
            let mut a = RefState::initial(n);
            let mut b = RefState::initial(n);
            // several refinement rounds with random labels
            for _ in 0..4 {
                let labels: Vec<Label> = (0..n)
                    .map(|_| {
                        if rng.random_bool(0.2) {
                            Label::empty()
                        } else {
                            lbl(rng.random_range(1..4), rng.random_range(1..4))
                        }
                    })
                    .collect();
                refine_reference(&mut a, &labels);
                refine_fast(&mut b, &labels);
                assert_eq!(a.classes, b.classes);
                assert_eq!(a.num_classes, b.num_classes);
                assert_eq!(a.reps, b.reps);
            }
        }
    }

    #[test]
    fn double_buffer_preserves_previous_partition() {
        // After a pass, `prev` must hold exactly the pre-pass classes (the
        // canonical-list sinks read old classes from it).
        let mut st = RefState::initial(4);
        let l1 = vec![lbl(1, 1), lbl(1, 2), lbl(1, 1), lbl(1, 2)];
        refine_fast(&mut st, &l1);
        assert_eq!(st.prev, vec![1, 1, 1, 1]);
        assert_eq!(st.classes, vec![1, 2, 1, 2]);
        let l2 = vec![lbl(1, 1), lbl(1, 2), lbl(9, 9), lbl(1, 2)];
        refine_fast(&mut st, &l2);
        assert_eq!(st.prev, vec![1, 2, 1, 2]);
        assert_eq!(st.classes, vec![1, 2, 3, 2]);
    }

    #[test]
    fn reset_recycles_state_to_initial() {
        let mut st = RefState::initial(5);
        let labels = vec![lbl(1, 1), lbl(1, 2), lbl(1, 3), lbl(1, 4), lbl(1, 5)];
        refine_fast(&mut st, &labels);
        assert_eq!(st.num_classes, 5);
        st.reset(3);
        assert_eq!(st.classes, vec![1, 1, 1]);
        assert_eq!(st.prev, vec![1, 1, 1]);
        assert_eq!(st.num_classes, 1);
        assert_eq!(st.reps, vec![0]);
    }
}
