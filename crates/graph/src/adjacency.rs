//! Neighbor-set container used by the dynamic graph and the graph sample.
//!
//! Degree distributions of real bipartite graphs are heavily skewed: most
//! vertices have a handful of neighbors while a few hubs have thousands.
//! [`AdjacencySet`] therefore uses a hybrid representation:
//!
//! * small sets are an unsorted `Vec<u32>` (linear membership probes are
//!   faster than hashing below a few dozen elements and use a fraction of the
//!   memory),
//! * once a set grows beyond [`SMALL_THRESHOLD`] elements it is promoted to an
//!   [`FxHashSet`] with O(1) expected membership.
//!
//! The container never stores duplicates and supports O(1) expected insert,
//! remove and membership operations — exactly what the per-edge butterfly
//! counting kernel needs.
//!
//! Large sets additionally keep a sorted copy of their elements
//! ([`LargeSet::sorted`]) so that the intersection kernels can switch to a
//! cache-friendly sorted-merge when both operands are hubs — the hot case of
//! the per-edge counting phase.  The copy is built on the first merge and from
//! then on updated in place by every insert and remove, so a hub that keeps
//! changing between merges pays one binary search and one shift per mutation
//! instead of a full re-sort.

use crate::fxhash::FxHashSet;
use std::collections::hash_set;
use std::sync::OnceLock;

/// Maximum number of neighbors kept in the vector representation.
///
/// Chosen by the `adjacency_spill` micro-bench sweep (see
/// [`crate::intersect::DEFAULT_ADJ_SPILL_THRESHOLD`] for the numbers): larger
/// spill points win on small sample budgets but regress the paired
/// counting-phase overhead at the reference-benchmark scale, so 32 is the
/// default and [`crate::intersect::KernelTuning`] exposes the knob.
pub const SMALL_THRESHOLD: usize = 32;

/// Capacity reserved by the first insertion into an empty `Small` vector.
///
/// A fresh `Vec<u32>` would otherwise crawl through the 4 → 8 reallocation
/// ladder while a vertex accumulates its first neighbors — measurable churn
/// in the insert-heavy phase of a stream, where every new vertex takes this
/// path.  32 bytes per active vertex buys the whole `Small` range at most
/// two grow steps (8 → 16 → 32).
pub const SMALL_PRESIZE: usize = 8;

/// The hash-backed representation of a large neighbor set, plus a lazily
/// built sorted copy of the elements.
///
/// The sorted copy feeds the sorted-merge intersection kernel
/// ([`crate::intersect::intersection_count`] and friends).  It is built on
/// first use — typically during a counting phase, when the owning graph is
/// immutable — and kept current afterwards: a successful insert or remove
/// patches it in place, so it never goes stale.  Only [`AdjacencySet::clear`]
/// drops it.  Building is thread-safe ([`OnceLock`]), which matters because
/// PARABACUS worker threads intersect shared, frozen samples concurrently;
/// patching needs `&mut self`, so it never races a build.
#[derive(Debug, Clone, Default)]
pub struct LargeSet {
    set: FxHashSet<u32>,
    sorted: OnceLock<Vec<u32>>,
}

impl LargeSet {
    fn with_capacity(capacity: usize) -> Self {
        LargeSet {
            set: crate::fxhash::fx_hashset_with_capacity(capacity),
            sorted: OnceLock::new(),
        }
    }

    /// The elements in ascending order, built on first use and kept current
    /// by later mutations.
    #[must_use]
    pub fn sorted(&self) -> &[u32] {
        self.sorted.get_or_init(|| {
            let mut v: Vec<u32> = self.set.iter().copied().collect();
            v.sort_unstable();
            v
        })
    }

    /// Length of the resident sorted copy, or `None` when it has not been
    /// built since the set was promoted or last cleared.  Peeking never
    /// builds the copy — the estimators use this for honest memory
    /// accounting without inflating the very footprint they are measuring.
    #[must_use]
    pub fn sorted_cache_len(&self) -> Option<usize> {
        self.sorted.get().map(Vec::len)
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// O(1) expected membership probe.
    #[must_use]
    pub fn contains(&self, x: u32) -> bool {
        self.set.contains(&x)
    }

    /// Records a successful insert of `x` in the sorted copy, if built.
    fn sorted_insert(&mut self, x: u32) {
        if let Some(sorted) = self.sorted.get_mut() {
            let pos = sorted.partition_point(|&y| y < x);
            sorted.insert(pos, x);
        }
    }

    /// Records a successful removal of `x` in the sorted copy, if built.
    fn sorted_remove(&mut self, x: u32) {
        if let Some(sorted) = self.sorted.get_mut() {
            let pos = sorted.partition_point(|&y| y < x);
            debug_assert_eq!(sorted.get(pos), Some(&x));
            sorted.remove(pos);
        }
    }
}

/// A set of neighbor identifiers (`u32`) with a size-adaptive representation.
///
/// ```
/// use abacus_graph::adjacency::AdjacencySet;
///
/// let mut neighbors = AdjacencySet::new();
/// assert!(neighbors.insert(7));
/// assert!(!neighbors.insert(7)); // duplicates are rejected
/// assert!(neighbors.contains(7));
/// assert!(neighbors.remove(7));
/// assert!(neighbors.is_empty());
///
/// // Collecting promotes past the small-vector threshold automatically.
/// let hub: AdjacencySet = (0..100u32).collect();
/// assert_eq!(hub.len(), 100);
/// assert_eq!(hub.to_sorted_vec().first(), Some(&0));
/// ```
#[derive(Debug, Clone)]
pub enum AdjacencySet {
    /// Unsorted vector representation for small sets.
    Small(Vec<u32>),
    /// Hash-set representation for large sets.
    ///
    /// Boxed so the enum stays pointer-sized-ish (32 bytes instead of 64):
    /// the sample store and the dynamic graph keep one `AdjacencySet` per
    /// active vertex in a dense slab, and most vertices are `Small`, so the
    /// rare hub should not double every slot.  Hubs pay one extra pointer
    /// chase on top of the hash probe they already do.
    Large(Box<LargeSet>),
}

impl Default for AdjacencySet {
    fn default() -> Self {
        AdjacencySet::Small(Vec::new())
    }
}

impl AdjacencySet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set able to hold `capacity` elements without
    /// reallocating (chooses the representation accordingly).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= SMALL_THRESHOLD {
            AdjacencySet::Small(Vec::with_capacity(capacity))
        } else {
            AdjacencySet::Large(Box::new(LargeSet::with_capacity(capacity)))
        }
    }

    /// Number of neighbors.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            AdjacencySet::Small(v) => v.len(),
            AdjacencySet::Large(s) => s.len(),
        }
    }

    /// Whether the set is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership probe.
    #[inline]
    #[must_use]
    pub fn contains(&self, x: u32) -> bool {
        match self {
            AdjacencySet::Small(v) => v.contains(&x),
            AdjacencySet::Large(s) => s.contains(x),
        }
    }

    /// Inserts `x`; returns `true` if it was not already present.
    pub fn insert(&mut self, x: u32) -> bool {
        self.insert_tuned(x, SMALL_THRESHOLD, SMALL_PRESIZE)
    }

    /// Inserts `x` with explicit layout knobs: `spill_threshold` is the
    /// inline-vector length at which the set spills to the hash-backed
    /// representation, `first_reserve` the capacity reserved by the first
    /// insertion into an empty inline vector.
    ///
    /// The knobs only move memory layout and wall time: membership, counts,
    /// probe-model `comparisons`, and iteration *sets* (not order) are
    /// identical for every setting, so tuning them can never change a
    /// reported number.  A `spill_threshold` of zero is treated as one.
    pub fn insert_tuned(&mut self, x: u32, spill_threshold: usize, first_reserve: usize) -> bool {
        match self {
            AdjacencySet::Small(v) => {
                if v.contains(&x) {
                    return false;
                }
                let spill = spill_threshold.max(1);
                if v.len() >= spill {
                    let mut large = LargeSet::with_capacity(spill * 2);
                    large.set.extend(v.iter().copied());
                    large.set.insert(x);
                    *self = AdjacencySet::Large(Box::new(large));
                } else {
                    if v.capacity() == 0 && first_reserve > 0 {
                        v.reserve(first_reserve);
                    }
                    v.push(x);
                }
                true
            }
            AdjacencySet::Large(s) => {
                let inserted = s.set.insert(x);
                if inserted {
                    s.sorted_insert(x);
                }
                inserted
            }
        }
    }

    /// Removes `x`; returns `true` if it was present.
    pub fn remove(&mut self, x: u32) -> bool {
        match self {
            AdjacencySet::Small(v) => {
                if let Some(pos) = v.iter().position(|&y| y == x) {
                    v.swap_remove(pos);
                    true
                } else {
                    false
                }
            }
            AdjacencySet::Large(s) => {
                let removed = s.set.remove(&x);
                if removed {
                    s.sorted_remove(x);
                }
                removed
            }
        }
    }

    /// Removes all elements, keeping the allocation.
    pub fn clear(&mut self) {
        match self {
            AdjacencySet::Small(v) => v.clear(),
            AdjacencySet::Large(s) => {
                s.set.clear();
                s.sorted.take();
            }
        }
    }

    /// Iterates over the neighbors in unspecified order.
    pub fn iter(&self) -> AdjacencyIter<'_> {
        match self {
            AdjacencySet::Small(v) => AdjacencyIter::Small(v.iter()),
            // lint:allow(hash-iter): this IS the documented unordered primitive; order-sensitive callers go through sorted()
            AdjacencySet::Large(s) => AdjacencyIter::Large(s.set.iter()),
        }
    }

    /// Forces the hash-backed [`Large`](AdjacencySet::Large) representation,
    /// regardless of the current size.
    ///
    /// The representation is history-dependent (a set that ever crossed
    /// [`SMALL_THRESHOLD`] stays `Large` even after shrinking), so rebuilding
    /// a graph from its surviving edges alone would not reproduce it.  The
    /// durable-state codecs record which sets are `Large` and call this after
    /// reinsertion, restoring the exact representation — and with it the
    /// kernel choices and memory accounting — of the checkpointed run.
    /// Idempotent; a no-op on sets that are already `Large`.
    pub fn promote(&mut self) {
        if let AdjacencySet::Small(v) = self {
            let mut large = LargeSet::with_capacity(v.len().max(SMALL_THRESHOLD * 2));
            large.set.extend(v.iter().copied());
            *self = AdjacencySet::Large(Box::new(large));
        }
    }

    /// The large-set representation, if this set has been promoted.
    ///
    /// The intersection kernels use this to reach the resident sorted copy
    /// without exposing the representation choice anywhere else.
    #[must_use]
    pub fn as_large(&self) -> Option<&LargeSet> {
        match self {
            AdjacencySet::Small(_) => None,
            AdjacencySet::Large(s) => Some(s),
        }
    }

    /// Returns the neighbors as a freshly sorted vector (test / debugging aid
    /// and input for the sorted-merge intersection ablation).
    #[must_use]
    pub fn to_sorted_vec(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.iter().collect();
        v.sort_unstable();
        v
    }

    /// Approximate heap footprint in bytes (used for memory accounting).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match self {
            AdjacencySet::Small(v) => v.capacity() * size_of::<u32>(),
            // A hashbrown bucket stores the element plus one control byte and
            // the table is at most ~8/7 over-allocated; 8 bytes/entry of
            // capacity is a serviceable estimate for accounting purposes.
            // The sorted copy is accounted only while resident.
            AdjacencySet::Large(s) => {
                size_of::<LargeSet>()
                    + s.set.capacity() * 8
                    + s.sorted
                        .get()
                        .map_or(0, |v| v.capacity() * size_of::<u32>())
            }
        }
    }
}

impl FromIterator<u32> for AdjacencySet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut set = AdjacencySet::new();
        for x in iter {
            set.insert(x);
        }
        set
    }
}

impl<'a> IntoIterator for &'a AdjacencySet {
    type Item = u32;
    type IntoIter = AdjacencyIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the elements of an [`AdjacencySet`].
pub enum AdjacencyIter<'a> {
    /// Iterating the vector representation.
    Small(std::slice::Iter<'a, u32>),
    /// Iterating the hash-set representation.
    Large(hash_set::Iter<'a, u32>),
}

impl Iterator for AdjacencyIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            AdjacencyIter::Small(it) => it.next().copied(),
            AdjacencyIter::Large(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            AdjacencyIter::Small(it) => it.size_hint(),
            AdjacencyIter::Large(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for AdjacencyIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn first_insert_presizes_the_small_vector() {
        let mut s = AdjacencySet::new();
        assert!(s.insert(1));
        let AdjacencySet::Small(v) = &s else {
            panic!("one element must stay Small");
        };
        assert!(v.capacity() >= SMALL_PRESIZE);
    }

    #[test]
    fn sorted_cache_len_peeks_without_building() {
        let s: AdjacencySet = (0..80u32).collect();
        let large = s.as_large().expect("80 elements must be Large");
        assert_eq!(large.sorted_cache_len(), None);
        let _ = large.sorted();
        assert_eq!(large.sorted_cache_len(), Some(80));
    }

    #[test]
    fn insert_contains_remove_small() {
        let mut s = AdjacencySet::new();
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(9));
        assert_eq!(s.len(), 2);
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.len(), 1);
        assert!(matches!(s, AdjacencySet::Small(_)));
    }

    #[test]
    fn promotes_to_large_beyond_threshold() {
        let mut s = AdjacencySet::new();
        for i in 0..(SMALL_THRESHOLD as u32 + 5) {
            assert!(s.insert(i));
        }
        assert!(matches!(s, AdjacencySet::Large(_)));
        assert_eq!(s.len(), SMALL_THRESHOLD + 5);
        for i in 0..(SMALL_THRESHOLD as u32 + 5) {
            assert!(s.contains(i));
        }
        assert!(!s.contains(SMALL_THRESHOLD as u32 + 5));
    }

    #[test]
    fn promotion_preserves_all_elements_and_uniqueness() {
        let mut s = AdjacencySet::new();
        // Insert duplicates around the promotion boundary.
        for i in 0..(SMALL_THRESHOLD as u32 * 2) {
            s.insert(i % (SMALL_THRESHOLD as u32 + 3));
        }
        let sorted = s.to_sorted_vec();
        let expected: Vec<u32> = (0..(SMALL_THRESHOLD as u32 + 3)).collect();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn promote_forces_large_and_is_idempotent() {
        let mut s: AdjacencySet = (0..5u32).collect();
        assert!(matches!(s, AdjacencySet::Small(_)));
        s.promote();
        assert!(matches!(s, AdjacencySet::Large(_)));
        assert_eq!(s.to_sorted_vec(), vec![0, 1, 2, 3, 4]);
        // A second promotion (and promoting an organically Large set) is a
        // no-op that keeps the elements intact.
        s.promote();
        assert_eq!(s.len(), 5);
        let mut hub: AdjacencySet = (0..100u32).collect();
        hub.promote();
        assert_eq!(hub.len(), 100);
    }

    #[test]
    fn with_capacity_picks_representation() {
        assert!(matches!(
            AdjacencySet::with_capacity(4),
            AdjacencySet::Small(_)
        ));
        assert!(matches!(
            AdjacencySet::with_capacity(SMALL_THRESHOLD * 4),
            AdjacencySet::Large(_)
        ));
    }

    #[test]
    fn clear_keeps_working() {
        let mut s: AdjacencySet = (0..10u32).collect();
        s.clear();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iterator_yields_each_element_once() {
        let s: AdjacencySet = (0..100u32).collect();
        let seen: BTreeSet<u32> = s.iter().collect();
        assert_eq!(seen.len(), 100);
        assert_eq!(s.iter().len(), 100);
    }

    #[test]
    fn sorted_cache_is_built_lazily_and_kept_current_by_mutations() {
        let mut s: AdjacencySet = (0..80u32).rev().collect();
        let large = s.as_large().expect("80 elements must be Large");
        assert_eq!(large.sorted_cache_len(), None);
        let expected: Vec<u32> = (0..80).collect();
        assert_eq!(large.sorted(), &expected[..]);

        // Successful mutations patch the resident copy instead of dropping it.
        assert!(s.insert(200));
        assert!(s.insert(40_000));
        assert!(s.remove(0));
        assert!(s.remove(41));
        let expected: Vec<u32> = (1..80).filter(|&x| x != 41).chain([200, 40_000]).collect();
        assert_eq!(
            s.as_large().unwrap().sorted_cache_len(),
            Some(expected.len())
        );
        assert_eq!(s.as_large().unwrap().sorted(), &expected[..]);

        // Failed mutations leave the copy untouched.
        let before = s.as_large().unwrap().sorted().as_ptr();
        assert!(!s.insert(200));
        assert!(!s.remove(0));
        assert_eq!(s.as_large().unwrap().sorted().as_ptr(), before);
        assert_eq!(s.as_large().unwrap().sorted(), &expected[..]);

        // Clearing drops the copy; the next use rebuilds it.
        s.clear();
        assert_eq!(s.as_large().unwrap().sorted_cache_len(), None);
        assert!(s.insert(7));
        assert_eq!(s.as_large().unwrap().sorted(), &[7]);

        assert!(AdjacencySet::new().as_large().is_none());
    }

    #[test]
    fn heap_bytes_is_monotone_in_size_class() {
        let small: AdjacencySet = (0..4u32).collect();
        let large: AdjacencySet = (0..1000u32).collect();
        assert!(small.heap_bytes() < large.heap_bytes());
    }

    proptest! {
        /// The hybrid set must behave exactly like a reference BTreeSet under
        /// an arbitrary interleaving of inserts and removes.
        #[test]
        fn behaves_like_reference_set(ops in proptest::collection::vec((any::<bool>(), 0u32..200), 0..500)) {
            let mut sut = AdjacencySet::new();
            let mut reference = BTreeSet::new();
            for (is_insert, x) in ops {
                if is_insert {
                    prop_assert_eq!(sut.insert(x), reference.insert(x));
                } else {
                    prop_assert_eq!(sut.remove(x), reference.remove(&x));
                }
                prop_assert_eq!(sut.len(), reference.len());
            }
            let got = sut.to_sorted_vec();
            let want: Vec<u32> = reference.into_iter().collect();
            prop_assert_eq!(got, want);
        }

        /// A hub's sorted copy, once built, equals `to_sorted_vec()` after
        /// any interleaving of inserts and removes — it is patched in place,
        /// never left stale.  The copy is built at an arbitrary point of the
        /// sequence, so ops before it exercise the not-yet-built path.
        #[test]
        fn resident_sorted_copy_tracks_mutations(
            ops in proptest::collection::vec((any::<bool>(), 0u32..300), 0..400),
            build_at in 0usize..400,
        ) {
            let mut sut: AdjacencySet = (0..100u32).map(|x| x * 3).collect();
            for (i, (is_insert, x)) in ops.into_iter().enumerate() {
                if i == build_at {
                    let _ = sut.as_large().expect("hub stays Large").sorted();
                }
                if is_insert {
                    sut.insert(x);
                } else {
                    sut.remove(x);
                }
                let large = sut.as_large().expect("hub stays Large");
                if i >= build_at {
                    prop_assert_eq!(large.sorted_cache_len(), Some(sut.len()));
                    prop_assert_eq!(large.sorted(), &sut.to_sorted_vec()[..]);
                } else {
                    prop_assert_eq!(large.sorted_cache_len(), None);
                }
            }
        }
    }
}
