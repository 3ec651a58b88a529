//! Per-edge butterfly counting (Algorithm 1, lines 7–11).
//!
//! Given an edge `{u, v}` (which may or may not be part of the underlying
//! graph yet), the kernel counts the butterflies that `{u, v}` forms together
//! with three other edges of a *neighborhood view*: for every neighbor `w` of
//! `u` in the view (excluding `v`), every common neighbor `x` of `w` and `v`
//! (excluding `u`) completes the butterfly `{u, v, w, x}` through the edges
//! `{u, w}`, `{w, x}`, `{x, v}`.
//!
//! ABACUS runs this kernel against its bounded sample, the exact oracle runs
//! it against the full graph, FLEET runs it against its reservoir, and
//! PARABACUS runs it against a *versioned* sample view — hence the kernel is
//! generic over the [`NeighborhoodView`] trait instead of a concrete graph
//! type.
//!
//! The *cheapest-side heuristic* (line 7) picks which endpoint's neighborhood
//! to iterate: the one whose neighbors have the smaller cumulative degree, so
//! that the set intersections probe the smaller sets.
//! [`cheapest_side_is_left`] decides that comparison exactly but without
//! always summing both sides in full: it sums the lower-degree endpoint, then
//! stops looking up the other endpoint's neighbor degrees as soon as a lower
//! bound on their sum settles the outcome.  On hub-skewed samples that skips
//! most of the degree lookups, which otherwise cost about as much as the
//! intersections themselves.

use crate::bipartite::BipartiteGraph;
use crate::edge::Edge;
use crate::fxhash::FxHashMap;
use crate::intersect::IntersectionResult;
use crate::vertex::VertexRef;

/// Read-only access to vertex neighborhoods, abstracting over the full graph,
/// the bounded sample, and versioned sample views.
pub trait NeighborhoodView {
    /// Degree of `v` in the view (0 if absent).
    fn view_degree(&self, v: VertexRef) -> usize;

    /// Whether `neighbor` (a vertex on the opposite side) is adjacent to `v`.
    fn view_contains(&self, v: VertexRef, neighbor: u32) -> bool;

    /// Calls `f` for every neighbor of `v` in the view.
    fn view_for_each_neighbor(&self, v: VertexRef, f: &mut dyn FnMut(u32));

    /// Cumulative degree of the neighbors of `v` (default: one pass over the
    /// neighborhood).  This is the quantity compared by the cheapest-side
    /// heuristic.
    fn view_neighbor_degree_sum(&self, v: VertexRef) -> usize {
        let mut sum = 0usize;
        let opposite = v.side.opposite();
        self.view_for_each_neighbor(v, &mut |x| {
            sum += self.view_degree(VertexRef::new(opposite, x));
        });
        sum
    }

    /// Counts `|N(a) ∩ N(b) \ {exclude}|` together with the number of
    /// membership probes performed.
    ///
    /// This is the innermost loop of the butterfly kernel (Algorithm 1,
    /// line 9), so implementors are encouraged to override the default with a
    /// version that resolves both neighborhoods once instead of re-resolving
    /// `a` and `b` for every probe.
    fn view_intersection_excluding(
        &self,
        a: VertexRef,
        b: VertexRef,
        exclude: u32,
    ) -> IntersectionResult {
        let (iterate, probe) = if self.view_degree(a) <= self.view_degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        let mut result = IntersectionResult::default();
        self.view_for_each_neighbor(iterate, &mut |x| {
            if x == exclude {
                return;
            }
            result.comparisons += 1;
            if self.view_contains(probe, x) {
                result.count += 1;
            }
        });
        result
    }
}

/// Outcome of the per-edge counting kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerEdgeCount {
    /// Number of butterflies the edge forms with edges of the view.
    pub butterflies: u64,
    /// Number of membership probes performed inside the set intersections
    /// (the workload unit reported per thread in Fig. 10 of the paper).
    pub comparisons: u64,
}

impl PerEdgeCount {
    /// Adds another per-edge result into this accumulator.
    #[inline]
    pub fn accumulate(&mut self, other: PerEdgeCount) {
        self.butterflies += other.butterflies;
        self.comparisons += other.comparisons;
    }
}

/// Which endpoint's neighborhood the kernel iterates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideChoice {
    /// Use the cheapest-side heuristic from the paper (default).
    Cheapest,
    /// Always iterate the neighbors of the *left* endpoint (ablation).
    IterateLeftNeighbors,
    /// Always iterate the neighbors of the *right* endpoint (ablation).
    IterateRightNeighbors,
}

/// Counts butterflies formed by `edge` with the edges of `view`, using the
/// cheapest-side heuristic.
#[inline]
#[must_use]
pub fn count_butterflies_with_edge<G: NeighborhoodView + ?Sized>(
    view: &G,
    edge: Edge,
) -> PerEdgeCount {
    count_butterflies_with_edge_choice(view, edge, SideChoice::Cheapest)
}

/// Counts butterflies formed by `edge` with the edges of `view` using an
/// explicit side choice (used by the heuristic ablation benchmark).
#[must_use]
pub fn count_butterflies_with_edge_choice<G: NeighborhoodView + ?Sized>(
    view: &G,
    edge: Edge,
    choice: SideChoice,
) -> PerEdgeCount {
    let u = edge.left_ref();
    let v = edge.right_ref();

    let iterate_left_endpoint = match choice {
        SideChoice::IterateLeftNeighbors => true,
        SideChoice::IterateRightNeighbors => false,
        SideChoice::Cheapest => cheapest_side_is_left(view, edge),
    };

    if iterate_left_endpoint {
        count_via_anchor(view, u, v)
    } else {
        count_via_anchor(view, v, u)
    }
}

/// Algorithm 1, line 7: whether the kernel should iterate the neighbors of
/// the *left* endpoint `u` of `edge` rather than those of the right endpoint
/// `v`.
///
/// Returns exactly `view_neighbor_degree_sum(u) < view_neighbor_degree_sum(v)`
/// (so ties iterate `v`), but computes only as much of the two sums as the
/// comparison needs: the endpoint with the lower degree is summed in full,
/// and the other endpoint's neighbor degrees are looked up only until a
/// lower bound on their sum decides the outcome.
#[must_use]
pub fn cheapest_side_is_left<G: NeighborhoodView + ?Sized>(view: &G, edge: Edge) -> bool {
    let u = edge.left_ref();
    let v = edge.right_ref();
    let u_first = view.view_degree(u) <= view.view_degree(v);
    let (first, second) = if u_first { (u, v) } else { (v, u) };
    let first_sum = view.view_neighbor_degree_sum(first);
    if u_first {
        // S(u) < S(v)  ⇔  S(v) ≥ S(u) + 1.
        neighbor_degree_sum_reaches(view, second, first_sum + 1)
    } else {
        // S(u) < S(v)  ⇔  ¬(S(u) ≥ S(v)).
        !neighbor_degree_sum_reaches(view, second, first_sum)
    }
}

/// Whether `view.view_neighbor_degree_sum(v) >= limit`, looking up neighbor
/// degrees only until the answer is certain.
///
/// Every neighbor of `v` is adjacent to `v` in a consistent view, so its
/// degree is at least 1.  The partial sum plus the number of neighbors not
/// yet visited is therefore a lower bound on the full sum; once it reaches
/// `limit` the remaining degree lookups are skipped.  When it never does,
/// the walk ends with the full sum, so the answer is exact either way.
fn neighbor_degree_sum_reaches<G: NeighborhoodView + ?Sized>(
    view: &G,
    v: VertexRef,
    limit: usize,
) -> bool {
    let mut unvisited = view.view_degree(v);
    if unvisited >= limit {
        return true;
    }
    let opposite = v.side.opposite();
    let mut partial = 0usize;
    let mut reached = false;
    view.view_for_each_neighbor(v, &mut |x| {
        if reached {
            return;
        }
        let degree = view.view_degree(VertexRef::new(opposite, x));
        debug_assert!(degree >= 1, "neighbor {x} of {v:?} has degree 0");
        partial += degree;
        unvisited = unvisited.saturating_sub(1);
        reached = partial + unvisited >= limit;
    });
    reached
}

/// Counts `Σ_{w ∈ N(anchor) \ {other}} |N(w) ∩ N(other) \ {anchor}|`.
fn count_via_anchor<G: NeighborhoodView + ?Sized>(
    view: &G,
    anchor: VertexRef,
    other: VertexRef,
) -> PerEdgeCount {
    let mut result = PerEdgeCount::default();
    if view.view_degree(other) == 0 {
        return result;
    }
    let wedge_side = anchor.side.opposite(); // side of w (same side as `other`)
    view.view_for_each_neighbor(anchor, &mut |w_id| {
        if w_id == other.id {
            return;
        }
        // Intersect N(w) with N(other), excluding the anchor itself.
        let w = VertexRef::new(wedge_side, w_id);
        let intersection = view.view_intersection_excluding(w, other, anchor.id);
        result.butterflies += intersection.count;
        result.comparisons += intersection.comparisons;
    });
    result
}

/// Calls `f(x, w)` once for every butterfly `{u, v, x, w}` that
/// `edge = {u, v}` forms with the edges of `view`: `w` ranges over the
/// right-side partners `N(u) \ {v}` and `x` over the left-side partners
/// `N(w) ∩ N(v) \ {u}`, so each butterfly is reported exactly once and the
/// number of callbacks equals
/// [`count_butterflies_with_edge`]`(view, edge).butterflies`.
///
/// This is the enumerating twin of the counting kernel: the delta-maintained
/// views ([`EdgeSupports`], `VertexButterflyCounts`) need the *identities* of
/// the three completing edges `{u, w}`, `{x, w}`, `{x, v}`, not just how many
/// butterflies the mutation touches.  Like the counting kernel it never looks
/// at `edge` itself, so the enumeration is identical whether `edge` is already
/// present in the view or not.
pub fn for_each_butterfly_with_edge<G: NeighborhoodView + ?Sized>(
    view: &G,
    edge: Edge,
    f: &mut dyn FnMut(u32, u32),
) {
    let u = edge.left_ref();
    let v = edge.right_ref();
    if view.view_degree(v) == 0 || view.view_degree(u) == 0 {
        return;
    }
    view.view_for_each_neighbor(u, &mut |w_id| {
        if w_id == edge.right {
            return;
        }
        let w = VertexRef::right(w_id);
        // Iterate the smaller of N(w) and N(v), probe the other; both sets
        // hold left-side vertices, so either order yields the partners `x`.
        let (iterate, probe) = if view.view_degree(w) <= view.view_degree(v) {
            (w, v)
        } else {
            (v, w)
        };
        view.view_for_each_neighbor(iterate, &mut |x| {
            if x != edge.left && view.view_contains(probe, x) {
                f(x, w_id);
            }
        });
    });
}

/// Delta-maintained butterfly support of every live edge.
///
/// The incremental counterpart of [`edge_supports`](crate::bitruss::edge_supports):
/// instead of recomputing the per-edge kernel over the whole graph after every
/// mutation, the map is patched with the butterflies the mutated edge
/// completes (as enumerated by [`for_each_butterfly_with_edge`] against the
/// pre-insert / post-delete graph, the same convention the streaming
/// estimators use).
///
/// Invariant: after a sequence of [`apply_insert`](Self::apply_insert) /
/// [`apply_delete`](Self::apply_delete) calls mirroring the graph's
/// mutations, the map equals `edge_supports` of the current graph bit for
/// bit — including live edges whose support is (or has dropped back to) zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeSupports {
    supports: FxHashMap<Edge, u64>,
}

impl EdgeSupports {
    /// Empty support map (matching an empty graph).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Offline recomputation from scratch: the ground truth the incremental
    /// path must bit-match.
    #[must_use]
    pub fn recompute(graph: &BipartiteGraph) -> Self {
        EdgeSupports {
            supports: crate::bitruss::edge_supports(graph),
        }
    }

    /// Applies the insertion of `edge`, whose enumerated butterfly partners
    /// are `butterflies` (the `(x, w)` pairs reported by
    /// [`for_each_butterfly_with_edge`] against the graph *without* `edge`).
    ///
    /// The new edge enters with support `butterflies.len()`; each completing
    /// edge `{u, w}`, `{x, w}`, `{x, v}` gains one butterfly.
    pub fn apply_insert(&mut self, edge: Edge, butterflies: &[(u32, u32)]) {
        *self.supports.entry(edge).or_insert(0) += butterflies.len() as u64;
        for &(x, w) in butterflies {
            for other in [
                Edge::new(edge.left, w),
                Edge::new(x, w),
                Edge::new(x, edge.right),
            ] {
                *self.supports.entry(other).or_insert(0) += 1;
            }
        }
    }

    /// Applies the deletion of `edge`, whose enumerated butterfly partners are
    /// `butterflies` (reported against the graph *after* removing `edge`).
    ///
    /// The deleted edge leaves the map; each formerly completing edge loses
    /// one butterfly but stays tracked — live edges with support zero are part
    /// of the offline answer too.
    pub fn apply_delete(&mut self, edge: Edge, butterflies: &[(u32, u32)]) {
        self.supports.remove(&edge);
        for &(x, w) in butterflies {
            for other in [
                Edge::new(edge.left, w),
                Edge::new(x, w),
                Edge::new(x, edge.right),
            ] {
                if let Some(support) = self.supports.get_mut(&other) {
                    *support = support.saturating_sub(1);
                }
            }
        }
    }

    /// Support of one edge (`None` if the edge is not live).
    #[must_use]
    pub fn support(&self, edge: Edge) -> Option<u64> {
        self.supports.get(&edge).copied()
    }

    /// The full edge → support map.
    #[must_use]
    pub fn supports(&self) -> &FxHashMap<Edge, u64> {
        &self.supports
    }

    /// Number of live edges tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.supports.len()
    }

    /// `true` when no edges are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.supports.is_empty()
    }

    /// Sum of all supports (four times the global butterfly count).
    #[must_use]
    pub fn total_support(&self) -> u128 {
        // lint:allow(hash-iter): u128 sum is order-insensitive
        self.supports.values().map(|&s| u128::from(s)).sum()
    }

    /// The edge with the largest support, ties broken by the larger edge key
    /// so the answer is deterministic across hash-map iteration orders.
    #[must_use]
    pub fn max_support(&self) -> Option<(Edge, u64)> {
        self.supports
            .iter()
            .map(|(&e, &s)| (e, s))
            .max_by_key(|&(e, s)| (s, e.key()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteGraph;

    fn graph(edges: &[(u32, u32)]) -> BipartiteGraph {
        BipartiteGraph::from_edges(edges.iter().map(|&(l, r)| Edge::new(l, r)))
    }

    #[test]
    fn empty_view_yields_zero() {
        let g = BipartiteGraph::new();
        let r = count_butterflies_with_edge(&g, Edge::new(1, 2));
        assert_eq!(r.butterflies, 0);
        assert_eq!(r.comparisons, 0);
    }

    #[test]
    fn single_butterfly_is_found_for_missing_edge() {
        // Sample holds {u=0-r=10 is the incoming edge}; stored edges complete
        // exactly one butterfly {0, 10, 1, 11}: (0,11), (1,10), (1,11).
        let g = graph(&[(0, 11), (1, 10), (1, 11)]);
        let r = count_butterflies_with_edge(&g, Edge::new(0, 10));
        assert_eq!(r.butterflies, 1);
    }

    #[test]
    fn counts_butterflies_containing_an_existing_edge() {
        // Complete 2x2 biclique: exactly one butterfly; each edge belongs to it.
        let g = graph(&[(0, 10), (0, 11), (1, 10), (1, 11)]);
        for &(l, r) in &[(0, 10), (0, 11), (1, 10), (1, 11)] {
            let c = count_butterflies_with_edge(&g, Edge::new(l, r));
            assert_eq!(c.butterflies, 1, "edge ({l},{r})");
        }
    }

    #[test]
    fn complete_biclique_counts() {
        // K_{3,3}: every new edge {u, v} with u,v fresh vertices forms no
        // butterfly, while an edge inside the biclique participates in
        // (3-1)*(3-1) = 4 butterflies.
        let mut edges = Vec::new();
        for l in 0..3u32 {
            for r in 10..13u32 {
                edges.push((l, r));
            }
        }
        let g = graph(&edges);
        let c = count_butterflies_with_edge(&g, Edge::new(0, 10));
        assert_eq!(c.butterflies, 4);
        let fresh = count_butterflies_with_edge(&g, Edge::new(7, 20));
        assert_eq!(fresh.butterflies, 0);
    }

    #[test]
    fn degenerate_wedges_are_excluded() {
        // Edge (0,10) plus a path 0-11, 1-11, 1-10.  The incoming edge (0,11)
        // must not count the wedge through its own endpoints twice.
        let g = graph(&[(0, 10), (1, 10), (1, 11)]);
        // Incoming edge (0, 11): butterflies {0,11,1,10} requires (0,10),(1,10),(1,11) — all present.
        let c = count_butterflies_with_edge(&g, Edge::new(0, 11));
        assert_eq!(c.butterflies, 1);
        // Incoming edge (0, 10) is already present; other butterfly edges absent.
        let c2 = count_butterflies_with_edge(&g, Edge::new(0, 10));
        assert_eq!(c2.butterflies, 0);
    }

    #[test]
    fn running_example_from_the_paper() {
        // Figure 1b: sample edges (black + red in the figure): v-l1, v-l2,
        // u-r2, l1-r2, plus extra sample edges l2-r1, l3-r3, l4-r4.
        // Incoming edge {u, v} forms exactly one butterfly {u, v, l1, r2}.
        // Encode: left partition = {l1=1, l2=2, l3=3, l4=4, u=5},
        //         right partition = {r1=11, r2=12, r3=13, r4=14, v=15}.
        let g = graph(&[
            (1, 15),
            (2, 15),
            (5, 12),
            (1, 12),
            (2, 11),
            (3, 13),
            (4, 14),
        ]);
        let c = count_butterflies_with_edge(&g, Edge::new(5, 15));
        assert_eq!(c.butterflies, 1);
    }

    #[test]
    fn all_side_choices_agree_on_the_count() {
        let g = graph(&[
            (0, 10),
            (0, 11),
            (0, 12),
            (1, 10),
            (1, 11),
            (2, 11),
            (2, 12),
            (3, 12),
            (3, 10),
        ]);
        for &(l, r) in &[(0, 10), (1, 12), (2, 10), (3, 11), (4, 13)] {
            let e = Edge::new(l, r);
            let a = count_butterflies_with_edge_choice(&g, e, SideChoice::Cheapest).butterflies;
            let b = count_butterflies_with_edge_choice(&g, e, SideChoice::IterateLeftNeighbors)
                .butterflies;
            let c = count_butterflies_with_edge_choice(&g, e, SideChoice::IterateRightNeighbors)
                .butterflies;
            assert_eq!(a, b, "edge ({l},{r})");
            assert_eq!(b, c, "edge ({l},{r})");
        }
    }

    #[test]
    fn cheapest_side_never_does_more_probes_than_both_fixed_sides_min() {
        let g = graph(&[
            (0, 10),
            (0, 11),
            (0, 12),
            (0, 13),
            (1, 10),
            (2, 10),
            (3, 10),
            (1, 11),
            (2, 12),
        ]);
        let e = Edge::new(0, 10);
        let cheap = count_butterflies_with_edge_choice(&g, e, SideChoice::Cheapest).comparisons;
        let left =
            count_butterflies_with_edge_choice(&g, e, SideChoice::IterateLeftNeighbors).comparisons;
        let right = count_butterflies_with_edge_choice(&g, e, SideChoice::IterateRightNeighbors)
            .comparisons;
        assert!(cheap <= left.max(right));
    }

    #[test]
    fn neighbor_degree_sum_default_impl() {
        let g = graph(&[(0, 10), (0, 11), (1, 10)]);
        // Neighbors of L0 are R10 (deg 2) and R11 (deg 1) => 3.
        assert_eq!(g.view_neighbor_degree_sum(VertexRef::left(0)), 3);
        // Neighbors of R10 are L0 (deg 2) and L1 (deg 1) => 3.
        assert_eq!(g.view_neighbor_degree_sum(VertexRef::right(10)), 3);
        assert_eq!(g.view_neighbor_degree_sum(VertexRef::left(42)), 0);
    }

    fn enumerate(g: &BipartiteGraph, edge: Edge) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for_each_butterfly_with_edge(g, edge, &mut |x, w| pairs.push((x, w)));
        pairs
    }

    #[test]
    fn enumeration_agrees_with_the_counting_kernel() {
        let g = graph(&[
            (0, 10),
            (0, 11),
            (0, 12),
            (1, 10),
            (1, 11),
            (2, 11),
            (2, 12),
            (3, 12),
            (3, 10),
        ]);
        for l in 0..5u32 {
            for r in 10..14u32 {
                let e = Edge::new(l, r);
                let pairs = enumerate(&g, e);
                let counted = count_butterflies_with_edge(&g, e).butterflies;
                assert_eq!(pairs.len() as u64, counted, "edge ({l},{r})");
                // Each reported pair completes a genuine butterfly, and no
                // butterfly is reported twice.
                let mut seen = pairs.clone();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), pairs.len(), "edge ({l},{r})");
                for (x, w) in pairs {
                    assert_ne!(x, l);
                    assert_ne!(w, r);
                    assert!(g.has_edge(Edge::new(l, w)), "edge ({l},{r}) via {x},{w}");
                    assert!(g.has_edge(Edge::new(x, w)), "edge ({l},{r}) via {x},{w}");
                    assert!(g.has_edge(Edge::new(x, r)), "edge ({l},{r}) via {x},{w}");
                }
            }
        }
    }

    #[test]
    fn edge_supports_track_inserts_and_deletes_bit_exactly() {
        let script: &[(u32, u32)] = &[
            (0, 10),
            (0, 11),
            (1, 10),
            (1, 11),
            (2, 11),
            (2, 12),
            (0, 12),
            (3, 12),
            (3, 10),
        ];
        let mut g = BipartiteGraph::new();
        let mut supports = EdgeSupports::new();
        for &(l, r) in script {
            let e = Edge::new(l, r);
            let pairs = enumerate(&g, e); // pre-insert view
            supports.apply_insert(e, &pairs);
            g.insert_edge(e);
            assert_eq!(supports, EdgeSupports::recompute(&g), "after +({l},{r})");
        }
        for &(l, r) in &[(1, 11), (0, 10), (2, 12)] {
            let e = Edge::new(l, r);
            g.delete_edge(e);
            let pairs = enumerate(&g, e); // post-delete view
            supports.apply_delete(e, &pairs);
            assert_eq!(supports, EdgeSupports::recompute(&g), "after -({l},{r})");
        }
        assert_eq!(supports.len(), g.num_edges());
        assert_eq!(
            supports.total_support() % 4,
            0,
            "every butterfly is counted on four edges"
        );
    }

    #[test]
    fn edge_supports_accessors() {
        let g = graph(&[(0, 10), (0, 11), (1, 10), (1, 11)]);
        let supports = EdgeSupports::recompute(&g);
        assert!(!supports.is_empty());
        assert_eq!(supports.len(), 4);
        assert_eq!(supports.support(Edge::new(0, 10)), Some(1));
        assert_eq!(supports.support(Edge::new(7, 7)), None);
        assert_eq!(supports.total_support(), 4);
        let (edge, support) = supports.max_support().unwrap();
        assert_eq!(support, 1);
        // Deterministic tie-break: the largest edge key wins.
        assert_eq!(edge, Edge::new(1, 11));
    }
}
