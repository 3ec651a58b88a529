//! The early-exit cheapest-side choice (Algorithm 1, line 7) must agree with
//! the full comparison of cumulative neighbor degrees,
//! `view_neighbor_degree_sum(u) < view_neighbor_degree_sum(v)`, on every
//! neighborhood view the estimators count against: the exact graph, the
//! bounded sample, the sample's frozen CSR snapshot, and PARABACUS version
//! views (hash-backed and snapshot-backed).  Any disagreement would change
//! which side the kernel iterates, and with it the probe-model
//! `comparisons` every estimator reports.

use abacus_core::parabacus::versioned::{RecordingSample, VersionView, VersionedDeltas};
use abacus_core::snapshot::SnapshotView;
use abacus_graph::csr::CsrSnapshot;
use abacus_graph::intersect::KernelTuning;
use abacus_graph::{cheapest_side_is_left, BipartiteGraph, Edge, NeighborhoodView};
use abacus_sampling::sample_graph::SampleGraph;
use abacus_sampling::SampleStore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest vertex id the generated graphs use on either side.
const IDS: u32 = 24;

/// Squashes a uniform id toward zero, so low ids become hubs and the
/// degree distribution is skewed like the real streams.
fn skew(id: u32) -> u32 {
    id * id / IDS
}

/// Asserts the early-exit choice equals the full-sum rule for every edge
/// between ids `0..=IDS + 2` — edges present and absent, endpoints with and
/// without neighbors — and returns how many queries tied on the full sums.
fn assert_agrees<G: NeighborhoodView + ?Sized>(view: &G, label: &str) -> usize {
    let mut ties = 0;
    for l in 0..=IDS + 2 {
        for r in 0..=IDS + 2 {
            let edge = Edge::new(l, r);
            let left_sum = view.view_neighbor_degree_sum(edge.left_ref());
            let right_sum = view.view_neighbor_degree_sum(edge.right_ref());
            ties += usize::from(left_sum == right_sum);
            assert_eq!(
                cheapest_side_is_left(view, edge),
                left_sum < right_sum,
                "{label}: edge ({l}, {r}) with sums {left_sum} vs {right_sum}"
            );
        }
    }
    ties
}

#[test]
fn ties_and_empty_endpoints_follow_the_full_sums() {
    // Empty view: both sums are 0, so the tie iterates the right endpoint.
    assert!(!cheapest_side_is_left(
        &BipartiteGraph::new(),
        Edge::new(0, 0)
    ));

    // L0 and R0 each have one neighbor of degree 2: S(L0) = S(R0) = 2.
    let g = BipartiteGraph::from_edges([(0, 1), (1, 0), (1, 1)].map(|(l, r)| Edge::new(l, r)));
    assert!(!cheapest_side_is_left(&g, Edge::new(0, 0)));
    // One endpoint absent: 0 < S(R0) iterates the left endpoint, and
    // S(L0) < 0 never holds.
    assert!(cheapest_side_is_left(&g, Edge::new(9, 0)));
    assert!(!cheapest_side_is_left(&g, Edge::new(0, 9)));
    assert!(assert_agrees(&g, "fixed graph") > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random skewed graphs through every view type: the exact graph, the
    /// sample, the CSR snapshot view, and PARABACUS version views at every
    /// version of a random batch of sample mutations.
    #[test]
    fn early_exit_choice_matches_full_sums_on_every_view(
        base in proptest::collection::vec((0u32..IDS, 0u32..IDS), 0..160),
        batch in proptest::collection::vec((0u8..3, 0u32..IDS, 0u32..IDS), 0..40),
        seed in any::<u64>(),
    ) {
        let edges: Vec<Edge> = base.iter().map(|&(l, r)| Edge::new(skew(l), r)).collect();

        let graph = BipartiteGraph::from_edges(edges.iter().copied());
        assert_agrees(&graph, "BipartiteGraph");

        let mut sample = SampleGraph::new();
        for &e in &edges {
            if !sample.store_contains(&e) {
                sample.store_insert(e);
            }
        }
        assert_agrees(&sample, "SampleGraph");
        let snapshot =
            CsrSnapshot::from_edges(sample.edges().iter().copied(), KernelTuning::default());
        assert_agrees(&SnapshotView::new(&snapshot, &sample), "SnapshotView");

        // A PARABACUS batch: each mutation is one version of the sample.
        let mut deltas = VersionedDeltas::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut versions = 0u32;
        for (version, (op, l, r)) in (0u32..).zip(batch) {
            versions = version + 1;
            let e = Edge::new(skew(l), r);
            let mut rec = RecordingSample::new(&mut sample, &mut deltas, version);
            match op {
                0 => {
                    if !rec.store_contains(&e) {
                        rec.store_insert(e);
                    }
                }
                1 => {
                    let _ = rec.store_remove(&e);
                }
                _ => {
                    if rec.store_len() > 0 && !rec.store_contains(&e) {
                        rec.store_replace_random(e, &mut rng);
                    }
                }
            }
        }
        deltas.seal(&sample);
        let sealed =
            CsrSnapshot::from_edges(sample.edges().iter().copied(), KernelTuning::default());
        for v in 0..=versions {
            assert_agrees(&VersionView::new(&sample, &deltas, v), "VersionView");
            assert_agrees(
                &VersionView::over_snapshot(&sealed, &sample, &deltas, v),
                "snapshot-backed VersionView",
            );
        }
    }
}
