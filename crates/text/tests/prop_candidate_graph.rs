//! Equivalence of the two `candidate_graph` constructions.
//!
//! With a candidate list, `candidate_graph` builds the bipartite graph
//! from the list (merge-intersected term sets). The oracle here is the
//! postings enumeration with the list applied as a binary-search pair
//! filter: enumerate every co-occurring pair of every posting list and
//! keep the listed ones that the policy admits. The two must agree bit
//! for bit — pair universe, both CSR sides row for row, and `P_t`.

use er_graph::{BipartiteGraph, BipartiteGraphBuilder};
use er_pool::WorkerPool;
use er_text::blocking::{candidate_graph, BlockingStrategy, MetaBlocking};
use er_text::{Corpus, CorpusBuilder, LshParams, MetaConfig, Pruning, TermId};
use proptest::prelude::*;

/// The enumerate-then-filter construction: every co-occurring pair of
/// every posting list, kept iff it is listed and the policy admits it.
fn oracle(
    corpus: &Corpus,
    allowed: &[(u32, u32)],
    policy: Option<&(dyn Fn(u32, u32) -> bool + Sync)>,
) -> BipartiteGraph {
    let mut builder = BipartiteGraphBuilder::new(corpus.len(), corpus.vocab_len());
    for t in 0..corpus.vocab_len() as u32 {
        builder = builder.postings(t, corpus.postings(TermId(t)));
    }
    builder
        .pair_filter(move |a, b| {
            policy.is_none_or(|f| f(a, b)) && allowed.binary_search(&(a.min(b), a.max(b))).is_ok()
        })
        .build()
}

fn assert_same_graph(got: &BipartiteGraph, want: &BipartiteGraph) {
    assert!(got.validate().is_ok(), "{:?}", got.validate());
    assert_eq!(got.pairs(), want.pairs());
    assert_eq!(got.edge_count(), want.edge_count());
    assert_eq!(got.term_count(), want.term_count());
    assert_eq!(got.record_count(), want.record_count());
    for p in 0..want.pair_count() as u32 {
        assert_eq!(got.terms_of_pair(p), want.terms_of_pair(p), "pair {p}");
    }
    for t in 0..want.term_count() as u32 {
        assert_eq!(got.pairs_of_term(t), want.pairs_of_term(t), "term {t}");
        assert_eq!(got.pt(t), want.pt(t), "pt of term {t}");
    }
}

fn texts() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-h]( [a-h]){0,5}", 2..24)
}

/// Every non-`TokenGraph` strategy, with small parameters so tiny
/// corpora still produce candidates. `kind` picks the scheme; for
/// meta-blocking, `sources` picks token blocks (0), LSH buckets (1) or
/// both (2).
fn strategy() -> impl Strategy<Value = BlockingStrategy> {
    (
        (0u32..4, 2usize..12, 1usize..6),
        (1usize..3, 0u32..3, 1u64..3),
    )
        .prop_map(|((kind, size, bands), (rows, sources, min_weight))| {
            let params = LshParams::new(bands, rows);
            match kind {
                0 => BlockingStrategy::Token {
                    max_block_size: size,
                },
                1 => BlockingStrategy::SortedNeighborhood {
                    window: size.min(6),
                },
                2 => BlockingStrategy::Lsh {
                    params,
                    max_block_size: size,
                },
                _ => BlockingStrategy::Meta(MetaBlocking {
                    token_blocks: sources != 1,
                    lsh: (sources != 0).then_some(params),
                    config: MetaConfig {
                        prune: Pruning::MinWeight(min_weight),
                        ..MetaConfig::default()
                    },
                }),
            }
        })
}

/// An arbitrary sorted, deduplicated pair list over `n` records — most
/// of its pairs share no term.
fn arbitrary_list(n: usize, raw: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let n = n as u32;
    let mut list: Vec<(u32, u32)> = raw
        .iter()
        .map(|&(x, y)| (x % n, y % n))
        .filter(|&(a, b)| a != b)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    list.sort_unstable();
    list.dedup();
    list
}

/// `source_mod` 0: no policy; otherwise records fall into
/// `source_mod + 1` round-robin sources and only cross-source pairs
/// are admitted.
fn cross_source(source_mod: u32) -> impl Fn(u32, u32) -> bool + Sync {
    move |a, b| a % (source_mod + 1) != b % (source_mod + 1)
}

proptest! {
    #[test]
    fn list_graph_equals_enumerate_then_filter(
        texts in texts(),
        strategy in strategy(),
        max_df_pct in 0u32..90,
        source_mod in 0u32..3,
    ) {
        let mut builder = CorpusBuilder::new().extend_texts(texts);
        // Below 20 %: no frequent-term filter.
        if max_df_pct >= 20 {
            builder = builder.max_df_fraction(f64::from(max_df_pct) / 100.0);
        }
        let corpus = builder.build();
        let list = strategy.candidate_pairs(&corpus, &WorkerPool::new(1));
        let cross = cross_source(source_mod);
        let policy = (source_mod > 0).then_some(&cross as &(dyn Fn(u32, u32) -> bool + Sync));
        let got = candidate_graph(&corpus, Some(&list), policy);
        assert_same_graph(&got, &oracle(&corpus, &list, policy));
    }

    #[test]
    fn arbitrary_lists_drop_pairs_sharing_no_term(
        texts in texts(),
        raw in proptest::collection::vec((0u32..64, 0u32..64), 0..80),
        source_mod in 0u32..3,
    ) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let list = arbitrary_list(corpus.len(), &raw);
        let cross = cross_source(source_mod);
        let policy = (source_mod > 0).then_some(&cross as &(dyn Fn(u32, u32) -> bool + Sync));
        let got = candidate_graph(&corpus, Some(&list), policy);
        assert_same_graph(&got, &oracle(&corpus, &list, policy));
        for p in got.pairs() {
            prop_assert!(corpus.shared_term_count(p.a as usize, p.b as usize) >= 1);
        }
    }
}

#[test]
fn sorted_neighborhood_lists_pairs_sharing_no_term() {
    // Sorted-neighborhood pairs window neighbours whether or not they
    // share a term; the graph keeps only those that do.
    let corpus = CorpusBuilder::new()
        .extend_texts([
            "alpha beta",
            "alpha gamma",
            "delta",
            "epsilon",
            "delta zeta",
        ])
        .build();
    let list = BlockingStrategy::SortedNeighborhood { window: 3 }
        .candidate_pairs(&corpus, &WorkerPool::new(1));
    let got = candidate_graph(&corpus, Some(&list), None);
    assert!(got.pair_count() < list.len(), "{list:?}");
    let want = oracle(&corpus, &list, None);
    assert_eq!(got.pairs(), want.pairs());
    assert_eq!(got.pairs().len(), 2, "{:?}", got.pairs());
}
