//! `candidate_graph` against the enumerate-then-filter oracle.
//!
//! `candidate_graph` builds the bipartite graph from a candidate list
//! (merge-intersected term sets). The oracle here shares no code with
//! it: it enumerates every co-occurring pair of every posting list,
//! keeps the listed ones that the policy admits, and collects each kept
//! pair's terms in plain collections. The two must agree exactly — pair
//! universe, both CSR sides row for row, and `P_t` — for every blocking
//! strategy, `TokenGraph` included.

use std::collections::BTreeMap;

use er_graph::BipartiteGraph;
use er_pool::WorkerPool;
use er_text::blocking::{candidate_graph, BlockingStrategy, MetaBlocking};
use er_text::{Corpus, CorpusBuilder, LshParams, MetaConfig, Pruning, TermId};
use proptest::prelude::*;

type Policy<'a> = Option<&'a (dyn Fn(u32, u32) -> bool + Sync)>;

/// The enumerate-then-filter construction: every co-occurring pair of
/// every posting list, kept iff it is listed and the policy admits it,
/// mapped to the terms it co-occurs in (ascending).
fn oracle(
    corpus: &Corpus,
    allowed: &[(u32, u32)],
    policy: Policy,
) -> BTreeMap<(u32, u32), Vec<u32>> {
    let mut rows: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
    for t in 0..corpus.vocab_len() as u32 {
        let recs = corpus.postings(TermId(t));
        for (i, &a) in recs.iter().enumerate() {
            for &b in &recs[i + 1..] {
                if policy.is_none_or(|f| f(a, b)) && allowed.binary_search(&(a, b)).is_ok() {
                    rows.entry((a, b)).or_default().push(t);
                }
            }
        }
    }
    rows
}

fn assert_graph_is(got: &BipartiteGraph, corpus: &Corpus, want: &BTreeMap<(u32, u32), Vec<u32>>) {
    assert!(got.validate().is_ok(), "{:?}", got.validate());
    assert_eq!(got.record_count(), corpus.len());
    assert_eq!(got.term_count(), corpus.vocab_len());
    let pairs: Vec<(u32, u32)> = got.pairs().iter().map(|p| (p.a, p.b)).collect();
    assert!(pairs.iter().eq(want.keys()), "pairs {pairs:?}");
    let mut term_rows = vec![Vec::new(); corpus.vocab_len()];
    for (p, terms) in want.values().enumerate() {
        assert_eq!(got.terms_of_pair(p as u32), &terms[..], "pair {p}");
        for &t in terms {
            term_rows[t as usize].push(p as u32);
        }
    }
    for (t, row) in term_rows.iter().enumerate() {
        assert_eq!(got.pairs_of_term(t as u32), &row[..], "term {t}");
        assert_eq!(got.pt(t as u32) as usize, row.len(), "pt of term {t}");
    }
    assert_eq!(got.edge_count(), want.values().map(Vec::len).sum::<usize>());
}

/// A corpus over `texts`; below 20 % `max_df_pct` sets no frequent-term
/// filter.
fn corpus(texts: Vec<String>, max_df_pct: u32) -> Corpus {
    let mut builder = CorpusBuilder::new().extend_texts(texts);
    if max_df_pct >= 20 {
        builder = builder.max_df_fraction(f64::from(max_df_pct) / 100.0);
    }
    builder.build()
}

fn texts() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-h]( [a-h]){0,5}", 2..24)
}

/// Every strategy but `TokenGraph` (which has its own property), with
/// small parameters so tiny
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
        let corpus = corpus(texts, max_df_pct);
        let list = strategy.candidate_pairs(&corpus, &WorkerPool::new(1));
        let cross = cross_source(source_mod);
        let policy = (source_mod > 0).then_some(&cross as &(dyn Fn(u32, u32) -> bool + Sync));
        let got = candidate_graph(&corpus, &list, policy);
        assert_graph_is(&got, &corpus, &oracle(&corpus, &list, policy));
    }

    #[test]
    fn token_graph_is_every_co_occurring_pair(
        texts in texts(),
        max_df_pct in 0u32..90,
        source_mod in 0u32..3,
    ) {
        let corpus = corpus(texts, max_df_pct);
        let list = BlockingStrategy::TokenGraph.candidate_pairs(&corpus, &WorkerPool::new(1));
        let cross = cross_source(source_mod);
        let policy = (source_mod > 0).then_some(&cross as &(dyn Fn(u32, u32) -> bool + Sync));
        let got = candidate_graph(&corpus, &list, policy);
        // The list filters nothing the enumeration finds.
        let every_pair: Vec<(u32, u32)> = (0..corpus.len() as u32)
            .flat_map(|a| (a + 1..corpus.len() as u32).map(move |b| (a, b)))
            .collect();
        assert_graph_is(&got, &corpus, &oracle(&corpus, &every_pair, policy));
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
        let got = candidate_graph(&corpus, &list, policy);
        assert_graph_is(&got, &corpus, &oracle(&corpus, &list, policy));
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
    let got = candidate_graph(&corpus, &list, None);
    assert!(got.pair_count() < list.len(), "{list:?}");
    assert_graph_is(&got, &corpus, &oracle(&corpus, &list, None));
    assert_eq!(got.pairs().len(), 2, "{:?}", got.pairs());
}
