//! # unsupervised-er
//!
//! A from-scratch Rust reproduction of *"A Graph-Theoretic Fusion
//! Framework for Unsupervised Entity Resolution"* (ICDE 2018): the
//! **ITER** term/pair ranking algorithm, the **RSS** random-surfer
//! sampler, the **CliqueRank** matrix walk, the fusion loop that
//! reinforces them, every baseline the paper compares against, synthetic
//! analogues of its three benchmark datasets, and a bench harness that
//! regenerates every table and figure of the evaluation section.
//!
//! This facade crate re-exports the workspace and provides the
//! [`pipeline`] glue from a raw [`Dataset`](er_datasets::Dataset) to a
//! resolved set of entities:
//!
//! ```
//! use unsupervised_er::pipeline;
//! use unsupervised_er::prelude::*;
//!
//! // A tiny restaurant-style dataset (42 records, 6 duplicate pairs).
//! let dataset = er_datasets::generators::restaurant::generate(&RestaurantConfig {
//!     records: 42,
//!     duplicate_pairs: 6,
//!     seed: 7,
//! });
//! let mut config = FusionConfig::default();
//! config.cliquerank.threads = 1;
//! let run = pipeline::resolve_dataset(&dataset, &config);
//! let f1 = run.evaluate().f1();
//! // 42 records is a demo-sized corpus; at benchmark scale the fusion
//! // framework reaches ≈ 0.9 F1 (see EXPERIMENTS.md).
//! assert!(f1 > 0.6, "fusion should resolve most duplicates: {f1}");
//! ```

#![deny(unsafe_code)]

pub use er_baselines as baselines;
pub use er_core as core;
pub use er_crowd as crowd;
pub use er_datasets as datasets;
pub use er_eval as eval;
pub use er_graph as graph;
pub use er_matrix as matrix;
pub use er_ml as ml;
pub use er_serve as serve;
pub use er_text as text;

pub mod explain;

/// The types most applications need.
pub mod prelude {
    pub use crate::explain::{explain_pair, rank_candidates};
    pub use er_core::{
        BoostMode, CliqueRankConfig, FusionConfig, FusionOutcome, IterConfig, Resolver, RssConfig,
    };
    pub use er_datasets::{
        Dataset, PaperConfig, ProductConfig, Record, RestaurantConfig, SourcePolicy,
    };
    pub use er_eval::{ConfusionCounts, TruthPairs};
    pub use er_graph::BipartiteGraph;
    pub use er_serve::{QueryHandle, ServeConfig, ServeEngine};
    pub use er_text::{Corpus, CorpusBuilder};
}

pub mod pipeline {
    //! End-to-end glue: dataset → corpus → bipartite graph → fusion.

    use er_core::{FusionConfig, FusionOutcome, Resolver};
    use er_datasets::{Dataset, SourcePolicy};
    use er_eval::{evaluate_pairs, ConfusionCounts, TruthPairs};
    use er_graph::BipartiteGraph;
    use er_pool::WorkerPool;
    use er_text::{candidate_graph, BlockingStrategy, Corpus, CorpusBuilder};

    pub use er_text::{seed_similarities, DEFAULT_MAX_DF_FRACTION, SEED_KERNEL};

    /// The prepared inputs shared by the fusion framework and every
    /// baseline: the tokenized corpus, the candidate bipartite graph and
    /// the ground-truth pairs.
    #[derive(Debug)]
    pub struct Prepared {
        /// Tokenized, frequency-filtered corpus.
        pub corpus: Corpus,
        /// Term ↔ record-pair bipartite graph over the candidate pairs.
        pub graph: BipartiteGraph,
        /// Ground-truth matching pairs (within the candidate policy).
        pub truth: TruthPairs,
    }

    /// Tokenizes a dataset with an explicit frequent-term cap and builds
    /// its candidate bipartite graph under the dataset's candidate
    /// policy ([`BlockingStrategy::TokenGraph`]).
    pub fn prepare_with(dataset: &Dataset, max_df_fraction: f64) -> Prepared {
        let pool = WorkerPool::new(1);
        prepare_with_strategy(
            dataset,
            max_df_fraction,
            &BlockingStrategy::TokenGraph,
            &pool,
        )
    }

    /// [`prepare_with`] under an explicit [`BlockingStrategy`]: the
    /// strategy generates the candidate list and the bipartite graph is
    /// built over it (composed with the dataset's candidate policy).
    /// [`BlockingStrategy::TokenGraph`]'s list is every pair sharing a
    /// post-filter term; the scalable strategies (LSH, meta-blocking)
    /// shrink the graph before ITER/CliqueRank ever see it.
    pub fn prepare_with_strategy(
        dataset: &Dataset,
        max_df_fraction: f64,
        strategy: &BlockingStrategy,
        pool: &WorkerPool,
    ) -> Prepared {
        let corpus = CorpusBuilder::new()
            .extend_texts(dataset.texts())
            .max_df_fraction(max_df_fraction)
            .build();
        let list = strategy.candidate_pairs(&corpus, pool);
        let sources = dataset.sources();
        let cross = |a: u32, b: u32| sources[a as usize] != sources[b as usize];
        let policy = (dataset.policy == SourcePolicy::CrossSourceOnly)
            .then_some(&cross as &(dyn Fn(u32, u32) -> bool + Sync));
        let graph = candidate_graph(&corpus, &list, policy);
        let truth = TruthPairs::from_pairs(dataset.matching_pairs());
        Prepared {
            corpus,
            graph,
            truth,
        }
    }

    /// A completed fusion run with its inputs, ready for evaluation.
    #[derive(Debug)]
    pub struct ResolvedRun {
        /// The prepared inputs.
        pub prepared: Prepared,
        /// The fusion outcome.
        pub outcome: FusionOutcome,
    }

    impl ResolvedRun {
        /// Pairwise confusion counts of the fusion matches against the
        /// dataset's ground truth.
        pub fn evaluate(&self) -> ConfusionCounts {
            evaluate_pairs(self.outcome.matches.iter().copied(), &self.prepared.truth)
        }
    }

    /// Prepares a dataset at [`DEFAULT_MAX_DF_FRACTION`] and runs the
    /// full fusion loop.
    pub fn resolve_dataset(dataset: &Dataset, config: &FusionConfig) -> ResolvedRun {
        let prepared = prepare_with(dataset, DEFAULT_MAX_DF_FRACTION);
        let outcome = Resolver::new(config.clone()).resolve(&prepared.graph);
        ResolvedRun { prepared, outcome }
    }

    /// Ground truth as entity labels, with the recall denominator
    /// restricted to the dataset's candidate policy (cross-source
    /// datasets do not charge same-source within-entity pairs).
    pub fn entity_labels(dataset: &Dataset) -> er_eval::EntityLabels {
        let labels: Vec<u32> = dataset.records.iter().map(|r| r.entity).collect();
        er_eval::EntityLabels::with_total(labels, dataset.matching_pairs().len())
    }
}

#[cfg(test)]
mod tests {
    use super::pipeline::{self, Prepared};
    use er_core::{FusionConfig, FusionOutcome, Resolver};
    use er_datasets::generators::restaurant;
    use er_datasets::{Dataset, RestaurantConfig};
    use er_pool::WorkerPool;
    use er_text::BlockingStrategy;

    fn prepare(d: &Dataset, strategy: &BlockingStrategy, pool: &WorkerPool) -> Prepared {
        pipeline::prepare_with_strategy(d, pipeline::DEFAULT_MAX_DF_FRACTION, strategy, pool)
    }

    /// The seeded batch resolve: prepare → seed similarities → fusion,
    /// all on one pool.
    fn resolve_seeded(
        d: &Dataset,
        config: &FusionConfig,
        strategy: &BlockingStrategy,
    ) -> (Prepared, FusionOutcome) {
        let pool = WorkerPool::with_policy(config.threads, config.dispatch);
        let p = prepare(d, strategy, &pool);
        let seed = pipeline::seed_similarities(&p.corpus, &p.graph, &pool);
        let outcome = Resolver::new(config.clone()).resolve_seeded(&p.graph, &seed);
        (p, outcome)
    }

    fn f1(p: &Prepared, outcome: &FusionOutcome) -> f64 {
        er_eval::evaluate_pairs(outcome.matches.iter().copied(), &p.truth).f1()
    }

    #[test]
    fn prepare_builds_consistent_structures() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 60,
            duplicate_pairs: 8,
            seed: 11,
        });
        let p = prepare(&d, &BlockingStrategy::TokenGraph, &WorkerPool::new(1));
        assert_eq!(p.corpus.len(), 60);
        assert_eq!(p.graph.record_count(), 60);
        assert_eq!(p.truth.total(), 8);
        assert!(p.graph.pair_count() > 0);
    }

    #[test]
    fn cross_source_policy_flows_through() {
        let d = er_datasets::generators::product::generate(
            &er_datasets::ProductConfig::default().scaled(0.05),
        );
        let pool = WorkerPool::new(1);
        for strategy in [
            BlockingStrategy::TokenGraph,
            BlockingStrategy::meta_default(),
        ] {
            let p = prepare(&d, &strategy, &pool);
            assert!(p.graph.pair_count() > 0);
            for pair in p.graph.pairs() {
                assert!(
                    d.is_candidate(pair.a, pair.b),
                    "pair ({}, {}) violates the cross-source policy",
                    pair.a,
                    pair.b
                );
            }
        }
    }

    #[test]
    fn end_to_end_fusion_beats_random() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 80,
            duplicate_pairs: 10,
            seed: 3,
        });
        let mut cfg = FusionConfig::default();
        cfg.cliquerank.threads = 1;
        cfg.rounds = 2;
        let run = pipeline::resolve_dataset(&d, &cfg);
        let counts = run.evaluate();
        assert!(counts.f1() > 0.7, "{counts:?}");
    }

    #[test]
    fn seed_similarities_align_with_candidate_pairs() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 60,
            duplicate_pairs: 8,
            seed: 5,
        });
        let pool = WorkerPool::new(1);
        let p = prepare(&d, &BlockingStrategy::TokenGraph, &pool);
        let seed = pipeline::seed_similarities(&p.corpus, &p.graph, &pool);
        assert_eq!(seed.len(), p.graph.pair_count());
        assert!(seed.iter().all(|s| (0.0..=1.0).contains(s)), "{seed:?}");
        // Jaro-Winkler over near-duplicate texts should not be flat.
        let spread =
            seed.iter().fold(0.0f64, |m, &s| m.max(s)) - seed.iter().fold(1.0f64, |m, &s| m.min(s));
        assert!(spread > 0.1, "seed similarities are flat: {spread}");
    }

    #[test]
    fn seeded_fusion_resolves_duplicates() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 80,
            duplicate_pairs: 10,
            seed: 3,
        });
        let mut cfg = FusionConfig::default();
        cfg.cliquerank.threads = 1;
        cfg.rounds = 2;
        let (p, outcome) = resolve_seeded(&d, &cfg, &BlockingStrategy::TokenGraph);
        let f1 = f1(&p, &outcome);
        assert!(f1 > 0.7, "{f1}");
    }

    #[test]
    fn baseline_pairs_equal_the_pipeline_graph_pairs() {
        let d = er_datasets::generators::product::generate(
            &er_datasets::ProductConfig::default().scaled(0.05),
        );
        let pool = WorkerPool::new(1);
        let strategy = BlockingStrategy::SortedNeighborhood { window: 4 };
        let p = prepare(&d, &strategy, &pool);
        let cross = |a: u32, b: u32| d.is_candidate(a, b);
        let pairs = er_baselines::candidate_pairs_with(&p.corpus, &strategy, Some(&cross), &pool);
        assert!(!pairs.is_empty());
        assert_eq!(pairs, p.graph.pairs());
    }

    #[test]
    fn token_graph_strategy_matches_default_prepare() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 60,
            duplicate_pairs: 8,
            seed: 11,
        });
        let a = pipeline::prepare_with(&d, pipeline::DEFAULT_MAX_DF_FRACTION);
        let b = prepare(&d, &BlockingStrategy::TokenGraph, &WorkerPool::new(2));
        assert_eq!(a.graph.pairs(), b.graph.pairs());
    }

    #[test]
    fn meta_strategy_restricts_the_graph_and_still_resolves() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 80,
            duplicate_pairs: 10,
            seed: 3,
        });
        let pool = WorkerPool::new(1);
        let full = prepare(&d, &BlockingStrategy::TokenGraph, &pool);
        let meta = prepare(&d, &BlockingStrategy::meta_default(), &pool);
        assert!(meta.graph.pair_count() <= full.graph.pair_count());
        // Every surviving pair must be in the token-graph universe.
        let universe: std::collections::BTreeSet<(u32, u32)> =
            full.graph.pairs().iter().map(|p| (p.a, p.b)).collect();
        for p in meta.graph.pairs() {
            assert!(universe.contains(&(p.a, p.b)));
        }
        let mut cfg = FusionConfig::default();
        cfg.cliquerank.threads = 1;
        cfg.rounds = 2;
        let (p, outcome) = resolve_seeded(&d, &cfg, &BlockingStrategy::meta_default());
        let f1 = f1(&p, &outcome);
        assert!(f1 > 0.7, "{f1}");
    }

    #[test]
    fn seeded_fusion_is_thread_count_invariant() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 60,
            duplicate_pairs: 8,
            seed: 9,
        });
        let mut matches: Vec<Vec<(u32, u32)>> = Vec::new();
        for threads in [1usize, 4] {
            let cfg = FusionConfig {
                threads,
                rounds: 2,
                ..Default::default()
            };
            let (_, outcome) = resolve_seeded(&d, &cfg, &BlockingStrategy::TokenGraph);
            matches.push(outcome.matches);
        }
        assert_eq!(matches[0], matches[1]);
    }
}
