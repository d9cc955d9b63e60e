//! The batch workloads: records in → matches and clusters out through
//! `pipeline::prepare_with_strategy` → `pipeline::seed_similarities` →
//! `Resolver::resolve_seeded`, on a pool of `nproc` threads.

use std::hint::black_box;
use std::time::{Duration, Instant};

use er_core::{FusionConfig, FusionOutcome, Resolver, RoundStats};
use er_datasets::generators::{census, paper};
use er_datasets::{CensusConfig, Dataset, PaperConfig};
use er_eval::evaluate_pairs;
use er_pool::{DispatchPolicy, WorkerPool};
use er_text::{BlockingStrategy, Corpus, CorpusBuilder, StreamingCorpus, TermId};
use unsupervised_er::pipeline::{self, Prepared};

use crate::layers::{self, ratio};
use crate::queries::{check_resolution, Rng};
use crate::stats::median;
use crate::{Args, Outcome};

/// One batch workload.
#[derive(Debug)]
pub struct Batch {
    generate: fn(u64) -> Dataset,
    max_df: f64,
    strategy: fn() -> BlockingStrategy,
    /// Datasets generated per run, each from its own seed drawn from the
    /// workload seed. Resolve cost varies from one generated dataset to
    /// the next; a run reports the mean over several, so the figure
    /// describes the workload rather than one draw of it.
    datasets: usize,
}

/// The Cora analogue at 0.4 scale under the token graph: CliqueRank's
/// component solves dominate.
pub const CORA: Batch = Batch {
    generate: cora,
    max_df: 0.15,
    strategy: token_graph,
    datasets: 8,
};

/// 30 000 census records under meta-blocking: candidate generation and
/// the bipartite build dominate.
pub const CENSUS_META: Batch = Batch {
    generate: census_30k,
    max_df: 0.05,
    strategy: BlockingStrategy::meta_default,
    datasets: 3,
};

fn cora(seed: u64) -> Dataset {
    paper::generate(&PaperConfig {
        seed,
        ..PaperConfig::default().scaled(0.4)
    })
}

fn census_30k(seed: u64) -> Dataset {
    census::generate(&CensusConfig {
        records: 30_000,
        duplicate_rate: 0.2,
        seed,
    })
}

fn token_graph() -> BlockingStrategy {
    BlockingStrategy::TokenGraph
}

/// Per-layer metrics no batch path reaches: there is no signature or
/// component cache to reuse, no query, and no serving engine.
const NOT_ON_PATH: [&str; 14] = [
    "text.lsh.signature_reuse_ratio",
    "core.cliquerank.cache_hit_ratio",
    "obs.overhead.query_ratio",
    "serve.ingest_us_per_record",
    "serve.ingest_lag_ms_p50",
    "serve.ingest_lag_ms_p99",
    "serve.resolve_ms_p50",
    "serve.resolve_ms_p70",
    "serve.epoch_records",
    "serve.cold_resolve_ms",
    "serve.visibility_lag_us",
    "serve.snapshot_pairs",
    "serve.query_p50_ns",
    "serve.query_p99_ns",
];

/// One end-to-end resolve and the wall time of each call in it.
struct Resolve {
    prepared: Prepared,
    outcome: FusionOutcome,
    wall: Duration,
    prepare: Duration,
    seed: Duration,
    fusion: Duration,
}

/// Texts → matches and clusters through the public pipeline. The
/// bench-side spans record only while recording is on.
fn resolve(
    dataset: &Dataset,
    b: &Batch,
    strategy: &BlockingStrategy,
    pool: &WorkerPool,
    config: &FusionConfig,
) -> Resolve {
    let t0 = Instant::now();
    let prepared = {
        let _s = er_obs::span("bench.prepare");
        pipeline::prepare_with_strategy(dataset, b.max_df, strategy, pool)
    };
    let t1 = Instant::now();
    let seed = {
        let _s = er_obs::span("bench.seed");
        pipeline::seed_similarities(&prepared.corpus, &prepared.graph, pool)
    };
    let t2 = Instant::now();
    let outcome = {
        let _s = er_obs::span("bench.fusion");
        Resolver::new(config.clone()).resolve_seeded(&prepared.graph, &seed)
    };
    let t3 = Instant::now();
    Resolve {
        prepared,
        outcome: black_box(outcome),
        wall: t3 - t0,
        prepare: t1 - t0,
        seed: t2 - t1,
        fusion: t3 - t2,
    }
}

fn pairs_of(prepared: &Prepared) -> Vec<(u32, u32)> {
    prepared.graph.pairs().iter().map(|p| (p.a, p.b)).collect()
}

/// FNV-1a digest of a resolution's matches, clusters and probability
/// bits: equal digests mean a bit-identical resolution.
fn digest(matches: &[(u32, u32)], clusters: &[Vec<u32>], probabilities: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &(a, b) in matches {
        eat(u64::from(a) << 32 | u64::from(b));
    }
    for c in clusters {
        eat(c.len() as u64);
        c.iter().for_each(|&r| eat(u64::from(r)));
    }
    probabilities.iter().for_each(|p| eat(p.to_bits()));
    h
}

fn digest_of(o: &FusionOutcome) -> u64 {
    digest(&o.matches, &o.clusters, &o.matching_probabilities)
}

fn same_corpus(a: &Corpus, b: &Corpus) -> bool {
    a.len() == b.len()
        && a.vocab_len() == b.vocab_len()
        && (0..a.len()).all(|r| a.term_set(r) == b.term_set(r))
        && (0..a.vocab_len() as u32).all(|t| a.postings(TermId(t)) == b.postings(TermId(t)))
}

/// The wall time of each call in one resolve, in milliseconds.
#[derive(Debug, Clone, Copy)]
struct Timing {
    wall: f64,
    prepare: f64,
    seed: f64,
    fusion: f64,
    iter: f64,
    cliquerank: f64,
}

impl Timing {
    fn of(r: &Resolve) -> Self {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let rounds = &r.outcome.rounds;
        Self {
            wall: ms(r.wall),
            prepare: ms(r.prepare),
            seed: ms(r.seed),
            fusion: ms(r.fusion),
            iter: rounds.iter().map(|s| ms(s.iter_time)).sum(),
            cliquerank: rounds.iter().map(|s| ms(s.cliquerank_time)).sum(),
        }
    }
}

/// Median over `timings` of one field.
fn median_of(timings: &[Timing], field: impl Fn(&Timing) -> f64) -> f64 {
    median(&timings.iter().map(field).collect::<Vec<_>>())
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// What the resolves of one generated dataset of a run gave.
#[derive(Default)]
struct Slot {
    /// Wall seconds of each untraced resolve.
    walls: Vec<f64>,
    /// Digest of the first resolve; later ones must match it.
    digest: Option<u64>,
    f1: f64,
}

impl Slot {
    /// Gates a resolve of this slot's dataset: the first one on its
    /// structure and quality, every later one on equality with it.
    fn check(&mut self, out: &mut Outcome, r: &Resolve, records: usize, eta: f64) {
        let d = digest_of(&r.outcome);
        if let Some(first) = self.digest {
            out.gate(first == d, || {
                "a resolve of the same input gave different output".into()
            });
            return;
        }
        self.digest = Some(d);
        out.gate(r.prepared.graph.validate().is_ok(), || {
            "the bipartite graph fails its invariants".into()
        });
        let checked = check_resolution(
            records,
            &pairs_of(&r.prepared),
            &r.outcome.matching_probabilities,
            &r.outcome.matches,
            &r.outcome.clusters,
            eta,
        );
        out.gate(checked.is_ok(), || format!("{checked:?}"));
        let f1 = evaluate_pairs(r.outcome.matches.iter().copied(), &r.prepared.truth).f1();
        // A floor far below the measured F1 of every workload: it catches
        // a broken pipeline, not a small quality change.
        out.gate(f1 >= 0.5, || format!("pairwise F1 {f1} is below 0.5"));
        self.f1 = f1;
    }
}

/// One set-up: generation of the run's datasets and pool construction.
/// Returns its wall seconds and what it built.
fn set_up(b: &Batch, seeds: &[u64], threads: usize) -> (f64, Vec<Dataset>, WorkerPool) {
    let t = Instant::now();
    let datasets: Vec<Dataset> = seeds.iter().map(|&s| (b.generate)(s)).collect();
    let pool = WorkerPool::with_policy(threads, DispatchPolicy::default());
    (t.elapsed().as_secs_f64(), datasets, pool)
}

/// Runs one batch workload and returns its metrics.
pub fn run(b: &Batch, args: &Args, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let config = FusionConfig {
        threads,
        dispatch: DispatchPolicy::default(),
        ..FusionConfig::default()
    };
    let strategy = (b.strategy)();
    let mut seeds = Rng::new(args.seed, 0xDA7A);
    let seeds: Vec<u64> = (0..b.datasets).map(|_| seeds.next_u64()).collect();

    let (first_setup, mut datasets, mut pool) = set_up(b, &seeds, threads);
    let mut setup = vec![first_setup];
    let records = datasets[0].len();
    out.note("datasets", datasets.len());
    out.note("records_per_dataset", records);
    out.note("threads", format!("pool of {threads}"));
    out.note("strategy", strategy.name());
    out.note("max_df", b.max_df);
    let mut slots: Vec<Slot> = datasets.iter().map(|_| Slot::default()).collect();
    let window = args.seconds.mul_f64(0.9);
    let start = Instant::now();
    let eta = config.eta;

    if !args.trace {
        // Passes over the datasets while the window lasts (one whole pass
        // at least).
        'passes: for pass in 0.. {
            for (i, slot) in slots.iter_mut().enumerate() {
                if pass > 0 && start.elapsed() >= window {
                    break 'passes;
                }
                let r = resolve(&datasets[i], b, &strategy, &pool, &config);
                out.ops(1, 0);
                slot.check(&mut out, &r, records, eta);
                slot.walls.push(r.wall.as_secs_f64());
                // One set-up takes tens of milliseconds, and the host's
                // speed moves over a second or so: set-up is repeated
                // between resolves, so its median samples the whole window
                // as `resolve_s` does. The old inputs and pool go first, so
                // the repetition adds nothing to the peak.
                drop((r, std::mem::take(&mut datasets), pool));
                let again;
                (again, datasets, pool) = set_up(b, &seeds, threads);
                setup.push(again);
            }
        }
        let walls: Vec<f64> = slots.iter().map(|s| median(&s.walls)).collect();
        let resolve_s = mean(&walls);
        out.set("resolve_s", resolve_s);
        // Freshness is `resolve_s` relabelled, not a measurement of its
        // own: a batch record is fresh when its dataset's resolve returns.
        // Percentiles over the datasets' walls would follow which datasets
        // the seed drew (a run holds too few of them).
        out.set("freshness_p50_ms", resolve_s * 1e3);
        out.set("freshness_p99_ms", resolve_s * 1e3);
        out.set("f1", mean(&slots.iter().map(|s| s.f1).collect::<Vec<_>>()));
        out.set("setup_s", median(&setup));
        out.set("peak_rss_mb", crate::provenance::peak_rss_mb());
        out.note(
            "resolve_samples",
            slots.iter().map(|s| s.walls.len()).sum::<usize>(),
        );
        out.note("setup_samples", setup.len());
        return out;
    }

    // Traced run: per dataset in turn, an untraced resolve (the reference
    // output and the overhead baseline), then the layered calls and the
    // same resolve with recording on.
    er_obs::reset();
    let mut traced = Traced {
        token_graph: matches!(strategy, BlockingStrategy::TokenGraph),
        ..Traced::default()
    };
    for i in 0.. {
        if i > 0 && start.elapsed() >= window {
            break;
        }
        let (slot, dataset) = (&mut slots[i % b.datasets], &datasets[i % b.datasets]);
        let reference = resolve(dataset, b, &strategy, &pool, &config);
        slot.check(&mut out, &reference, records, eta);
        traced.untraced.push(Timing::of(&reference));

        er_obs::set_recording(true);
        let t = Instant::now();
        // A pool built while recording keeps per-worker busy time.
        let traced_pool = WorkerPool::with_policy(threads, DispatchPolicy::default());
        let (corpus, materialized, candidates) =
            traced.layered(dataset, b, &strategy, &traced_pool);
        let before = er_obs::snapshot();
        let r = resolve(dataset, b, &strategy, &traced_pool, &config);
        accumulate_counters(&mut traced.counters, &before, &er_obs::snapshot());
        drop(traced_pool);
        traced.wall_ns += t.elapsed().as_secs_f64() * 1e9;
        er_obs::set_recording(false);
        out.ops(2, 0);
        traced.timings.push(Timing::of(&r));
        traced.rounds.push(r.outcome.rounds.clone());
        let graph = &r.prepared.graph;
        traced
            .graphs
            .push((graph.pair_count() as f64, graph.edge_count() as f64));

        // Gates: recording changes nothing, and the layered calls give
        // the end-to-end call's corpus and (keeping the pairs that share
        // a term) its candidate pairs.
        let graph_pairs = pairs_of(&r.prepared);
        out.gate(
            digest_of(&r.outcome) == digest_of(&reference.outcome),
            || "the traced resolve differs from the untraced one".into(),
        );
        out.gate(graph_pairs == pairs_of(&reference.prepared), || {
            "the traced candidate graph differs from the untraced one".into()
        });
        out.gate(same_corpus(&corpus, &r.prepared.corpus), || {
            "the layered corpus differs from the pipeline's".into()
        });
        out.gate(same_corpus(&materialized, &corpus), || {
            "the streaming corpus materializes another corpus than the builder".into()
        });
        let sharing: Vec<(u32, u32)> = candidates
            .iter()
            .copied()
            .filter(|&(x, y)| corpus.shared_term_count(x as usize, y as usize) > 0)
            .collect();
        out.gate(sharing == graph_pairs, || {
            "the layered blocking call gives other candidate pairs than the pipeline".into()
        });
        let truth = &r.prepared.truth;
        let found = candidates
            .iter()
            .filter(|&&(x, y)| truth.is_match(x, y))
            .count();
        traced.candidates.push(candidates.len() as f64);
        traced
            .completeness
            .push(ratio(found as f64, truth.total() as f64));
    }
    let report = er_obs::snapshot();
    traced.metrics(&mut out, &report, threads);
    out.not_on_path.extend(NOT_ON_PATH);
    out.report = Some(report);
    out
}

/// What the traced resolves of a run measured.
#[derive(Debug, Default)]
struct Traced {
    untraced: Vec<Timing>,
    timings: Vec<Timing>,
    corpus_ms: Vec<f64>,
    materialize_ms: Vec<f64>,
    blocking_ms: Vec<f64>,
    candidates: Vec<f64>,
    completeness: Vec<f64>,
    graphs: Vec<(f64, f64)>,
    rounds: Vec<Vec<RoundStats>>,
    /// Counter deltas of the end-to-end calls alone.
    counters: er_obs::Report,
    /// Time with recording on, for the pool's busy share.
    wall_ns: f64,
    /// The strategy is the token graph, whose prepare makes no blocking
    /// call.
    token_graph: bool,
}

impl Traced {
    /// The layered calls on the end-to-end call's input, each timed:
    /// `CorpusBuilder::build`, the streaming corpus's `materialize` of
    /// the same texts, and the strategy's blocking call. (Under the token
    /// graph the pipeline makes no blocking call; the call here lists the
    /// co-occurring pairs its bipartite build enumerates.)
    fn layered(
        &mut self,
        dataset: &Dataset,
        b: &Batch,
        strategy: &BlockingStrategy,
        pool: &WorkerPool,
    ) -> (Corpus, Corpus, Vec<(u32, u32)>) {
        let t = Instant::now();
        let corpus = {
            let _s = er_obs::span("bench.corpus");
            CorpusBuilder::new()
                .extend_texts(dataset.texts())
                .max_df_fraction(b.max_df)
                .build()
        };
        self.corpus_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut streaming = StreamingCorpus::new();
        dataset.texts().for_each(|text| {
            streaming.push_record(text);
        });
        let t = Instant::now();
        let materialized = {
            let _s = er_obs::span("bench.materialize");
            streaming.materialize(b.max_df)
        };
        self.materialize_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let candidates = {
            let _s = er_obs::span("bench.blocking");
            strategy.candidate_pairs(&corpus, pool)
        };
        self.blocking_ms.push(t.elapsed().as_secs_f64() * 1e3);
        (corpus, materialized, candidates)
    }

    /// The per-layer metrics, per traced resolve.
    fn metrics(&self, out: &mut Outcome, report: &er_obs::Report, threads: usize) {
        let t = &self.timings;
        let corpus = median(&self.corpus_ms);
        let blocking = median(&self.blocking_ms);
        // The builder has no span: its time is what prepare leaves after
        // the corpus and blocking calls it makes, and it counts as
        // unattributed. Under the token graph prepare makes no blocking
        // call.
        let in_prepare = if self.token_graph { 0.0 } else { blocking };
        let build = (median_of(t, |x| x.prepare) - corpus - in_prepare).max(0.0);
        let wall = median_of(t, |x| x.wall);
        let glue = median_of(t, |x| x.wall - x.prepare - x.seed - x.fusion);
        let per_resolve = |name: &str| layers::counter(&self.counters, name) / t.len() as f64;
        let round_sum = |f: fn(&RoundStats) -> usize| {
            let sums: Vec<f64> = self
                .rounds
                .iter()
                .map(|rs| rs.iter().map(f).sum::<usize>() as f64)
                .collect();
            mean(&sums)
        };
        out.set("text.corpus.build_ms", corpus);
        out.set("text.corpus.materialize_ms", median(&self.materialize_ms));
        out.set("text.blocking.candidates_ms", blocking);
        out.set("text.blocking.candidates", mean(&self.candidates));
        out.set("text.blocking.pair_completeness", mean(&self.completeness));
        out.set("graph.bipartite.build_ms", build);
        let pairs: Vec<f64> = self.graphs.iter().map(|g| g.0).collect();
        let edges: Vec<f64> = self.graphs.iter().map(|g| g.1).collect();
        out.set("graph.bipartite.pairs", mean(&pairs));
        out.set("graph.bipartite.edges", mean(&edges));
        out.set("text.simeng.seed_ms", median_of(t, |x| x.seed));
        out.set("text.simeng.cells", per_resolve("simeng.batch.cells_total"));
        out.set("core.iter.ms", median_of(t, |x| x.iter));
        out.set("core.iter.iterations", round_sum(|s| s.iter_iterations));
        out.set("core.cliquerank.ms", median_of(t, |x| x.cliquerank));
        out.set(
            "core.cliquerank.record_graph_edges",
            round_sum(|s| s.record_graph_edges),
        );
        out.set(
            "core.cliquerank.dense_solves",
            per_resolve("cliquerank_dense_solves_total"),
        );
        out.set(
            "core.cliquerank.sparse_solves",
            per_resolve("cliquerank_sparse_solves_total"),
        );
        out.set("matrix.matmul_packed", per_resolve("matmul_packed_total"));
        out.set(
            "core.fusion.other_ms",
            median_of(t, |x| x.fusion - x.iter - x.cliquerank),
        );
        out.set(
            "pool.dispatch.parallel_frac",
            layers::parallel_frac(&self.counters),
        );
        out.set(
            "pool.busy_frac",
            layers::busy_frac(report, threads, self.wall_ns),
        );
        let paired: Vec<f64> = t
            .iter()
            .zip(&self.untraced)
            .map(|(a, u)| ratio(a.wall, u.wall))
            .collect();
        out.set("obs.overhead.resolve_ratio", median(&paired));
        out.set("obs.unattributed_frac", ratio(build + glue, wall));

        out.note("traced_resolves", t.len());
    }
}

/// Adds the counter deltas between `before` and `after` to `into`:
/// what one end-to-end call recorded.
fn accumulate_counters(into: &mut er_obs::Report, before: &er_obs::Report, after: &er_obs::Report) {
    for c in &after.counters {
        let delta = c.value - before.counter(&c.name);
        match into.counters.iter_mut().find(|x| x.name == c.name) {
            Some(x) => x.value += delta,
            None => into.counters.push(er_obs::CounterStat {
                name: c.name.clone(),
                value: delta,
            }),
        }
    }
}
