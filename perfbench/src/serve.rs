//! The serving workload: a `ServeEngine` prefilled with census records
//! takes an open-loop stream of further records (ingest everything due,
//! then resolve: one epoch), while one closed-loop reader thread sends
//! the query mix to a `QueryHandle`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use er_core::Resolver;
use er_datasets::generators::census;
use er_datasets::{CensusConfig, Dataset};
use er_eval::{evaluate_pairs, TruthPairs};
use er_pool::{DispatchPolicy, WorkerPool};
use er_serve::{resolve_batch, QueryHandle, ServeConfig, ServeEngine, Snapshot};
use er_text::{BlockingStrategy, CorpusBuilder};
use unsupervised_er::pipeline;

use crate::layers::{self, ratio, span_ms};
use crate::queries::{self, check_resolution, Answer, Query, Rng};
use crate::stats::{self, beyond, median, percentile, Epoch, OpenLoop, MIN_BEYOND};
use crate::{Args, Outcome};

/// Records ingested and resolved before the stream starts.
const PREFILL: usize = 20_000;

/// Records the stream may add: 10 % of the prefill, so epoch cost stays
/// level over a run.
const STREAM_CAP: usize = PREFILL / 10;

/// Stream arrival rate, records per second.
const RATE: f64 = 100.0;

/// Reinforcement rounds in the serving regime.
const ROUNDS: usize = 2;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Published snapshots kept for checking query answers.
const HISTORY: usize = 8;

/// Share of a traced run's window spent untraced, as the reference for
/// the overhead ratios.
const UNTRACED_SHARE: f64 = 0.15;

/// The tail percentiles named in `BENCHMARK.json`.
const LAG_TAIL: f64 = 99.0;
const RESOLVE_TAIL: f64 = 70.0;

fn config(threads: usize) -> ServeConfig {
    let mut config = ServeConfig {
        strategy: BlockingStrategy::meta_default(),
        ..ServeConfig::default()
    };
    config.fusion.threads = threads;
    config.fusion.rounds = ROUNDS;
    config.fusion.dispatch = DispatchPolicy::default();
    config
}

/// What the writer publishes and the reader checks against.
struct Shared {
    /// The latest published snapshots, oldest first.
    history: Mutex<VecDeque<Arc<Snapshot>>>,
    stop: AtomicBool,
}

impl Shared {
    fn publish(&self, snapshot: Arc<Snapshot>) {
        let mut h = self.history.lock().expect("history lock poisoned");
        if h.len() == HISTORY {
            h.pop_front();
        }
        h.push_back(snapshot);
    }

    /// The published snapshot of `epoch`, waiting briefly for the writer
    /// to record it (the reader can see an epoch before `resolve`
    /// returns to the writer).
    fn lookup(&self, epoch: u64) -> Option<Arc<Snapshot>> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            {
                let h = self.history.lock().expect("history lock poisoned");
                if let Some(s) = h.iter().find(|s| s.epoch() == epoch) {
                    return Some(Arc::clone(s));
                }
                if h.back().is_some_and(|s| s.epoch() > epoch) || Instant::now() > deadline {
                    return None;
                }
            }
            std::thread::yield_now();
        }
    }
}

/// The reader's record of a run.
#[derive(Debug, Default)]
struct ReaderLog {
    /// Per timed batch: whether recording was on, the epoch it started
    /// on, per-query nanoseconds.
    batches: Vec<(bool, u64, f64)>,
    attempted: u64,
    failed: u64,
    /// When the reader first saw each epoch.
    first_seen: Vec<(u64, Instant)>,
}

fn answer(handle: &mut QueryHandle, q: Query) -> Answer {
    match q {
        Query::Probability(a, b) => {
            Answer::Probability(handle.match_probability(a, b).map(f64::to_bits))
        }
        Query::IsMatch(a, b) => Answer::IsMatch(handle.is_match(a, b)),
        Query::ClusterOf(r) => Answer::ClusterOf(handle.cluster_of(r)),
    }
}

/// What `snapshot` itself returns for `q`.
fn expected(snapshot: &Snapshot, q: Query) -> Answer {
    match q {
        Query::Probability(a, b) => {
            Answer::Probability(snapshot.match_probability(a, b).map(f64::to_bits))
        }
        Query::IsMatch(a, b) => Answer::IsMatch(snapshot.is_match(a, b)),
        Query::ClusterOf(r) => Answer::ClusterOf(snapshot.cluster_of(r).map(<[u32]>::to_vec)),
    }
}

/// The closed-loop reader: timed batches of the mix until stopped, each
/// answer then checked against the snapshot it was read from.
fn reader(mut handle: QueryHandle, shared: &Shared, seed: u64) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut rng = Rng::new(seed, 0x5EAD);
    let mut batch = Vec::with_capacity(queries::BATCH);
    let mut answers = Vec::with_capacity(queries::BATCH);
    let mut read_from = Vec::with_capacity(queries::BATCH);
    let mut seen = handle.epoch();
    while !shared.stop.load(Ordering::Acquire) {
        let snap = Arc::clone(handle.snapshot());
        if snap.epoch() != seen {
            seen = snap.epoch();
            log.first_seen.push((seen, Instant::now()));
        }
        queries::fill_batch(&mut rng, snap.records() as u32, snap.pairs(), &mut batch);
        answers.clear();
        read_from.clear();
        let traced = er_obs::recording();
        let t = Instant::now();
        for &q in &batch {
            answers.push(answer(&mut handle, black_box(q)));
            read_from.push(handle.epoch());
        }
        let ns = t.elapsed().as_nanos() as f64 / queries::BATCH as f64;
        log.batches.push((traced, snap.epoch(), ns));
        if handle.epoch() != seen {
            seen = handle.epoch();
            log.first_seen.push((seen, Instant::now()));
        }
        let mut other: Option<Arc<Snapshot>> = None;
        for ((&q, got), &epoch) in batch.iter().zip(&answers).zip(&read_from) {
            let ok = if epoch == snap.epoch() {
                expected(&snap, q) == *got
            } else {
                if other.as_ref().is_none_or(|s| s.epoch() != epoch) {
                    other = shared.lookup(epoch);
                }
                other.as_ref().is_some_and(|s| expected(s, q) == *got)
            };
            log.failed += u64::from(!ok);
        }
        log.attempted += batch.len() as u64;
    }
    log
}

/// Microseconds from `returned` (a `resolve()` returning, which stands
/// in for the publish it ends with) to `seen` (a reader's first sight of
/// that epoch); negative when the reader saw it first.
fn visibility_us(seen: Instant, returned: Instant) -> f64 {
    let lag = seen.saturating_duration_since(returned).as_secs_f64();
    let lead = returned.saturating_duration_since(seen).as_secs_f64();
    (lag - lead) * 1e6
}

/// One writer epoch, as timed from outside.
#[derive(Debug, Clone, Copy)]
struct EpochTiming {
    span: Epoch,
    traced: bool,
    ingest: Duration,
    resolve: Duration,
    returned: Instant,
    epoch: u64,
}

/// Runs the serving workload and returns its metrics.
pub fn run(args: &Args, nproc: usize) -> Outcome {
    let mut out = Outcome::default();
    let threads = nproc.saturating_sub(1).max(1);
    let config = config(threads);

    // Set-up: generation, engine construction and the prefill, repeated.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut state: Option<(Dataset, ServeEngine, Arc<Snapshot>)> = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        let dataset = census::generate(&CensusConfig {
            records: PREFILL + STREAM_CAP,
            duplicate_rate: 0.2,
            seed: args.seed,
        });
        let mut engine = ServeEngine::new(config.clone());
        engine.ingest_batch(dataset.texts().take(PREFILL));
        let prefill = engine.resolve();
        setup.push(t.elapsed().as_secs_f64());
        state = Some((dataset, engine, prefill));
    }
    let (dataset, mut engine, prefill) = state.expect("at least one set-up repetition");
    out.gate(prefill.records() == PREFILL, || {
        "the prefill snapshot misses records".into()
    });
    out.note(
        "records",
        format!("{PREFILL} prefill + up to {STREAM_CAP} streamed"),
    );
    out.note(
        "threads",
        format!("engine pool of {threads}, 1 reader (nproc {nproc})"),
    );
    out.note("strategy", config.strategy.name());
    out.note("rounds", ROUNDS);
    out.note("stream_rate_per_s", RATE);

    let texts: Vec<&str> = dataset.texts().collect();
    let stream = &texts[PREFILL..];
    let schedule = OpenLoop {
        rate: RATE,
        cap: STREAM_CAP,
    };
    let shared = Shared {
        history: Mutex::new(VecDeque::from([prefill])),
        stop: AtomicBool::new(false),
    };
    let window = args.seconds.as_secs_f64();
    let trace_from = if args.trace {
        window * UNTRACED_SHARE
    } else {
        f64::INFINITY
    };

    let handle = engine.query_handle();
    let mut epochs: Vec<EpochTiming> = Vec::new();
    let mut trace_start = None;
    let mut cache_base = (0, 0, 0, 0);
    let log = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(handle, &shared, args.seed));
        let t0 = Instant::now();
        let mut ingested = 0usize;
        let mut epoch =
            |engine: &mut ServeEngine, ingested: &mut usize, due: usize, traced: bool| {
                let _e = er_obs::span("bench.epoch");
                let ingest_at = t0.elapsed().as_secs_f64();
                let t = Instant::now();
                engine.ingest_batch(stream[*ingested..due].iter().copied());
                let ingest = t.elapsed();
                let t = Instant::now();
                let snap = engine.resolve();
                let resolve = t.elapsed();
                let returned = Instant::now();
                shared.publish(Arc::clone(&snap));
                epochs.push(EpochTiming {
                    span: Epoch {
                        first: *ingested,
                        end: due,
                        ingest_at,
                        resolved_at: (returned - t0).as_secs_f64(),
                        covers: snap.records().saturating_sub(PREFILL),
                    },
                    traced,
                    ingest,
                    resolve,
                    returned,
                    epoch: snap.epoch(),
                });
                *ingested = due;
            };
        loop {
            let now = t0.elapsed().as_secs_f64();
            if now >= window {
                break;
            }
            if now >= trace_from && trace_start.is_none() {
                er_obs::set_recording(true);
                er_obs::reset();
                trace_start = Some(Instant::now());
                cache_base = (
                    engine.cache().hits(),
                    engine.cache().misses(),
                    engine.signatures().reused(),
                    engine.signatures().recomputed(),
                );
            }
            let due = schedule.due_by(now);
            if due > ingested {
                epoch(&mut engine, &mut ingested, due, trace_start.is_some());
            } else {
                // Nothing due: wait for the next arrival (or the end).
                let next = if ingested < STREAM_CAP {
                    schedule.due_at(ingested)
                } else {
                    window
                };
                std::thread::sleep(Duration::from_secs_f64((next.min(window) - now).max(0.0)));
            }
        }
        // Records that fell due inside the window get one last epoch.
        let due = schedule.due_by(window);
        if due > ingested {
            epoch(&mut engine, &mut ingested, due, trace_start.is_some());
        }
        shared.stop.store(true, Ordering::Release);
        reader.join().expect("reader thread panicked")
    });
    // The served workload's peak, read before the gates below build a
    // second resolution of the same texts.
    let peak_rss_mb = crate::provenance::peak_rss_mb();
    let traced_wall_ns = trace_start.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e9);
    let report = args.trace.then(er_obs::snapshot);
    er_obs::set_recording(false);
    let cache_delta = (
        engine.cache().hits() - cache_base.0,
        engine.cache().misses() - cache_base.1,
        engine.signatures().reused() - cache_base.2,
        engine.signatures().recomputed() - cache_base.3,
    );

    // Gates: every epoch covered exactly what was ingested; every query
    // answer was the snapshot's own.
    out.ops(epochs.len() as u64, 0);
    for e in &epochs {
        out.gate(e.span.covers == e.span.end, || {
            format!(
                "epoch {} covers {} of {} streamed records",
                e.epoch, e.span.covers, e.span.end
            )
        });
    }
    out.ops(log.attempted, log.failed);
    if log.failed > 0 {
        eprintln!(
            "perfbench: {} query answers differ from their snapshot",
            log.failed
        );
    }

    // The final snapshot must equal the batch resolution of the same
    // texts, bit for bit.
    let last = engine.snapshot();
    let covered = last.records();
    let t = Instant::now();
    let cold = resolve_batch(texts[..covered].iter().copied(), engine.config());
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    out.gate(last.bitwise_eq(&cold), || {
        "the served snapshot differs from resolve_batch over the same texts".into()
    });
    let checked = check_resolution(
        covered,
        last.pairs(),
        last.probabilities(),
        last.matches(),
        last.clusters(),
        config.fusion.eta,
    );
    out.gate(checked.is_ok(), || format!("{checked:?}"));
    let truth = TruthPairs::from_pairs(
        dataset
            .matching_pairs()
            .into_iter()
            .filter(|&(a, b)| (a as usize) < covered && (b as usize) < covered),
    );
    let f1 = evaluate_pairs(last.matches().iter().copied(), &truth).f1();
    out.gate(f1 >= 0.5, || format!("pairwise F1 {f1} is below 0.5"));
    out.note("streamed_records", covered - PREFILL);
    out.note("epochs", epochs.len());

    let all: Vec<Epoch> = epochs.iter().map(|e| e.span).collect();
    if !args.trace {
        let fresh = stats::freshness(&schedule, &all);
        let epoch_s: Vec<f64> = all.iter().map(|e| e.resolved_at - e.ingest_at).collect();
        out.set("resolve_s", median(&epoch_s));
        out.set("freshness_p50_ms", percentile(&fresh, 50.0) * 1e3);
        out.set("freshness_p99_ms", percentile(&fresh, 99.0) * 1e3);
        out.set("f1", f1);
        out.set("setup_s", median(&setup));
        out.set("peak_rss_mb", peak_rss_mb);
        out.note("freshness_samples", fresh.len());
        out.note("freshness_beyond_p99", beyond(fresh.len(), 99.0));
        out.note("query_batches", log.batches.len());
        return out;
    }

    // Traced run: the cold path again, call by call, on the same texts.
    let report = report.unwrap_or_default();
    let prefix = Dataset::new(
        "census-prefix",
        dataset.records[..covered].to_vec(),
        dataset.policy,
    );
    let pool = WorkerPool::with_policy(threads, DispatchPolicy::default());
    let t = Instant::now();
    let corpus = CorpusBuilder::new()
        .extend_texts(prefix.texts())
        .max_df_fraction(config.max_df_fraction)
        .build();
    let corpus_ms = t.elapsed().as_secs_f64() * 1e3;
    let candidates = config.strategy.candidate_pairs(&corpus, &pool);
    let found = candidates
        .iter()
        .filter(|&&(a, b)| truth.is_match(a, b))
        .count();
    let prepared =
        pipeline::prepare_with_strategy(&prefix, config.max_df_fraction, &config.strategy, &pool);
    let pairs: Vec<(u32, u32)> = prepared.graph.pairs().iter().map(|p| (p.a, p.b)).collect();
    out.gate(pairs == last.pairs(), || {
        "the batch pipeline's candidate graph differs from the served snapshot's".into()
    });
    let t = Instant::now();
    let seed = pipeline::seed_similarities(&prepared.corpus, &prepared.graph, &pool);
    let seed_ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = Resolver::new(config.fusion.clone()).resolve_seeded(&prepared.graph, &seed);
    out.gate(outcome.matches == last.matches(), || {
        "the batch pipeline's matches differ from the served snapshot's".into()
    });

    let traced: Vec<&EpochTiming> = epochs.iter().filter(|e| e.traced).collect();
    let n = traced.len().max(1) as f64;
    let root = "bench.epoch/serve.resolve";
    let resolve_total = span_ms(&report, root);
    let materialize = span_ms(&report, &format!("{root}/streaming.materialize"));
    let blocking = span_ms(&report, &format!("{root}/blocking.candidates"));
    let fusion = span_ms(&report, &format!("{root}/fusion"));
    let iter = span_ms(&report, &format!("{root}/fusion/iter"));
    let cliquerank = span_ms(&report, &format!("{root}/fusion/cliquerank"));
    // The build, seeding and snapshot assembly have no span inside
    // serve.resolve: what its children leave is unattributed.
    let unattributed = (resolve_total - materialize - blocking - fusion).max(0.0);
    let per_epoch = |name: &str| layers::counter(&report, name) / n;
    let traced_spans: Vec<Epoch> = traced.iter().map(|e| e.span).collect();
    let lag = stats::lateness(&schedule, &traced_spans);
    let resolve_ms: Vec<f64> = traced
        .iter()
        .map(|e| e.resolve.as_secs_f64() * 1e3)
        .collect();
    let untraced_ms: Vec<f64> = epochs
        .iter()
        .filter(|e| !e.traced)
        .map(|e| e.resolve.as_secs_f64() * 1e3)
        .collect();
    let ingest_s: f64 = traced.iter().map(|e| e.ingest.as_secs_f64()).sum();
    let records: usize = traced.iter().map(|e| e.span.end - e.span.first).sum();
    let visibility: Vec<f64> = traced
        .iter()
        .filter_map(|e| {
            let seen = log.first_seen.iter().find(|s| s.0 == e.epoch)?.1;
            Some(visibility_us(seen, e.returned))
        })
        .collect();
    let queries = |traced: bool| -> Vec<f64> {
        log.batches
            .iter()
            .filter(|b| b.0 == traced)
            .map(|b| b.2)
            .collect()
    };
    let (q_untraced, q_traced) = (queries(false), queries(true));

    out.set("text.corpus.build_ms", corpus_ms);
    out.set("text.corpus.materialize_ms", materialize / n);
    out.set("text.blocking.candidates_ms", blocking / n);
    out.set("text.blocking.candidates", candidates.len() as f64);
    out.set(
        "text.blocking.pair_completeness",
        ratio(found as f64, truth.total() as f64),
    );
    out.set(
        "text.lsh.signature_reuse_ratio",
        ratio(cache_delta.2 as f64, cache_delta.3 as f64),
    );
    out.set("graph.bipartite.build_ms", unattributed / n);
    out.set("graph.bipartite.pairs", pairs.len() as f64);
    out.set("graph.bipartite.edges", prepared.graph.edge_count() as f64);
    out.set("text.simeng.seed_ms", seed_ms);
    out.set("text.simeng.cells", per_epoch("simeng.batch.cells_total"));
    out.set("core.iter.ms", iter / n);
    out.set("core.iter.iterations", per_epoch("iter_iterations_total"));
    out.set("core.cliquerank.ms", cliquerank / n);
    out.set(
        "core.cliquerank.record_graph_edges",
        outcome
            .rounds
            .iter()
            .map(|s| s.record_graph_edges)
            .sum::<usize>() as f64,
    );
    out.set(
        "core.cliquerank.dense_solves",
        per_epoch("cliquerank_dense_solves_total"),
    );
    out.set(
        "core.cliquerank.sparse_solves",
        per_epoch("cliquerank_sparse_solves_total"),
    );
    out.set("matrix.matmul_packed", per_epoch("matmul_packed_total"));
    out.set(
        "core.cliquerank.cache_hit_ratio",
        ratio(cache_delta.0 as f64, (cache_delta.0 + cache_delta.1) as f64),
    );
    out.set("core.fusion.other_ms", (fusion - iter - cliquerank) / n);
    out.set(
        "pool.dispatch.parallel_frac",
        layers::parallel_frac(&report),
    );
    out.set(
        "pool.busy_frac",
        layers::busy_frac(&report, threads, traced_wall_ns),
    );
    out.set(
        "serve.ingest_us_per_record",
        ratio(ingest_s * 1e6, records as f64),
    );
    out.set("serve.ingest_lag_ms_p50", percentile(&lag, 50.0) * 1e3);
    out.set("serve.ingest_lag_ms_p99", percentile(&lag, LAG_TAIL) * 1e3);
    out.set("serve.resolve_ms_p50", median(&resolve_ms));
    out.set(
        "serve.resolve_ms_p70",
        percentile(&resolve_ms, RESOLVE_TAIL),
    );
    out.set("serve.epoch_records", ratio(records as f64, n));
    out.set("serve.cold_resolve_ms", cold_ms);
    out.set("serve.visibility_lag_us", median(&visibility));
    out.set("serve.snapshot_pairs", last.pairs().len() as f64);
    // Query cost with recording off, from the untraced part of the run.
    out.set("serve.query_p50_ns", median(&q_untraced));
    out.set("serve.query_p99_ns", percentile(&q_untraced, 99.0));
    out.set(
        "obs.overhead.resolve_ratio",
        ratio(median(&resolve_ms), median(&untraced_ms)),
    );
    out.set(
        "obs.overhead.query_ratio",
        ratio(median(&q_traced), median(&q_untraced)),
    );
    out.set("obs.unattributed_frac", ratio(unattributed, resolve_total));
    for (name, n, p) in [
        ("serve.ingest_lag_ms_p99", lag.len(), LAG_TAIL),
        ("serve.resolve_ms_p70", resolve_ms.len(), RESOLVE_TAIL),
    ] {
        let left = beyond(n, p);
        out.note(&format!("{name}.samples"), n);
        out.note(&format!("{name}.beyond"), left);
        let rule = stats::tail_percentile(n).map_or("none".to_owned(), |p| format!("p{p}"));
        out.note(&format!("{name}.highest_percentile_with_ten_beyond"), rule);
        if left < MIN_BEYOND {
            eprintln!("perfbench: {name} has {left} samples beyond it (fewer than {MIN_BEYOND}); run longer");
        }
    }
    out.note("traced_epochs", traced.len());
    out.report = Some(report);
    out
}
