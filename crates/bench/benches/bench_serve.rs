//! **bench_serve** — sustained-ingest throughput and concurrent query
//! latency of the streaming serving engine.
//!
//! Drives `er-serve` with the census generator: records are ingested in
//! micro-batches with a resolve after each batch (the serving steady
//! state), while a concurrent reader thread hammers a [`QueryHandle`]
//! with match-probability lookups the whole time. Per corpus size the
//! harness records, into the shared BenchFile schema
//! (`BENCH_serve.json`):
//!
//! * ingest throughput (records/s, wall clock over the whole stream
//!   including every incremental resolve),
//! * query latency percentiles (p50/p95/p99, µs) under ingest load,
//! * the warm incremental resolve time after a single-record ingest
//!   versus the cold from-scratch batch resolve of the same corpus —
//!   the incremental speedup the component cache buys.
//!
//! The serving regime runs 2 reinforcement rounds (latency-oriented;
//! the paper-accuracy regime of 5 rounds is measured by
//! `bench_fusion`).
//!
//! Run: `ER_SCALE=ci cargo bench -p er-bench --bench bench_serve`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use er_bench::{bench_threads, fmt_duration, print_header, scale_factor};
use er_datasets::generators::census;
use er_datasets::CensusConfig;
use er_obs::{BenchFile, BenchRun};
use er_serve::{resolve_batch, ServeConfig, ServeEngine};
use er_text::BlockingStrategy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The size ladder, in records (scaled by `ER_SCALE`).
const SIZES: [usize; 2] = [10_000, 30_000];

/// Micro-batches per stream: one resolve after each.
const BATCHES: usize = 10;

/// Query-latency samples kept per run (the reader keeps querying once
/// the buffer is full; only recording stops).
const MAX_SAMPLES: usize = 1_000_000;

fn serve_config(threads: usize) -> ServeConfig {
    let mut config = ServeConfig {
        strategy: BlockingStrategy::meta_default(),
        ..ServeConfig::default()
    };
    config.fusion.threads = threads;
    config.fusion.rounds = 2;
    config
}

/// The `p`-quantile of sorted nanosecond samples, in microseconds.
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[i] as f64 / 1_000.0
}

fn main() {
    let scale = scale_factor();
    let threads = bench_threads();
    let out_path = std::env::var("ER_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_owned());
    er_obs::set_recording(true);
    println!("BENCH_serve — sustained ingest + concurrent queries at scale factor {scale}, {threads} threads");
    print_header(
        "serve",
        &[
            ("records", 9),
            ("ingest", 9),
            ("rec/s", 9),
            ("p50", 9),
            ("p95", 9),
            ("p99", 9),
            ("warm", 9),
            ("batch", 9),
            ("speedup", 8),
        ],
    );

    let mut file = BenchFile::default();
    for base in SIZES {
        let n = er_datasets::scaled(base, scale);
        let dataset = census::generate(&CensusConfig {
            records: n,
            duplicate_rate: 0.2,
            seed: 0xCE_0505,
        });
        let texts: Vec<String> = dataset.texts().map(str::to_owned).collect();

        er_obs::reset();
        let mut engine = ServeEngine::new(serve_config(threads));

        // Concurrent reader: random match-probability lookups against
        // the freshest snapshot for the whole lifetime of the stream.
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let mut handle = engine.query_handle();
            let stop = Arc::clone(&stop);
            let n = n as u32;
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x5EED);
                let mut samples: Vec<u64> = Vec::with_capacity(MAX_SAMPLES.min(1 << 20));
                let mut queries = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let a = rng.random_range(0..n);
                    let b = rng.random_range(0..n);
                    let t = Instant::now();
                    let _ = handle.match_probability(a, b);
                    let nanos = t.elapsed().as_nanos() as u64;
                    queries += 1;
                    if samples.len() < MAX_SAMPLES {
                        samples.push(nanos);
                    }
                }
                (samples, queries)
            })
        };

        // Sustained ingest: micro-batches with a resolve after each.
        let batch = n.div_ceil(BATCHES);
        let ingest_start = Instant::now();
        for chunk in texts.chunks(batch) {
            engine.ingest_batch(chunk.iter().map(String::as_str));
            engine.resolve();
        }
        let ingest_elapsed = ingest_start.elapsed();
        stop.store(true, Ordering::Relaxed);
        let (mut samples, queries) = reader.join().expect("reader thread");
        samples.sort_unstable();

        // Warm incremental resolve (one more record) vs cold batch.
        engine.ingest("warm resolve probe record");
        let t = Instant::now();
        engine.resolve();
        let warm = t.elapsed();
        let mut all_texts = texts.clone();
        all_texts.push("warm resolve probe record".to_owned());
        let t = Instant::now();
        let batch_snap = resolve_batch(all_texts.iter().cloned(), engine.config());
        let cold = t.elapsed();
        assert!(
            engine.snapshot().bitwise_eq(&batch_snap),
            "incremental and batch resolution diverged at n={n}"
        );

        let throughput = n as f64 / ingest_elapsed.as_secs_f64();
        let (p50, p95, p99) = (
            percentile_us(&samples, 0.50),
            percentile_us(&samples, 0.95),
            percentile_us(&samples, 0.99),
        );
        let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
        er_obs::gauge_set("serve.ingest_throughput_rps", throughput);
        er_obs::gauge_set("serve.query_p50_us", p50);
        er_obs::gauge_set("serve.query_p95_us", p95);
        er_obs::gauge_set("serve.query_p99_us", p99);
        er_obs::gauge_set("serve.queries_under_load", queries as f64);
        er_obs::gauge_set("serve.warm_resolve_ms", warm.as_secs_f64() * 1_000.0);
        er_obs::gauge_set("serve.batch_resolve_ms", cold.as_secs_f64() * 1_000.0);
        er_obs::gauge_set("serve.incremental_speedup", speedup);
        let report = er_obs::snapshot();
        let dispatch_mode = if report.counter("pool.dispatch.parallel") > 0 {
            Some("pooled".to_owned())
        } else if report.counter("pool.dispatch.serial_inline") > 0 {
            Some("serial-inline".to_owned())
        } else {
            None
        };
        println!(
            "{:<9} {:<9} {:<9.0} {:<9.1} {:<9.1} {:<9.1} {:<9} {:<9} {:<8.2}",
            n,
            fmt_duration(ingest_elapsed),
            throughput,
            p50,
            p95,
            p99,
            fmt_duration(warm),
            fmt_duration(cold),
            speedup,
        );
        file.runs.push(BenchRun {
            label: "serve".to_owned(),
            dataset: format!("n{n}"),
            mode: "meta".to_owned(),
            threads: threads as u64,
            scaling_ratio: None,
            dispatch_mode,
            reduction_ratio: None,
            pair_completeness: None,
            report,
        });
    }

    std::fs::write(&out_path, file.to_json()).expect("write BENCH_serve.json");
    println!("wrote {out_path} ({} runs)", file.runs.len());
}
