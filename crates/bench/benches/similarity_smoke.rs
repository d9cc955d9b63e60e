//! **similarity_smoke** — release-mode regression gate for the batch
//! string-similarity engine.
//!
//! Times every [`SimKernel`] over one restaurant-style candidate list,
//! batch engine vs the per-pair reference path
//! ([`BatchScorer::score_pair_reference`] — fresh strings, scalar DP,
//! no memoization), on a single thread so the gate measures the
//! engine's storage/kernel wins rather than parallel fan-out. CI runs
//! this so a batching regression fails the build instead of silently
//! eating the speedup. Gates:
//!
//! * the aggregate ratio (Σ per-pair / Σ batch over all four kernels)
//!   must be ≥ 1 — the engine must never be a net loss;
//! * at least two individual kernels must be ≥ 1× — the PR's CUPS
//!   target lives on ≥ 2 kernels, and shared CI runners are too noisy
//!   to hard-gate all four.
//!
//! Batch output is asserted bit-identical to the per-pair reference
//! before any timing. Run:
//! `cargo bench -p er-bench --bench similarity_smoke`.

use std::time::Instant;

use er_datasets::{generators, RestaurantConfig};
use er_pool::WorkerPool;
use er_text::{BatchScorer, SimKernel};
use unsupervised_er::pipeline;

/// Best-of-`reps` wall time of `f`.
fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let dataset = generators::restaurant::generate(&RestaurantConfig {
        records: 400,
        duplicate_pairs: 60,
        seed: 17,
    });
    let prepared = pipeline::prepare_with(&dataset, pipeline::DEFAULT_MAX_DF_FRACTION);
    let scorer = BatchScorer::new(&prepared.corpus);
    let idx: Vec<(u32, u32)> = prepared.graph.pairs().iter().map(|p| (p.a, p.b)).collect();
    let cells = scorer.cells(&idx);
    let pool = WorkerPool::new(1);
    println!(
        "similarity_smoke — {} pairs, {cells} DP cells, single thread",
        idx.len()
    );

    let mut total_per_pair = 0.0;
    let mut total_batch = 0.0;
    let mut kernels_ok = 0usize;
    for kernel in SimKernel::ALL {
        let mut oracle = vec![0.0f64; idx.len()];
        for (v, &(a, b)) in oracle.iter_mut().zip(&idx) {
            *v = scorer.score_pair_reference(kernel, a, b);
        }
        let mut out = vec![0.0f64; idx.len()];
        scorer.score_into(kernel, &idx, &mut out, &pool);
        let ob: Vec<u64> = oracle.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            ob,
            bb,
            "{}: batch engine diverged from the per-pair reference",
            kernel.name()
        );

        let per_pair_s = time_min(3, || {
            for (v, &(a, b)) in oracle.iter_mut().zip(&idx) {
                *v = scorer.score_pair_reference(kernel, a, b);
            }
        });
        let batch_s = time_min(3, || {
            scorer.score_into(kernel, &idx, &mut out, &pool);
        });
        let ratio = per_pair_s / batch_s;
        total_per_pair += per_pair_s;
        total_batch += batch_s;
        if ratio >= 1.0 {
            kernels_ok += 1;
        }
        println!(
            "  {:<15} per-pair {per_pair_s:.4}s  batch {batch_s:.4}s  speedup {ratio:.2}x",
            kernel.name()
        );
    }

    let aggregate = total_per_pair / total_batch;
    println!(
        "aggregate: per-pair {total_per_pair:.4}s  batch {total_batch:.4}s  ({aggregate:.2}x)"
    );
    if aggregate < 1.0 {
        eprintln!("FAIL: batch engine slower than per-pair in aggregate ({aggregate:.2}x)");
        std::process::exit(1);
    }
    if kernels_ok < 2 {
        eprintln!("FAIL: only {kernels_ok}/4 kernels at ≥ 1x batch speedup");
        std::process::exit(1);
    }
    println!("OK: batch ≥ per-pair in aggregate and on {kernels_ok}/4 kernels");
}
