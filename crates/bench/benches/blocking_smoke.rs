//! **blocking_smoke** — CI gate for candidate-generation scaling and
//! recall.
//!
//! Runs the meta-blocking strategy (token blocks + banding LSH →
//! purge/filter/prune) on two fixed census sizes and fails the build
//! when either invariant breaks:
//!
//! 1. **Near-linear growth** — candidates-per-record at 60 k records
//!    must stay within 2× of the 20 k value. A quadratic (or
//!    superlinear) regression in blocking shows up here immediately
//!    because the census generator pins per-term block sizes across
//!    scales.
//! 2. **Recall floor** — pair completeness ≥ 0.95 at both sizes: the
//!    pruning pipeline must not buy its reduction ratio with missed
//!    duplicates.
//! 3. **Graph build per candidate** — the median of 5
//!    `candidate_graph` builds over the meta list costs ≤ 5 µs per
//!    candidate pair at both sizes. Building from the list costs
//!    O(Σ_candidates |terms|); a build that falls back to enumerating
//!    every posting pair (O(Σ_t df_t²)) costs tens of µs per candidate
//!    here. A growth ratio cannot gate this: both costs grow 4–5× from
//!    20 k to 60 k records. The same bound holds for the build over the
//!    `TokenGraph` list of the Cora analogue (0.4 scale, max-df 0.15, no
//!    policy) — the dense token graph the batch benchmark resolves.
//!
//! Sizes are fixed (no `ER_SCALE`) so the gate is comparable across CI
//! runs. Exits non-zero on failure, like the other `*_smoke` targets.

use std::time::{Duration, Instant};

use er_bench::{bench_threads, fmt_duration};
use er_datasets::generators::{census, paper};
use er_datasets::{CensusConfig, PaperConfig};
use er_pool::WorkerPool;
use er_text::blocking::{candidate_graph, reduction_ratio, BlockingStrategy};
use er_text::{Corpus, CorpusBuilder};
use unsupervised_er::pipeline::DEFAULT_MAX_DF_FRACTION;

const SIZES: [usize; 2] = [20_000, 60_000];
const MAX_GROWTH: f64 = 2.0;
const MIN_COMPLETENESS: f64 = 0.95;
const BUILD_RUNS: usize = 5;
const MAX_BUILD_US_PER_CANDIDATE: f64 = 5.0;
const CORA_SCALE: f64 = 0.4;
const CORA_MAX_DF: f64 = 0.15;

/// Median of [`BUILD_RUNS`] `candidate_graph` builds over `pairs`, and
/// that median in µs per candidate pair.
fn median_build(corpus: &Corpus, pairs: &[(u32, u32)]) -> (Duration, f64) {
    let mut builds: Vec<Duration> = (0..BUILD_RUNS)
        .map(|_| {
            let t = Instant::now();
            let graph = candidate_graph(corpus, pairs, None);
            let elapsed = t.elapsed();
            std::hint::black_box(graph);
            elapsed
        })
        .collect();
    builds.sort_unstable();
    let build = builds[BUILD_RUNS / 2];
    (build, build.as_secs_f64() * 1e6 / pairs.len().max(1) as f64)
}

fn main() {
    let pool = WorkerPool::new(bench_threads());
    let strategy = BlockingStrategy::meta_default();
    println!("blocking_smoke — meta-blocking scaling, recall + graph-build gate");

    let mut curve: Vec<(usize, f64, f64, f64)> = Vec::new();
    for n in SIZES {
        let dataset = census::generate(&CensusConfig {
            records: n,
            duplicate_rate: 0.2,
            seed: 0xCE_0505,
        });
        let corpus = CorpusBuilder::new()
            .extend_texts(dataset.texts())
            .max_df_fraction(DEFAULT_MAX_DF_FRACTION)
            .build();
        let mut truth = dataset.matching_pairs();
        truth.sort_unstable();

        let t = Instant::now();
        let pairs = strategy.candidate_pairs(&corpus, &pool);
        let elapsed = t.elapsed();
        let found = truth
            .iter()
            .filter(|p| pairs.binary_search(p).is_ok())
            .count();
        let pc = found as f64 / truth.len() as f64;
        let cpr = pairs.len() as f64 / n as f64;
        let (build, build_us) = median_build(&corpus, &pairs);
        println!(
            "  n={n:<6} candidates={:<9} cand/rec={cpr:<7.2} red.ratio={:<9.6} pair-compl={pc:.4} ({}) graph={} ({build_us:.3} µs/cand)",
            pairs.len(),
            reduction_ratio(n, pairs.len()),
            fmt_duration(elapsed),
            fmt_duration(build)
        );
        curve.push((n, cpr, pc, build_us));
    }

    let cora = paper::generate(&PaperConfig::default().scaled(CORA_SCALE));
    let corpus = CorpusBuilder::new()
        .extend_texts(cora.texts())
        .max_df_fraction(CORA_MAX_DF)
        .build();
    let pairs = BlockingStrategy::TokenGraph.candidate_pairs(&corpus, &pool);
    let (cora_build, cora_us) = median_build(&corpus, &pairs);
    println!(
        "  cora x{CORA_SCALE} token graph: records={} candidates={} graph={} ({cora_us:.3} µs/cand)",
        corpus.len(),
        pairs.len(),
        fmt_duration(cora_build)
    );

    let growth = curve[1].1 / curve[0].1;
    println!(
        "  cand/rec growth {}k -> {}k: {growth:.2}x",
        SIZES[0] / 1000,
        SIZES[1] / 1000
    );
    let mut failed = false;
    if growth > MAX_GROWTH {
        eprintln!(
            "FAIL: candidates-per-record grew {growth:.2}x from {} to {} records (max {MAX_GROWTH}x) — blocking is superlinear",
            SIZES[0], SIZES[1]
        );
        failed = true;
    }
    for &(n, _, pc, build_us) in &curve {
        if pc < MIN_COMPLETENESS {
            eprintln!(
                "FAIL: pair completeness {pc:.4} at n={n} is below the {MIN_COMPLETENESS} floor — pruning is dropping duplicates"
            );
            failed = true;
        }
        if build_us > MAX_BUILD_US_PER_CANDIDATE {
            eprintln!(
                "FAIL: the candidate graph build costs {build_us:.3} µs per candidate at n={n} (max {MAX_BUILD_US_PER_CANDIDATE}) — it is not built from the candidate list"
            );
            failed = true;
        }
    }
    if cora_us > MAX_BUILD_US_PER_CANDIDATE {
        eprintln!(
            "FAIL: the token-graph build over the Cora analogue costs {cora_us:.3} µs per candidate (max {MAX_BUILD_US_PER_CANDIDATE})"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("blocking_smoke OK");
}
