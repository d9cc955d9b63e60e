//! Streaming deduplication with the serving engine.
//!
//! A [`ServeEngine`] receives records in micro-batches; each resolve
//! replays unchanged record-graph components from the CliqueRank cache
//! and reuses the MinHash signatures of records whose term set did not
//! change, so the cost of an append is proportional to what it touched.
//! The result stays bit-identical to a from-scratch batch run, which
//! the example checks at the end.
//!
//! Run: `cargo run --release --example incremental_stream`

use std::time::Instant;

use unsupervised_er::prelude::*;
use unsupervised_er::serve::resolve_batch;
use unsupervised_er::text::BlockingStrategy;

fn main() {
    let dataset =
        er_datasets::generators::restaurant::generate(&RestaurantConfig::default().scaled(0.5));
    let config = ServeConfig {
        strategy: BlockingStrategy::meta_default(),
        max_df_fraction: 0.035,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(config);

    // Phase 1: bulk-load 80% of the stream.
    let cut = dataset.len() * 4 / 5;
    engine.ingest_batch(dataset.texts().take(cut));
    let t0 = Instant::now();
    let snapshot = engine.resolve();
    println!(
        "bulk load: {cut} records, {} matches in {:?} ({} components solved)",
        snapshot.matches().len(),
        t0.elapsed(),
        engine.cache().misses()
    );

    // Phase 2: append the remaining 20% in small batches.
    for batch in dataset.records[cut..].chunks(10) {
        let (hits, misses) = (engine.cache().hits(), engine.cache().misses());
        let reused = engine.signatures().reused();
        engine.ingest_batch(batch.iter().map(|r| r.text.as_str()));
        let t = Instant::now();
        let snapshot = engine.resolve();
        let took = t.elapsed();
        println!(
            "+{} records -> {} matches in {took:?} \
             (solved {:>3} components, reused {:>3} from cache, {:>4} signatures reused)",
            batch.len(),
            snapshot.matches().len(),
            engine.cache().misses() - misses,
            engine.cache().hits() - hits,
            engine.signatures().reused() - reused
        );
    }

    let snapshot = engine.snapshot();
    let multi = snapshot.clusters().iter().filter(|c| c.len() > 1).count();
    println!(
        "\nfinal: {multi} multi-record entities over {} records",
        snapshot.records()
    );
    let batch = resolve_batch(dataset.texts(), engine.config());
    assert!(
        snapshot.bitwise_eq(&batch),
        "incremental resolution must equal the batch run bit for bit"
    );
    println!("final snapshot is bit-identical to the batch resolution");
}
