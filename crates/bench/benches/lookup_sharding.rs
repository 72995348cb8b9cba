//! Lookup-layer sharding benchmark on the enterprise-scale warehouse.
//!
//! Two views of the same workload at 1/2/4/8 shards:
//!
//! * `lookup_step` / `full_search` — wall-clock time of Step 1 alone and of
//!   the whole pipeline.  The fan-out only spawns helper threads when the
//!   host has spare cores (`available_parallelism`), so on a single-core
//!   runner these stay flat (multi-shard never pessimizes) while on a
//!   multicore host they follow the critical path.
//! * `probe_critical_path` — the per-probe critical path: scanning only the
//!   *largest* busy shard of each query's probe, which is what bounds a
//!   parallel probe's latency once every shard has its own core.  This is
//!   the structural speedup sharding unlocks, independent of the bench
//!   host's core count.
//!
//! The workload leans on probe-heavy tokens whose postings spread over
//! several tables — "Switzerland" spans `individual`, `organization` and
//! `address`; family names span `individual` and `individual_name_hist`;
//! currency codes span `trade_order_td`, `money_transaction_td` and
//! `account_td` — which is the shape table-partitioned fan-out accelerates.
//! SQL output is byte-identical at every shard count, so the comparison is
//! pure latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use soda_core::{Database, EngineSnapshot, MetaGraph, SodaConfig};
use soda_warehouse::enterprise::{self, EnterpriseConfig};

/// Probe-heavy lookup workload (see the module docs for why these tokens).
const QUERIES: &[&str] = &[
    "customers Switzerland",
    "Meier",
    "Keller Switzerland",
    "CHF",
    "Schmid",
];

fn engine(db: &Arc<Database>, graph: &Arc<MetaGraph>, shards: usize) -> EngineSnapshot {
    EngineSnapshot::build(
        Arc::clone(db),
        Arc::clone(graph),
        SodaConfig {
            shards,
            ..SodaConfig::default()
        },
    )
}

fn bench_lookup_sharding(c: &mut Criterion) {
    // Scale both the transactional tables and the party-rooted dimensions so
    // the probe-token postings lists are long, and long across many tables.
    let (db, graph) = enterprise::build_with_dimensions(
        EnterpriseConfig {
            seed: 42,
            padding: true,
            data_scale: 2.0,
        },
        8.0,
    )
    .shared_parts();

    let mut group = c.benchmark_group("lookup_sharding");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let engine = engine(&db, &graph, shards);
        group.bench_with_input(
            BenchmarkId::new("lookup_step", shards),
            &engine,
            |b, engine| {
                b.iter(|| {
                    let mut complexity = 0usize;
                    for query in QUERIES {
                        complexity += engine.lookup(query).expect("lookup runs").complexity();
                    }
                    black_box(complexity)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("full_search", shards),
            &engine,
            |b, engine| {
                b.iter(|| {
                    let mut results = 0usize;
                    for query in QUERIES {
                        results += engine.search(query).expect("search runs").len();
                    }
                    black_box(results)
                })
            },
        );
        // Critical path: for every word of every query that probes the base
        // data, scan only the largest busy shard — a lower bound on the
        // probe's parallel latency, and exactly the 1-shard scan when
        // shards = 1.
        group.bench_with_input(
            BenchmarkId::new("probe_critical_path", shards),
            &engine,
            |b, engine| {
                let index = engine.inverted_index().expect("index enabled");
                // The largest busy shard per probe is iteration-invariant:
                // resolve it outside the timed loop so the metric measures
                // only the scan itself.
                let targets: Vec<_> = QUERIES
                    .iter()
                    .flat_map(|q| q.split_whitespace())
                    .filter_map(|word| index.probe(word))
                    .map(|probe| {
                        let largest = index
                            .shards()
                            .iter()
                            .max_by_key(|s| s.probe_candidates(&probe).len())
                            .expect("at least one shard");
                        (largest, probe)
                    })
                    .collect();
                b.iter(|| {
                    let mut hits = 0usize;
                    for (shard, probe) in &targets {
                        hits += shard.probe_phrase(engine.database(), probe).len();
                    }
                    black_box(hits)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lookup_sharding);
criterion_main!(benches);
