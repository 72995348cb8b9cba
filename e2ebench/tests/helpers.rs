//! Tests of the benchmark's own helpers: percentile selection, the seeded
//! input generators, the pipeline replay, and the agreement between the
//! metrics the program prints and the ones `BENCHMARK.json` declares.

use std::sync::Arc;
use std::time::Duration;

use soda_core::EngineSnapshot;
use soda_e2ebench::inputs::{self, Vocabulary};
use soda_e2ebench::replay::replay;
use soda_e2ebench::report::{END_TO_END, PER_LAYER};
use soda_e2ebench::rng::{Rng, Zipf};
use soda_e2ebench::spans::Tracer;
use soda_e2ebench::stats::{percentile, supported_tail, Hist};
use soda_e2ebench::{config, PAGE_SIZE};
use soda_warehouse::enterprise::{self, EnterpriseConfig};
use soda_warehouse::SchemaModel;

fn system(padding: bool) -> (EngineSnapshot, SchemaModel) {
    let warehouse = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding,
        data_scale: 1.0,
    });
    let snapshot = EngineSnapshot::build(
        Arc::new(warehouse.database),
        Arc::new(warehouse.graph),
        config::soda_config(),
    );
    (snapshot, warehouse.model)
}

#[test]
fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(supported_tail(0), None);
    assert_eq!(supported_tail(19), None);
    assert_eq!(supported_tail(20), Some(50.0));
    assert_eq!(supported_tail(100), Some(90.0));
    assert_eq!(supported_tail(999), Some(98.0));
    assert_eq!(supported_tail(1000), Some(99.0));
    assert_eq!(supported_tail(1999), Some(99.0));
    assert_eq!(supported_tail(2000), Some(99.5));
    assert_eq!(supported_tail(10_000), Some(99.9));
    for n in 1..3000 {
        if let Some(p) = supported_tail(n) {
            let beyond = n - ((p * 10.0).round() as usize * n).div_ceil(1000);
            assert!(beyond >= 10, "p{p} of {n} leaves {beyond} beyond");
        }
    }
}

#[test]
fn histogram_percentiles_match_the_exact_nearest_rank_within_its_precision() {
    let mut rng = Rng::new(7, 0);
    let mut exact: Vec<f64> = (0..5000).map(|_| 1.0 + 5000.0 * rng.unit()).collect();
    let mut hist = Hist::default();
    exact.iter().for_each(|&v| hist.record(v));
    exact.sort_by(f64::total_cmp);
    for p in [1.0, 50.0, 90.0, 99.0, 99.9] {
        let want = percentile(&exact, p).unwrap();
        let got = hist.percentile(p).unwrap();
        assert!((got - want).abs() <= want / 1000.0, "p{p}: {got} vs {want}");
    }
    let summary = hist.summary().unwrap();
    assert_eq!((summary.count, summary.tail_at), (5000, 99.0));
    assert_eq!(Hist::default().percentile(50.0), None);
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
    let (snapshot, model) = system(false);
    let vocab = Vocabulary::harvest(snapshot.database(), &model);
    let table2 = inputs::table2_inputs();
    let texts = |seed| -> Vec<String> {
        inputs::pool(&snapshot, &vocab, &table2, 40, seed)
            .into_iter()
            .map(|c| c.input)
            .collect()
    };
    let first = texts(1);
    assert_eq!(first.len(), 40);
    assert_eq!(first[..table2.len()], table2[..]);
    assert_eq!(first, texts(1));
    assert_ne!(first, texts(2));

    let feeds = |seed| inputs::feed_chain(snapshot.database(), 3, 4, seed);
    assert_eq!(feeds(1), feeds(1));
    assert_ne!(feeds(1), feeds(2));

    let zipf = Zipf::new(100, 1.0);
    let draws = |seed| -> Vec<usize> {
        let mut rng = Rng::new(seed, 3);
        (0..50).map(|_| zipf.sample(&mut rng)).collect()
    };
    assert_eq!(draws(5), draws(5));
    assert_ne!(draws(5), draws(6));
}

#[test]
fn the_pipeline_replay_equals_the_engine_on_both_schemas() {
    for padding in [false, true] {
        let (snapshot, _) = system(padding);
        let mut tracer = Tracer::new(std::time::Instant::now(), 0, true, Duration::ZERO);
        for input in inputs::table2_inputs() {
            let request = tracer.request();
            let (page, stats) = replay(&snapshot, &input, 0, PAGE_SIZE, &mut tracer, None, request)
                .expect("Table-2 inputs replay");
            assert_eq!(page, snapshot.search_paged(&input, 0, PAGE_SIZE).unwrap());
            assert_eq!(page.results, snapshot.search(&input).unwrap(), "`{input}`");
            assert_eq!(stats.kept, page.total_results);
            assert!(stats.tables_calls >= stats.kept);
        }
        assert!(!tracer.into_spans().is_empty());
    }
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let workloads = soda_e2ebench::workload::Workload::ALL;
    for w in workloads {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        workloads.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
