//! The pinned engine and service configuration.
//!
//! `SodaConfig::default()` and `QueryService::start` read the
//! `SODA_TEST_SHARDS` / `SODA_TEST_TENANTS` test knobs, which would silently
//! change the shard count or host shadow tenants.  The benchmark refuses to
//! run with either set and spells every field out instead.

use std::time::Duration;

use soda_core::{RankingWeights, SodaConfig};
use soda_service::{CompactionConfig, DurabilityConfig, FsyncPolicy, ServiceConfig};

/// Environment variables that would alter the system under test.
pub const FORBIDDEN_ENV: [&str; 2] = ["SODA_TEST_SHARDS", "SODA_TEST_TENANTS"];

/// The forbidden variables that are set, if any.
pub fn forbidden_env() -> Vec<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .filter(|name| std::env::var_os(name).is_some())
        .collect()
}

/// The engine configuration: the paper's defaults, one lookup shard.
///
/// `compactness_rerank` stays off: the pipeline replay reproduces the
/// paper's provenance-only ranking and nothing else.
pub fn soda_config() -> SodaConfig {
    SodaConfig {
        top_n: 10,
        max_results: 10,
        max_phrase_tokens: 4,
        traversal_depth: 6,
        max_join_path_length: 6,
        direct_path_pruning: true,
        use_bridge_tables: true,
        use_inverted_index: true,
        use_dbpedia: true,
        use_historization: true,
        compactness_rerank: false,
        shards: 1,
        weights: RankingWeights::default(),
        snippet_rows: 20,
    }
}

/// The service configuration; `compaction` enables the background
/// compactor with the default policy.
pub fn service_config(compaction: bool) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        cache_capacity: CACHE_CAPACITY,
        compaction: compaction.then(|| CompactionConfig {
            policy: soda_core::CompactionPolicy::default(),
            poll_interval: Duration::from_millis(250),
        }),
        slow_query_threshold: None,
        slow_query_log: 32,
        event_log: 256,
        sampling: None,
        slo: None,
    }
}

/// Pages the interpretation cache holds.
pub const CACHE_CAPACITY: usize = 1024;

/// Durability for the ingest workload: fsync on every journal append.
pub fn durability_config(dir: std::path::PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        dir,
        fsync: FsyncPolicy::Always,
        persist_cache: true,
    }
}
