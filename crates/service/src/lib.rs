//! # soda-service
//!
//! The serving layer of the SODA reproduction: where `soda-core` answers one
//! query from one thread, this crate turns a built engine into a long-lived,
//! thread-safe, **multi-tenant query service** — the shape a warehouse
//! deployment needs when many business users (across many hosted
//! warehouses) hit the same worker pool all day.
//!
//! Four pieces, all `std`-only:
//!
//! * [`QueryService`] — a bounded worker pool over per-tenant hot-swappable
//!   [`EngineSnapshot`](soda_core::EngineSnapshot)s
//!   ([`soda_core::SnapshotHandle`]), with a single request surface: build a
//!   [`QueryRequest`] (optionally [`.tenant(..)`](QueryRequest::tenant) /
//!   [`.traced()`](QueryRequest::traced)), pass it to
//!   [`query`](QueryService::query), get a [`JobHandle`] that yields a
//!   [`QueryResponse`].  Blocking backpressure when the job queue is full,
//!   in-flight request coalescing (concurrent misses on one cache key
//!   execute the pipeline once and share the page), and zero-downtime
//!   warehouse reloads: the [`TenantAdmin`] facade
//!   ([`admin`](QueryService::admin)) swaps in new snapshot generations —
//!   `reload` / `rebuild_shards` / `refresh_graph` — without draining the
//!   pool; in-flight queries finish on the generation they pinned at
//!   submission.  Streaming deltas ride the same machinery:
//!   [`TenantAdmin::ingest`] absorbs a row-level
//!   [`ChangeFeed`](soda_core::ChangeFeed) into per-shard side logs without
//!   rebuilding a single partition, and a background compaction worker
//!   (see [`CompactionConfig`]) folds grown logs back into rebuilt
//!   partitions once they cross a budget.  With a [`DurabilityConfig`] the
//!   service is additionally **crash-safe**: ingests are journaled
//!   write-ahead to an on-disk feed journal ([`soda_journal`]), compactions
//!   checkpoint and truncate it, [`QueryService::recover`] replays it on
//!   boot into byte-identical answers, and a graceful drain persists the
//!   warm cache pages so a restarted service answers repeated queries at
//!   warm-hit latency.
//! * [`TenantRegistry`] (see the [`tenants`] module) — multi-tenant
//!   hosting: [`QueryService::add_tenant`] registers further warehouses at
//!   runtime, each with its own snapshot handle, queue lane, admission
//!   quota and (on a durable service) write-ahead journal, while the worker
//!   pool, the cache and the probe-thread budget stay shared.  Cache keys
//!   fold the tenant fingerprint ([`TenantId::fold`]), so tenants share one
//!   LRU without any possibility of cross-tenant hits.
//! * [`LruCache`] — an interpretation cache mapping *canonicalized* queries
//!   ([`soda_core::normalize_query`]) plus the tenant-folded snapshot
//!   fingerprint (engine configuration ⊕ generation vector,
//!   [`soda_core::EngineSnapshot::cache_fingerprint`]) to served
//!   [`ResultPage`](soda_core::ResultPage)s, with hit / miss / eviction /
//!   purge accounting — pages of swapped-out generations stop being
//!   addressable and are purged.
//! * [`ServiceMetrics`] — a health snapshot: QPS, histogram-backed latency
//!   min / mean / p50 / p95 / max with the **queue-wait / execution split**
//!   and per-stage pipeline latencies, cache hit rate, queue depth,
//!   coalescing and reload/generation counters, the per-shard sizes /
//!   probe counts / generations of the *live* snapshot's sharded lookup
//!   layer ([`soda_core::ShardStats`]), and the per-tenant fairness split
//!   ([`TenantMetrics`]).  The same figures export as a Prometheus text
//!   document via [`QueryService::metrics_text`]; a bounded
//!   operational-event log ([`QueryService::events`], filterable per
//!   tenant via [`QueryService::events_for`]), a slow-query log of full
//!   span trees ([`QueryService::slow_queries`], opt-in via
//!   [`ServiceConfig::slow_query_threshold`]), on-demand traced execution
//!   ([`QueryRequest::traced`]), **always-on adaptive trace sampling**
//!   ([`ServiceConfig::sampling`] → [`QueryService::sampled_traces`], with
//!   trace ids attached to the latency histograms as OpenMetrics
//!   exemplars) and a **per-tenant SLO burn-rate engine**
//!   ([`ServiceConfig::slo`] → [`QueryService::alerts`] and the
//!   `soda_slo_*` families) complete the observability surface (see
//!   `docs/OBSERVABILITY.md`).
//!
//! ```
//! use std::sync::Arc;
//! use soda_core::{EngineSnapshot, SodaConfig};
//! use soda_service::{QueryRequest, QueryService, ServiceConfig};
//!
//! let warehouse = soda_warehouse::minibank::build(42);
//! let snapshot = Arc::new(EngineSnapshot::build(
//!     Arc::new(warehouse.database),
//!     Arc::new(warehouse.graph),
//!     SodaConfig::default(),
//! ));
//! let service = QueryService::start(snapshot, ServiceConfig::default());
//! let response = service.query(QueryRequest::new("wealthy customers")).wait().unwrap();
//! assert!(response.page.results.iter().all(|r| r.sql.starts_with("SELECT")));
//! ```

pub mod cache;
pub mod metrics;
pub mod service;
pub mod slo;
pub mod tenants;

pub use cache::{CacheKey, CacheStats, LruCache};
pub use metrics::{
    DurabilityMetrics, IngestMetrics, LatencySummary, ServiceMetrics, StageLatencies, TenantMetrics,
};
pub use service::{
    CompactionConfig, DurabilityConfig, JobHandle, JobResult, QueryRequest, QueryResponse,
    QueryService, RecoveryReport, SampledTrace, SamplingConfig, ServiceConfig, ServiceError,
    SlowQuery,
};
pub use slo::{AlertState, BurnAlert, SloConfig};
pub use tenants::{TenantAdmin, TenantRegistry};

// Re-exported so multi-tenant callers can name tenants without a direct
// dependency on the core crate.
pub use soda_core::TenantId;
// Re-exported so durable-service callers can set the fsync policy without a
// direct dependency on the journal crate.
pub use soda_journal::FsyncPolicy;
// Re-exported so observability callers can name the event/span types (and
// validate `metrics_text` output) without a direct `soda-trace` dependency.
pub use soda_trace::{OpEvent, QueryTrace};
