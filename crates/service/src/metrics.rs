//! Service observability: per-query latency accounting, the
//! [`ServiceMetrics`] snapshot (QPS, latency percentiles, cache hit rate,
//! queue depth) and the one table of exported metric families.
//!
//! Every latency distribution is a fixed-memory [`LogHistogram`] — each
//! tenant's end-to-end latency on its own serving state, the queue-wait,
//! execution and per-stage distributions of executed jobs in the
//! `LatencyRecorder` — so memory stays constant no matter how long the
//! service runs and the percentiles cover the **whole lifetime**, not a
//! recent window.  The figures are lifetime aggregates with a bounded
//! relative error (one sub-bucket, ≤ `1/32` ≈ 3.1 %) and are monotone by
//! construction: `min ≤ p50 ≤ p95 ≤ max` always holds.  A reported
//! quantile never under-reports the exact value (it is the upper bound of
//! the bucket the exact value landed in, clamped to the observed extremes).
//!
//! The Prometheus exposition is rendered from `FAMILIES`, one entry per
//! metric family: name, help, kind, label scope, presence condition and an
//! accessor over one scrape.  A new family is added there and nowhere
//! else.

use std::time::Duration;

use soda_core::{ShardStats, StepTimings};
use soda_trace::hist::LogHistogram;
use soda_trace::names;
use soda_trace::prom::{MetricKind, PromWriter};

use crate::cache::CacheStats;
use crate::slo::BurnAlert;

/// Aggregated latency figures, all over the service lifetime.
///
/// `min`, `mean` and `max` are exact; `p50` and `p95` come from a
/// log-bucketed histogram and over-report by at most one sub-bucket
/// (≤ `value/32 + 1ns`), never under-report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Fastest sample.
    pub min: Duration,
    /// Lifetime mean.
    pub mean: Duration,
    /// Lifetime median (bounded-error, see the struct docs).
    pub p50: Duration,
    /// Lifetime 95th percentile (bounded-error, see the struct docs).
    pub p95: Duration,
    /// Slowest sample.
    pub max: Duration,
}

impl LatencySummary {
    pub(crate) fn of(hist: &LogHistogram) -> Self {
        if hist.count() == 0 {
            return Self::default();
        }
        Self {
            min: hist.min(),
            mean: hist.mean(),
            p50: hist.quantile(0.50),
            p95: hist.quantile(0.95),
            max: hist.max(),
        }
    }
}

/// Lifetime latency summaries of the five pipeline stages, embedded in
/// [`ServiceMetrics`].  Only **executed** pipelines contribute (cache hits
/// and coalesced waiters never ran the stages).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLatencies {
    /// Step 1 — lookup.
    pub lookup: LatencySummary,
    /// Step 2 — rank and top N.
    pub rank: LatencySummary,
    /// Step 3 — tables and joins.
    pub tables: LatencySummary,
    /// Step 4 — filters.
    pub filters: LatencySummary,
    /// Step 5 — SQL generation.
    pub sqlgen: LatencySummary,
}

/// Streaming-ingestion counters, embedded in [`ServiceMetrics`].
///
/// Current side-log *sizes* live in [`ServiceMetrics::shards`]
/// (`log_postings` / `log_rows`, re-sampled from the live snapshot); these
/// are the lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestMetrics {
    /// Change feeds absorbed ([`TenantAdmin::ingest`](crate::TenantAdmin::ingest)).
    pub ingests: u64,
    /// Row events those feeds carried.
    pub events: u64,
    /// Rows those events carried.
    pub rows: u64,
    /// Rows appended to copy-on-write table tails (`Append` events; rows
    /// carried by wholesale replacements are excluded).
    pub rows_appended: u64,
    /// Tables the copy-on-write derive actually copied — the feeds'
    /// touched tables.
    pub tables_copied: u64,
    /// Tables structurally shared (`Arc` bump, zero row copies) across
    /// those derives — untouched by their feeds.
    pub tables_shared: u64,
    /// Compactions performed (manual and background alike).
    pub compactions: u64,
    /// Side logs folded into rebuilt partitions across those compactions.
    pub compacted_shards: u64,
}

/// Durable-restart counters, embedded in [`ServiceMetrics`].  All zero (and
/// `enabled` false) for a service started without a
/// [`DurabilityConfig`](crate::DurabilityConfig).
///
/// The replay / truncation / cache-restore figures describe the recovery
/// that *created* this service instance
/// ([`QueryService::recover`](crate::QueryService::recover)) and stay
/// constant afterwards; the journal gauges and checkpoint counters advance
/// as the service runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityMetrics {
    /// True when the service journals its ingests.
    pub enabled: bool,
    /// Current size of the feed journal in bytes (header included) — drops
    /// back to one checkpoint record after every compaction.
    pub journal_bytes: u64,
    /// Change feeds appended to the journal since this instance started.
    pub journal_appends: u64,
    /// Checkpoints written (each one truncates the journal).
    pub checkpoints: u64,
    /// Checkpoint attempts that failed and left the journal untouched (the
    /// journal remains replayable; the truncation is merely postponed).
    pub checkpoint_failures: u64,
    /// Journaled feeds re-absorbed during recovery.
    pub replayed_feeds: u64,
    /// Journaled feeds the engine rejected again during recovery (a feed
    /// that was rejected when first ingested is journaled ahead of the
    /// rejection and deterministically re-rejected on replay).
    pub rejected_replays: u64,
    /// Bytes of torn or corrupt journal tail discarded during recovery.
    pub truncated_bytes: u64,
    /// Persisted result pages restored into the cache during recovery.
    pub cache_pages_restored: u64,
    /// Persisted result pages discarded during recovery because their
    /// snapshot fingerprint no longer matched the recovered engine.
    pub cache_pages_stale: u64,
}

/// One snapshot of the service's health, returned by
/// [`QueryService::metrics`](crate::QueryService::metrics).  Every figure
/// that is also kept per tenant — `completed`, `latency`,
/// `pipeline_executions`, `slow_queries`, `reloads`, `ingest.ingests`,
/// `ingest.compactions` — is derived from [`tenants`](Self::tenants): the
/// sum of the tenant figures, or the merge of their latency histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// Time since the service started.
    pub uptime: Duration,
    /// Queries answered (cache hits included).
    pub completed: u64,
    /// Lifetime queries per second (`completed / uptime`).
    pub qps: f64,
    /// End-to-end latency (submission to completion: queue wait **and**
    /// execution), over every answered query — cache hits included.
    pub latency: LatencySummary,
    /// Time executed jobs spent waiting in the queue before a worker picked
    /// them up.  Only queued jobs contribute; cache hits never queue.
    pub queue_wait: LatencySummary,
    /// Time executed jobs spent in the pipeline itself (dequeue to
    /// completion) — end-to-end minus queue wait.
    pub execution: LatencySummary,
    /// Per-stage pipeline latency of executed jobs.
    pub stages: StageLatencies,
    /// Interpretation-cache effectiveness.
    pub cache: CacheStats,
    /// Full pipeline executions performed by the workers — cache misses that
    /// were actually computed (coalesced duplicates excluded).
    pub pipeline_executions: u64,
    /// Submissions that joined an identical in-flight computation instead of
    /// enqueuing a duplicate job.
    pub coalesced: u64,
    /// Queries whose end-to-end latency reached
    /// [`ServiceConfig::slow_query_threshold`](crate::ServiceConfig) and
    /// landed a full span tree in the slow-query log
    /// ([`QueryService::slow_queries`](crate::QueryService::slow_queries)).
    pub slow_queries: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Size of the worker pool.
    pub workers: usize,
    /// Generation of the snapshot currently being served (bumped by every
    /// [`reload`](crate::TenantAdmin::reload) /
    /// [`rebuild_shards`](crate::TenantAdmin::rebuild_shards) /
    /// [`refresh_graph`](crate::TenantAdmin::refresh_graph)).
    pub generation: u64,
    /// Snapshot swaps performed since the service started (full reloads and
    /// per-shard rebuilds alike; streaming ingests and compactions count
    /// separately, in [`ingest`](Self::ingest)).
    pub reloads: u64,
    /// Streaming-ingestion counters (feeds absorbed, rows ingested,
    /// compactions).
    pub ingest: IngestMetrics,
    /// Per-shard sizes, probe counts and generations of the lookup layer —
    /// re-sampled from the *live* snapshot on every call, so the gauges
    /// track whatever generation is currently serving.
    pub shards: ShardStats,
    /// Crash-safety counters: journal size and appends, checkpoints, and the
    /// replay / cache-restore figures of the recovery that created this
    /// instance.
    pub durability: DurabilityMetrics,
    /// The per-tenant fairness split, one entry per hosted tenant (the
    /// default tenant first).  A single-tenant service reports exactly one
    /// entry whose figures mirror the service-wide ones.
    pub tenants: Vec<TenantMetrics>,
}

/// One hosted tenant's share of the service, embedded in
/// [`ServiceMetrics::tenants`] — the figures an operator compares across
/// tenants to see who is flooding, who is starving and whether admission
/// control is biting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// The tenant name.
    pub tenant: String,
    /// Queries answered for this tenant (warm hits, coalesced waiters and
    /// executed queries alike).
    pub completed: u64,
    /// Lifetime queries per second of service uptime.
    pub qps: f64,
    /// End-to-end latency of this tenant's answered queries.
    pub latency: LatencySummary,
    /// Submissions answered from the cache at submission time.
    pub warm_hits: u64,
    /// Full pipeline executions performed for this tenant (traced runs
    /// included).
    pub executions: u64,
    /// Submissions that blocked in admission control (tenant lane at quota,
    /// or the whole queue at capacity) before enqueueing.
    pub admission_waits: u64,
    /// Queries of this tenant whose end-to-end latency crossed the
    /// slow-query threshold.
    pub slow_queries: u64,
    /// Span trees the adaptive trace sampler retained for this tenant.
    pub sampled_traces: u64,
    /// Jobs currently waiting in this tenant's queue lane.
    pub queue_depth: usize,
    /// Generation of the snapshot this tenant currently serves.
    pub generation: u64,
    /// Snapshot swaps performed for this tenant (reloads, shard rebuilds,
    /// graph refreshes).
    pub reloads: u64,
    /// Change feeds absorbed for this tenant.
    pub ingest_feeds: u64,
    /// Side-log compactions performed for this tenant.
    pub compactions: u64,
    /// This tenant's crash-safety counters — journal size and appends,
    /// checkpoints, and the replay figures of the recovery that registered
    /// it.  All zero (`enabled` false) on a non-durable service.  For the
    /// default tenant this mirrors [`ServiceMetrics::durability`].
    pub durability: DurabilityMetrics,
}

/// Latency accounting of executed jobs, shared by the workers: one
/// log-bucketed histogram per distribution (~15 KiB each, fixed).  Not
/// internally synchronised; the service wraps it in a `Mutex` that only
/// executions take — a warm hit records its end-to-end latency on its
/// tenant alone.
#[derive(Debug, Clone)]
pub(crate) struct LatencyRecorder {
    /// Submission → dequeue.
    pub(crate) queue_wait: LogHistogram,
    /// Dequeue → completion.
    pub(crate) execution: LogHistogram,
    /// Pipeline stages, in [`names::STAGES`] order.
    stages: [LogHistogram; 5],
}

impl LatencyRecorder {
    pub(crate) fn new() -> Self {
        Self {
            queue_wait: LogHistogram::new(),
            execution: LogHistogram::new(),
            stages: std::array::from_fn(|_| LogHistogram::new()),
        }
    }

    /// Records a query a worker actually executed: its queue-wait /
    /// execution split and the per-stage timings.
    pub(crate) fn record_executed(
        &mut self,
        queue_wait: Duration,
        execution: Duration,
        timings: Option<&StepTimings>,
    ) {
        self.queue_wait.record(queue_wait);
        self.execution.record(execution);
        if let Some(t) = timings {
            let durations = [t.lookup, t.rank, t.tables, t.filters, t.sql];
            for (hist, stage) in self.stages.iter_mut().zip(durations) {
                hist.record(stage);
            }
        }
    }

    /// Per-stage summaries.
    pub(crate) fn stage_summaries(&self) -> StageLatencies {
        let [lookup, rank, tables, filters, sqlgen] =
            self.stages.each_ref().map(LatencySummary::of);
        StageLatencies {
            lookup,
            rank,
            tables,
            filters,
            sqlgen,
        }
    }
}

/// Everything one scrape reads, gathered once so that every family of a
/// document describes the same instant.
pub(crate) struct Scrape {
    /// The snapshot [`QueryService::metrics`](crate::QueryService::metrics)
    /// returns.
    pub(crate) metrics: ServiceMetrics,
    /// End-to-end latency merged over every tenant.
    pub(crate) e2e: LogHistogram,
    /// Each tenant's end-to-end latency, in [`ServiceMetrics::tenants`]
    /// order.
    pub(crate) tenant_e2e: Vec<LogHistogram>,
    /// The executed-job distributions.
    pub(crate) latency: LatencyRecorder,
    /// Every evaluated burn alert with its objective's target; `None` when
    /// no SLO is declared.
    pub(crate) slo: Option<Vec<SloSample>>,
}

/// One `(tenant, objective)` burn alert with the objective's target.
pub(crate) struct SloSample {
    pub(crate) alert: BurnAlert,
    pub(crate) target: f64,
}

/// A sample value: counters and exact gauges print as integers.
enum Num {
    Int(u64),
    Float(f64),
}

/// A family's label scope together with the accessor that reads its
/// samples out of one [`Scrape`].
enum Series {
    /// One unlabelled sample.
    Service(fn(&ServiceMetrics) -> Num),
    /// One sample per shard of the live snapshot, labelled `shard`.
    Shard(fn(&ShardStats) -> Vec<u64>),
    /// One sample per hosted tenant, labelled `tenant`.
    Tenant(fn(&TenantMetrics) -> Num),
    /// One sample per `(tenant, objective)`, labelled `tenant` and
    /// `objective`.
    Objective(fn(&SloSample) -> Num),
    /// One unlabelled histogram.
    Histogram(fn(&Scrape) -> &LogHistogram),
    /// One histogram per pipeline stage, labelled `stage`.
    Stage(fn(&Scrape) -> &[LogHistogram; 5]),
    /// One histogram per hosted tenant, labelled `tenant`.
    TenantHistogram(fn(&Scrape) -> &[LogHistogram]),
}

/// When a family is part of the document at all.
enum Presence {
    Always,
    /// Only on a durable service.
    Durable,
    /// Only when an SLO is declared.
    SloDeclared,
}

/// One exported metric family.
struct Family {
    name: &'static str,
    help: &'static str,
    kind: MetricKind,
    presence: Presence,
    series: Series,
}

const fn counter(name: &'static str, help: &'static str, series: Series) -> Family {
    family(name, help, MetricKind::Counter, series)
}

const fn gauge(name: &'static str, help: &'static str, series: Series) -> Family {
    family(name, help, MetricKind::Gauge, series)
}

const fn histogram(name: &'static str, help: &'static str, series: Series) -> Family {
    family(name, help, MetricKind::Histogram, series)
}

const fn family(
    name: &'static str,
    help: &'static str,
    kind: MetricKind,
    series: Series,
) -> Family {
    Family {
        name,
        help,
        kind,
        presence: Presence::Always,
        series,
    }
}

const fn durable(family: Family) -> Family {
    Family {
        presence: Presence::Durable,
        ..family
    }
}

const fn slo_declared(family: Family) -> Family {
    Family {
        presence: Presence::SloDeclared,
        ..family
    }
}

impl Family {
    fn present(&self, scrape: &Scrape) -> bool {
        match self.presence {
            Presence::Always => true,
            Presence::Durable => scrape.metrics.durability.enabled,
            Presence::SloDeclared => scrape.slo.is_some(),
        }
    }

    fn write_samples(&self, scrape: &Scrape, w: &mut PromWriter) {
        let name = self.name;
        let m = &scrape.metrics;
        match self.series {
            Series::Service(read) => sample(w, name, &[], read(m)),
            Series::Shard(read) => {
                for (shard, value) in read(&m.shards).into_iter().enumerate() {
                    sample(w, name, &[("shard", shard.to_string())], Num::Int(value));
                }
            }
            Series::Tenant(read) => {
                for t in &m.tenants {
                    sample(w, name, &[("tenant", t.tenant.clone())], read(t));
                }
            }
            Series::Objective(read) => {
                for s in scrape.slo.iter().flatten() {
                    let labels = [
                        ("tenant", s.alert.tenant.clone()),
                        ("objective", s.alert.objective.to_string()),
                    ];
                    sample(w, name, &labels, read(s));
                }
            }
            Series::Histogram(read) => w.histogram(name, &[], read(scrape)),
            Series::Stage(read) => {
                for (hist, stage) in read(scrape).iter().zip(names::STAGES) {
                    w.histogram(name, &[("stage", stage.to_string())], hist);
                }
            }
            Series::TenantHistogram(read) => {
                for (t, hist) in m.tenants.iter().zip(read(scrape)) {
                    w.histogram(name, &[("tenant", t.tenant.clone())], hist);
                }
            }
        }
    }
}

fn sample(w: &mut PromWriter, name: &str, labels: &[(&str, String)], value: Num) {
    match value {
        Num::Int(v) => w.int_value(name, labels, v),
        Num::Float(v) => w.value(name, labels, v),
    }
}

fn widen(values: &[usize]) -> Vec<u64> {
    values.iter().map(|&v| v as u64).collect()
}

use Num::{Float, Int};
use Series::{Histogram, Objective, Service, Shard, Stage, Tenant, TenantHistogram};

/// Every exported metric family, in exposition order.
const FAMILIES: &[Family] = &[
    gauge(
        "soda_uptime_seconds",
        "Time since the service started.",
        Service(|m| Float(m.uptime.as_secs_f64())),
    ),
    counter(
        "soda_queries_completed_total",
        "Queries answered (cache hits included).",
        Service(|m| Int(m.completed)),
    ),
    counter(
        "soda_pipeline_executions_total",
        "Full pipeline executions (cache misses actually computed).",
        Service(|m| Int(m.pipeline_executions)),
    ),
    counter(
        "soda_coalesced_total",
        "Submissions that joined an identical in-flight computation.",
        Service(|m| Int(m.coalesced)),
    ),
    counter(
        "soda_slow_queries_total",
        "Queries whose end-to-end latency reached the slow-query threshold.",
        Service(|m| Int(m.slow_queries)),
    ),
    gauge(
        "soda_queue_depth",
        "Jobs currently waiting in the queue.",
        Service(|m| Int(m.queue_depth as u64)),
    ),
    gauge(
        "soda_workers",
        "Size of the worker pool.",
        Service(|m| Int(m.workers as u64)),
    ),
    gauge(
        "soda_generation",
        "Generation of the snapshot currently being served.",
        Service(|m| Int(m.generation)),
    ),
    counter(
        "soda_reloads_total",
        "Snapshot swaps performed (full reloads and per-shard rebuilds).",
        Service(|m| Int(m.reloads)),
    ),
    counter(
        "soda_cache_hits_total",
        "Interpretation-cache hits.",
        Service(|m| Int(m.cache.hits)),
    ),
    counter(
        "soda_cache_misses_total",
        "Interpretation-cache misses.",
        Service(|m| Int(m.cache.misses)),
    ),
    counter(
        "soda_cache_evicted_total",
        "Pages evicted by LRU capacity pressure.",
        Service(|m| Int(m.cache.evictions)),
    ),
    counter(
        "soda_cache_purged_total",
        "Pages purged by snapshot swaps.",
        Service(|m| Int(m.cache.purged)),
    ),
    counter(
        "soda_cache_retained_total",
        "Pages carried across data-only swaps by retention proofs.",
        Service(|m| Int(m.cache.retained)),
    ),
    gauge(
        "soda_cache_pages",
        "Result pages currently cached.",
        Service(|m| Int(m.cache.len as u64)),
    ),
    counter(
        "soda_ingest_feeds_total",
        "Change feeds absorbed by streaming ingestion.",
        Service(|m| Int(m.ingest.ingests)),
    ),
    counter(
        "soda_ingest_events_total",
        "Row events those feeds carried.",
        Service(|m| Int(m.ingest.events)),
    ),
    counter(
        "soda_ingest_rows_total",
        "Rows those events carried.",
        Service(|m| Int(m.ingest.rows)),
    ),
    counter(
        "soda_ingest_rows_appended_total",
        "Rows appended to copy-on-write table tails by ingestion.",
        Service(|m| Int(m.ingest.rows_appended)),
    ),
    counter(
        "soda_ingest_tables_copied_total",
        "Tables the copy-on-write snapshot derives actually copied.",
        Service(|m| Int(m.ingest.tables_copied)),
    ),
    counter(
        "soda_ingest_tables_shared_total",
        "Tables structurally shared (untouched) across those derives.",
        Service(|m| Int(m.ingest.tables_shared)),
    ),
    counter(
        "soda_compactions_total",
        "Side-log compactions performed.",
        Service(|m| Int(m.ingest.compactions)),
    ),
    counter(
        "soda_compacted_shards_total",
        "Side logs folded into rebuilt partitions.",
        Service(|m| Int(m.ingest.compacted_shards)),
    ),
    counter(
        "soda_shard_probes_total",
        "Inverted-index probes served, per shard of the live snapshot.",
        Shard(|s| s.probes.clone()),
    ),
    gauge(
        "soda_shard_postings",
        "Frozen index postings, per shard of the live snapshot.",
        Shard(|s| widen(&s.index_postings)),
    ),
    gauge(
        "soda_shard_log_postings",
        "Ingestion side-log postings awaiting compaction, per shard.",
        Shard(|s| widen(&s.log_postings)),
    ),
    durable(gauge(
        "soda_journal_bytes",
        "Current size of the feed journal.",
        Service(|m| Int(m.durability.journal_bytes)),
    )),
    durable(counter(
        "soda_journal_appends_total",
        "Change feeds appended to the journal since this instance started.",
        Service(|m| Int(m.durability.journal_appends)),
    )),
    durable(counter(
        "soda_checkpoints_total",
        "Checkpoints written (each truncates the journal).",
        Service(|m| Int(m.durability.checkpoints)),
    )),
    durable(counter(
        "soda_checkpoint_failures_total",
        "Checkpoint attempts that failed (journal left replayable).",
        Service(|m| Int(m.durability.checkpoint_failures)),
    )),
    counter(
        "soda_tenant_queries_completed_total",
        "Queries answered, per tenant.",
        Tenant(|t| Int(t.completed)),
    ),
    gauge(
        "soda_tenant_qps",
        "Answered queries per second of uptime, per tenant.",
        Tenant(|t| Float(t.qps)),
    ),
    counter(
        "soda_tenant_warm_hits_total",
        "Submissions answered from the cache at submission time, per tenant.",
        Tenant(|t| Int(t.warm_hits)),
    ),
    counter(
        "soda_tenant_pipeline_executions_total",
        "Full pipeline executions, per tenant.",
        Tenant(|t| Int(t.executions)),
    ),
    counter(
        "soda_tenant_admission_waits_total",
        "Submissions that blocked in admission control, per tenant.",
        Tenant(|t| Int(t.admission_waits)),
    ),
    counter(
        "soda_tenant_slow_queries_total",
        "Queries whose end-to-end latency reached the slow-query threshold, per tenant.",
        Tenant(|t| Int(t.slow_queries)),
    ),
    counter(
        "soda_tenant_sampled_traces_total",
        "Span trees retained by the adaptive trace sampler, per tenant.",
        Tenant(|t| Int(t.sampled_traces)),
    ),
    gauge(
        "soda_tenant_queue_depth",
        "Jobs currently waiting in the tenant's queue lane.",
        Tenant(|t| Int(t.queue_depth as u64)),
    ),
    gauge(
        "soda_tenant_generation",
        "Generation of the snapshot the tenant currently serves.",
        Tenant(|t| Int(t.generation)),
    ),
    counter(
        "soda_tenant_reloads_total",
        "Snapshot swaps performed, per tenant.",
        Tenant(|t| Int(t.reloads)),
    ),
    counter(
        "soda_tenant_ingest_feeds_total",
        "Change feeds absorbed, per tenant.",
        Tenant(|t| Int(t.ingest_feeds)),
    ),
    counter(
        "soda_tenant_compactions_total",
        "Side-log compactions performed, per tenant.",
        Tenant(|t| Int(t.compactions)),
    ),
    // Shadow tenants host no journal and report zeros here.
    durable(gauge(
        "soda_tenant_journal_bytes",
        "Current size of the tenant's feed journal in bytes.",
        Tenant(|t| Int(t.durability.journal_bytes)),
    )),
    durable(counter(
        "soda_tenant_journal_appends_total",
        "Change feeds appended to the tenant's journal.",
        Tenant(|t| Int(t.durability.journal_appends)),
    )),
    durable(counter(
        "soda_tenant_checkpoints_total",
        "Checkpoints written to the tenant's journal.",
        Tenant(|t| Int(t.durability.checkpoints)),
    )),
    durable(counter(
        "soda_tenant_replayed_feeds_total",
        "Journaled feeds re-absorbed when the tenant was recovered.",
        Tenant(|t| Int(t.durability.replayed_feeds)),
    )),
    slo_declared(gauge(
        "soda_slo_target",
        "Declared objective target fraction, per tenant and objective.",
        Objective(|s| Float(s.target)),
    )),
    slo_declared(gauge(
        "soda_slo_fast_burn_rate",
        "Error-budget burn rate over the fast window, per tenant and objective.",
        Objective(|s| Float(s.alert.fast_burn)),
    )),
    slo_declared(gauge(
        "soda_slo_slow_burn_rate",
        "Error-budget burn rate over the slow window, per tenant and objective.",
        Objective(|s| Float(s.alert.slow_burn)),
    )),
    slo_declared(gauge(
        "soda_slo_alert_state",
        "Multi-window burn-alert state (0 = ok, 1 = pending, 2 = firing).",
        Objective(|s| Int(s.alert.state.code())),
    )),
    histogram(
        "soda_query_duration_seconds",
        "End-to-end query latency, submission to completion (cache hits included).",
        Histogram(|s| &s.e2e),
    ),
    histogram(
        "soda_queue_wait_seconds",
        "Time executed jobs waited in the queue before a worker picked them up.",
        Histogram(|s| &s.latency.queue_wait),
    ),
    histogram(
        "soda_execution_duration_seconds",
        "Pipeline execution time of executed jobs (dequeue to completion).",
        Histogram(|s| &s.latency.execution),
    ),
    histogram(
        "soda_stage_duration_seconds",
        "Per-stage pipeline latency of executed jobs.",
        Stage(|s| &s.latency.stages),
    ),
    histogram(
        "soda_tenant_query_duration_seconds",
        "End-to-end query latency, per tenant.",
        TenantHistogram(|s| &s.tenant_e2e),
    ),
];

/// Renders one scrape as a Prometheus text-exposition document: every
/// present family of [`FAMILIES`], in table order.
pub(crate) fn render(scrape: &Scrape) -> String {
    let mut w = PromWriter::new();
    for family in FAMILIES.iter().filter(|f| f.present(scrape)) {
        w.header(family.name, family.help, family.kind);
        family.write_samples(scrape, &mut w);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(micros: &[u64]) -> LatencySummary {
        let mut hist = LogHistogram::new();
        for &us in micros {
            hist.record(Duration::from_micros(us));
        }
        LatencySummary::of(&hist)
    }

    #[test]
    fn empty_recorder_reports_zeros() {
        let r = LatencyRecorder::new();
        assert_eq!(LatencySummary::of(&r.queue_wait), LatencySummary::default());
        assert_eq!(LatencySummary::of(&r.execution), LatencySummary::default());
        assert_eq!(r.stage_summaries(), StageLatencies::default());
        assert_eq!(
            LatencySummary::of(&LogHistogram::new()),
            LatencySummary::default()
        );
    }

    #[test]
    fn summary_tracks_min_mean_max() {
        let s = summary_of(&[10_000, 20_000, 30_000]);
        // The extremes and the mean are exact; the quantiles are
        // histogram-backed with a bounded over-report (≤ value/32 + 1ns).
        assert_eq!(s.min, Duration::from_millis(10));
        assert_eq!(s.mean, Duration::from_millis(20));
        assert_eq!(s.max, Duration::from_millis(30));
        assert!(s.p50 >= Duration::from_millis(20));
        assert!(s.p50 <= Duration::from_micros(20_626), "p50 = {:?}", s.p50);
    }

    #[test]
    fn quantiles_are_monotone_and_within_extremes() {
        let s = summary_of(&[3, 5000, 70, 70, 900, 12, 40_000, 7]);
        assert!(s.min <= s.p50);
        assert!(s.p50 <= s.p95);
        assert!(s.p95 <= s.max);
    }

    #[test]
    fn executed_jobs_split_queue_wait_from_execution() {
        let mut r = LatencyRecorder::new();
        let timings = StepTimings {
            lookup: Duration::from_millis(4),
            rank: Duration::from_millis(1),
            tables: Duration::from_millis(2),
            filters: Duration::from_millis(1),
            sql: Duration::from_millis(2),
        };
        r.record_executed(
            Duration::from_millis(5),
            Duration::from_millis(10),
            Some(&timings),
        );
        assert_eq!(r.queue_wait.max(), Duration::from_millis(5));
        assert_eq!(r.execution.max(), Duration::from_millis(10));
        let stages = r.stage_summaries();
        assert_eq!(stages.lookup.max, Duration::from_millis(4));
        assert_eq!(stages.sqlgen.max, Duration::from_millis(2));
    }

    #[test]
    fn the_family_table_is_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for family in FAMILIES {
            assert!(seen.insert(family.name), "duplicate {}", family.name);
            assert!(family.name.starts_with("soda_"), "{}", family.name);
            assert!(!family.help.is_empty(), "{}", family.name);
            let histogram_series = matches!(
                family.series,
                Series::Histogram(_) | Series::Stage(_) | Series::TenantHistogram(_)
            );
            assert_eq!(
                family.kind == MetricKind::Histogram,
                histogram_series,
                "{}: kind and series disagree",
                family.name
            );
            assert_eq!(
                family.kind == MetricKind::Counter,
                family.name.ends_with("_total"),
                "{}: counters and only counters end in _total",
                family.name
            );
        }
        assert_eq!(FAMILIES.len(), 55);
    }
}
