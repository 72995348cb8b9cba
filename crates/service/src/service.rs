//! The query service: a bounded worker pool over per-tenant hot-swappable
//! [`EngineSnapshot`]s, with one shared LRU interpretation cache in front.
//!
//! ## Life of a query
//!
//! 1. [`QueryService::query`] resolves the request's tenant (the default
//!    tenant unless [`QueryRequest::tenant`] named another), canonicalizes
//!    the input ([`soda_core::normalize_query`]) and probes the cache under
//!    (normalized query, tenant-folded snapshot fingerprint, page
//!    coordinates).  A hit is answered immediately on the caller's thread —
//!    no queueing, no pipeline.
//! 2. A miss becomes a job in the tenant's queue lane.  Admission control
//!    blocks the submitting thread while the lane is at its per-tenant
//!    quota or the whole queue is at capacity — backpressure instead of
//!    unbounded memory growth, and no tenant can squat the entire queue.
//! 3. A worker pops the next job round-robin across the tenant lanes, runs
//!    the five-step pipeline via [`EngineSnapshot::search_paged`], stores
//!    the page in the cache and completes the caller's [`JobHandle`] with a
//!    [`QueryResponse`].
//!
//! Concurrent misses on one key are **coalesced**: the first miss enqueues
//! the job and registers it in a pending-jobs map; every further submission
//! of the same key while that job is in flight just attaches a waiter to the
//! pending entry instead of enqueuing a duplicate, so N concurrent identical
//! cold queries execute the pipeline exactly once.  The cache probe, the
//! pending check and the completion hand-off happen under one lock, which is
//! never held across the pipeline itself.
//!
//! ## Multi-tenant hosting
//!
//! One service hosts many tenants: the boot snapshot is the **default**
//! tenant, and [`QueryService::add_tenant`] registers further warehouses at
//! runtime (each wrapped in its own [`SnapshotHandle`], tracked by the
//! [`TenantRegistry`]).  All tenants share
//! the worker pool, the queue, the cache and the global probe-thread budget
//! ([`soda_core::ProbeBudget`]) — isolation comes from keys and quotas, not
//! duplication:
//!
//! * Cache keys fold the tenant fingerprint into the snapshot fingerprint
//!   ([`soda_core::TenantId::fold`]); the fold is the identity for the
//!   default tenant, so single-tenant deployments keep byte-identical
//!   fingerprints (and persisted cache files) across the upgrade.
//! * The queue keeps one lane per tenant, scanned round-robin, with an
//!   admission quota of `ceil(capacity / tenants)` slots per tenant — a
//!   tenant flooding cold queries saturates its own lane and blocks *its
//!   own* submitters, while other tenants' warm hits (which never queue)
//!   and cold queries proceed.
//! * Mutations are tenant-scoped: [`QueryService::admin`] returns a
//!   [`TenantAdmin`] facade whose `reload` / `rebuild_shards` /
//!   `refresh_graph` / `ingest` / `ingest_owned` / `compact` /
//!   `clear_cache` touch exactly one tenant's snapshot and cached pages.
//!
//! ## Hot snapshot swapping
//!
//! Every submission pins the snapshot that is current *at submission time* —
//! the job carries that `Arc` to the worker, so a concurrent reload never
//! changes what an in-flight query computes; new submissions load the new
//! generation.  The cache key carries the tenant-folded
//! [`EngineSnapshot::cache_fingerprint`] (configuration ⊕ generation
//! vector), which also scopes the coalescing map: a pending cold query keyed
//! against generation G can only ever hand its page to waiters that also
//! pinned G — a post-swap requester computes a different key and recomputes
//! against the new snapshot.  No queries are drained, dropped or errored by
//! a swap.
//!
//! ## Streaming ingestion
//!
//! [`TenantAdmin::ingest`] absorbs a row-level change feed into a new
//! generation of that tenant's snapshot without rebuilding any index
//! partition: the events land in per-shard side logs that every probe
//! merges on the fly.  A background compaction worker (opt-in via
//! [`ServiceConfig::compaction`]) sweeps **every** tenant — nudged by every
//! ingest and on a poll interval — and folds a shard's log into a rebuilt
//! partition once it crosses the policy budget.  Data-only swaps (ingest,
//! shard rebuild, compaction) run a *generation-aware retention* pass over
//! the tenant's cached pages instead of the wholesale purge: pages whose
//! recorded probes provably never consulted a dirty shard are re-keyed to
//! the new fingerprint ([`CacheStats::retained`](crate::CacheStats)),
//! everything else of that tenant's superseded generation is purged.  Other
//! tenants' pages are never touched.
//!
//! Shutdown is graceful: dropping the service stops intake (stopping the
//! compaction worker first), lets the workers drain every queued job
//! (resolving their coalesced waiters), then joins them.
//!
//! ## Durable restart
//!
//! A service started through [`QueryService::recover`] with a
//! [`DurabilityConfig`] survives crashes: every ingest appends the feed to
//! an on-disk [`FeedJournal`] *before* the engine absorbs it (write-ahead),
//! and every compaction / swap writes a [`Checkpoint`] that folds the
//! replay prefix away, so the journal stays bounded.  On the next boot,
//! `recover` replays the journal — checkpoint first, then the feeds
//! appended after it — and restores the recorded generation stamps, so the
//! recovered engine serves **byte-identical pages under the same cache
//! fingerprints** as the instance that died.  A torn tail (crash
//! mid-append) is truncated; a journal written under a different engine
//! configuration is a hard error.
//!
//! Tenants registered on a durable service get their **own** journal under
//! `tenants/<name>-<fingerprint>/` ([`soda_journal::tenant_journal_dir`]),
//! header-stamped with the tenant fingerprint so one tenant's history can
//! never replay into another's snapshot; [`QueryService::add_tenant`]
//! replays it against the snapshot the caller hands in.
//!
//! On a *graceful* drain (dropping the service) the warm entries of the
//! interpretation cache are additionally serialized to a page-cache file,
//! which `recover` reloads — so the first repeated queries after a restart
//! are answered at warm-hit latency instead of re-running the pipeline.  The
//! cache file is best-effort: a stale, torn or foreign file is ignored
//! (counted in [`DurabilityMetrics::cache_pages_stale`]), never an error.
//!
//! One caveat: the metadata **graph is not journaled** — `recover` (and
//! `add_tenant`) take the graph as part of the snapshot, so after a
//! [`TenantAdmin::refresh_graph`] the operator must hand the refreshed
//! graph to the next recovery.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use soda_core::codec::{decode_page, decode_probe_dep, encode_page, encode_probe_dep};
use soda_core::{
    normalize_query, ChangeFeed, CompactionPolicy, Database, EngineSnapshot, MetaGraph, ProbeDep,
    ProbeRecorder, ResultPage, RetentionGate, SnapshotHandle, SodaConfig, SodaError, StepTimings,
    TenantId,
};
use soda_journal::frame::{read_frame_file, write_frame_file};
use soda_journal::{journal_path, tenant_journal_dir, Checkpoint, FeedJournal, FsyncPolicy};
use soda_relation::codec::{CodecError, CodecResult, Decoder, Encoder};
use soda_trace::hist::LogHistogram;
use soda_trace::{
    names, BoundedLog, CollectingSink, HeadDecision, NoopSink, OpEvent, QueryTrace, SampleReason,
    Sampler, SpanId, TraceId, TraceSink, TraceValue,
};

use crate::cache::{CacheKey, LruCache};
use crate::metrics::{
    self, DurabilityMetrics, IngestMetrics, LatencyRecorder, LatencySummary, Scrape,
    ServiceMetrics, SloSample, TenantMetrics,
};
use crate::slo::{
    alert_state, availability_burn_rate, latency_burn_rate, AlertState, BurnAlert, SloConfig,
};
use crate::tenants::{TenantAdmin, TenantRegistry, TenantState};

/// Magic of the persistent page-cache file (the journal has its own,
/// [`soda_journal::JOURNAL_MAGIC`]).  `2` is the format version — bumped
/// with the frame-file header when it grew the tenant-fingerprint field;
/// version-`1` cache files written before tenancy still load (the frame
/// reader accepts both layouts).
const CACHE_MAGIC: [u8; 8] = *b"SODACSH2";

/// File name of the persistent page cache under the durability directory.
const CACHE_FILE: &str = "pages.cache";

/// Tuning knobs of the service.
///
/// Construct fluently from the defaults — the builder methods are consuming
/// setters over the same public fields, so struct-literal construction
/// keeps working and `Default` semantics are unchanged:
///
/// ```
/// use soda_service::ServiceConfig;
/// let config = ServiceConfig::default().workers(2).queue_capacity(64);
/// assert_eq!(config.workers, 2);
/// assert_eq!(config.cache_capacity, ServiceConfig::default().cache_capacity);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads executing the pipeline.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submissions block.
    pub queue_capacity: usize,
    /// Maximum result pages held by the interpretation cache.
    pub cache_capacity: usize,
    /// When set, a background compaction worker folds ingestion side logs
    /// into rebuilt index partitions once they cross the policy's budget
    /// (`None` — the default — leaves compaction to explicit
    /// [`TenantAdmin::compact`] calls).
    pub compaction: Option<CompactionConfig>,
    /// When set, every executed query is traced through a
    /// [`CollectingSink`] and a query whose **end-to-end** latency (queue
    /// wait included) reaches the threshold lands its full span tree in the
    /// slow-query log ([`QueryService::slow_queries`]).  `None` — the
    /// default — keeps the zero-cost [`NoopSink`] on the worker path.
    pub slow_query_threshold: Option<Duration>,
    /// Capacity of the slow-query log (oldest captures are evicted).
    pub slow_query_log: usize,
    /// Capacity of the operational-event log
    /// ([`QueryService::events`]: swaps, ingests, compactions,
    /// checkpoints, recoveries, slow queries).
    pub event_log: usize,
    /// When set, always-on adaptive trace sampling: every tenant draws
    /// deterministic head-sampling decisions at the configured rate, tail
    /// rules retain slow and anomalous queries regardless of the draw, and
    /// retained span trees land in per-tenant bounded rings
    /// ([`QueryService::sampled_traces`]) with their trace ids attached to
    /// the latency histograms as OpenMetrics exemplars.  `None` — the
    /// default — keeps sampling entirely off the hot path.
    pub sampling: Option<SamplingConfig>,
    /// When set, per-tenant SLO burn-rate tracking: every completed query
    /// lands in a rolling multi-window ring, and
    /// [`QueryService::alerts`] / the `soda_slo_*` families surface the
    /// fast- and slow-window burn rates against the declared objectives.
    pub slo: Option<SloConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 1024,
            compaction: None,
            slow_query_threshold: None,
            slow_query_log: 32,
            event_log: 256,
            sampling: None,
            slo: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the worker-pool size.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the queue capacity.
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the interpretation-cache capacity.
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Enables the background compaction worker.
    pub fn compaction(mut self, compaction: CompactionConfig) -> Self {
        self.compaction = Some(compaction);
        self
    }

    /// Enables slow-query capture past `threshold`.
    pub fn slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.slow_query_threshold = Some(threshold);
        self
    }

    /// Sets the slow-query log capacity.
    pub fn slow_query_log(mut self, slow_query_log: usize) -> Self {
        self.slow_query_log = slow_query_log;
        self
    }

    /// Sets the operational-event log capacity.
    pub fn event_log(mut self, event_log: usize) -> Self {
        self.event_log = event_log;
        self
    }

    /// Enables always-on adaptive trace sampling.
    pub fn sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = Some(sampling);
        self
    }

    /// Enables per-tenant SLO burn-rate tracking.
    pub fn slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// Configuration of always-on adaptive trace sampling
/// ([`ServiceConfig::sampling`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingConfig {
    /// Head-sampling probability in `[0, 1]`: the fraction of queries whose
    /// full span tree is captured regardless of latency.
    pub rate: f64,
    /// Seed of the deterministic decision sequence.  Each tenant's sampler
    /// is seeded with `seed ^ tenant_fingerprint`, so co-hosted tenants draw
    /// independent — but individually reproducible — sequences.
    pub seed: u64,
    /// Capacity of each tenant's sampled-trace ring
    /// ([`QueryService::sampled_traces`]).
    pub trace_log: usize,
    /// Tail rule: retain a query whose end-to-end latency exceeds this
    /// multiple of the tenant's running mean (`None` disables the anomaly
    /// rule; the slow rule always follows
    /// [`ServiceConfig::slow_query_threshold`]).
    pub anomaly_factor: Option<f64>,
    /// Completed queries the anomaly rule waits for before trusting the
    /// running mean.
    pub anomaly_min_samples: u64,
    /// Per-tenant head-rate overrides (tenant name → rate); tenants without
    /// an override use [`rate`](Self::rate).
    pub tenant_rates: Vec<(String, f64)>,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            rate: 0.01,
            seed: 0x50DA,
            trace_log: 32,
            anomaly_factor: None,
            anomaly_min_samples: 32,
            tenant_rates: Vec::new(),
        }
    }
}

impl SamplingConfig {
    /// Sets the head-sampling rate.
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Sets the decision-sequence seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-tenant sampled-trace ring capacity.
    pub fn trace_log(mut self, trace_log: usize) -> Self {
        self.trace_log = trace_log;
        self
    }

    /// Enables the tail anomaly rule at `factor` times the running mean.
    pub fn anomaly_factor(mut self, factor: f64) -> Self {
        self.anomaly_factor = Some(factor);
        self
    }

    /// Sets the anomaly rule's warm-up sample count.
    pub fn anomaly_min_samples(mut self, samples: u64) -> Self {
        self.anomaly_min_samples = samples;
        self
    }

    /// Overrides the head-sampling rate for one tenant.
    pub fn tenant_rate(mut self, tenant: impl Into<String>, rate: f64) -> Self {
        self.tenant_rates.push((tenant.into(), rate));
        self
    }
}

/// One retained trace: a query the adaptive sampler decided to keep, with
/// the full span tree of what served it (a pipeline execution, or a
/// synthesized `cache_hit` root for warm hits).  Retained per tenant in a
/// bounded ring ([`QueryService::sampled_traces`]).
#[derive(Debug, Clone)]
pub struct SampledTrace {
    /// The tenant the query belonged to.
    pub tenant: TenantId,
    /// The sampler-assigned trace id (16 lowercase hex digits) — the same
    /// id the latency histograms carry as an OpenMetrics exemplar.
    pub trace_id: String,
    /// The business user's input text, verbatim.
    pub input: String,
    /// Why the trace was kept: `"head"`, `"tail_slow"` or `"tail_anomaly"`.
    pub reason: &'static str,
    /// End-to-end latency (submission to completion).
    pub total: Duration,
    /// The span tree.
    pub trace: QueryTrace,
}

/// Configuration of the background compaction worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionConfig {
    /// The side-log budget past which a shard is folded.
    pub policy: CompactionPolicy,
    /// How often the worker re-checks the budget on its own.  Every
    /// ingest additionally nudges it awake, so a threshold crossing is
    /// acted on promptly even with a long interval.
    pub poll_interval: Duration,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        Self {
            policy: CompactionPolicy::default(),
            poll_interval: Duration::from_millis(250),
        }
    }
}

/// Where and how the service persists its crash-safety state.
///
/// The directory holds the default tenant's two files: `feed.journal` (the
/// write-ahead feed journal, [`soda_journal::journal_path`]) and
/// `pages.cache` (the warm result pages serialized on a graceful drain),
/// plus one `tenants/<name>-<fingerprint>/` journal directory per tenant
/// registered through [`QueryService::add_tenant`].  Pass the same
/// directory to [`QueryService::recover`] on every boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding the journal and the page-cache file (created if
    /// missing).
    pub dir: PathBuf,
    /// Whether every journal append forces the bytes to disk before the
    /// engine absorbs the feed.  [`FsyncPolicy::Always`] (the default) makes
    /// acknowledged ingests survive power loss; [`FsyncPolicy::Never`]
    /// trades that for append latency.
    pub fsync: FsyncPolicy,
    /// Whether a graceful drain serializes the warm cache pages to disk
    /// (and recovery reloads them).  Default true.
    pub persist_cache: bool,
}

impl DurabilityConfig {
    /// Durability under `dir` with the safe defaults: fsync on every append,
    /// cache persistence on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            persist_cache: true,
        }
    }
}

/// What [`QueryService::recover`] found and rebuilt, for operator logging.
/// The same figures stay observable afterwards via
/// [`ServiceMetrics::durability`](crate::ServiceMetrics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// True when no journal existed and a fresh one was created (first boot).
    pub journal_created: bool,
    /// True when the journal began with a checkpoint whose table contents
    /// and generation stamps were applied over the base database.
    pub checkpoint_applied: bool,
    /// Rows the applied checkpoint carried.
    pub checkpoint_rows: usize,
    /// Journaled feeds re-absorbed, in append order.
    pub replayed_feeds: u64,
    /// Journaled feeds the engine rejected again (deterministically — they
    /// were rejected when first ingested, too).
    pub rejected_feeds: u64,
    /// Bytes of torn or corrupt journal tail truncated before replay.
    pub truncated_bytes: u64,
    /// Persisted pages restored into the warm cache.
    pub cache_pages_restored: u64,
    /// Persisted pages discarded as stale (fingerprint mismatch or
    /// undecodable entry).
    pub cache_pages_stale: u64,
}

/// The journal, the dirty-table ledger and the recovery counters of one
/// tenant, held under one mutex on its
/// [`TenantState`](crate::tenants::TenantState) (lock order: tenant swap
/// lock → durability → store; `metrics()` takes it alone).
pub(crate) struct DurabilityState {
    pub(crate) journal: FeedJournal,
    /// Where the warm pages go on a graceful drain.
    pub(crate) cache_path: PathBuf,
    pub(crate) persist_cache: bool,
    /// Stamped into both file headers; [`QueryService::recover`] refuses a
    /// journal carrying a different one.
    pub(crate) config_fingerprint: u64,
    /// Every table a journaled feed (or an applied checkpoint) has touched
    /// since the base database.  A checkpoint must re-record **all** of them
    /// — recovery applies it over the unchanged base database, so a table
    /// omitted from one checkpoint would silently revert to its base
    /// content.  The set therefore only ever grows.
    pub(crate) dirty_tables: BTreeSet<String>,
    pub(crate) journal_appends: u64,
    pub(crate) checkpoints: u64,
    pub(crate) checkpoint_failures: u64,
    pub(crate) replayed_feeds: u64,
    pub(crate) rejected_replays: u64,
    pub(crate) truncated_bytes: u64,
    pub(crate) cache_pages_restored: u64,
    pub(crate) cache_pages_stale: u64,
}

/// Serializes one warm cache entry for the page-cache file: the full key
/// (the fingerprint included — recovery filters on it) plus the page and the
/// retention evidence, so a restored entry behaves exactly like the original
/// across later data-only swaps.
fn encode_cache_entry(key: &CacheKey, entry: &CachedPage) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_str(&key.normalized);
    enc.put_u64(key.snapshot_fingerprint);
    enc.put_usize(key.page);
    enc.put_usize(key.page_size);
    encode_page(&mut enc, &entry.page);
    enc.put_u64(entry.touched_mask);
    enc.put_bool(entry.touched_overflow);
    enc.put_usize(entry.deps.len());
    for dep in entry.deps.iter() {
        encode_probe_dep(&mut enc, dep);
    }
    enc.into_bytes()
}

/// Inverse of [`encode_cache_entry`]; trailing bytes are an error so a
/// miscounted frame cannot half-decode.
fn decode_cache_entry(bytes: &[u8]) -> CodecResult<(CacheKey, CachedPage)> {
    let mut dec = Decoder::new(bytes);
    let key = CacheKey {
        normalized: dec.get_str()?,
        snapshot_fingerprint: dec.get_u64()?,
        page: dec.get_usize()?,
        page_size: dec.get_usize()?,
    };
    let page = decode_page(&mut dec)?;
    let touched_mask = dec.get_u64()?;
    let touched_overflow = dec.get_bool()?;
    let n = dec.get_usize()?;
    if n > dec.remaining() {
        return Err(CodecError::BadLength);
    }
    let mut deps = Vec::with_capacity(n);
    for _ in 0..n {
        deps.push(decode_probe_dep(&mut dec)?);
    }
    if !dec.is_empty() {
        return Err(CodecError::BadLength);
    }
    Ok((
        key,
        CachedPage {
            page,
            touched_mask,
            touched_overflow,
            deps: Arc::new(deps),
        },
    ))
}

/// One query as submitted by a client — the single request surface of the
/// service.  Build fluently:
///
/// ```no_run
/// use soda_service::QueryRequest;
/// let request = QueryRequest::new("wealthy customers")
///     .page(1)
///     .tenant("acme")
///     .traced();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// The business user's input text.
    pub input: String,
    /// Zero-based page of the ranked result list.
    pub page: usize,
    /// Page size (clamped to at least 1 by the engine).
    pub page_size: usize,
    /// The tenant whose snapshot answers the query (the default tenant
    /// unless [`tenant`](Self::tenant) selected another).
    pub tenant: TenantId,
    /// When true the query executes **traced** on the caller's thread,
    /// bypassing cache, queue and coalescing, and the response carries the
    /// folded span tree ([`QueryResponse::trace`]).
    pub traced: bool,
}

impl QueryRequest {
    /// A request for the first page (size 10, the paper's result page),
    /// against the default tenant, untraced.
    pub fn new(input: impl Into<String>) -> Self {
        Self {
            input: input.into(),
            page: 0,
            page_size: 10,
            tenant: TenantId::default(),
            traced: false,
        }
    }

    /// Selects a page.
    pub fn page(mut self, page: usize) -> Self {
        self.page = page;
        self
    }

    /// Selects a page size.
    pub fn page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Routes the query to a hosted tenant's snapshot.
    pub fn tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Requests a traced execution: the query runs on the caller's thread —
    /// bypassing the cache, the queue and the coalescing map, so the trace
    /// reflects a full computation — and the response carries the span
    /// tree.  The served page is byte-identical to the untraced answer.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }
}

/// One answered query, yielded by [`JobHandle::wait`]: the served page
/// plus, for [`traced`](QueryRequest::traced) requests, the folded span
/// tree (the `query` root with the five stage spans and per-shard probe
/// sub-spans underneath).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The served result page.
    pub page: ResultPage,
    /// The span tree — `Some` exactly when the request was traced.
    pub trace: Option<QueryTrace>,
}

impl QueryResponse {
    fn untraced(page: ResultPage) -> Self {
        Self { page, trace: None }
    }
}

/// One slow-query capture: a query whose end-to-end latency reached
/// [`ServiceConfig::slow_query_threshold`], with the full span tree of its
/// execution.  Retained in a bounded log ([`QueryService::slow_queries`]).
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The business user's input text, verbatim.
    pub input: String,
    /// Name of the tenant the query was routed to.
    pub tenant: String,
    /// End-to-end latency (submission to completion).
    pub total: Duration,
    /// Time spent waiting in the queue before a worker picked the job up.
    pub queue_wait: Duration,
    /// Pipeline execution time (dequeue to completion).
    pub execution: Duration,
    /// The span tree of the execution.
    pub trace: QueryTrace,
}

/// Errors surfaced by the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The engine rejected or failed the query.
    Engine(SodaError),
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The worker completing this job disappeared (only possible if a worker
    /// panicked mid-query).
    Disconnected,
    /// The feed journal or page cache could not be written or recovered
    /// (rendered to text because `std::io::Error` is not `Clone`).  Surfaced
    /// by [`QueryService::recover`] and by an [`TenantAdmin::ingest`]
    /// whose write-ahead append failed — such a feed is **not** absorbed, so
    /// the engine never serves rows the journal would lose in a crash.
    Durability(String),
    /// The request (or admin call) named a tenant the service does not
    /// host.
    UnknownTenant(String),
    /// [`QueryService::add_tenant`] was given an id that is already hosted.
    TenantExists(String),
    /// [`QueryService::add_tenant`] was given an id whose 64-bit
    /// fingerprint collides with an already-hosted tenant's (the default
    /// tenant's reserved `0` included).  Tenant isolation — cache keying,
    /// queue lanes, journal directories — rests on distinct fingerprints,
    /// so a colliding tenant is rejected up front instead of silently
    /// sharing another tenant's state.
    TenantFingerprintCollision {
        /// The rejected tenant id.
        tenant: String,
        /// The already-hosted tenant it collides with.
        existing: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::ShuttingDown => write!(f, "the query service is shutting down"),
            ServiceError::Disconnected => write!(f, "the worker serving this job disappeared"),
            ServiceError::Durability(msg) => write!(f, "durability error: {msg}"),
            ServiceError::UnknownTenant(tenant) => write!(f, "unknown tenant `{tenant}`"),
            ServiceError::TenantExists(tenant) => {
                write!(f, "tenant `{tenant}` is already hosted")
            }
            ServiceError::TenantFingerprintCollision { tenant, existing } => write!(
                f,
                "tenant `{tenant}` has the same fingerprint as hosted tenant \
                 `{existing}`; rename it to keep tenant state disjoint"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SodaError> for ServiceError {
    fn from(e: SodaError) -> Self {
        ServiceError::Engine(e)
    }
}

/// Outcome of one served query.
pub type JobResult = Result<QueryResponse, ServiceError>;

/// What the worker channels carry: the raw page.  [`JobHandle::wait`]
/// wraps it into the public [`QueryResponse`] shape, so the hot path never
/// allocates a trace option per waiter.
type WireResult = Result<ResultPage, ServiceError>;

/// A claim on the result of a submitted query.
///
/// Cache hits, traced executions and errors are resolved at submission
/// time; misses resolve when a worker finishes the job.
/// [`wait`](Self::wait) blocks until then.
#[derive(Debug)]
pub struct JobHandle {
    inner: HandleInner,
}

#[derive(Debug)]
enum HandleInner {
    Ready(Box<JobResult>),
    Pending(mpsc::Receiver<WireResult>),
}

impl JobHandle {
    fn ready(result: JobResult) -> Self {
        Self {
            inner: HandleInner::Ready(Box::new(result)),
        }
    }

    fn pending(rx: mpsc::Receiver<WireResult>) -> Self {
        Self {
            inner: HandleInner::Pending(rx),
        }
    }

    /// True when the result is already available (`wait` will not block).
    pub fn is_ready(&self) -> bool {
        matches!(self.inner, HandleInner::Ready(_))
    }

    /// Blocks until the query completes and returns its result.
    pub fn wait(self) -> JobResult {
        match self.inner {
            HandleInner::Ready(result) => *result,
            HandleInner::Pending(rx) => rx
                .recv()
                .unwrap_or(Err(ServiceError::Disconnected))
                .map(QueryResponse::untraced),
        }
    }
}

struct Job {
    key: CacheKey,
    input: String,
    page: usize,
    page_size: usize,
    /// The snapshot generation pinned at submission time: the worker runs
    /// the pipeline against exactly this snapshot, so a swap that lands
    /// between submission and execution cannot change the answer (or leak a
    /// new-generation page under an old-generation key).
    engine: Arc<EngineSnapshot>,
    /// The tenant the job belongs to, for per-tenant accounting and the
    /// still-live check against *that* tenant's current fingerprint.
    tenant: Arc<TenantState>,
    /// The head-sampling decision drawn at submission time (`None` when the
    /// tenant samples nothing) — drawn up front so the worker knows whether
    /// to collect a span tree *before* the pipeline runs.
    head: Option<HeadDecision>,
    submitted: Instant,
    tx: mpsc::Sender<WireResult>,
}

/// The bounded job queue: one lane per tenant, scanned round-robin by the
/// workers, so a deep lane delays only its own tenant's jobs.
struct QueueState {
    /// `(tenant fingerprint, lane)` — created on first use and kept for the
    /// service lifetime (tenant counts are small, a linear scan wins).
    lanes: Vec<(u64, VecDeque<Job>)>,
    /// The lane the next round-robin scan starts from.
    cursor: usize,
    /// Queued jobs across all lanes (the figure the global capacity check
    /// and [`QueryService::queue_depth`] report).
    total: usize,
    shutdown: bool,
}

impl QueueState {
    /// Jobs currently queued in `lane`'s tenant lane.
    fn depth_of(&self, lane: u64) -> usize {
        self.lanes
            .iter()
            .find(|(fp, _)| *fp == lane)
            .map_or(0, |(_, jobs)| jobs.len())
    }

    fn push(&mut self, lane: u64, job: Job) {
        match self.lanes.iter_mut().find(|(fp, _)| *fp == lane) {
            Some((_, jobs)) => jobs.push_back(job),
            None => {
                let mut jobs = VecDeque::new();
                jobs.push_back(job);
                self.lanes.push((lane, jobs));
            }
        }
        self.total += 1;
    }

    /// Pops the next job, scanning the lanes round-robin from the cursor —
    /// each pop serves the next non-empty tenant lane, so a tenant with a
    /// flooded lane gets at most its fair turn.
    fn pop_round_robin(&mut self) -> Option<Job> {
        if self.total == 0 {
            return None;
        }
        let n = self.lanes.len();
        for i in 0..n {
            let idx = (self.cursor + i) % n;
            if let Some(job) = self.lanes[idx].1.pop_front() {
                self.cursor = (idx + 1) % n;
                self.total -= 1;
                return Some(job);
            }
        }
        None
    }

    /// Per-lane depths, for the fairness gauges in `metrics()`.
    fn lane_depths(&self) -> HashMap<u64, usize> {
        self.lanes
            .iter()
            .map(|(fp, jobs)| (*fp, jobs.len()))
            .collect()
    }
}

/// The per-tenant admission quota: an even split of the queue, rounded up,
/// never below one slot.  A tenant whose lane is at quota blocks its own
/// submitters while every other tenant keeps its share of the queue.
fn admission_quota(capacity: usize, tenants: usize) -> usize {
    capacity.div_ceil(tenants.max(1)).max(1)
}

/// One submission waiting on another submission's in-flight computation.
struct Waiter {
    submitted: Instant,
    tx: mpsc::Sender<WireResult>,
}

/// A cached result page together with what its query actually consulted —
/// the evidence [`EngineSnapshot::retains_page`] needs to carry the page
/// across a data-only snapshot swap instead of purging it.
#[derive(Debug, Clone)]
struct CachedPage {
    page: ResultPage,
    /// Bitmask of the shards the query's base-data probes scanned.
    touched_mask: u64,
    /// True when a shard index beyond the mask width was touched (the page
    /// is then never retained across a swap).
    touched_overflow: bool,
    /// The phrases the query probed and the probe tokens they selected
    /// (`Arc` so cache hits clone cheaply).
    deps: Arc<Vec<ProbeDep>>,
}

/// The cache and the pending-jobs map live under ONE mutex so that
/// probe-then-register is atomic: between a cache miss and the pending
/// registration no completion can slip through unobserved.
struct StoreState {
    cache: LruCache<CacheKey, CachedPage>,
    /// Keys with a job in flight (queued or executing), each with the
    /// waiters coalesced onto it.  An entry is created by the submission
    /// that enqueues the job and removed by the worker at completion (or by
    /// the submitter itself when shutdown aborts the enqueue).
    pending: HashMap<CacheKey, Vec<Waiter>>,
    /// Submissions that attached to an in-flight job instead of enqueuing.
    coalesced: u64,
}

struct Shared {
    /// Every hosted tenant — the default tenant (the boot snapshot) plus
    /// whatever [`QueryService::add_tenant`] registered.  A figure kept per
    /// tenant (queries, executions, swaps, feeds, compactions, slow
    /// queries) lives only on its [`TenantState`]; the service-wide value
    /// is the sum over tenants.  The counters below exist only
    /// service-wide.
    tenants: TenantRegistry,
    /// Streaming-ingestion lifetime counters, all tenants.
    ingest_events: AtomicU64,
    ingest_rows: AtomicU64,
    /// Copy-on-write sharing counters: rows appended to mutable tails,
    /// tables the derive copied, tables it structurally shared.
    ingest_rows_appended: AtomicU64,
    ingest_tables_copied: AtomicU64,
    ingest_tables_shared: AtomicU64,
    compacted_shards: AtomicU64,
    /// Shutdown flag + wakeup signal of the background compaction worker
    /// (present even without one; ingest nudges are then no-ops).
    compactor_shutdown: Mutex<bool>,
    compactor_wake: Condvar,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    queue_capacity: usize,
    store: Mutex<StoreState>,
    latency: Mutex<LatencyRecorder>,
    started: Instant,
    /// End-to-end latency past which a worker captures the full span tree
    /// (`None` — the default — disables tracing on the worker path).
    slow_query_threshold: Option<Duration>,
    /// The captured slow queries, newest-`slow_query_log` retained.
    slow_log: Mutex<BoundedLog<SlowQuery>>,
    /// Operational history: swaps, ingests, compactions, checkpoints,
    /// recoveries and slow queries, newest-`event_log` retained.
    events: Mutex<BoundedLog<OpEvent>>,
    /// The durability configuration the service booted with (`None` for a
    /// non-durable service) — [`QueryService::add_tenant`] derives each new
    /// tenant's journal directory from it.  The per-tenant journal *state*
    /// lives on each [`TenantState`].
    durability_config: Option<DurabilityConfig>,
    /// Serializes [`QueryService::add_tenant`] end to end, so the duplicate
    /// / fingerprint-collision check and the journal recovery form one
    /// atomic episode — two racing registrations of the same id must never
    /// both hold a write handle to the same journal file.  Never taken on
    /// the query path.
    add_tenants: Mutex<()>,
    /// The configuration the service booted with — [`QueryService::add_tenant`]
    /// builds each new tenant's sampler and SLO window from it, and the SLO
    /// evaluation reads the objectives off it.
    config: ServiceConfig,
    /// Last observed state of each `(tenant, objective)` burn alert, so
    /// [`QueryService::alerts`] emits one `slo_burn` event per transition
    /// instead of one per poll.
    alert_states: Mutex<HashMap<(String, &'static str), AlertState>>,
}

impl Shared {
    /// Records an executed query with its queue-wait / execution split and
    /// the per-stage timings.
    fn record_executed(
        &self,
        queue_wait: Duration,
        execution: Duration,
        timings: Option<&StepTimings>,
    ) {
        self.latency
            .lock()
            .expect("latency recorder poisoned")
            .record_executed(queue_wait, execution, timings);
    }

    /// Appends one operational event (stamped with its sequence number, the
    /// originating tenant and the offset from service start) to the bounded
    /// event log.
    fn event(&self, kind: &'static str, tenant: &TenantId, detail: String) {
        let at = self.started.elapsed();
        let mut events = self.events.lock().expect("event log poisoned");
        let seq = events.pushed() + 1;
        events.push(OpEvent {
            seq,
            at,
            kind,
            tenant: tenant.as_str().to_string(),
            detail,
        });
    }

    /// Records one completed query in the tenant's rolling SLO window — a
    /// no-op when [`ServiceConfig::slo`] is off.
    fn record_slo(&self, tenant: &TenantState, e2e: Duration, ok: bool) {
        if let Some(slo) = &tenant.slo {
            slo.lock()
                .expect("slo window poisoned")
                .record(self.started.elapsed(), e2e, ok);
        }
    }

    /// Retains one sampled trace: pushes it into the tenant's bounded ring
    /// and attaches its trace id to the tenant's end-to-end latency
    /// histogram as the exemplar of the bucket this query landed in.  Locks
    /// are taken one at a time, never nested.
    fn capture_sampled(
        &self,
        tenant: &TenantState,
        trace_id: TraceId,
        reason: SampleReason,
        input: &str,
        e2e: Duration,
        trace: QueryTrace,
    ) {
        let id = trace_id.to_string();
        tenant
            .e2e
            .lock()
            .expect("tenant latency recorder poisoned")
            .annotate_exemplar(e2e, &id);
        tenant.sampled_total.fetch_add(1, Ordering::Relaxed);
        tenant
            .sampled
            .lock()
            .expect("sampled-trace ring poisoned")
            .push(SampledTrace {
                tenant: tenant.id.clone(),
                trace_id: id,
                input: input.to_string(),
                reason: reason.as_str(),
                total: e2e,
                trace,
            });
    }
}

/// Synthesizes the span tree of a warm cache hit: a `query` root holding a
/// single [`names::CACHE_HIT`] event — what a sampled (or traced) request
/// records when the page is served from the cache instead of re-running
/// the pipeline.
fn cache_hit_trace(input: &str, e2e: Duration) -> QueryTrace {
    let sink = CollectingSink::new();
    let root = sink.begin_span(names::QUERY, SpanId::NONE);
    sink.event(
        names::CACHE_HIT,
        root,
        vec![
            ("input", TraceValue::from(input)),
            (
                "e2e_us",
                TraceValue::from(u64::try_from(e2e.as_micros()).unwrap_or(u64::MAX)),
            ),
        ],
    );
    sink.end_span(root);
    sink.finish()
}

/// Event-detail suffix naming the tenant — empty for the default tenant,
/// so single-tenant operational logs read exactly as before the
/// multi-tenant redesign.
fn tenant_suffix(tenant: &TenantState) -> String {
    if tenant.id.is_default() {
        String::new()
    } else {
        format!(", tenant {}", tenant.id)
    }
}
/// A long-lived, thread-safe, multi-tenant SODA query service.
///
/// ```
/// use std::sync::Arc;
/// use soda_core::{EngineSnapshot, SodaConfig};
/// use soda_service::{QueryRequest, QueryService, ServiceConfig};
///
/// let warehouse = soda_warehouse::minibank::build(42);
/// let snapshot = EngineSnapshot::build(
///     Arc::new(warehouse.database),
///     Arc::new(warehouse.graph),
///     SodaConfig::default(),
/// );
/// let service = QueryService::start(Arc::new(snapshot), ServiceConfig::default());
///
/// let response = service.query(QueryRequest::new("Sara Guttinger")).wait().unwrap();
/// assert!(!response.page.results.is_empty());
///
/// // The repeat is answered from the cache.
/// let again = service.query(QueryRequest::new("sara   guttinger")).wait().unwrap();
/// assert_eq!(response.page, again.page);
/// assert_eq!(service.metrics().cache.hits, 1);
/// ```
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
}

impl QueryService {
    /// Starts the worker pool over a shared engine snapshot, which becomes
    /// the **default tenant**'s warehouse (wrapped in a [`SnapshotHandle`]
    /// internally, so it can be reloaded later without restarting the
    /// pool).  Further tenants join through
    /// [`add_tenant`](Self::add_tenant).
    pub fn start(engine: Arc<EngineSnapshot>, config: ServiceConfig) -> Self {
        Self::start_with(SnapshotHandle::new(engine), config, None)
    }

    /// The constructor shared by [`start`](Self::start) and
    /// [`recover`](Self::recover): wraps an already-prepared handle (recovery
    /// restores generation stamps and replays feeds before any worker
    /// exists) and spawns the pool.
    fn start_with(
        handle: SnapshotHandle,
        config: ServiceConfig,
        durability: Option<(DurabilityState, DurabilityConfig)>,
    ) -> Self {
        let (state, durability_config) = match durability {
            Some((state, config)) => (Some(state), Some(config)),
            None => (None, None),
        };
        let default = Arc::new(TenantState::new(
            TenantId::default(),
            handle,
            state,
            &config,
        ));
        let shared = Arc::new(Shared {
            tenants: TenantRegistry::new(default),
            ingest_events: AtomicU64::new(0),
            ingest_rows: AtomicU64::new(0),
            ingest_rows_appended: AtomicU64::new(0),
            ingest_tables_copied: AtomicU64::new(0),
            ingest_tables_shared: AtomicU64::new(0),
            compacted_shards: AtomicU64::new(0),
            compactor_shutdown: Mutex::new(false),
            compactor_wake: Condvar::new(),
            queue: Mutex::new(QueueState {
                lanes: Vec::new(),
                cursor: 0,
                total: 0,
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            store: Mutex::new(StoreState {
                cache: LruCache::new(config.cache_capacity),
                pending: HashMap::new(),
                coalesced: 0,
            }),
            latency: Mutex::new(LatencyRecorder::new()),
            started: Instant::now(),
            slow_query_threshold: config.slow_query_threshold,
            slow_log: Mutex::new(BoundedLog::new(config.slow_query_log)),
            events: Mutex::new(BoundedLog::new(config.event_log)),
            durability_config,
            add_tenants: Mutex::new(()),
            config: config.clone(),
            alert_states: Mutex::new(HashMap::new()),
        });
        // CI parity knob: SODA_TEST_TENANTS=n hosts n-1 idle "shadow"
        // tenants over the same engine, so the whole suite exercises a
        // genuinely multi-tenant service (lanes, quotas, registry) without
        // any test changing.  The shadows take no traffic and are not
        // durable, so aggregate metrics and on-disk state are unchanged.
        if let Some(extra) = std::env::var("SODA_TEST_TENANTS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n > 1)
        {
            for i in 1..extra {
                let engine = shared.tenants.default_tenant().handle.load();
                let _ = shared.tenants.register(Arc::new(TenantState::new(
                    TenantId::new(format!("shadow-{i}")),
                    SnapshotHandle::new(engine),
                    None,
                    &shared.config,
                )));
            }
        }
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("soda-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn service worker")
            })
            .collect();
        let compactor = config.compaction.map(|compaction| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("soda-compactor".to_string())
                .spawn(move || compactor_loop(&shared, &compaction))
                .expect("failed to spawn compaction worker")
        });
        Self {
            shared,
            workers,
            compactor,
        }
    }

    /// Boots a **durable** service from the journal under
    /// [`DurabilityConfig::dir`], creating it when missing — this is both
    /// the first-boot and the post-crash entry point.  The recovered
    /// snapshot becomes the default tenant; tenants registered through
    /// [`add_tenant`](Self::add_tenant) recover from their own journals at
    /// registration time.
    ///
    /// `base_db` and `graph` must be the warehouse and metadata graph the
    /// journaled history started from (the graph is *not* journaled; after a
    /// [`TenantAdmin::refresh_graph`] pass the refreshed one).
    /// Recovery then replays the journal: the latest checkpoint's table
    /// contents are applied over `base_db` and its generation stamps are
    /// restored, every feed appended after it is re-absorbed in order, and —
    /// because absorbed state answers identically to a rebuild over the same
    /// rows — the recovered engine serves byte-identical pages under the
    /// same cache fingerprints as the instance that died.  Warm pages
    /// persisted by a graceful drain are reloaded into the cache when they
    /// still match.
    ///
    /// Errors are [`ServiceError::Durability`] for journal I/O, decode or
    /// checkpoint-apply failures — including a journal written under a
    /// different engine configuration, which must not be silently dropped —
    /// and [`ServiceError::Engine`] for malformed generation stamps.  A
    /// torn journal tail and any page-cache problem are *not* errors: the
    /// tail is truncated and the cache file ignored, both reported in the
    /// [`RecoveryReport`].
    pub fn recover(
        base_db: Arc<Database>,
        graph: Arc<MetaGraph>,
        config: SodaConfig,
        service: ServiceConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        std::fs::create_dir_all(&durability.dir).map_err(|e| {
            ServiceError::Durability(format!("creating {}: {e}", durability.dir.display()))
        })?;
        let config_fingerprint = config.fingerprint();
        // The default tenant's journal is stamped with tenant fingerprint 0
        // (the fold identity), which is also what pre-tenancy journals carry
        // — existing durability directories recover unchanged.
        let (journal, replay) = FeedJournal::recover(
            &journal_path(&durability.dir),
            config_fingerprint,
            TenantId::default().fingerprint(),
            durability.fsync,
        )
        .map_err(|e| ServiceError::Durability(e.to_string()))?;
        let mut report = RecoveryReport {
            journal_created: replay.created,
            truncated_bytes: replay.truncated_bytes,
            ..RecoveryReport::default()
        };
        let (checkpoint, feeds) = replay.into_plan();

        // The checkpoint's tables land over the base database; everything it
        // did not record keeps its base content (which is why checkpoints
        // re-record every table ever touched).
        let mut dirty_tables = BTreeSet::new();
        let db = match &checkpoint {
            Some(cp) => {
                let mut db = (*base_db).clone();
                for (name, rows) in &cp.tables {
                    let table = db.table_mut(name).map_err(|e| {
                        ServiceError::Durability(format!("applying checkpoint to `{name}`: {e}"))
                    })?;
                    table.truncate();
                    table.insert_all(rows.iter().cloned()).map_err(|e| {
                        ServiceError::Durability(format!("applying checkpoint to `{name}`: {e}"))
                    })?;
                    report.checkpoint_rows += rows.len();
                    dirty_tables.insert(name.clone());
                }
                report.checkpoint_applied = true;
                Arc::new(db)
            }
            None => base_db,
        };
        let handle = SnapshotHandle::new(Arc::new(EngineSnapshot::build(db, graph, config)));
        if let Some(cp) = &checkpoint {
            handle
                .restore_generations(cp.generation, &cp.shard_generations)
                .map_err(ServiceError::Engine)?;
        }
        for feed in feeds {
            // A replay rejection is deterministic — the feed was rejected
            // when first ingested too (it reached the journal write-ahead) —
            // so it is counted, not fatal.  Feeds are consumed: replay moves
            // rows through the same copy-on-write path as live ingestion.
            let tables = feed.tables();
            match handle.absorb_owned(feed) {
                Ok(_) => {
                    report.replayed_feeds += 1;
                    dirty_tables.extend(tables);
                }
                Err(_) => report.rejected_feeds += 1,
            }
        }

        // The page cache is strictly best-effort: a missing, foreign, torn
        // or stale file restores nothing and fails nothing.  Entries are
        // kept only when their fingerprint matches the *recovered* snapshot
        // — queries will actually look them up under that key.
        let cache_path = durability.dir.join(CACHE_FILE);
        let live = handle.load().cache_fingerprint();
        let mut restored = Vec::new();
        if durability.persist_cache {
            if let Ok(Some(scan)) = read_frame_file(&cache_path, CACHE_MAGIC) {
                if scan.fingerprint == config_fingerprint {
                    for payload in &scan.frames {
                        match decode_cache_entry(payload) {
                            Ok((key, entry)) if key.snapshot_fingerprint == live => {
                                restored.push((key, entry));
                            }
                            _ => report.cache_pages_stale += 1,
                        }
                    }
                } else {
                    report.cache_pages_stale += scan.frames.len() as u64;
                }
            }
        }
        report.cache_pages_restored = restored.len() as u64;

        let state = DurabilityState {
            journal,
            cache_path,
            persist_cache: durability.persist_cache,
            config_fingerprint,
            dirty_tables,
            journal_appends: 0,
            checkpoints: 0,
            checkpoint_failures: 0,
            replayed_feeds: report.replayed_feeds,
            rejected_replays: report.rejected_feeds,
            truncated_bytes: report.truncated_bytes,
            cache_pages_restored: report.cache_pages_restored,
            cache_pages_stale: report.cache_pages_stale,
        };
        let service = Self::start_with(handle, service, Some((state, durability)));
        {
            // The file was written oldest-first, so sequential re-insertion
            // reproduces the drained cache's recency order.
            let mut store = service.shared.store.lock().expect("store poisoned");
            for (key, entry) in restored {
                store.cache.insert(key, entry);
            }
        }
        service.shared.event(
            "recovery",
            &TenantId::default(),
            format!(
                "checkpoint {}, {} feeds replayed, {} rejected, {} bytes truncated, \
                 {} pages restored",
                if report.checkpoint_applied {
                    "applied"
                } else {
                    "absent"
                },
                report.replayed_feeds,
                report.rejected_feeds,
                report.truncated_bytes,
                report.cache_pages_restored,
            ),
        );
        Ok((service, report))
    }

    /// Registers a new tenant: `engine` becomes what queries routed via
    /// [`QueryRequest::tenant`] are answered from.  The tenant gets its own
    /// [`SnapshotHandle`] (so its reloads and ingests never block another
    /// tenant's), its own queue lane and quota, and — on a durable service —
    /// its own write-ahead journal under `tenants/<name>-<fingerprint>/`,
    /// which is replayed over `engine` right here (so a re-registered
    /// tenant resumes exactly where its journaled history left off).
    ///
    /// Rejects the default id with [`ServiceError::TenantExists`] (the
    /// default tenant always exists), any already-registered id, and an id
    /// whose fingerprint collides with a hosted tenant's
    /// ([`ServiceError::TenantFingerprintCollision`] — fingerprints are the
    /// isolation boundary for cache keys, queue lanes and journal
    /// directories, so a collision must never be hosted).
    pub fn add_tenant(
        &self,
        id: impl Into<TenantId>,
        engine: Arc<EngineSnapshot>,
    ) -> Result<(), ServiceError> {
        let id = id.into();
        // One registration at a time: the validation below and the journal
        // recovery must be atomic, or two racing calls with the same id
        // would both open (and possibly truncate/replay) the same journal
        // file before `register` rejects the loser.
        let _adding = self
            .shared
            .add_tenants
            .lock()
            .expect("tenant registration lock poisoned");
        if id.is_default() {
            return Err(ServiceError::TenantExists(id.as_str().to_string()));
        }
        // Validate *before* the journal side effects — a rejected tenant
        // (duplicate or fingerprint collision) must not create or replay
        // any journal directory.  In particular, a named tenant whose
        // fingerprint collides with `0` would otherwise map onto the
        // default tenant's top-level journal.
        self.shared.tenants.validate_new(&id)?;
        let handle = SnapshotHandle::new(engine);
        let durability = match &self.shared.durability_config {
            Some(config) => Some(recover_tenant_journal(&id, &handle, config)?),
            None => None,
        };
        let replayed = durability.as_ref().map_or(0, |d| d.replayed_feeds);
        let tenant = Arc::new(TenantState::new(
            id,
            handle,
            durability,
            &self.shared.config,
        ));
        self.shared.tenants.register(Arc::clone(&tenant))?;
        self.shared.event(
            "add_tenant",
            &tenant.id,
            format!("tenant {}, {replayed} feeds replayed", tenant.id),
        );
        Ok(())
    }

    /// The ids of every hosted tenant, the default tenant first.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.shared
            .tenants
            .all()
            .iter()
            .map(|t| t.id.clone())
            .collect()
    }

    /// The administration facade for one tenant — every mutation of what
    /// that tenant serves (`reload`, `rebuild_shards`, `refresh_graph`,
    /// `ingest`, `ingest_owned`, `compact`, `clear_cache`) lives on the
    /// returned [`TenantAdmin`], scoped to exactly that tenant.
    pub fn admin(&self, tenant: impl Into<TenantId>) -> Result<TenantAdmin<'_>, ServiceError> {
        let id = tenant.into();
        match self.shared.tenants.resolve(&id) {
            Some(tenant) => Ok(TenantAdmin {
                service: self,
                tenant,
            }),
            None => Err(ServiceError::UnknownTenant(id.as_str().to_string())),
        }
    }

    /// Submits one query — the single request surface of the service.
    ///
    /// The request's tenant (default unless [`QueryRequest::tenant`] named
    /// another) is resolved first; an unknown tenant resolves the handle
    /// immediately with [`ServiceError::UnknownTenant`].  A
    /// [`traced`](QueryRequest::traced) request executes on the calling
    /// thread — bypassing cache, queue and coalescing, so the trace
    /// reflects a full computation — and returns a resolved handle whose
    /// response carries the span tree.  Untraced requests return
    /// immediately with a resolved handle on a cache hit or a parse error;
    /// coalesce onto an identical in-flight job when one exists; otherwise
    /// enqueue the job in the tenant's lane, blocking while the lane is at
    /// its admission quota or the queue at capacity (backpressure).
    pub fn query(&self, request: QueryRequest) -> JobHandle {
        let submitted = Instant::now();
        let Some(tenant) = self.shared.tenants.resolve(&request.tenant) else {
            return JobHandle::ready(Err(ServiceError::UnknownTenant(
                request.tenant.as_str().to_string(),
            )));
        };
        if request.traced {
            return JobHandle::ready(self.run_traced(&tenant, &request, submitted));
        }
        let normalized = match normalize_query(&request.input) {
            Ok(n) => n,
            Err(e) => return JobHandle::ready(Err(ServiceError::Engine(e))),
        };
        // Pin the tenant's current snapshot for this submission's whole
        // life: the key carries its tenant-folded fingerprint (so cache hits
        // and coalescing stay within one tenant and one generation) and the
        // job carries the Arc (so the worker computes against the same
        // generation the key names).
        let engine = tenant.handle.load();
        let key = CacheKey {
            normalized,
            snapshot_fingerprint: tenant.id.fold(engine.cache_fingerprint()),
            page: request.page,
            page_size: request.page_size.max(1),
        };

        // One critical section decides the submission's fate: cache hit,
        // coalesce onto an in-flight job, or become the job that computes.
        // Bind the outcome before recording anything — holding the store
        // guard while taking the tenant's latency lock would nest locks
        // that `metrics()` takes one at a time.
        enum Probe {
            Hit(ResultPage),
            Coalesced(mpsc::Receiver<WireResult>),
            Compute,
        }
        let probe = {
            let mut store = self.shared.store.lock().expect("store poisoned");
            if let Some(entry) = store.cache.get(&key) {
                Probe::Hit(entry.page)
            } else if let Some(waiters) = store.pending.get_mut(&key) {
                let (tx, rx) = mpsc::channel();
                waiters.push(Waiter { submitted, tx });
                store.coalesced += 1;
                Probe::Coalesced(rx)
            } else {
                store.pending.insert(key.clone(), Vec::new());
                Probe::Compute
            }
        };
        match probe {
            Probe::Hit(page) => {
                tenant.warm_hits.fetch_add(1, Ordering::Relaxed);
                let e2e = submitted.elapsed();
                tenant.record_response(e2e);
                self.shared.record_slo(&tenant, e2e, true);
                // The sampler sees warm hits too — always-on sampling covers
                // the *normal* serving path, not just pipeline executions.
                // A kept hit records a synthesized `cache_hit` span tree.
                if let Some(sampler) = &tenant.sampler {
                    let head = sampler.head_sample();
                    if let Some(reason) = sampler.decide(head.sampled, e2e) {
                        self.shared.capture_sampled(
                            &tenant,
                            head.trace_id,
                            reason,
                            &request.input,
                            e2e,
                            cache_hit_trace(&request.input, e2e),
                        );
                    }
                }
                return JobHandle::ready(Ok(QueryResponse::untraced(page)));
            }
            Probe::Coalesced(rx) => return JobHandle::pending(rx),
            Probe::Compute => {}
        }

        let (tx, rx) = mpsc::channel();
        let lane = tenant.id.fingerprint();
        let job = Job {
            key: key.clone(),
            input: request.input,
            page: request.page,
            page_size: request.page_size,
            engine,
            head: tenant.sampler.as_ref().map(|s| s.head_sample()),
            tenant: Arc::clone(&tenant),
            submitted,
            tx,
        };
        // Admission control: block while the whole queue is at capacity OR
        // this tenant's lane is at its fair share of it.  The quota is what
        // keeps one tenant's cold-query storm from squatting every slot —
        // the flooding tenant's own submitters block here while other
        // tenants still find room in their lanes.  The quota is recomputed
        // on every predicate evaluation (the tenant count is one cheap
        // RwLock read), so a submitter that sleeps through an `add_tenant`
        // wakes up to the tightened share instead of a stale, larger one.
        let mut state = self.shared.queue.lock().expect("queue poisoned");
        let mut waited = false;
        while (state.total >= self.shared.queue_capacity
            || state.depth_of(lane)
                >= admission_quota(self.shared.queue_capacity, self.shared.tenants.len()))
            && !state.shutdown
        {
            waited = true;
            state = self.shared.not_full.wait(state).expect("queue poisoned");
        }
        if waited {
            tenant.admission_waits.fetch_add(1, Ordering::Relaxed);
        }
        if state.shutdown {
            drop(state);
            // The job will never run: withdraw the pending entry and resolve
            // any waiters that coalesced onto it in the meantime.
            let waiters = {
                let mut store = self.shared.store.lock().expect("store poisoned");
                store.pending.remove(&key).unwrap_or_default()
            };
            for waiter in waiters {
                let _ = waiter.tx.send(Err(ServiceError::ShuttingDown));
            }
            return JobHandle::ready(Err(ServiceError::ShuttingDown));
        }
        state.push(lane, job);
        drop(state);
        self.shared.not_empty.notify_one();
        JobHandle::pending(rx)
    }

    /// The traced execution behind [`query`](Self::query): probes the
    /// cache like any untraced submission — a warm page is served as a
    /// cache hit whose trace is a synthesized `cache_hit` root, exactly
    /// what the untraced path would have answered — and a miss runs the
    /// pipeline on the caller's thread through a [`CollectingSink`] and a
    /// [`ProbeRecorder`].  The served page is byte-identical to the
    /// untraced answer either way — tracing never changes an answer.
    fn run_traced(
        &self,
        tenant: &Arc<TenantState>,
        request: &QueryRequest,
        submitted: Instant,
    ) -> JobResult {
        // Normalize first: a malformed input fails identically whether or
        // not some page happens to be warm.
        let normalized = normalize_query(&request.input).map_err(ServiceError::Engine)?;
        let engine = tenant.handle.load();
        let key = CacheKey {
            normalized,
            snapshot_fingerprint: tenant.id.fold(engine.cache_fingerprint()),
            page: request.page,
            page_size: request.page_size.max(1),
        };
        let cached = self
            .shared
            .store
            .lock()
            .expect("store poisoned")
            .cache
            .get(&key);
        if let Some(entry) = cached {
            tenant.warm_hits.fetch_add(1, Ordering::Relaxed);
            let e2e = submitted.elapsed();
            tenant.record_response(e2e);
            self.shared.record_slo(tenant, e2e, true);
            return Ok(QueryResponse {
                page: entry.page,
                trace: Some(cache_hit_trace(&request.input, e2e)),
            });
        }
        let sink = CollectingSink::new();
        let recorder = ProbeRecorder::new();
        let (page, timings) = engine
            .search_paged_observed(
                &request.input,
                request.page,
                request.page_size,
                Some(&recorder),
                &sink,
            )
            .map_err(ServiceError::Engine)?;
        let e2e = submitted.elapsed();
        tenant.executions.fetch_add(1, Ordering::Relaxed);
        self.shared
            .record_executed(Duration::ZERO, e2e, Some(&timings));
        tenant.record_response(e2e);
        self.shared.record_slo(tenant, e2e, true);
        Ok(QueryResponse {
            page,
            trace: Some(sink.finish()),
        })
    }

    /// A point-in-time snapshot of the service's health, the per-tenant
    /// fairness split ([`ServiceMetrics::tenants`]) included.
    pub fn metrics(&self) -> ServiceMetrics {
        self.scrape().metrics
    }

    /// Renders the service's health as a Prometheus text-exposition
    /// document (format 0.0.4): the lifetime counters and point-in-time
    /// gauges of [`metrics`](Self::metrics), the per-tenant fairness
    /// families (`soda_tenant_*`, one sample per hosted tenant, labelled
    /// `tenant="<name>"`), the SLO burn-rate families when an SLO is
    /// declared, and the latency **histograms** (end-to-end, queue wait,
    /// execution, per-stage and per-tenant, all in seconds) — the
    /// full-fidelity surface a scrape-based monitoring stack ingests.
    ///
    /// The document always validates against
    /// [`soda_trace::prom::validate`]; the metric names and label sets are a
    /// stable interface, pinned by a golden test.  The SLO families are
    /// read-only: the alert-transition ledger is only advanced by
    /// [`alerts`](Self::alerts).
    pub fn metrics_text(&self) -> String {
        let mut scrape = self.scrape();
        scrape.slo = self.shared.config.slo.as_ref().map(|slo| {
            self.evaluate_slo()
                .into_iter()
                .map(|(_, alert)| SloSample {
                    target: match alert.objective {
                        "latency" => slo.latency_target,
                        _ => slo.availability_target,
                    },
                    alert,
                })
                .collect()
        });
        metrics::render(&scrape)
    }

    /// Gathers one scrape, taking each lock alone and releasing it before
    /// the next (never nested, so no lock order can invert).  Per-tenant
    /// figures are read once and the service-wide ones derived from them:
    /// counters as sums over tenants, the end-to-end histogram as their
    /// merge.
    fn scrape(&self) -> Scrape {
        let latency = self
            .shared
            .latency
            .lock()
            .expect("latency poisoned")
            .clone();
        let (cache, coalesced) = {
            let store = self.shared.store.lock().expect("store poisoned");
            (store.cache.stats(), store.coalesced)
        };
        let (queue_depth, lane_depths) = {
            let state = self.shared.queue.lock().expect("queue poisoned");
            (state.total, state.lane_depths())
        };
        let uptime = self.shared.started.elapsed();
        let secs = uptime.as_secs_f64();
        let per_second = |count: u64| if secs > 0.0 { count as f64 / secs } else { 0.0 };
        let mut e2e = LogHistogram::new();
        let mut tenant_e2e = Vec::new();
        let mut tenants = Vec::new();
        for t in self.shared.tenants.all() {
            let hist = t
                .e2e
                .lock()
                .expect("tenant latency recorder poisoned")
                .clone();
            e2e.merge(&hist);
            tenants.push(TenantMetrics {
                tenant: t.id.as_str().to_string(),
                completed: hist.count(),
                qps: per_second(hist.count()),
                latency: LatencySummary::of(&hist),
                warm_hits: t.warm_hits.load(Ordering::Relaxed),
                executions: t.executions.load(Ordering::Relaxed),
                admission_waits: t.admission_waits.load(Ordering::Relaxed),
                slow_queries: t.slow_queries.load(Ordering::Relaxed),
                sampled_traces: t.sampled_total.load(Ordering::Relaxed),
                queue_depth: lane_depths.get(&t.id.fingerprint()).copied().unwrap_or(0),
                generation: t.handle.generation(),
                reloads: t.reloads.load(Ordering::Relaxed),
                ingest_feeds: t.ingest_feeds.load(Ordering::Relaxed),
                compactions: t.compactions.load(Ordering::Relaxed),
                durability: durability_metrics(&t.durability),
            });
            tenant_e2e.push(hist);
        }
        let total = |figure: fn(&TenantMetrics) -> u64| tenants.iter().map(figure).sum::<u64>();
        // Re-sampled from the live handle on every call (not captured at
        // construction), so the per-shard gauges and the generation always
        // describe the snapshot that is serving *now*, including after a
        // swap.  The top-level generation, shards and durability describe
        // the default tenant; the per-tenant split is in `tenants`.
        let default = self.shared.tenants.default_tenant();
        let snapshot = default.handle.load();
        let metrics = ServiceMetrics {
            uptime,
            completed: e2e.count(),
            qps: per_second(e2e.count()),
            latency: LatencySummary::of(&e2e),
            queue_wait: LatencySummary::of(&latency.queue_wait),
            execution: LatencySummary::of(&latency.execution),
            stages: latency.stage_summaries(),
            cache,
            pipeline_executions: total(|t| t.executions),
            coalesced,
            slow_queries: total(|t| t.slow_queries),
            queue_depth,
            workers: self.workers.len(),
            generation: snapshot.generation(),
            reloads: total(|t| t.reloads),
            ingest: IngestMetrics {
                ingests: total(|t| t.ingest_feeds),
                events: self.shared.ingest_events.load(Ordering::Relaxed),
                rows: self.shared.ingest_rows.load(Ordering::Relaxed),
                rows_appended: self.shared.ingest_rows_appended.load(Ordering::Relaxed),
                tables_copied: self.shared.ingest_tables_copied.load(Ordering::Relaxed),
                tables_shared: self.shared.ingest_tables_shared.load(Ordering::Relaxed),
                compactions: total(|t| t.compactions),
                compacted_shards: self.shared.compacted_shards.load(Ordering::Relaxed),
            },
            shards: snapshot.shard_stats(),
            durability: durability_metrics(&default.durability),
            tenants,
        };
        Scrape {
            metrics,
            e2e,
            tenant_e2e,
            latency,
            slo: None,
        }
    }

    /// A snapshot of the operational-event log, oldest retained entry
    /// first: snapshot swaps, ingests, compactions, checkpoints, recoveries,
    /// tenant registrations and slow-query captures, each with a sequence
    /// number and an offset from service start.  Bounded by
    /// [`ServiceConfig::event_log`].
    pub fn events(&self) -> Vec<OpEvent> {
        self.shared
            .events
            .lock()
            .expect("event log poisoned")
            .to_vec()
    }

    /// A snapshot of the slow-query log, oldest retained capture first.
    /// Populated only when [`ServiceConfig::slow_query_threshold`] is set;
    /// bounded by [`ServiceConfig::slow_query_log`].
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared
            .slow_log
            .lock()
            .expect("slow-query log poisoned")
            .to_vec()
    }

    /// One tenant's operational events, oldest retained entry first — the
    /// tenant-filtered view of [`events`](Self::events).
    pub fn events_for(&self, tenant: impl Into<TenantId>) -> Result<Vec<OpEvent>, ServiceError> {
        let id = tenant.into();
        if self.shared.tenants.resolve(&id).is_none() {
            return Err(ServiceError::UnknownTenant(id.as_str().to_string()));
        }
        Ok(self
            .events()
            .into_iter()
            .filter(|e| e.tenant == id.as_str())
            .collect())
    }

    /// One tenant's slow-query captures, oldest retained capture first —
    /// the tenant-filtered view of [`slow_queries`](Self::slow_queries).
    pub fn slow_queries_for(
        &self,
        tenant: impl Into<TenantId>,
    ) -> Result<Vec<SlowQuery>, ServiceError> {
        let id = tenant.into();
        if self.shared.tenants.resolve(&id).is_none() {
            return Err(ServiceError::UnknownTenant(id.as_str().to_string()));
        }
        Ok(self
            .slow_queries()
            .into_iter()
            .filter(|s| s.tenant == id.as_str())
            .collect())
    }

    /// One tenant's sampled traces, oldest retained first — the span trees
    /// the adaptive sampler kept ([`ServiceConfig::sampling`]), each with
    /// its trace id, retention reason and end-to-end latency.  Bounded by
    /// [`SamplingConfig::trace_log`]; empty when sampling is off.
    pub fn sampled_traces(
        &self,
        tenant: impl Into<TenantId>,
    ) -> Result<Vec<SampledTrace>, ServiceError> {
        let id = tenant.into();
        match self.shared.tenants.resolve(&id) {
            Some(tenant) => Ok(tenant
                .sampled
                .lock()
                .expect("sampled-trace ring poisoned")
                .to_vec()),
            None => Err(ServiceError::UnknownTenant(id.as_str().to_string())),
        }
    }

    /// Evaluates every tenant's burn rates against the declared objectives
    /// ([`ServiceConfig::slo`]), emits one `slo_burn` [`OpEvent`] per
    /// alert-state *transition*, and returns the alerts that are currently
    /// pending or firing (an all-healthy fleet returns an empty vector).
    ///
    /// The multi-window rule: an alert **fires** only when both the fast
    /// and the slow window burn faster than [`SloConfig::burn_threshold`];
    /// one window alone marks it **pending**.  Returns an empty vector when
    /// no SLO is configured.
    pub fn alerts(&self) -> Vec<BurnAlert> {
        let evaluated = self.evaluate_slo();
        let transitions: Vec<(TenantId, BurnAlert, AlertState)> = {
            let mut states = self
                .shared
                .alert_states
                .lock()
                .expect("alert states poisoned");
            evaluated
                .iter()
                .filter_map(|(tenant, alert)| {
                    let prev = states
                        .insert((alert.tenant.clone(), alert.objective), alert.state)
                        .unwrap_or(AlertState::Ok);
                    (prev != alert.state).then(|| (tenant.id.clone(), alert.clone(), prev))
                })
                .collect()
        };
        for (id, alert, prev) in transitions {
            self.shared.event(
                "slo_burn",
                &id,
                format!(
                    "{} alert {} (was {}): fast burn {:.2}, slow burn {:.2}",
                    alert.objective,
                    alert.state.as_str(),
                    prev.as_str(),
                    alert.fast_burn,
                    alert.slow_burn,
                ),
            );
        }
        evaluated
            .into_iter()
            .map(|(_, alert)| alert)
            .filter(|a| a.state != AlertState::Ok)
            .collect()
    }

    /// Burn-rate evaluation shared by [`alerts`](Self::alerts) and the
    /// `soda_slo_*` metric families: folds each tenant's fast and slow
    /// windows and scores both objectives.  Read-only — the transition
    /// ledger is only touched by `alerts`.
    fn evaluate_slo(&self) -> Vec<(Arc<TenantState>, BurnAlert)> {
        let Some(slo) = &self.shared.config.slo else {
            return Vec::new();
        };
        let now = self.shared.started.elapsed();
        let mut out = Vec::new();
        for tenant in self.shared.tenants.all() {
            let Some(window) = &tenant.slo else { continue };
            let (fast, slow) = {
                let w = window.lock().expect("slo window poisoned");
                (
                    w.merged(now, slo.fast_window),
                    w.merged(now, slo.slow_window),
                )
            };
            let objective = slo.objective_for(tenant.id.as_str());
            let fast_burn = latency_burn_rate(&fast, objective, slo.latency_target);
            let slow_burn = latency_burn_rate(&slow, objective, slo.latency_target);
            out.push((
                Arc::clone(&tenant),
                BurnAlert {
                    tenant: tenant.id.as_str().to_string(),
                    objective: "latency",
                    fast_burn,
                    slow_burn,
                    state: alert_state(fast_burn, slow_burn, slo.burn_threshold),
                },
            ));
            let fast_burn = availability_burn_rate(&fast, slo.availability_target);
            let slow_burn = availability_burn_rate(&slow, slo.availability_target);
            out.push((
                Arc::clone(&tenant),
                BurnAlert {
                    tenant: tenant.id.as_str().to_string(),
                    objective: "availability",
                    fast_burn,
                    slow_burn,
                    state: alert_state(fast_burn, slow_burn, slo.burn_threshold),
                },
            ));
        }
        out
    }

    /// Jobs currently waiting in the queue, all tenant lanes combined.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue poisoned").total
    }

    /// Size of the worker pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The engine snapshot the **default tenant** currently serves.  A
    /// subsequent reload does not invalidate the returned `Arc`; it just
    /// stops being what new submissions see.  Other tenants' snapshots are
    /// reached through [`admin`](Self::admin).
    pub fn engine(&self) -> Arc<EngineSnapshot> {
        self.shared.tenants.default_tenant().handle.load()
    }

    /// Generation of the snapshot the default tenant currently serves.
    pub fn generation(&self) -> u64 {
        self.shared.tenants.default_tenant().handle.generation()
    }

    /// Swaps in a full replacement snapshot for one tenant **without
    /// draining the worker pool**: the tenant's in-flight queries finish on
    /// the generation they pinned at submission, new submissions see the new
    /// one.  The tenant's cached pages of superseded generations are purged
    /// (they would be unaddressable anyway — the fingerprint in their key no
    /// longer matches); other tenants' pages are untouched.
    pub(crate) fn reload_for(&self, tenant: &Arc<TenantState>, snapshot: EngineSnapshot) -> u64 {
        let _swap = tenant.swaps.lock().expect("tenant swap lock poisoned");
        let prev = tenant.folded_live();
        let generation = tenant.handle.publish(snapshot);
        tenant.reloads.fetch_add(1, Ordering::Relaxed);
        self.shared.event(
            "reload",
            &tenant.id,
            format!("generation {generation}{}", tenant_suffix(tenant)),
        );
        self.purge_superseded_for(tenant, prev);
        // The reload replaced data the journal knows nothing about: record
        // the *entire* live database (plus the new stamps), so the next
        // recovery lands on the reloaded content whatever base it is given.
        write_checkpoint_under_swap_lock(&self.shared, tenant, true);
        generation
    }

    /// Per-shard hot swap for one tenant: given a database in which only
    /// `tables` changed, rebuilds and atomically replaces the inverted-index
    /// partitions owning those tables while every other shard keeps serving
    /// — see [`SnapshotHandle::rebuild_shards`].  Cached pages whose queries
    /// provably never consulted a rebuilt partition are carried across the
    /// swap ([`CacheStats::retained`](crate::CacheStats)); the rest of the
    /// tenant's superseded pages are purged.
    pub(crate) fn rebuild_shards_for(
        &self,
        tenant: &Arc<TenantState>,
        db: Arc<Database>,
        tables: &[String],
    ) -> u64 {
        let _swap = tenant.swaps.lock().expect("tenant swap lock poisoned");
        let prev = tenant.folded_live();
        let dirty = tenant.handle.load().shards_for_tables(tables);
        let generation = tenant.handle.rebuild_shards(db, tables);
        tenant.reloads.fetch_add(1, Ordering::Relaxed);
        self.shared.event(
            "rebuild_shards",
            &tenant.id,
            format!(
                "generation {generation}, {} tables, shards {dirty:?}{}",
                tables.len(),
                tenant_suffix(tenant)
            ),
        );
        retain_unaffected(&self.shared, tenant, prev, &dirty);
        // The caller handed a whole replacement database; checkpoint all of
        // it (see `reload_for`).
        write_checkpoint_under_swap_lock(&self.shared, tenant, true);
        generation
    }

    /// Metadata hot swap for one tenant: rebuilds the classification index
    /// and join catalog against a refreshed graph, sharing every
    /// classification partition the refresh did not touch — see
    /// [`SnapshotHandle::refresh_graph`].
    pub(crate) fn refresh_graph_for(
        &self,
        tenant: &Arc<TenantState>,
        graph: Arc<MetaGraph>,
    ) -> u64 {
        let _swap = tenant.swaps.lock().expect("tenant swap lock poisoned");
        let prev = tenant.folded_live();
        let generation = tenant.handle.refresh_graph(graph);
        tenant.reloads.fetch_add(1, Ordering::Relaxed);
        self.shared.event(
            "refresh_graph",
            &tenant.id,
            format!("generation {generation}{}", tenant_suffix(tenant)),
        );
        self.purge_superseded_for(tenant, prev);
        // The graph itself is not journaled (recovery receives it as an
        // argument), but the stamps moved: checkpoint so a recovery under
        // the refreshed graph restores the post-refresh fingerprints.
        write_checkpoint_under_swap_lock(&self.shared, tenant, true);
        generation
    }

    /// Streaming ingestion into one tenant's snapshot — the write-ahead
    /// journal append (on a durable service, into **this tenant's**
    /// journal), the absorb, the counter updates and the retention pass, all
    /// under the tenant's swap lock.
    pub(crate) fn ingest_owned_for(
        &self,
        tenant: &Arc<TenantState>,
        feed: ChangeFeed,
    ) -> Result<u64, ServiceError> {
        let _swap = tenant.swaps.lock().expect("tenant swap lock poisoned");
        let before = tenant.handle.load();
        let prev = tenant.id.fold(before.cache_fingerprint());
        let dirty = before.shards_for_tables(&feed.tables());
        let described = feed.describe();
        // Write-ahead: the feed reaches the (fsynced) journal before the
        // engine absorbs it, so every acknowledged ingest is replayable
        // after a crash.  If the append fails the feed is not absorbed at
        // all; if the engine then rejects it, the journaled record is
        // deterministically re-rejected on replay — harmless either way.
        if let Some(durability) = &tenant.durability {
            let appended = {
                let mut d = durability.lock().expect("durability state poisoned");
                let appended = d
                    .journal
                    .append_feed(&feed)
                    .map_err(|e| ServiceError::Durability(e.to_string()))?;
                d.journal_appends += 1;
                d.dirty_tables.extend(feed.tables());
                appended
            };
            self.shared.event(
                "journal_append",
                &tenant.id,
                format!("{appended} bytes{}", tenant_suffix(tenant)),
            );
        }
        let outcome = tenant
            .handle
            .absorb_owned(feed)
            .map_err(ServiceError::Engine)?;
        let generation = outcome.generation;
        self.shared.event(
            "ingest",
            &tenant.id,
            format!(
                "generation {generation}, {described}{}",
                tenant_suffix(tenant)
            ),
        );
        tenant.ingest_feeds.fetch_add(1, Ordering::Relaxed);
        self.shared
            .ingest_events
            .fetch_add(outcome.report.events as u64, Ordering::Relaxed);
        self.shared
            .ingest_rows
            .fetch_add(outcome.report.rows as u64, Ordering::Relaxed);
        self.shared
            .ingest_rows_appended
            .fetch_add(outcome.report.rows_appended as u64, Ordering::Relaxed);
        self.shared
            .ingest_tables_copied
            .fetch_add(outcome.report.tables_copied as u64, Ordering::Relaxed);
        self.shared
            .ingest_tables_shared
            .fetch_add(outcome.report.tables_shared as u64, Ordering::Relaxed);
        retain_unaffected(&self.shared, tenant, prev, &dirty);
        drop(_swap);
        self.shared.compactor_wake.notify_all();
        Ok(generation)
    }

    /// Folds the ingestion side logs of one tenant's `shards` into rebuilt
    /// partitions (answers unchanged by construction; see
    /// [`SnapshotHandle::compact`]).  Returns the new generation, or `None`
    /// when none of the named shards had a log to fold.
    pub(crate) fn compact_for(&self, tenant: &Arc<TenantState>, shards: &[usize]) -> Option<u64> {
        let _swap = tenant.swaps.lock().expect("tenant swap lock poisoned");
        compact_under_swap_lock(&self.shared, tenant, shards)
    }

    /// Drops one tenant's cached result pages — every entry keyed by the
    /// tenant's live fingerprint.  (Entries of superseded generations were
    /// already purged by the swap that superseded them.)  Other tenants'
    /// pages and the lifetime hit/miss counters survive.
    pub(crate) fn clear_cache_for(&self, tenant: &Arc<TenantState>) {
        let live = tenant.folded_live();
        self.shared
            .store
            .lock()
            .expect("store poisoned")
            .cache
            .retain(|key| key.snapshot_fingerprint != live);
    }

    /// Purges every cached page keyed by this tenant's superseded
    /// fingerprint `prev` — the conservative post-swap path for full
    /// reloads and graph refreshes, where nothing about a page is provably
    /// unchanged.  Scoped to `prev`, so other tenants' pages (and the
    /// tenant's already-live pages) are untouched.
    fn purge_superseded_for(&self, tenant: &Arc<TenantState>, prev: u64) {
        let live = tenant.folded_live();
        self.shared
            .store
            .lock()
            .expect("store poisoned")
            .cache
            .retain(|key| key.snapshot_fingerprint == live || key.snapshot_fingerprint != prev);
    }
}

/// Snapshots one tenant's [`DurabilityState`] into the counters surfaced by
/// [`ServiceMetrics::durability`] and [`TenantMetrics::durability`] — all
/// zero (`enabled` false) for a tenant with no journal.
fn durability_metrics(state: &Option<Mutex<DurabilityState>>) -> DurabilityMetrics {
    match state {
        Some(durability) => {
            let d = durability.lock().expect("durability state poisoned");
            DurabilityMetrics {
                enabled: true,
                journal_bytes: d.journal.len_bytes(),
                journal_appends: d.journal_appends,
                checkpoints: d.checkpoints,
                checkpoint_failures: d.checkpoint_failures,
                replayed_feeds: d.replayed_feeds,
                rejected_replays: d.rejected_replays,
                truncated_bytes: d.truncated_bytes,
                cache_pages_restored: d.cache_pages_restored,
                cache_pages_stale: d.cache_pages_stale,
            }
        }
        None => DurabilityMetrics::default(),
    }
}

/// Opens (or creates) one tenant's own feed journal under the service's
/// durability directory and replays it over the snapshot the caller handed
/// to [`QueryService::add_tenant`] — the per-tenant analogue of
/// [`QueryService::recover`].  The journal lives in its own
/// [`tenant_journal_dir`] and its header is stamped with the tenant
/// fingerprint, so one tenant's history can never replay into another's
/// snapshot.  The handed-in snapshot must be the base the journaled history
/// started from (mirroring `recover`'s contract for the default tenant).
fn recover_tenant_journal(
    id: &TenantId,
    handle: &SnapshotHandle,
    config: &DurabilityConfig,
) -> Result<DurabilityState, ServiceError> {
    let dir = tenant_journal_dir(&config.dir, id.as_str(), id.fingerprint());
    std::fs::create_dir_all(&dir)
        .map_err(|e| ServiceError::Durability(format!("creating {}: {e}", dir.display())))?;
    let base = handle.load();
    let config_fingerprint = base.config().fingerprint();
    let (journal, replay) = FeedJournal::recover(
        &journal_path(&dir),
        config_fingerprint,
        id.fingerprint(),
        config.fsync,
    )
    .map_err(|e| ServiceError::Durability(e.to_string()))?;
    let truncated_bytes = replay.truncated_bytes;
    let (checkpoint, feeds) = replay.into_plan();
    let mut dirty_tables = BTreeSet::new();
    if let Some(cp) = &checkpoint {
        let mut db = (*base.database()).clone();
        for (name, rows) in &cp.tables {
            let table = db.table_mut(name).map_err(|e| {
                ServiceError::Durability(format!("applying checkpoint to `{name}`: {e}"))
            })?;
            table.truncate();
            table.insert_all(rows.iter().cloned()).map_err(|e| {
                ServiceError::Durability(format!("applying checkpoint to `{name}`: {e}"))
            })?;
            dirty_tables.insert(name.clone());
        }
        handle.publish(EngineSnapshot::build(
            Arc::new(db),
            base.graph_arc(),
            base.config().clone(),
        ));
        handle
            .restore_generations(cp.generation, &cp.shard_generations)
            .map_err(ServiceError::Engine)?;
    }
    let mut replayed_feeds = 0;
    let mut rejected_replays = 0;
    for feed in feeds {
        let tables = feed.tables();
        match handle.absorb_owned(feed) {
            Ok(_) => {
                replayed_feeds += 1;
                dirty_tables.extend(tables);
            }
            Err(_) => rejected_replays += 1,
        }
    }
    Ok(DurabilityState {
        journal,
        cache_path: dir.join(CACHE_FILE),
        // Only the default tenant persists warm pages on drain — the shared
        // cache file predates tenancy and carries its fingerprint space.
        persist_cache: false,
        config_fingerprint,
        dirty_tables,
        journal_appends: 0,
        checkpoints: 0,
        checkpoint_failures: 0,
        replayed_feeds,
        rejected_replays,
        truncated_bytes,
        cache_pages_restored: 0,
        cache_pages_stale: 0,
    })
}

/// Post-swap cache pass for *data-only* swaps (shard rebuilds, ingests,
/// compactions) of one tenant: pages keyed by the tenant's immediately
/// superseded fingerprint `prev` whose recorded probes provably never
/// consulted a `dirty` shard are re-keyed to the tenant's live fingerprint
/// (staying addressable — a retention, not a recomputation); everything
/// else keyed by `prev` is purged.  Pages under any other fingerprint —
/// other tenants' pages and this tenant's older strays — are left exactly
/// where they are; a stray under an older fingerprint was never
/// retention-checked against the intervening swaps, so it must age out of
/// the LRU, never come back.
fn retain_unaffected(shared: &Shared, tenant: &Arc<TenantState>, prev: u64, dirty: &[usize]) {
    let snapshot = tenant.handle.load();
    let live = tenant.id.fold(snapshot.cache_fingerprint());
    // The gate memoizes each distinct (phrase, token) probe check, so the
    // pass — which runs under the store lock — costs one index probe per
    // distinct dependency, not per cache entry.
    let mut gate = RetentionGate::new(&snapshot, dirty);
    let mut store = shared.store.lock().expect("store poisoned");
    store.cache.rekey(|key, entry| {
        if key.snapshot_fingerprint != prev || prev == live {
            Some(key.clone())
        } else if gate.retains(entry.touched_mask, entry.touched_overflow, &entry.deps) {
            Some(CacheKey {
                snapshot_fingerprint: live,
                ..key.clone()
            })
        } else {
            None
        }
    });
}

/// The compaction step shared by [`TenantAdmin::compact`] and the
/// background worker; the caller must hold the tenant's swap lock.
fn compact_under_swap_lock(
    shared: &Shared,
    tenant: &Arc<TenantState>,
    shards: &[usize],
) -> Option<u64> {
    let before = tenant.handle.load();
    let prev = tenant.id.fold(before.cache_fingerprint());
    let logged = before.shards_with_side_logs();
    let foldable: Vec<usize> = shards
        .iter()
        .copied()
        .filter(|s| logged.contains(s))
        .collect();
    let generation = tenant.handle.compact(&foldable)?;
    shared.event(
        "compaction",
        &tenant.id,
        format!(
            "generation {generation}, shards {foldable:?}{}",
            tenant_suffix(tenant)
        ),
    );
    tenant.compactions.fetch_add(1, Ordering::Relaxed);
    shared
        .compacted_shards
        .fetch_add(foldable.len() as u64, Ordering::Relaxed);
    // A fold changes no answers, but the fingerprint moved: carry every
    // provably unaffected page over; pages whose probes scanned a folded
    // shard are recomputed (conservative — their hits merely moved from the
    // log into the frozen partition).
    retain_unaffected(shared, tenant, prev, &foldable);
    // The fold changed no rows, so the dirty set is already right — but the
    // stamps moved and the side logs are gone: a checkpoint here both keeps
    // recovery fingerprints current and truncates the journal (the feeds it
    // replaces are exactly the ones the fold absorbed into the partitions).
    write_checkpoint_under_swap_lock(shared, tenant, false);
    Some(generation)
}

/// Writes a checkpoint of one tenant — the live content of every dirty
/// table plus the live generation stamps — atomically *replacing* that
/// tenant's journal, which is what keeps replay bounded.  With
/// `mark_all_tables` the whole live database is recorded first (reloads and
/// shard rebuilds swap in data the journal never saw).  The caller must
/// hold the tenant's swap lock; a no-op for a non-durable tenant.  A failed
/// write is counted and leaves the old journal in place — still fully
/// replayable, just not yet truncated.
fn write_checkpoint_under_swap_lock(
    shared: &Shared,
    tenant: &Arc<TenantState>,
    mark_all_tables: bool,
) {
    let Some(durability) = &tenant.durability else {
        return;
    };
    let snapshot = tenant.handle.load();
    let db = snapshot.database();
    let mut d = durability.lock().expect("durability state poisoned");
    if mark_all_tables {
        d.dirty_tables
            .extend(db.table_names().into_iter().map(String::from));
    }
    let mut tables = Vec::with_capacity(d.dirty_tables.len());
    for name in &d.dirty_tables {
        // A name the live database no longer knows (possible after a reload
        // that dropped a table) simply has nothing to record.
        if let Ok(table) = db.table(name) {
            tables.push((name.clone(), table.rows().to_vec()));
        }
    }
    let checkpoint = Checkpoint {
        generation: snapshot.generation(),
        shard_generations: snapshot.shard_generations().to_vec(),
        tables,
    };
    let outcome = d.journal.write_checkpoint(&checkpoint);
    match &outcome {
        Ok(_) => d.checkpoints += 1,
        Err(_) => d.checkpoint_failures += 1,
    }
    drop(d);
    match outcome {
        Ok(bytes) => shared.event(
            "checkpoint",
            &tenant.id,
            format!(
                "generation {}, {} tables, journal now {bytes} bytes{}",
                checkpoint.generation,
                checkpoint.tables.len(),
                tenant_suffix(tenant)
            ),
        ),
        Err(e) => shared.event("checkpoint_failure", &tenant.id, e.to_string()),
    }
}

/// The background compaction worker: wakes on every ingest nudge (and at
/// least every `poll_interval`), sweeps **every** tenant for shards the
/// policy says are due, and exits when the service drops.  Each tenant is
/// folded under its own swap lock, so a long fold for one tenant never
/// blocks another tenant's reload or ingest.
fn compactor_loop(shared: &Arc<Shared>, config: &CompactionConfig) {
    let mut shutdown = shared
        .compactor_shutdown
        .lock()
        .expect("compactor lock poisoned");
    loop {
        if *shutdown {
            return;
        }
        let (state, _timeout) = shared
            .compactor_wake
            .wait_timeout(shutdown, config.poll_interval)
            .expect("compactor lock poisoned");
        shutdown = state;
        if *shutdown {
            return;
        }
        drop(shutdown);
        for tenant in shared.tenants.all() {
            let _swap = tenant.swaps.lock().expect("tenant swap lock poisoned");
            let stats = tenant.handle.load().shard_stats();
            let due = config
                .policy
                .due(&stats.log_postings, &stats.log_rows, &stats.log_masks);
            if !due.is_empty() {
                compact_under_swap_lock(shared, &tenant, &due);
            }
        }
        shutdown = shared
            .compactor_shutdown
            .lock()
            .expect("compactor lock poisoned");
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // Stop the compaction worker first so no further swap lands while
        // the pool drains.
        if let Some(compactor) = self.compactor.take() {
            *self
                .shared
                .compactor_shutdown
                .lock()
                .expect("compactor lock poisoned") = true;
            self.shared.compactor_wake.notify_all();
            let _ = compactor.join();
        }
        {
            let mut state = self.shared.queue.lock().expect("queue poisoned");
            state.shutdown = true;
        }
        // Wake every waiter: workers drain the remaining jobs and exit;
        // blocked submitters observe the shutdown flag and bail out.
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Graceful drain: with the workers joined the cache is final, so
        // persist the warm pages (oldest-first, preserving recency order)
        // for the next `recover` to reload.  Best-effort by design — a
        // failed write costs warm starts, never correctness.  The file is
        // the default tenant's (other tenants recompute their first pages),
        // stamped with the fold-identity tenant fingerprint so pre-tenancy
        // readers and writers agree.
        let default = self.shared.tenants.default_tenant();
        if let Some(durability) = &default.durability {
            let d = durability.lock().expect("durability state poisoned");
            if d.persist_cache {
                let store = self.shared.store.lock().expect("store poisoned");
                let payloads: Vec<Vec<u8>> = store
                    .cache
                    .iter_oldest_first()
                    .map(|(key, entry)| encode_cache_entry(key, entry))
                    .collect();
                let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
                let _ = write_frame_file(
                    &d.cache_path,
                    CACHE_MAGIC,
                    d.config_fingerprint,
                    TenantId::default().fingerprint(),
                    &refs,
                );
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = state.pop_round_robin() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.not_empty.wait(state).expect("queue poisoned");
            }
        };
        // notify_all, not notify_one: admission control blocks submitters on
        // two different predicates (global capacity and per-tenant quota),
        // and a single wake-up could land on a submitter whose own lane is
        // still full while one that could proceed keeps sleeping.
        shared.not_full.notify_all();

        // If the pipeline panics, the pending entry must not leak: this
        // guard removes it and drops the coalesced waiters' senders, so
        // their `wait()` resolves with `Disconnected` (exactly what a worker
        // panic produced before coalescing existed) and future submissions
        // of the key recompute instead of attaching to a dead job.
        struct PendingGuard<'a> {
            shared: &'a Shared,
            key: Option<CacheKey>,
        }
        impl Drop for PendingGuard<'_> {
            fn drop(&mut self) {
                if let Some(key) = self.key.take() {
                    if let Ok(mut store) = self.shared.store.lock() {
                        store.pending.remove(&key);
                    }
                }
            }
        }
        let mut guard = PendingGuard {
            shared,
            key: Some(job.key.clone()),
        };
        // Queue wait ends here: everything from `dequeued` on is execution.
        let dequeued = Instant::now();
        let queue_wait = dequeued.duration_since(job.submitted);
        // The recorder captures which shards the probes scan and which probe
        // tokens the phrases select — the evidence that lets a data-only
        // snapshot swap retain this page instead of purging it.
        let recorder = ProbeRecorder::new();
        // A collecting sink runs when anything downstream might keep the
        // span tree: a slow-query threshold (the capture decision needs the
        // final latency, which only exists afterwards), a head-sampled
        // draw, or tail sampling rules (which also decide on the final
        // latency).  Otherwise the noop sink keeps the pipeline's
        // instrumentation at a single `enabled()` check per site.
        let tail_capture = job
            .tenant
            .sampler
            .as_ref()
            .is_some_and(Sampler::tail_enabled);
        let head_sampled = job.head.is_some_and(|h| h.sampled);
        let collecting = (shared.slow_query_threshold.is_some() || head_sampled || tail_capture)
            .then(CollectingSink::new);
        let sink: &dyn TraceSink = match &collecting {
            Some(c) => c,
            None => &NoopSink,
        };
        let observed = job
            .engine
            .search_paged_observed(&job.input, job.page, job.page_size, Some(&recorder), sink)
            .map_err(ServiceError::Engine);
        let execution = dequeued.elapsed();
        let (outcome, timings) = match observed {
            Ok((page, timings)) => (Ok(page), Some(timings)),
            Err(e) => (Err(e), None),
        };
        // Normal path: the completion hand-off below owns the cleanup.
        guard.key = None;
        // A swap may have landed while this job ran: a page keyed by a
        // superseded fingerprint can never be hit again (submissions compute
        // keys from the live snapshot), so inserting it would only evict a
        // live entry from a full cache.  The check races benignly with a
        // concurrent swap — worst case one soon-unaddressable page slips in
        // and ages out of the LRU.
        let still_live = job.key.snapshot_fingerprint == job.tenant.folded_live();
        // Publish the page and claim the coalesced waiters in one critical
        // section, so no submission can slip between the cache insert and
        // the pending-entry removal and end up waiting forever.
        let waiters = {
            let mut store = shared.store.lock().expect("store poisoned");
            if let (Ok(page), true) = (&outcome, still_live) {
                store.cache.insert(
                    job.key.clone(),
                    CachedPage {
                        page: page.clone(),
                        touched_mask: recorder.touched_mask(),
                        touched_overflow: recorder.overflowed(),
                        deps: Arc::new(recorder.deps()),
                    },
                );
            }
            store.pending.remove(&job.key).unwrap_or_default()
        };
        job.tenant.executions.fetch_add(1, Ordering::Relaxed);
        let e2e = job.submitted.elapsed();
        shared.record_executed(queue_wait, execution, timings.as_ref());
        job.tenant.record_response(e2e);
        shared.record_slo(&job.tenant, e2e, outcome.is_ok());
        let trace = collecting.map(CollectingSink::finish);
        // A query over the threshold lands its full span tree in the
        // slow-query log (the end-to-end figure decides, so a fast pipeline
        // behind a deep queue is still captured — that *is* the slowness the
        // caller experienced).
        if let (Some(threshold), Some(trace)) = (shared.slow_query_threshold, &trace) {
            if e2e >= threshold {
                job.tenant.slow_queries.fetch_add(1, Ordering::Relaxed);
                shared.event(
                    "slow_query",
                    &job.tenant.id,
                    format!("{:?} end-to-end: {}", e2e, job.input),
                );
                shared
                    .slow_log
                    .lock()
                    .expect("slow-query log poisoned")
                    .push(SlowQuery {
                        input: job.input.clone(),
                        tenant: job.tenant.id.as_str().to_string(),
                        total: e2e,
                        queue_wait,
                        execution,
                        trace: trace.clone(),
                    });
            }
        }
        // The sampler's verdict — head draw from submission time, tail
        // rules on the final latency.  `decide` also feeds the running mean
        // the anomaly rule compares against, so it runs on every execution;
        // a kept reason always has a collected trace (head-sampled and
        // tail-enabled executions collect, see above).
        if let (Some(sampler), Some(head)) = (&job.tenant.sampler, job.head) {
            if let Some(reason) = sampler.decide(head.sampled, e2e) {
                if let Some(trace) = trace {
                    shared.capture_sampled(
                        &job.tenant,
                        head.trace_id,
                        reason,
                        &job.input,
                        e2e,
                        trace,
                    );
                }
            }
        }
        for waiter in waiters {
            let waited = waiter.submitted.elapsed();
            job.tenant.record_response(waited);
            shared.record_slo(&job.tenant, waited, outcome.is_ok());
            // A waiter may have dropped its handle; that is not an error.
            let _ = waiter.tx.send(outcome.clone());
        }
        let _ = job.tx.send(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_core::SodaConfig;
    use std::time::Duration;

    fn assert_send_sync<T: Send + Sync>() {}

    fn admin(service: &QueryService) -> TenantAdmin<'_> {
        service
            .admin(TenantId::default())
            .expect("the default tenant always exists")
    }

    fn minibank_service(config: ServiceConfig) -> QueryService {
        let w = soda_warehouse::minibank::build(42);
        let snapshot = EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        );
        QueryService::start(Arc::new(snapshot), config)
    }

    #[test]
    fn service_is_send_and_sync() {
        assert_send_sync::<QueryService>();
        assert_send_sync::<ServiceConfig>();
    }

    #[test]
    fn serves_the_same_page_as_the_engine() {
        let service = minibank_service(ServiceConfig::default());
        let direct = service
            .engine()
            .search_paged("Sara Guttinger", 0, 10)
            .unwrap();
        let served = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(direct, served.page);
    }

    #[test]
    fn equivalent_spellings_share_one_cache_slot() {
        let service = minibank_service(ServiceConfig::default());
        let first = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let second = service
            .query(QueryRequest::new("  sara   GUTTINGER "))
            .wait()
            .unwrap();
        assert_eq!(first, second);
        let stats = service.metrics().cache;
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn pages_are_cached_independently() {
        let service = minibank_service(ServiceConfig::default());
        let p0 = service
            .query(QueryRequest::new("customers").page_size(2))
            .wait()
            .unwrap()
            .page;
        let p1 = service
            .query(QueryRequest::new("customers").page(1).page_size(2))
            .wait()
            .unwrap()
            .page;
        assert_eq!(p0.page, 0);
        assert_eq!(p1.page, 1);
        assert_ne!(p0.results, p1.results);
        assert_eq!(service.metrics().cache.len, 2);
    }

    #[test]
    fn parse_errors_resolve_immediately() {
        let service = minibank_service(ServiceConfig::default());
        let handle = service.query(QueryRequest::new("   "));
        assert!(handle.is_ready());
        match handle.wait() {
            Err(ServiceError::Engine(SodaError::EmptyQuery)) => {}
            other => panic!("expected EmptyQuery, got {other:?}"),
        }
    }

    #[test]
    fn batch_preserves_request_order() {
        let service = minibank_service(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        });
        let queries = ["Sara Guttinger", "wealthy customers", "customers"];
        let expected: Vec<ResultPage> = queries
            .iter()
            .map(|q| service.engine().search_paged(q, 0, 10).unwrap())
            .collect();
        let handles: Vec<JobHandle> = queries
            .iter()
            .map(|q| service.query(QueryRequest::new(*q)))
            .collect();
        let got: Vec<JobResult> = handles.into_iter().map(JobHandle::wait).collect();
        for (want, got) in expected.iter().zip(&got) {
            assert_eq!(want, &got.as_ref().unwrap().page);
        }
    }

    #[test]
    fn tiny_queue_applies_backpressure_without_deadlock() {
        let service = minibank_service(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 4,
            ..ServiceConfig::default()
        });
        // More jobs than queue slots: the submissions must ride the
        // backpressure and still answer everything.
        let requests: Vec<QueryRequest> = (0..8)
            .map(|i| QueryRequest::new(["customers", "Sara Guttinger"][i % 2]))
            .collect();
        let handles: Vec<JobHandle> = requests.into_iter().map(|r| service.query(r)).collect();
        let results: Vec<JobResult> = handles.into_iter().map(JobHandle::wait).collect();
        assert_eq!(results.len(), 8);
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn metrics_cover_latency_cache_and_queue() {
        let service = minibank_service(ServiceConfig::default());
        for _ in 0..3 {
            service
                .query(QueryRequest::new("Sara Guttinger"))
                .wait()
                .unwrap();
        }
        let m = service.metrics();
        assert_eq!(m.completed, 3);
        assert_eq!(m.cache.hits, 2);
        assert!(m.qps > 0.0);
        assert!(m.latency.max >= m.latency.min);
        assert!(m.latency.mean > Duration::ZERO);
        assert_eq!(m.queue_depth, 0);
        assert_eq!(m.workers, 4);
    }

    #[test]
    fn clear_cache_forces_recomputation() {
        let service = minibank_service(ServiceConfig::default());
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        admin(&service).clear_cache();
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let stats = service.metrics().cache;
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn concurrent_clients_get_consistent_answers() {
        let service = minibank_service(ServiceConfig {
            workers: 4,
            queue_capacity: 16,
            cache_capacity: 64,
            ..ServiceConfig::default()
        });
        let queries = ["Sara Guttinger", "wealthy customers", "customers"];
        let expected: Vec<ResultPage> = queries
            .iter()
            .map(|q| service.engine().search_paged(q, 0, 10).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for (query, want) in queries.iter().zip(&expected) {
                        let got = service
                            .query(QueryRequest::new(*query))
                            .wait()
                            .unwrap()
                            .page;
                        assert_eq!(&got, want);
                    }
                });
            }
        });
        assert_eq!(service.metrics().completed, 8 * 3);
    }

    #[test]
    fn concurrent_identical_cold_queries_execute_the_pipeline_once() {
        let service = minibank_service(ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 16,
            ..ServiceConfig::default()
        });
        // Two distinct cold queries occupy the single worker so the identical
        // submissions below all land while their key is still in flight.
        let blockers = [
            service.query(QueryRequest::new("wealthy customers")),
            service.query(QueryRequest::new("customers Zurich")),
        ];

        const CLIENTS: usize = 8;
        let query = "Sara Guttinger";
        let pages: Vec<ResultPage> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| service.query(QueryRequest::new(query)).wait().unwrap().page)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for blocker in blockers {
            blocker.wait().unwrap();
        }

        for page in &pages {
            assert_eq!(page, &pages[0]);
        }
        let m = service.metrics();
        // Two blockers plus exactly ONE execution for the identical batch —
        // whether a client coalesced or arrived late enough for a cache hit.
        assert_eq!(m.pipeline_executions, 3);
        assert_eq!(
            m.coalesced + m.cache.hits,
            (CLIENTS - 1) as u64,
            "every duplicate must be served without recomputation: {m:?}"
        );
        assert_eq!(m.completed, (CLIENTS + 2) as u64);
    }

    #[test]
    fn coalesced_and_computing_submissions_get_equal_pages() {
        // Steer the duplicates onto the coalescing path: the single worker
        // is busy with a blocker, so identical submissions normally attach
        // to the first one's pending entry.  If this thread is preempted
        // long enough for `first` to complete anyway, they become cache
        // hits instead — either way, no duplicate may recompute.
        let service = minibank_service(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 4,
            ..ServiceConfig::default()
        });
        let blocker = service.query(QueryRequest::new("wealthy customers"));
        let first = service.query(QueryRequest::new("customers"));
        let second = service.query(QueryRequest::new("customers"));
        let third = service.query(QueryRequest::new("  CUSTOMERS  "));
        let a = first.wait().unwrap();
        let b = second.wait().unwrap();
        let c = third.wait().unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        blocker.wait().unwrap();
        let m = service.metrics();
        assert_eq!(m.coalesced + m.cache.hits, 2, "{m:?}");
        assert_eq!(m.pipeline_executions, 2);
    }

    #[test]
    fn metrics_report_shard_sizes_and_probes() {
        let w = soda_warehouse::minibank::build(42);
        let snapshot = EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig {
                shards: 4,
                ..SodaConfig::default()
            },
        );
        let service = QueryService::start(Arc::new(snapshot), ServiceConfig::default());
        let m = service.metrics();
        assert_eq!(m.shards.shards, 4);
        assert_eq!(m.shards.classification_phrases.len(), 4);
        assert_eq!(m.shards.index_postings.len(), 4);
        assert_eq!(m.shards.total_probes(), 0);
        // A base-data query scans the shards holding its candidate postings.
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let m = service.metrics();
        assert_eq!(m.shards.probes.len(), 4);
        assert!(m.shards.total_probes() > 0);
    }

    #[test]
    fn reload_bumps_the_generation_and_purges_stale_pages() {
        let service = minibank_service(ServiceConfig::default());
        let before = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(service.metrics().cache.len, 1);
        assert_eq!(service.generation(), 0);

        let w = soda_warehouse::minibank::build(42);
        let generation = admin(&service).reload(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        ));
        assert_eq!(generation, 1);
        let m = service.metrics();
        assert_eq!(m.generation, 1);
        assert_eq!(m.reloads, 1);
        assert_eq!(m.cache.len, 0, "superseded pages must be purged");
        assert_eq!(m.cache.purged, 1);

        // Identical warehouse, new generation: same answer, recomputed.
        let after = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(before, after);
        let m = service.metrics();
        assert_eq!(m.pipeline_executions, 2);
        assert_eq!(m.cache.hits, 0);
    }

    #[test]
    fn metrics_resample_the_live_snapshot_per_call() {
        // Regression test for the shard gauge being captured once: after a
        // reload with a different shard count, metrics() must describe the
        // swapped-in snapshot, not the boot-time one.
        let w = soda_warehouse::minibank::build(42);
        let service = QueryService::start(
            Arc::new(EngineSnapshot::build(
                Arc::new(w.database.clone()),
                Arc::new(w.graph.clone()),
                SodaConfig {
                    shards: 2,
                    ..SodaConfig::default()
                },
            )),
            ServiceConfig::default(),
        );
        assert_eq!(service.metrics().shards.shards, 2);
        admin(&service).reload(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig {
                shards: 4,
                ..SodaConfig::default()
            },
        ));
        let m = service.metrics();
        assert_eq!(m.shards.shards, 4);
        assert_eq!(m.shards.generations, vec![1, 1, 1, 1]);
        // Probes land on the live snapshot's counters.
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert!(service.metrics().shards.total_probes() > 0);
    }

    #[test]
    fn rebuild_shards_through_the_service_serves_the_new_rows() {
        let w = soda_warehouse::minibank::build(42);
        let service = QueryService::start(
            Arc::new(EngineSnapshot::build(
                Arc::new(w.database.clone()),
                Arc::new(w.graph),
                SodaConfig {
                    shards: 4,
                    ..SodaConfig::default()
                },
            )),
            ServiceConfig::default(),
        );
        assert!(service
            .query(QueryRequest::new("Zebulon"))
            .wait()
            .unwrap()
            .page
            .results
            .is_empty());

        let mut db = w.database;
        let individuals = db.table("individuals").unwrap();
        let mut row = individuals.rows()[0].clone();
        let name_col = individuals
            .schema()
            .columns
            .iter()
            .position(|c| c.name == "firstname")
            .unwrap();
        row[0] = soda_core::Value::Int(9_999);
        row[name_col] = soda_core::Value::from("Zebulon");
        db.insert("individuals", row).unwrap();
        let generation = admin(&service).rebuild_shards(Arc::new(db), &["individuals".to_string()]);
        assert_eq!(generation, 1);
        let page = service
            .query(QueryRequest::new("Zebulon"))
            .wait()
            .unwrap()
            .page;
        assert!(!page.results.is_empty());
    }

    fn address_feed(id: i64, city: &str) -> ChangeFeed {
        ChangeFeed::new().append_row(
            "addresses",
            vec![
                soda_core::Value::Int(id),
                soda_core::Value::Int(1),
                soda_core::Value::from("Stream Lane 1"),
                soda_core::Value::from(city),
                soda_core::Value::from("Switzerland"),
            ],
        )
    }

    #[test]
    fn ingest_serves_new_rows_and_counts() {
        let service = minibank_service(ServiceConfig::default());
        assert!(service
            .query(QueryRequest::new("Streamville"))
            .wait()
            .unwrap()
            .page
            .results
            .is_empty());
        let generation = admin(&service)
            .ingest(&address_feed(900, "Streamville"))
            .unwrap();
        assert_eq!(generation, 1);
        let page = service
            .query(QueryRequest::new("Streamville"))
            .wait()
            .unwrap()
            .page;
        assert!(!page.results.is_empty());
        let m = service.metrics();
        assert_eq!(m.generation, 1);
        assert_eq!(m.reloads, 0, "an ingest is not a reload");
        assert_eq!(m.ingest.ingests, 1);
        assert_eq!(m.ingest.events, 1);
        assert_eq!(m.ingest.rows, 1);
        assert_eq!(m.ingest.compactions, 0);
        assert!(m.shards.log_postings.iter().sum::<usize>() > 0);

        // A rejected feed publishes nothing and counts nothing.
        let bad = ChangeFeed::new().append_row("no_such_table", vec![]);
        assert!(admin(&service).ingest(&bad).is_err());
        let m = service.metrics();
        assert_eq!(m.generation, 1);
        assert_eq!(m.ingest.ingests, 1);
    }

    #[test]
    fn manual_compaction_folds_logs_and_keeps_answers() {
        let service = minibank_service(ServiceConfig::default());
        admin(&service)
            .ingest(&address_feed(900, "Streamville"))
            .unwrap();
        let before = service
            .query(QueryRequest::new("Streamville"))
            .wait()
            .unwrap();
        let shards: Vec<usize> = (0..service.engine().shard_count()).collect();
        let generation = admin(&service).compact(&shards).expect("a log to fold");
        assert_eq!(generation, 2);
        assert!(
            admin(&service).compact(&shards).is_none(),
            "nothing left to fold"
        );
        let m = service.metrics();
        assert_eq!(m.ingest.compactions, 1);
        assert_eq!(m.ingest.compacted_shards, 1);
        assert_eq!(m.shards.log_postings.iter().sum::<usize>(), 0);
        let after = service
            .query(QueryRequest::new("Streamville"))
            .wait()
            .unwrap();
        assert_eq!(before, after, "compaction must not change answers");
    }

    #[test]
    fn data_swaps_retain_provably_unaffected_pages() {
        // 8 shards: `individuals` (Sara) and `addresses` (the feed target)
        // live in different partitions, so the Sara page survives the swap.
        let w = soda_warehouse::minibank::build(42);
        let service = QueryService::start(
            Arc::new(EngineSnapshot::build(
                Arc::new(w.database),
                Arc::new(w.graph),
                SodaConfig {
                    shards: 8,
                    ..SodaConfig::default()
                },
            )),
            ServiceConfig::default(),
        );
        let sara = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(service.metrics().cache.len, 1);

        admin(&service)
            .ingest(&address_feed(900, "Retainville"))
            .unwrap();
        let m = service.metrics();
        assert_eq!(m.cache.retained, 1, "the Sara page must be carried over");
        assert_eq!(m.cache.len, 1);

        // The next identical submission is a cache hit on the new
        // generation — no recomputation — and the answer is right.
        let again = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(sara, again);
        let m = service.metrics();
        assert_eq!(m.cache.hits, 1);
        assert_eq!(m.pipeline_executions, 1);

        // A page whose probes scanned the ingested shard is NOT retained.
        service
            .query(QueryRequest::new("Retainville"))
            .wait()
            .unwrap();
        admin(&service)
            .ingest(&address_feed(901, "Retainville"))
            .unwrap();
        let m = service.metrics();
        // The address-touching page died; the Sara page survived again.
        assert_eq!(m.cache.retained, 2);
        let recomputed = service
            .query(QueryRequest::new("Retainville"))
            .wait()
            .unwrap()
            .page;
        // Two matching rows now — the recomputation saw the second ingest.
        assert_eq!(m.cache.len, 1, "the stale Retainville page was purged");
        assert!(!recomputed.results.is_empty());
        assert_eq!(service.metrics().pipeline_executions, 3);
    }

    #[test]
    fn full_reloads_still_purge_everything() {
        let service = minibank_service(ServiceConfig::default());
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let w = soda_warehouse::minibank::build(42);
        admin(&service).reload(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        ));
        let m = service.metrics();
        assert_eq!(m.cache.len, 0);
        assert_eq!(m.cache.retained, 0, "full reloads retain nothing");
    }

    #[test]
    fn background_compactor_fires_past_the_threshold() {
        let service = minibank_service(ServiceConfig {
            compaction: Some(CompactionConfig {
                policy: CompactionPolicy::eager(),
                poll_interval: Duration::from_millis(10),
            }),
            ..ServiceConfig::default()
        });
        admin(&service)
            .ingest(&address_feed(900, "Streamville"))
            .unwrap();
        // The worker is nudged by the ingest; give it a moment.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let m = service.metrics();
            if m.ingest.compactions >= 1 && m.shards.log_postings.iter().sum::<usize>() == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "compaction did not fire: {m:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Queries keep answering correctly throughout.
        let page = service
            .query(QueryRequest::new("Streamville"))
            .wait()
            .unwrap()
            .page;
        assert!(!page.results.is_empty());
    }

    #[test]
    fn background_compactor_folds_mask_only_logs() {
        // A Truncate leaves a log with zero postings and zero rows but a
        // mask that taxes every probe of its shard — the worker must fold
        // it even though the size gauges never cross a threshold.
        let service = minibank_service(ServiceConfig {
            compaction: Some(CompactionConfig {
                policy: CompactionPolicy::default(),
                poll_interval: Duration::from_millis(10),
            }),
            ..ServiceConfig::default()
        });
        admin(&service)
            .ingest(&ChangeFeed::new().truncate("securities"))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let m = service.metrics();
            if m.ingest.compactions >= 1 && m.shards.log_masks.iter().sum::<usize>() == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "mask-only compaction did not fire: {m:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(service.engine().shards_with_side_logs().is_empty());
    }

    #[test]
    fn metrics_polling_does_not_deadlock_cache_hits() {
        // Regression test: `submit` locks cache then latency on a hit, while
        // `metrics` reads latency and cache — with nested guards in either
        // path this interleaving deadlocks within a few iterations.
        let service = minibank_service(ServiceConfig::default());
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        service
                            .query(QueryRequest::new("Sara Guttinger"))
                            .wait()
                            .unwrap();
                    }
                });
                scope.spawn(|| {
                    for _ in 0..500 {
                        let m = service.metrics();
                        assert!(m.completed >= 1);
                    }
                });
            }
        });
    }

    #[test]
    fn latency_accounting_splits_queue_wait_from_execution() {
        let service = minibank_service(ServiceConfig::default());
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        // And one cache hit, which must not touch the executed
        // distributions.
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let m = service.metrics();
        assert_eq!(m.completed, 2);
        assert!(m.execution.max > Duration::ZERO, "{m:?}");
        // The split is exhaustive: neither component exceeds the end-to-end
        // figure of the executed query.
        assert!(m.queue_wait.max <= m.latency.max);
        assert!(m.execution.max <= m.latency.max);
        // Histogram-backed percentiles are monotone by construction.
        assert!(m.latency.min <= m.latency.p50);
        assert!(m.latency.p50 <= m.latency.p95);
        assert!(m.latency.p95 <= m.latency.max);
        // Stage latencies cover the executed pipeline (lookup ran).
        assert!(m.stages.lookup.max > Duration::ZERO);
        assert_eq!(m.stages.lookup.min, m.stages.lookup.max, "one execution");
    }

    #[test]
    fn slow_query_threshold_captures_full_traces() {
        // A zero threshold marks every executed query as slow —
        // deterministic without timing games.
        let service = minibank_service(ServiceConfig {
            slow_query_threshold: Some(Duration::ZERO),
            ..ServiceConfig::default()
        });
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        // The cache hit is answered on the caller's thread — never captured.
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        let m = service.metrics();
        assert_eq!(m.slow_queries, 1);
        let slow = service.slow_queries();
        assert_eq!(slow.len(), 1);
        let capture = &slow[0];
        assert_eq!(capture.input, "Sara Guttinger");
        assert!(capture.total >= capture.execution);
        let root = capture.trace.find("query").expect("query root span");
        for stage in soda_trace::names::STAGES {
            assert!(
                root.children.iter().any(|c| c.name == stage),
                "missing stage {stage} in {}",
                capture.trace.render()
            );
        }
        assert!(service
            .events()
            .iter()
            .any(|e| e.kind == "slow_query" && e.detail.contains("Sara Guttinger")));
    }

    #[test]
    fn without_a_threshold_no_traces_are_captured() {
        let service = minibank_service(ServiceConfig::default());
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(service.metrics().slow_queries, 0);
        assert!(service.slow_queries().is_empty());
    }

    #[test]
    fn traced_queries_match_untraced_and_yield_the_span_tree() {
        let service = minibank_service(ServiceConfig::default());
        let expected = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        // A traced request for a warm page is a cache hit like any other
        // submission: the cached page comes back with a synthesized
        // `cache_hit` root instead of a re-execution.
        let traced = service
            .query(QueryRequest::new("Sara Guttinger").traced())
            .wait()
            .unwrap();
        assert_eq!(
            traced.page, expected.page,
            "tracing must not change answers"
        );
        let warm_trace = traced
            .trace
            .as_ref()
            .expect("a traced response carries its trace");
        let warm_root = warm_trace.find("query").expect("query root span");
        assert!(
            warm_root.children.iter().any(|c| c.name == "cache_hit"),
            "warm traced hit should record a cache_hit event:\n{}",
            warm_trace.render()
        );
        let m = service.metrics();
        assert_eq!(m.pipeline_executions, 1);
        assert_eq!(m.cache.hits, 1);
        // A cold traced request executes the full pipeline and yields the
        // five-stage span tree.
        admin(&service).clear_cache();
        let traced = service
            .query(QueryRequest::new("Sara Guttinger").traced())
            .wait()
            .unwrap();
        assert_eq!(
            traced.page, expected.page,
            "tracing must not change answers"
        );
        let trace = traced
            .trace
            .as_ref()
            .expect("a traced response carries its trace");
        let root = trace.find("query").expect("query root span");
        assert_eq!(root.children.len(), 5, "{}", trace.render());
        let m = service.metrics();
        assert_eq!(m.pipeline_executions, 2);
        assert_eq!(m.completed, 3);
    }

    #[test]
    fn traced_queries_surface_engine_errors() {
        let service = minibank_service(ServiceConfig::default());
        match service.query(QueryRequest::new("   ").traced()).wait() {
            Err(ServiceError::Engine(SodaError::EmptyQuery)) => {}
            other => panic!("expected EmptyQuery, got {other:?}"),
        }
    }

    #[test]
    fn events_record_the_operational_history_in_order() {
        let service = minibank_service(ServiceConfig::default());
        admin(&service)
            .ingest(&address_feed(900, "Streamville"))
            .unwrap();
        let shards: Vec<usize> = (0..service.engine().shard_count()).collect();
        admin(&service).compact(&shards).expect("a log to fold");
        let w = soda_warehouse::minibank::build(42);
        admin(&service).reload(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        ));
        let events = service.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["ingest", "compaction", "reload"]);
        // Sequence numbers are monotone and the offsets non-decreasing.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].at <= pair[1].at);
        }
        assert!(
            events[0].detail.contains("1 event, 1 row over addresses"),
            "{}",
            events[0].detail
        );
    }

    #[test]
    fn metrics_text_validates_and_names_every_family() {
        let service = minibank_service(ServiceConfig {
            slow_query_threshold: Some(Duration::ZERO),
            ..ServiceConfig::default()
        });
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        admin(&service)
            .ingest(&address_feed(900, "Streamville"))
            .unwrap();
        let text = service.metrics_text();
        soda_trace::prom::validate(&text).expect("exposition must validate");
        for family in [
            "soda_queries_completed_total",
            "soda_cache_hits_total",
            "soda_slow_queries_total",
            "soda_shard_probes_total",
            "soda_query_duration_seconds",
            "soda_queue_wait_seconds",
            "soda_execution_duration_seconds",
            "soda_stage_duration_seconds",
            "soda_tenant_queries_completed_total",
            "soda_tenant_qps",
            "soda_tenant_warm_hits_total",
            "soda_tenant_pipeline_executions_total",
            "soda_tenant_admission_waits_total",
            "soda_tenant_queue_depth",
            "soda_tenant_generation",
            "soda_tenant_reloads_total",
            "soda_tenant_ingest_feeds_total",
            "soda_tenant_compactions_total",
            "soda_tenant_query_duration_seconds",
        ] {
            assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
        }
        // The stage histograms carry one series per pipeline stage.
        for stage in soda_trace::names::STAGES {
            assert!(text.contains(&format!("stage=\"{stage}\"")), "{stage}");
        }
        // Every tenant family is labelled with the tenant name.
        assert!(text.contains("soda_tenant_queries_completed_total{tenant=\"default\"} 2"));
        // A non-durable service exposes no journal families.
        assert!(!text.contains("soda_journal_bytes"));
    }

    #[test]
    fn fluent_config_builder_matches_struct_literals() {
        let built = ServiceConfig::default()
            .workers(3)
            .queue_capacity(17)
            .cache_capacity(9)
            .slow_query_threshold(Duration::from_millis(5));
        let literal = ServiceConfig {
            workers: 3,
            queue_capacity: 17,
            cache_capacity: 9,
            slow_query_threshold: Some(Duration::from_millis(5)),
            ..ServiceConfig::default()
        };
        assert_eq!(built.workers, literal.workers);
        assert_eq!(built.queue_capacity, literal.queue_capacity);
        assert_eq!(built.cache_capacity, literal.cache_capacity);
        assert_eq!(built.slow_query_threshold, literal.slow_query_threshold);
    }

    #[test]
    fn unknown_tenants_are_rejected_up_front() {
        let service = minibank_service(ServiceConfig::default());
        let handle = service.query(QueryRequest::new("customers").tenant("nobody"));
        assert!(
            handle.is_ready(),
            "unknown tenants must not reach the queue"
        );
        match handle.wait() {
            Err(ServiceError::UnknownTenant(t)) => assert_eq!(t, "nobody"),
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        assert!(service.admin("nobody").is_err());
        assert_eq!(service.metrics().completed, 0);
    }

    #[test]
    fn hosted_tenants_answer_from_their_own_warehouse() {
        let service = minibank_service(ServiceConfig::default());
        let other = soda_warehouse::minibank::build(7);
        let snapshot = Arc::new(EngineSnapshot::build(
            Arc::new(other.database),
            Arc::new(other.graph),
            SodaConfig::default(),
        ));
        service.add_tenant("acme", Arc::clone(&snapshot)).unwrap();
        // Registering the same name (or the default name) again is an error.
        assert!(service.add_tenant("acme", Arc::clone(&snapshot)).is_err());
        assert!(service.add_tenant("default", snapshot).is_err());

        let default_page = service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap()
            .page;
        let acme_page = service
            .query(QueryRequest::new("Sara Guttinger").tenant("acme"))
            .wait()
            .unwrap()
            .page;
        // Both warehouses answer; the tenant-folded fingerprints (and thus
        // the cache keys) differ even if the snapshots were identical.
        assert!(!default_page.results.is_empty());
        assert!(!acme_page.results.is_empty());
        let acme_admin = service.admin("acme").unwrap();
        assert_ne!(
            TenantId::default().fold(service.engine().cache_fingerprint()),
            acme_admin
                .id()
                .fold(acme_admin.engine().cache_fingerprint()),
            "tenants must never share cache keys"
        );
        let m = service.metrics();
        // `>=`: the SODA_TEST_TENANTS CI knob may host extra shadow tenants.
        assert!(m.tenants.len() >= 2);
        let acme = m.tenants.iter().find(|t| t.tenant == "acme").unwrap();
        assert_eq!(acme.completed, 1);
        assert_eq!(acme.executions, 1);
    }

    #[test]
    fn tenant_scoped_cache_clears_leave_other_tenants_warm() {
        let service = minibank_service(ServiceConfig::default());
        let other = soda_warehouse::minibank::build(7);
        service
            .add_tenant(
                "acme",
                Arc::new(EngineSnapshot::build(
                    Arc::new(other.database),
                    Arc::new(other.graph),
                    SodaConfig::default(),
                )),
            )
            .unwrap();
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        service
            .query(QueryRequest::new("Sara Guttinger").tenant("acme"))
            .wait()
            .unwrap();
        assert_eq!(service.metrics().cache.len, 2);
        service.admin("acme").unwrap().clear_cache();
        let m = service.metrics();
        assert_eq!(m.cache.len, 1, "only acme's page may be dropped");
        // The default tenant still answers warm.
        service
            .query(QueryRequest::new("Sara Guttinger"))
            .wait()
            .unwrap();
        assert_eq!(service.metrics().cache.hits, 1);
    }
}
