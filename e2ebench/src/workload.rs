//! The four workloads: set-up, load generation and answer checking.
//!
//! Every request goes through the public surface only — `QueryService::query`
//! and `JobHandle::wait`, `QueryService::admin(..).ingest` and `.engine()`,
//! `QueryService::recover`, `EngineSnapshot::snippet` / `execute` — and every
//! answer is compared to a reference computed outside the timed region.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use soda_core::{ChangeFeed, EngineSnapshot, MetaGraph, ResultPage, SnapshotHandle};
use soda_relation::Database;
use soda_service::{QueryRequest, QueryService, TenantAdmin, TenantId};
use soda_warehouse::delta::WarehouseDelta;
use soda_warehouse::enterprise::{self, EnterpriseConfig};
use soda_warehouse::SchemaModel;

use crate::config;
use crate::inputs::{self, Checked, Vocabulary};
use crate::replay::{replay, StepStats};
use crate::rng::{Rng, Zipf};
use crate::spans::{Span, Tracer};
use crate::stats::Hist;
use crate::PAGE_SIZE;

/// The warehouse every workload serves; only the inputs vary with the seed.
const WAREHOUSE_SEED: u64 = 42;
/// Closed-loop clients of the read-only workloads.
const CLIENTS: usize = 2;
/// Distinct ad-hoc inputs `cold_adhoc` cycles through: twice the cache
/// capacity, so a page is always evicted before its input comes round again.
const COLD_POOL: usize = 2 * config::CACHE_CAPACITY;
/// Inputs of the repeat pool (the Table-2 queries plus generated ones).
const WARM_POOL: usize = 256;
/// Zipf exponent of the repeat pool's popularity.
const ZIPF_S: f64 = 1.0;
/// Untimed warm-up of `cold_adhoc` before measuring.
const COLD_WARMUP: Duration = Duration::from_millis(300);
/// Least time between two requests of one load thread whose spans a traced
/// phase keeps (every feed and every priming request is kept).
const SPAN_GAP: Duration = Duration::from_millis(1);
/// Feeds the `ingest_mixed` writer sends per second.
pub const FEED_RATE: f64 = 20.0;
/// New customers per onboarding feed (two rows each).
pub const FEED_CUSTOMERS: usize = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct ad-hoc inputs on the padded 472-table schema: every request
    /// misses the cache and runs the whole pipeline.
    ColdAdhoc,
    /// Zipf-skewed repeats on the 16-table schema: almost every request is
    /// a cache hit.
    WarmRepeat,
    /// Table-2 queries plus a snippet of every returned statement: the
    /// executor dominates.
    AnswerPreview,
    /// Open-loop onboarding feeds into a durable service under a reader.
    IngestMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ColdAdhoc,
        Workload::WarmRepeat,
        Workload::AnswerPreview,
        Workload::IngestMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdAdhoc => "cold_adhoc",
            Workload::WarmRepeat => "warm_repeat",
            Workload::AnswerPreview => "answer_preview",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload serves the padded paper-scale schema.
    fn padded(self) -> bool {
        self == Workload::ColdAdhoc
    }
}

/// Seconds spent in each part of one set-up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Warehouse generation.
    pub warehouse_s: f64,
    /// `EngineSnapshot::build` (0 for the durable service, whose snapshot
    /// `QueryService::recover` builds and `service_s` includes).
    pub snapshot_s: f64,
    /// `QueryService::start` or `QueryService::recover`.
    pub service_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.warehouse_s + self.snapshot_s + self.service_s
    }
}

/// A set-up system, ready for load.
pub struct System {
    /// The service under test.
    pub service: QueryService,
    /// The default tenant's snapshot right after set-up.
    pub snapshot: Arc<EngineSnapshot>,
    /// The base data the service started from.
    pub base_db: Arc<Database>,
    /// The metadata graph.
    pub graph: Arc<MetaGraph>,
    /// The schema model the graph was built from.
    pub model: SchemaModel,
    /// Where the durable service journals (ingest workload only).
    pub journal: Option<PathBuf>,
    /// How long the set-up took.
    pub times: SetupTimes,
}

/// Generates the warehouse and starts (or recovers) the service.
pub fn set_up(workload: Workload, dir: &Path) -> System {
    let started = Instant::now();
    let warehouse = enterprise::build_with(EnterpriseConfig {
        seed: WAREHOUSE_SEED,
        padding: workload.padded(),
        data_scale: 1.0,
    });
    let mut times = SetupTimes {
        warehouse_s: started.elapsed().as_secs_f64(),
        ..SetupTimes::default()
    };
    let base_db = Arc::new(warehouse.database);
    let graph = Arc::new(warehouse.graph);
    let (service, journal) = if workload == Workload::IngestMixed {
        let started = Instant::now();
        let (service, _report) = QueryService::recover(
            Arc::clone(&base_db),
            Arc::clone(&graph),
            config::soda_config(),
            config::service_config(true),
            config::durability_config(dir.to_path_buf()),
        )
        .expect("a fresh durable service recovers");
        times.service_s = started.elapsed().as_secs_f64();
        (service, Some(soda_journal::journal_path(dir)))
    } else {
        let started = Instant::now();
        let snapshot = Arc::new(EngineSnapshot::build(
            Arc::clone(&base_db),
            Arc::clone(&graph),
            config::soda_config(),
        ));
        times.snapshot_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let service = QueryService::start(snapshot, config::service_config(false));
        times.service_s = started.elapsed().as_secs_f64();
        (service, None)
    };
    let snapshot = admin(&service).engine();
    System {
        service,
        snapshot,
        base_db,
        graph,
        model: warehouse.model,
        journal,
        times,
    }
}

/// The default tenant's administration facade.
fn admin(service: &QueryService) -> TenantAdmin<'_> {
    service
        .admin(TenantId::default())
        .expect("the default tenant always exists")
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The inputs requests draw from, with their reference pages.
    pub pool: Vec<Checked>,
    /// Reference snippets per pool entry and statement (`answer_preview`).
    pub snippets: Vec<Vec<String>>,
    /// The onboarding feeds, in sending order (`ingest_mixed`).
    pub deltas: Vec<WarehouseDelta>,
    /// The same feeds as the change feeds the writer sends.
    pub feeds: Vec<ChangeFeed>,
}

/// Generates the run's inputs from `seed` and computes their references.
pub fn prepare(workload: Workload, system: &System, seed: u64, seconds: f64) -> Inputs {
    let snapshot = &system.snapshot;
    let vocab = Vocabulary::harvest(snapshot.database(), &system.model);
    let table2 = inputs::table2_inputs();
    let mut snippets = Vec::new();
    let pool = match workload {
        Workload::ColdAdhoc => inputs::pool(snapshot, &vocab, &[], COLD_POOL, seed),
        Workload::AnswerPreview => table2
            .into_iter()
            .map(|input| {
                let page = inputs::reference(snapshot, &input).expect("Table-2 inputs answer");
                snippets.push(
                    page.results
                        .iter()
                        .map(|r| snapshot.snippet(r).expect("Table-2 statements execute"))
                        .collect(),
                );
                Checked::new(input, &page)
            })
            .collect(),
        Workload::WarmRepeat | Workload::IngestMixed => {
            // Popularity follows pool order: the Table-2 queries first, then
            // the generated inputs from the smallest page to the largest, so
            // the cost of the popular head does not hinge on the seed.
            let mut pool = inputs::pool(snapshot, &vocab, &table2, WARM_POOL, seed);
            pool[table2.len()..].sort_by_cached_key(|c| (c.size, c.input.clone()));
            pool
        }
    };
    let deltas = if workload == Workload::IngestMixed {
        let count = (FEED_RATE * seconds).ceil() as usize + 1;
        inputs::feed_chain(&system.base_db, count, FEED_CUSTOMERS, seed)
    } else {
        Vec::new()
    };
    let feeds = deltas.iter().map(WarehouseDelta::to_feed).collect();
    Inputs {
        pool,
        snippets,
        deltas,
        feeds,
    }
}

/// What the load threads measured and checked.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: answers, ingests and final checks.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Answer latencies, microseconds.
    pub answer_us: Hist,
    /// Summed time spent executing snippets inside answers, microseconds.
    pub exec_sum_us: f64,
    /// Replays of served misses, each compared to the served page.
    pub replays: Vec<StepStats>,
    /// Rows the executor produced per statement (traced `answer_preview`).
    pub exec_rows: Vec<usize>,
    /// Feed latencies from due time to `ingest` returning, microseconds.
    pub ingest_us: Hist,
    /// Journal bytes per ingested row, per feed (traced `ingest_mixed`).
    pub journal_bytes_per_row: Vec<f64>,
    /// How late the writer sent its latest feed at worst, milliseconds.
    pub writer_late_max_ms: f64,
    /// Spans recorded by a traced phase.
    pub spans: Vec<Span>,
    /// Pages served under ingestion, checked once the load is over: each
    /// distinct combination once, with how often it was served.
    pub unchecked: HashMap<Unchecked, u64>,
}

/// A page served while feeds were landing, to be checked after the run
/// against the reference of the data state the service pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Unchecked {
    /// Pool index of the input.
    pub index: usize,
    /// Data state before the request was sent.
    pub before: usize,
    /// Data state after `query` returned; a feed landed meanwhile when it
    /// differs from `before`.
    pub after: usize,
    /// Digest of the served page.
    pub digest: u64,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.fail_times(1, what);
    }

    fn fail_times(&mut self, times: u64, what: String) {
        self.failed += times;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Folds another thread's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        self.answer_us.merge(&other.answer_us);
        self.exec_sum_us += other.exec_sum_us;
        self.replays.extend(other.replays);
        self.exec_rows.extend(other.exec_rows);
        self.ingest_us.merge(&other.ingest_us);
        self.journal_bytes_per_row
            .extend(other.journal_bytes_per_row);
        self.writer_late_max_ms = self.writer_late_max_ms.max(other.writer_late_max_ms);
        self.spans.extend(other.spans);
        for (page, times) in other.unchecked {
            *self.unchecked.entry(page).or_insert(0) += times;
        }
    }
}

/// Service counters read through `QueryService::metrics` around a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Pages carried across data swaps by retention proofs.
    pub retained: u64,
    /// Pages purged at data swaps.
    pub purged: u64,
    /// Submissions coalesced onto an in-flight computation.
    pub coalesced: u64,
    /// Side-log compactions.
    pub compactions: u64,
    /// Tables the copy-on-write ingest derive copied.
    pub tables_copied: u64,
    /// Tables it shared.
    pub tables_shared: u64,
    /// Feeds appended to the journal.
    pub journal_appends: u64,
}

impl Counters {
    /// The service's counters now.
    pub fn read(service: &QueryService) -> Self {
        let m = service.metrics();
        Self {
            hits: m.cache.hits,
            misses: m.cache.misses,
            retained: m.cache.retained,
            purged: m.cache.purged,
            coalesced: m.coalesced,
            compactions: m.ingest.compactions,
            tables_copied: m.ingest.tables_copied,
            tables_shared: m.ingest.tables_shared,
            journal_appends: m.durability.journal_appends,
        }
    }

    /// Adds another round's growth.
    pub fn add(&mut self, other: &Counters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.retained += other.retained;
        self.purged += other.purged;
        self.coalesced += other.coalesced;
        self.compactions += other.compactions;
        self.tables_copied += other.tables_copied;
        self.tables_shared += other.tables_shared;
        self.journal_appends += other.journal_appends;
    }

    /// The growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            retained: self.retained - earlier.retained,
            purged: self.purged - earlier.purged,
            coalesced: self.coalesced - earlier.coalesced,
            compactions: self.compactions - earlier.compactions,
            tables_copied: self.tables_copied - earlier.tables_copied,
            tables_shared: self.tables_shared - earlier.tables_shared,
            journal_appends: self.journal_appends - earlier.journal_appends,
        }
    }
}

/// One measured phase: what the threads saw, how long it lasted and how
/// the service's counters moved.
#[derive(Debug, Default)]
pub struct Phase {
    /// Merged per-thread results.
    pub tally: Tally,
    /// Wall time from the first request to the last answer.
    pub elapsed_s: f64,
    /// Counter growth over the phase.
    pub counters: Counters,
}

impl Phase {
    /// Folds another round's phase into this one.
    pub fn merge(&mut self, other: Phase) {
        self.tally.merge(other.tally);
        self.elapsed_s += other.elapsed_s;
        self.counters.add(&other.counters);
    }
}

/// The load driver of one run: the system, its inputs and the run state.
pub struct Driver<'a> {
    workload: Workload,
    system: &'a System,
    inputs: &'a Inputs,
    seed: u64,
    epoch: Instant,
    /// Next input of the `cold_adhoc` cycle.
    cursor: AtomicUsize,
    /// Feeds sent so far (`ingest_mixed`).
    sent: usize,
    /// The run's round: set-up number, which keeps span ids unique.
    round: u16,
    /// Phases run so far; decorrelates the clients' random streams.
    phases: u64,
    zipf: Zipf,
}

impl<'a> Driver<'a> {
    /// A driver for round `round` on `system` with `inputs`; span times
    /// count from `epoch`.
    pub fn new(
        workload: Workload,
        system: &'a System,
        inputs: &'a Inputs,
        seed: u64,
        (epoch, round): (Instant, u16),
    ) -> Self {
        Self {
            workload,
            system,
            inputs,
            seed,
            epoch,
            cursor: AtomicUsize::new(0),
            sent: 0,
            round,
            phases: 0,
            zipf: Zipf::new(inputs.pool.len().max(1), ZIPF_S),
        }
    }

    /// The span-id prefix of load thread `local` in this round.
    fn thread(&self, local: u8) -> u16 {
        (self.round << 8) | u16::from(local)
    }

    /// Feeds the writer has sent.
    pub fn feeds_sent(&self) -> usize {
        self.sent
    }

    /// Brings the system to its steady state before measuring: one pass
    /// over the pool (filling the cache) or, for `cold_adhoc`, a short
    /// burst of the cycle.  Misses of a traced priming pass are replayed and
    /// checked like any other.
    pub fn prime(&mut self, traced: bool) -> Tally {
        if self.workload == Workload::ColdAdhoc {
            return self.phase(COLD_WARMUP, false).tally;
        }
        let mut tally = Tally::default();
        let mut tracer = Tracer::new(self.epoch, self.thread(0), traced, Duration::ZERO);
        let mut reader = Reader::new(self);
        for index in 0..self.inputs.pool.len() {
            reader.ask(index, &mut tracer, &mut tally);
        }
        tally.spans = tracer.into_spans();
        tally
    }

    /// Runs the workload's load for `length`, tracing when `traced`.
    pub fn phase(&mut self, length: Duration, traced: bool) -> Phase {
        self.phases += 1;
        let before = Counters::read(&self.system.service);
        let started = Instant::now();
        let until = started + length;
        let mut tally = Tally::default();
        let this = &*self;
        let mut sent = self.sent;
        std::thread::scope(|scope| {
            if this.workload == Workload::IngestMixed {
                let writer = scope.spawn(|| this.write(&mut sent, started, until, traced));
                tally.merge(this.read(1, until, traced));
                tally.merge(writer.join().expect("writer thread"));
            } else {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|id| scope.spawn(move || this.read(id, until, traced)))
                    .collect();
                for client in clients {
                    tally.merge(client.join().expect("client thread"));
                }
            }
        });
        self.sent = sent;
        let elapsed_s = started.elapsed().as_secs_f64();
        let counters = Counters::read(&self.system.service).since(&before);
        Phase {
            tally,
            elapsed_s,
            counters,
        }
    }

    /// One closed-loop client: asks until `until`, drawing inputs the
    /// workload's way.
    fn read(&self, id: usize, until: Instant, traced: bool) -> Tally {
        let mut tally = Tally::default();
        let mut tracer = Tracer::new(self.epoch, self.thread(1 + id as u8), traced, SPAN_GAP);
        let stream = (u64::from(self.round) << 32) | (self.phases << 8) | id as u64;
        let mut rng = Rng::new(self.seed, 0x1000_0000_0000 | stream);
        let mut reader = Reader::new(self);
        let pool = self.inputs.pool.len();
        let mut deck: Vec<usize> = Vec::new();
        while Instant::now() < until {
            let index = match self.workload {
                Workload::ColdAdhoc => self.cursor.fetch_add(1, Ordering::Relaxed) % pool,
                // Every query equally often, in a seeded order.
                Workload::AnswerPreview => {
                    if deck.is_empty() {
                        deck = (0..pool).collect();
                        for i in (1..pool).rev() {
                            deck.swap(i, rng.below(i + 1));
                        }
                    }
                    deck.pop().expect("a refilled deck")
                }
                Workload::WarmRepeat | Workload::IngestMixed => self.zipf.sample(&mut rng),
            };
            reader.ask(index, &mut tracer, &mut tally);
        }
        tally.spans.extend(tracer.into_spans());
        tally
    }

    /// The open-loop writer: sends the next feed every `1 / FEED_RATE`
    /// seconds from `started`, whatever the service's pace, and times each
    /// from the moment it was due.
    fn write(&self, sent: &mut usize, started: Instant, until: Instant, traced: bool) -> Tally {
        let mut tally = Tally::default();
        let mut tracer = Tracer::new(self.epoch, self.thread(0xff), traced, Duration::ZERO);
        let admin = admin(&self.system.service);
        let journal = self.system.journal.as_deref();
        let period = Duration::from_secs_f64(1.0 / FEED_RATE);
        for due in (0u32..).map(|k| started + period * k) {
            if due >= until || *sent >= self.inputs.feeds.len() {
                break;
            }
            let size = |path: Option<&Path>| {
                path.and_then(|p| std::fs::metadata(p).ok())
                    .map_or(0, |m| m.len())
            };
            let bytes_before = if traced { size(journal) } else { 0 };
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let late = Instant::now().saturating_duration_since(due);
            tally.writer_late_max_ms = tally.writer_late_max_ms.max(late.as_secs_f64() * 1e3);
            let feed = &self.inputs.feeds[*sent];
            let request = tracer.request();
            let outcome = tracer.time("ingest.call", None, request, || admin.ingest(feed));
            let done = Instant::now();
            tally.attempted += 1;
            tally.ingest_us.record((done - due).as_secs_f64() * 1e6);
            if let Err(e) = outcome {
                tally.fail(format!("ingest of feed {sent}: {e}"));
            } else if traced {
                let grown = size(journal).saturating_sub(bytes_before);
                if grown > 0 {
                    let rows = self.inputs.deltas[*sent].row_count().max(1);
                    tally.journal_bytes_per_row.push(grown as f64 / rows as f64);
                }
            }
            *sent += 1;
        }
        tally.spans.extend(tracer.into_spans());
        tally
    }
}

/// One client's view of the system.  The read-only workloads only ever see
/// the set-up snapshot; under ingestion the reader notes the data state
/// around each request, identified by the number of party rows (every feed
/// appends to `party`), and the page is checked after the run.
struct Reader<'d, 'a> {
    driver: &'d Driver<'a>,
    admin: TenantAdmin<'d>,
}

/// Rows of `party` in a snapshot: identifies how many feeds it absorbed.
fn data_state(snapshot: &EngineSnapshot) -> usize {
    snapshot
        .database()
        .table("party")
        .map_or(0, |t| t.row_count())
}

impl<'d, 'a> Reader<'d, 'a> {
    fn new(driver: &'d Driver<'a>) -> Self {
        Self {
            driver,
            admin: admin(&driver.system.service),
        }
    }

    /// Sends pool input `index`, waits for the answer (and its snippets in
    /// `answer_preview`), then checks it outside the timed region.
    fn ask(&mut self, index: usize, tracer: &mut Tracer, tally: &mut Tally) {
        let driver = self.driver;
        let workload = driver.workload;
        let checked = &driver.inputs.pool[index];
        let ingesting = workload == Workload::IngestMixed;
        let pinned_before = ingesting.then(|| self.admin.engine());

        let request = tracer.request();
        let root = tracer.begin("answer", None, request);
        let started = Instant::now();
        let handle = tracer.time("service.query", root, request, || {
            driver
                .system
                .service
                .query(QueryRequest::new(checked.input.as_str()).page_size(PAGE_SIZE))
        });
        let hit = handle.is_ready();
        let response = tracer.time("service.wait", root, request, || handle.wait());
        let served = Instant::now();
        let mut snippets = Vec::new();
        let mut exec_error = None;
        if let (Workload::AnswerPreview, Ok(response)) = (workload, &response) {
            let snapshot = &driver.system.snapshot;
            for result in &response.page.results {
                let snippet = if tracer.enabled() {
                    tracer
                        .time("exec.execute", root, request, || snapshot.execute(result))
                        .map(|rows| {
                            tally.exec_rows.push(rows.row_count());
                            tracer.time("exec.render", root, request, || {
                                rows.snippet(snapshot.config().snippet_rows)
                            })
                        })
                } else {
                    snapshot.snippet(result)
                };
                match snippet {
                    Ok(s) => snippets.push(s),
                    Err(e) => exec_error = Some(e),
                }
            }
        }
        let finished = Instant::now();
        tracer.end(root);
        tally
            .answer_us
            .record((finished - started).as_secs_f64() * 1e6);
        tally.exec_sum_us += (finished - served).as_secs_f64() * 1e6;
        tally.attempted += 1;

        // Everything below is outside the timed region.
        let input = &checked.input;
        let page = match response {
            Ok(response) => response.page,
            Err(e) => return tally.fail(format!("`{input}`: {e}")),
        };
        if let Some(e) = exec_error {
            return tally.fail(format!("`{input}`: snippet failed: {e}"));
        }
        let pinned = match pinned_before {
            Some(before) => {
                let after = self.admin.engine();
                let (before_state, after_state) = (data_state(&before), data_state(&after));
                let served = Unchecked {
                    index,
                    before: before_state,
                    after: after_state,
                    digest: inputs::digest(&page),
                };
                *tally.unchecked.entry(served).or_insert(0) += 1;
                // A replay needs the exact state the service pinned.
                (before_state == after_state).then_some(before)
            }
            None if inputs::digest(&page) != checked.reference => {
                return tally.fail(format!("`{input}`: served page differs from the reference"))
            }
            None => Some(Arc::clone(&driver.system.snapshot)),
        };
        if workload == Workload::AnswerPreview && snippets != driver.inputs.snippets[index] {
            return tally.fail(format!("`{input}`: snippets differ from the reference"));
        }
        if let (true, false, Some(pinned)) = (tracer.enabled(), hit, pinned) {
            let parent = tracer.begin("replay", None, request);
            let replayed = replay(&pinned, input, 0, PAGE_SIZE, tracer, parent, request);
            tracer.end(parent);
            match replayed {
                Ok((replayed, stats)) if replayed == page => tally.replays.push(stats),
                Ok(_) => tally.fail(format!("`{input}`: replay differs from the served page")),
                Err(e) => tally.fail(format!("`{input}`: replay failed: {e}")),
            }
        }
    }
}

/// The end-of-run check of `ingest_mixed`: the service's SQL for the
/// Table-2 queries equals that of a snapshot built afresh from the base data
/// with every sent feed applied.
pub fn check_final_state(system: &System, inputs: &Inputs, sent: usize, tally: &mut Tally) {
    let db = inputs::apply_chain(&system.base_db, &inputs.deltas[..sent]);
    let fresh = EngineSnapshot::build(
        Arc::new(db),
        Arc::clone(&system.graph),
        config::soda_config(),
    );
    for input in inputs::table2_inputs() {
        tally.attempted += 1;
        let served = system
            .service
            .query(QueryRequest::new(input.as_str()).page_size(PAGE_SIZE))
            .wait();
        let expected = inputs::reference(&fresh, &input);
        let sql = |page: &ResultPage| {
            page.results
                .iter()
                .map(|r| r.sql.clone())
                .collect::<Vec<_>>()
        };
        match (served, expected) {
            (Ok(served), Ok(expected)) => {
                if sql(&served.page) != sql(&expected) {
                    tally.fail(format!(
                        "`{input}`: SQL after {sent} feeds differs from a fresh snapshot's"
                    ));
                }
            }
            (Err(e), _) => tally.fail(format!("`{input}`: {e}")),
            (_, Err(e)) => tally.fail(format!("`{input}`: fresh snapshot: {e}")),
        }
    }
}

/// Checks the pages served under ingestion.  The set-up snapshot absorbs
/// the sent feeds one by one through `SnapshotHandle`, and at every data
/// state a page was served in, the references of the inputs served there
/// are computed; a page passes when it equals the reference of the state
/// before its request or, if a feed landed meanwhile, the state after.
pub fn check_served_under_ingest(system: &System, inputs: &Inputs, sent: usize, tally: &mut Tally) {
    let unchecked = std::mem::take(&mut tally.unchecked);
    let mut wanted: HashMap<usize, Vec<usize>> = HashMap::new();
    for u in unchecked.keys() {
        wanted.entry(u.before).or_default().push(u.index);
        wanted.entry(u.after).or_default().push(u.index);
    }
    let handle = SnapshotHandle::new(Arc::clone(&system.snapshot));
    let mut references: HashMap<(usize, usize), Option<u64>> = HashMap::new();
    for next in 0..=sent {
        let snapshot = handle.load();
        let state = data_state(&snapshot);
        if let Some(indexes) = wanted.get_mut(&state) {
            indexes.sort_unstable();
            indexes.dedup();
            let (left, right) = indexes.split_at(indexes.len() / 2);
            let digests = |part: &[usize]| -> Vec<((usize, usize), Option<u64>)> {
                part.iter()
                    .map(|&i| {
                        let page = inputs::reference(&snapshot, &inputs.pool[i].input);
                        ((state, i), page.ok().as_ref().map(inputs::digest))
                    })
                    .collect()
            };
            std::thread::scope(|scope| {
                let other = scope.spawn(|| digests(right));
                references.extend(digests(left));
                references.extend(other.join().expect("reference thread"));
            });
        }
        if next < sent {
            handle
                .absorb(&inputs.feeds[next])
                .expect("sent feeds absorb");
        }
    }
    for (u, times) in unchecked {
        let matches = |state| references.get(&(state, u.index)) == Some(&Some(u.digest));
        if !matches(u.before) && !matches(u.after) {
            let input = &inputs.pool[u.index].input;
            tally.fail_times(
                times,
                format!(
                "`{input}`: page served between data states {} and {} differs from both references",
                u.before, u.after
            ),
            );
        }
    }
}
