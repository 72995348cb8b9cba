//! The SODA engine: the five pipeline steps over one warehouse.
//!
//! An [`EngineSnapshot`] is built once per warehouse — it builds the
//! classification index over the metadata labels, the inverted index over
//! the base data and the join catalog — and then answers any number of
//! keyword queries, each returning a ranked list of executable SQL
//! statements: the paper's "result page" from which the business user
//! picks.
//!
//! The snapshot owns the base data and the metadata graph behind [`Arc`]s,
//! is `Send + Sync`, and can outlive whatever built it, so the same value
//! serves a one-shot experiment and a long-lived worker pool (the
//! `soda-service` crate) alike.
//!
//! ```
//! use std::sync::Arc;
//! use soda_core::{EngineSnapshot, SodaConfig};
//!
//! let snapshot = {
//!     // The warehouse is dropped at the end of this scope; the snapshot
//!     // keeps serving.
//!     let warehouse = soda_warehouse::minibank::build(42);
//!     EngineSnapshot::build(
//!         Arc::new(warehouse.database),
//!         Arc::new(warehouse.graph),
//!         SodaConfig::default(),
//!     )
//! };
//! let results = snapshot.search("Sara Guttinger").unwrap();
//! assert!(!results.is_empty());
//! ```

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use soda_metagraph::MetaGraph;
use soda_relation::{print_select, Database, ResultSet, ShardedInvertedIndex};
use soda_trace::{names, NoopSink, SpanId, TraceSink};

use crate::classification::ClassificationIndex;
use crate::config::SodaConfig;
use crate::error::Result;
use crate::feedback::FeedbackStore;
use crate::joins::JoinCatalog;
use crate::patterns::SodaPatterns;
use crate::pipeline::lookup::LookupResult;
use crate::pipeline::{filters, lookup, rank, sqlgen, tables, PipelineContext};
use crate::query::parse_query;
use crate::result::{Interpretation, QueryTrace, ResultPage, SodaResult, StepTimings};
use crate::shard::{ProbeDep, ProbeRecorder, ShardProbes, ShardStats};
use crate::suggest::{suggest_for_term, TermSuggestion};

/// The SODA engine: an owned, immutable, thread-safe snapshot of one
/// warehouse and every index the pipeline consults.
///
/// Every method takes `&self`, and the whole snapshot can be wrapped in an
/// [`Arc`] and shared across threads — the `soda-service` crate builds its
/// worker pool on exactly that.
///
/// The snapshot is built around the *sharded* lookup layer: both indexes are
/// partitioned into `config.shards` partitions by stable hashes
/// (classification by phrase, inverted index by owning table), and every
/// query's lookup step fans its base-data probes out across them;
/// [`shard_stats`](Self::shard_stats) reports the per-shard sizes and probe
/// counts the serving layer folds into its metrics.
///
/// ## Generations
///
/// Every snapshot carries a [`generation`](Self::generation) counter and a
/// per-shard generation vector, stamped by the
/// [`SnapshotHandle`](crate::SnapshotHandle) that publishes it (both stay `0`
/// for snapshots that never go through a handle).  A freshly published full
/// snapshot carries its generation in every slot; a per-shard rebuild bumps
/// only the rebuilt partitions' slots — the vector records *which*
/// partitions each publication touched (surfaced through
/// [`shard_stats`](Self::shard_stats)).  [`cache_fingerprint`](Self::cache_fingerprint)
/// folds the configuration fingerprint together with the publication
/// generation and the vector, so a superseded generation's cached pages
/// stop being addressable; for data-only swaps the serving layer re-keys
/// pages that provably never consulted a dirty shard
/// ([`retains_page`](Self::retains_page)) instead of recomputing them.
///
/// Everything expensive sits behind [`Arc`]s (the index shards internally,
/// the base data, the graph, the join catalog and the probe counters here),
/// so a derived next generation shares every structure it does not rebuild
/// with its parent instead of copying it.
pub struct EngineSnapshot {
    db: Arc<Database>,
    graph: Arc<MetaGraph>,
    config: SodaConfig,
    patterns: SodaPatterns,
    classification: ClassificationIndex,
    index: Option<ShardedInvertedIndex>,
    joins: Arc<JoinCatalog>,
    probes: Arc<ShardProbes>,
    /// Per-shard index sizes (side-log gauges included), measured once per
    /// construction: the indexes are immutable afterwards, and recounting
    /// postings on every metrics poll would be O(distinct tokens).  The
    /// `probes` and `generations` fields are filled in by
    /// [`shard_stats`](Self::shard_stats).
    sizes: ShardStats,
    /// Generation stamped at publication (0 = never published via a handle).
    generation: u64,
    /// Generation that last rebuilt each lookup-layer partition.
    shard_generations: Vec<u64>,
    /// [`cache_fingerprint`](Self::cache_fingerprint), precomputed.  The
    /// serving layer reads the fingerprint on *every* submission (it keys
    /// the interpretation cache), and its inputs — configuration and the
    /// generation stamps — are immutable once a snapshot is constructed, so
    /// every constructor seals the value eagerly via [`Self::sealed`].
    fingerprint: u64,
}

/// Measures the per-shard sizes of both indexes.
fn measure(
    shards: usize,
    classification: &ClassificationIndex,
    index: Option<&ShardedInvertedIndex>,
) -> ShardStats {
    let (index_tokens, index_postings, log_postings, log_rows, log_masks) = match index {
        Some(index) => (
            index.shards().iter().map(|s| s.token_count()).collect(),
            index.shards().iter().map(|s| s.posting_count()).collect(),
            index.side_log_postings(),
            index.side_log_rows(),
            index.side_log_masks(),
        ),
        None => (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()),
    };
    ShardStats {
        shards,
        classification_phrases: classification.shard_sizes(),
        index_tokens,
        index_postings,
        log_postings,
        log_rows,
        log_masks,
        probes: Vec::new(),
        generations: Vec::new(),
    }
}

impl EngineSnapshot {
    /// Builds a snapshot over an owned warehouse with the default patterns.
    pub fn build(db: Arc<Database>, graph: Arc<MetaGraph>, config: SodaConfig) -> Self {
        Self::with_patterns(db, graph, config, SodaPatterns::default())
    }

    /// Builds a snapshot with custom metadata-graph patterns (how SODA is
    /// ported to a warehouse with different modelling conventions).
    pub fn with_patterns(
        db: Arc<Database>,
        graph: Arc<MetaGraph>,
        config: SodaConfig,
        patterns: SodaPatterns,
    ) -> Self {
        let shards = config.shards.max(1);
        let classification = ClassificationIndex::build_sharded(&graph, config.use_dbpedia, shards);
        let index = config
            .use_inverted_index
            .then(|| ShardedInvertedIndex::build_sharded(&db, shards));
        let joins = Arc::new(JoinCatalog::build(&graph, &patterns, &db));
        let sizes = measure(shards, &classification, index.as_ref());
        Self {
            db,
            graph,
            config,
            patterns,
            classification,
            index,
            joins,
            probes: Arc::new(ShardProbes::new(shards)),
            sizes,
            generation: 0,
            shard_generations: vec![0; shards],
            fingerprint: 0,
        }
        .sealed()
    }

    /// Stamps this snapshot as published at `generation` (every shard slot
    /// included) — called by [`SnapshotHandle::publish`](crate::SnapshotHandle::publish).
    pub(crate) fn stamped(mut self, generation: u64) -> Self {
        self.generation = generation;
        self.shard_generations = vec![generation; self.shard_generations.len()];
        self.sealed()
    }

    /// A structurally identical snapshot carrying exactly the given
    /// generation stamps — the durable-recovery path uses this (via
    /// [`SnapshotHandle::restore_generations`](crate::SnapshotHandle::restore_generations))
    /// to land a rebooted engine on the same generation vector, and thus the
    /// same [`cache_fingerprint`](Self::cache_fingerprint), a checkpoint
    /// recorded.  Every built structure is shared with `self`.
    pub(crate) fn restored(&self, generation: u64, shard_generations: Vec<u64>) -> Self {
        Self {
            db: Arc::clone(&self.db),
            graph: Arc::clone(&self.graph),
            config: self.config.clone(),
            patterns: self.patterns.clone(),
            classification: self.classification.clone(),
            index: self.index.clone(),
            joins: Arc::clone(&self.joins),
            probes: Arc::clone(&self.probes),
            sizes: self.sizes.clone(),
            generation,
            shard_generations,
            fingerprint: 0,
        }
        .sealed()
    }

    /// Derives a snapshot over `db` in which only `tables` changed: the
    /// inverted-index partitions owning those tables are rebuilt from `db`
    /// and stamped with `generation`; every other structure — classification
    /// index, join catalog, probe counters, untouched index partitions — is
    /// shared with `self`.
    ///
    /// The join catalog reads the database only to resolve schema-level
    /// names, so a data-only delta cannot change it — which is what makes
    /// sharing it here sound.
    pub(crate) fn derive_rebuilt_tables(
        &self,
        db: Arc<Database>,
        tables: &[String],
        generation: u64,
    ) -> Self {
        let affected = self.shards_for_tables(tables);
        self.derive_rebuilt_partitions(db, &affected, generation)
    }

    /// Derives a snapshot in which the partitions named by `shards` are
    /// rebuilt from the *current* base data, folding (and clearing) their
    /// side logs — a compaction.  Answers are unchanged by construction (the
    /// database already contains every logged row); the folded shards' slots
    /// get `generation` so fingerprint-scoped caches notice.
    pub(crate) fn derive_compacted(&self, shards: &[usize], generation: u64) -> Self {
        self.derive_rebuilt_partitions(Arc::clone(&self.db), shards, generation)
    }

    /// The snapshot over `db` in which exactly the inverted-index partitions
    /// named by `affected` are rebuilt from `db` (folding — and clearing —
    /// their side logs) and stamped with `generation`; everything else is
    /// shared with `self`.
    fn derive_rebuilt_partitions(
        &self,
        db: Arc<Database>,
        affected: &[usize],
        generation: u64,
    ) -> Self {
        let index = self
            .index
            .as_ref()
            .map(|index| index.with_rebuilt_shards(&db, affected));
        let sizes = measure(self.shard_count(), &self.classification, index.as_ref());
        Self {
            db,
            graph: Arc::clone(&self.graph),
            config: self.config.clone(),
            patterns: self.patterns.clone(),
            classification: self.classification.clone(),
            index,
            joins: Arc::clone(&self.joins),
            probes: Arc::clone(&self.probes),
            sizes,
            generation,
            shard_generations: self.bump_slots(affected.iter().copied(), generation),
            fingerprint: 0,
        }
        .sealed()
    }

    /// Derives a snapshot that has absorbed a row-level change feed: the
    /// events are applied to a copy of the base data and their indexed
    /// consequences routed into per-shard side logs — **no frozen index
    /// partition is touched**, queries merge log and partition on the fly.
    /// The shards whose logs changed get `generation` stamped into their
    /// slot (they answer differently now), everything else is shared with
    /// `self`.  With the inverted index disabled only the base data moves.
    ///
    /// The feed is consumed (rows move by value) and the derived database
    /// structurally shares every untouched table with `self`'s — the whole
    /// chain is O(delta).  Returns the snapshot plus the ingest report so
    /// callers can surface sharing metrics.
    pub(crate) fn derive_absorbed(
        &self,
        feed: soda_ingest::ChangeFeed,
        generation: u64,
    ) -> Result<(Self, soda_ingest::IngestReport)> {
        let ingestor = soda_ingest::Ingestor::new(self.shard_count());
        let mut db = Database::clone(&self.db);
        let (index, report) = match &self.index {
            Some(index) => {
                // Clone only the logs the feed will touch (the others get
                // cheap empty placeholders and are `Arc`-shared afterwards),
                // so an ingest never copies the accumulated overlays of
                // unrelated shards.
                let will_touch = self.shards_for_tables(&feed.tables());
                let mut logs: Vec<soda_relation::SideLog> = index
                    .side_logs()
                    .iter()
                    .enumerate()
                    .map(|(i, log)| {
                        if will_touch.contains(&i) {
                            (**log).clone()
                        } else {
                            soda_relation::SideLog::default()
                        }
                    })
                    .collect();
                let report = ingestor.absorb_feed(&mut db, &mut logs, feed)?;
                debug_assert_eq!(
                    report.touched_shards, will_touch,
                    "ingestor routing must agree with shards_for_tables"
                );
                let patches: Vec<(usize, soda_relation::SideLog)> = report
                    .touched_shards
                    .iter()
                    .map(|&shard| (shard, std::mem::take(&mut logs[shard])))
                    .collect();
                (Some(index.with_patched_side_logs(patches)), report)
            }
            None => (None, ingestor.apply_feed(&mut db, feed)?),
        };
        let sizes = measure(self.shard_count(), &self.classification, index.as_ref());
        let next = Self {
            db: Arc::new(db),
            graph: Arc::clone(&self.graph),
            config: self.config.clone(),
            patterns: self.patterns.clone(),
            classification: self.classification.clone(),
            index,
            joins: Arc::clone(&self.joins),
            probes: Arc::clone(&self.probes),
            sizes,
            generation,
            shard_generations: self.bump_slots(report.touched_shards.iter().copied(), generation),
            fingerprint: 0,
        };
        Ok((next.sealed(), report))
    }

    /// Derives a snapshot over a refreshed metadata graph (unchanged base
    /// data): the classification index is rebuilt sharing every partition
    /// whose content survived the refresh
    /// ([`ClassificationIndex::rebuild_shared`]), the graph-derived join
    /// catalog is rebuilt, and the inverted index and probe counters are
    /// shared.  Only the classification partitions the refresh touched get
    /// `generation` stamped into their slot.
    pub(crate) fn derive_refreshed_graph(&self, graph: Arc<MetaGraph>, generation: u64) -> Self {
        let (classification, changed) = self
            .classification
            .rebuild_shared(&graph, self.config.use_dbpedia);
        let changed = (0..changed.len()).filter(|&shard| changed[shard]);
        let joins = Arc::new(JoinCatalog::build(&graph, &self.patterns, &self.db));
        let sizes = measure(self.shard_count(), &classification, self.index.as_ref());
        Self {
            db: Arc::clone(&self.db),
            graph,
            config: self.config.clone(),
            patterns: self.patterns.clone(),
            classification,
            index: self.index.clone(),
            joins,
            probes: Arc::clone(&self.probes),
            sizes,
            generation,
            shard_generations: self.bump_slots(changed, generation),
            fingerprint: 0,
        }
        .sealed()
    }

    /// This snapshot's per-shard generation vector with the slots of
    /// `shards` set to `generation`.
    fn bump_slots(&self, shards: impl Iterator<Item = usize>, generation: u64) -> Vec<u64> {
        let mut slots = self.shard_generations.clone();
        for shard in shards {
            if let Some(slot) = slots.get_mut(shard) {
                *slot = generation;
            }
        }
        slots
    }

    /// Generation stamped at publication (0 when the snapshot never went
    /// through a [`SnapshotHandle`](crate::SnapshotHandle)).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Generation that last rebuilt each lookup-layer partition.
    pub fn shard_generations(&self) -> &[u64] {
        &self.shard_generations
    }

    /// A stable fingerprint of everything that determines this snapshot's
    /// answers *and* freshness: the configuration fingerprint folded with the
    /// snapshot generation and the per-shard generation vector.  The serving
    /// layer keys its interpretation cache by this, so pages computed against
    /// a swapped-out generation can never be returned for a newer one — they
    /// stop being addressable and the service purges them.
    pub fn cache_fingerprint(&self) -> u64 {
        // Precomputed at construction (see `sealed`): the serving layer
        // calls this on every submission, and hashing the configuration's
        // `Debug` rendering each time dominated the warm cache-hit path.
        self.fingerprint
    }

    /// Computes and stores [`cache_fingerprint`](Self::cache_fingerprint) —
    /// the final step of every constructor, after the generation stamps are
    /// settled.
    fn sealed(mut self) -> Self {
        // FNV-1a over the generation vector, seeded by the config
        // fingerprint: cheap, stable, and sensitive to slot order.
        let mut hash = self.config.fingerprint() ^ 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.generation);
        for &g in &self.shard_generations {
            mix(g);
        }
        self.fingerprint = hash;
        self
    }

    /// The base data.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// A clone of the [`Arc`] holding the base data.
    pub fn database_arc(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// The metadata graph.
    pub fn graph(&self) -> &MetaGraph {
        &self.graph
    }

    /// A clone of the [`Arc`] holding the metadata graph.
    pub fn graph_arc(&self) -> Arc<MetaGraph> {
        Arc::clone(&self.graph)
    }

    /// The engine configuration.
    pub fn config(&self) -> &SodaConfig {
        &self.config
    }

    /// The join catalog (exposed for experiments and figures).
    pub fn join_catalog(&self) -> &JoinCatalog {
        &self.joins
    }

    /// The classification index (exposed for experiments and figures).
    pub fn classification_index(&self) -> &ClassificationIndex {
        &self.classification
    }

    /// The inverted index over the base data, if enabled.
    pub fn inverted_index(&self) -> Option<&ShardedInvertedIndex> {
        self.index.as_ref()
    }

    /// Number of lookup-layer shards this snapshot was built with.
    pub fn shard_count(&self) -> usize {
        self.config.shards.max(1)
    }

    /// Per-shard sizes of both indexes (measured at construction), the live
    /// probe counters and this snapshot's per-shard generation vector —
    /// cheap enough for every metrics poll.
    pub fn shard_stats(&self) -> ShardStats {
        ShardStats {
            probes: self.probes.counts(),
            generations: self.shard_generations.clone(),
            ..self.sizes.clone()
        }
    }

    /// The partitions owning `tables`, sorted and deduplicated — the dirty
    /// set of a data-only swap over those tables.
    pub fn shards_for_tables(&self, tables: &[String]) -> Vec<usize> {
        let shard_count = self.shard_count();
        let mut affected: Vec<usize> = tables
            .iter()
            .map(|t| soda_relation::shard_for_table(t, shard_count))
            .collect();
        affected.sort_unstable();
        affected.dedup();
        affected
    }

    /// The shards currently carrying a non-empty ingestion side log —
    /// compaction candidates.
    pub fn shards_with_side_logs(&self) -> Vec<usize> {
        self.index
            .as_ref()
            .map(|index| {
                index
                    .side_logs()
                    .iter()
                    .enumerate()
                    .filter(|(_, log)| !log.is_empty())
                    .map(|(i, _)| i)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Decides whether a result page computed against an *earlier* snapshot
    /// generation provably still answers correctly against `self`, given
    /// that the swap between them was **data-only** (base rows of the tables
    /// owned by `dirty` changed; schemas, metadata graph and configuration
    /// identical) and given what the page's query actually consulted:
    ///
    /// * `touched_mask` / `touched_overflow` — the shards its probes scanned
    ///   (from a [`ProbeRecorder`]),
    /// * `deps` — the phrases it probed and the probe tokens they selected.
    ///
    /// The page survives when none of its probes scanned a dirty shard, and
    /// for every probed phrase the *new* index still selects the same probe
    /// token with zero candidates in every dirty shard — then the hit set is
    /// computed from the same postings over unchanged rows (non-lookup
    /// pipeline steps only read schema-level catalog data, which a data
    /// delta cannot change).  Everything else is conservatively rejected.
    pub fn retains_page(
        &self,
        touched_mask: u64,
        touched_overflow: bool,
        deps: &[ProbeDep],
        dirty: &[usize],
    ) -> bool {
        RetentionGate::new(self, dirty).retains(touched_mask, touched_overflow, deps)
    }

    /// Whether one probe dependency is provably unchanged by a data-only
    /// swap dirtying `dirty`: the index still selects the same probe token
    /// for the phrase, and no dirty shard holds candidates for it.  The
    /// building block of [`retains_page`](Self::retains_page); swap-time
    /// cache passes memoize it per distinct dependency through a
    /// [`RetentionGate`].
    pub fn probe_dep_unchanged(&self, dep: &ProbeDep, dirty: &[usize]) -> bool {
        let Some(index) = &self.index else {
            // Without an inverted index no query consults base rows during
            // interpretation, so data deltas cannot change any page.
            return true;
        };
        let probe = index.probe(&dep.phrase);
        match (&probe, &dep.token) {
            (None, None) => true,
            (Some(probe), Some(token)) if &probe.token == token => dirty
                .iter()
                .all(|&shard| index.shard_candidates(shard, probe) == 0),
            _ => false,
        }
    }

    /// Runs only Step 1 (lookup) for an input: keyword segmentation plus the
    /// per-shard classification/base-data probes, without ranking or SQL
    /// generation.  This is the fan-out hot path the `lookup_sharding`
    /// benchmark measures.
    pub fn lookup(&self, input: &str) -> Result<LookupResult> {
        let query = parse_query(input)?;
        let ctx = self.context(None, &NoopSink);
        Ok(lookup::run(&ctx, &query, SpanId::NONE))
    }

    /// Translates a keyword query into a ranked list of SQL statements.
    pub fn search(&self, input: &str) -> Result<Vec<SodaResult>> {
        self.run(input, None, self.config.max_results, None, &NoopSink)
            .map(|(results, ..)| results)
    }

    /// Like [`search`](Self::search) but also returns the pipeline trace
    /// (classification, complexity, step timings).
    pub fn search_traced(&self, input: &str) -> Result<(Vec<SodaResult>, QueryTrace)> {
        let (results, lookup, solutions, timings) =
            self.run(input, None, self.config.max_results, None, &NoopSink)?;
        let trace = QueryTrace {
            input: input.to_string(),
            complexity: lookup.complexity(),
            solutions,
            results: results.len(),
            classification: lookup
                .matches
                .iter()
                .map(|m| {
                    (
                        m.phrase.clone(),
                        m.candidates.iter().map(|c| c.provenance).collect(),
                    )
                })
                .collect(),
            unmatched: lookup.unmatched,
            timings,
        };
        Ok((results, trace))
    }

    /// Like [`search`](Self::search) but folding accumulated relevance
    /// feedback (§6.3 — users like or dislike results) into the Step 2
    /// ranking: interpretation choices the user liked gain score, disliked
    /// ones lose it.
    pub fn search_with_feedback(
        &self,
        input: &str,
        feedback: &FeedbackStore,
    ) -> Result<Vec<SodaResult>> {
        self.run(
            input,
            Some(feedback),
            self.config.max_results,
            None,
            &NoopSink,
        )
        .map(|(results, ..)| results)
    }

    /// One page of the ranked result list (the paper's "next result page"):
    /// page `0` returns the first `page_size` statements, page `1` the next
    /// ones, and so on.  The engine materialises up to
    /// `(page + 1) * page_size` statements for the request, independent of
    /// `config.max_results`.  A page past the end of the list is empty.
    pub fn search_paged(&self, input: &str, page: usize, page_size: usize) -> Result<ResultPage> {
        self.search_paged_observed(input, page, page_size, None, &NoopSink)
            .map(|(page, _)| page)
    }

    /// [`search_paged`](Self::search_paged) with the full observability
    /// surface:
    ///
    /// * `recorder` (when given) learns which shards the query's base-data
    ///   probes scanned and which probe token each phrase selected — the
    ///   dependency set [`retains_page`](Self::retains_page) consumes;
    /// * `sink` receives the pipeline spans: the root `query` span with one
    ///   child per stage, and per-shard `probe_shard` sub-spans under
    ///   `lookup`;
    /// * the per-stage [`StepTimings`] come back alongside the page.
    ///
    /// Span reporting is guarded by [`TraceSink::enabled`] at every site, so
    /// tracing can never perturb the generated SQL (the `shard_invariance`
    /// suite pins this).
    pub fn search_paged_observed(
        &self,
        input: &str,
        page: usize,
        page_size: usize,
        recorder: Option<&ProbeRecorder>,
        sink: &dyn TraceSink,
    ) -> Result<(ResultPage, StepTimings)> {
        let page_size = page_size.max(1);
        // Saturating throughout: `page` comes straight from the caller, and
        // a wrapped offset would serve an earlier page instead of an empty
        // one.
        let needed = page
            .saturating_add(1)
            .saturating_mul(page_size)
            .saturating_add(1);
        let (mut results, _, _, timings) = self.run(input, None, needed, recorder, sink)?;
        let total_results = results.len();
        let start = page.saturating_mul(page_size).min(total_results);
        let end = start.saturating_add(page_size).min(total_results);
        results.truncate(end);
        results.drain(..start);
        Ok((
            ResultPage {
                results,
                page,
                page_size,
                total_results,
                has_next: total_results > end,
            },
            timings,
        ))
    }

    /// Reformulation suggestions for the input words the lookup step could not
    /// match anywhere (NaLIX-style feedback, §6.3): the closest metadata
    /// phrases per unmatched word.  Runs the lookup step only.
    pub fn suggestions(&self, input: &str) -> Result<Vec<TermSuggestion>> {
        Ok(self
            .lookup(input)?
            .unmatched
            .into_iter()
            .map(|term| TermSuggestion {
                candidates: suggest_for_term(&self.classification, &term, 5),
                term,
            })
            .filter(|s| !s.candidates.is_empty())
            .collect())
    }

    /// Executes one generated statement against the base data (the paper
    /// executes the top 10 partially to produce result snippets; experiments
    /// execute them fully to compute precision and recall).
    pub fn execute(&self, result: &SodaResult) -> Result<ResultSet> {
        Ok(soda_relation::execute(&self.db, &result.statement)?)
    }

    /// Executes a statement and renders the snippet of up to
    /// `config.snippet_rows` rows shown on the result page.
    pub fn snippet(&self, result: &SodaResult) -> Result<String> {
        Ok(self.execute(result)?.snippet(self.config.snippet_rows))
    }

    fn context<'a>(
        &'a self,
        recorder: Option<&'a ProbeRecorder>,
        sink: &'a dyn TraceSink,
    ) -> PipelineContext<'a> {
        PipelineContext {
            db: &self.db,
            graph: &self.graph,
            config: &self.config,
            classification: &self.classification,
            index: self.index.as_ref(),
            probes: &self.probes,
            recorder,
            sink,
            patterns: &self.patterns,
            joins: &self.joins,
        }
    }

    /// The five-step pipeline behind every search.  Returns up to
    /// `max_results` statements together with what a [`QueryTrace`] is built
    /// from: the lookup outcome, the number of ranked solutions and the
    /// per-step timings.
    ///
    /// Stage durations are measured unconditionally; span construction is
    /// guarded by [`TraceSink::enabled`], so the [`NoopSink`] path adds one
    /// virtual call per stage over an untraced pipeline.  The lookup and
    /// rank stages run once and get live spans; tables, filters and SQL
    /// generation run once *per solution*, so their accumulated durations
    /// are reported as one aggregate span each after the loop
    /// ([`TraceSink::record_span`]).
    fn run(
        &self,
        input: &str,
        feedback: Option<&FeedbackStore>,
        max_results: usize,
        recorder: Option<&ProbeRecorder>,
        sink: &dyn TraceSink,
    ) -> Result<(Vec<SodaResult>, LookupResult, usize, StepTimings)> {
        let ctx = self.context(recorder, sink);
        let enabled = sink.enabled();
        let root = if enabled {
            let root = sink.begin_span(names::QUERY, SpanId::NONE);
            sink.annotate(root, "input", input.into());
            root
        } else {
            SpanId::NONE
        };
        let query = parse_query(input)?;
        let mut timings = StepTimings::default();

        // Step 1 — lookup.
        let t0 = Instant::now();
        let lookup_span = if enabled {
            sink.begin_span(names::LOOKUP, root)
        } else {
            SpanId::NONE
        };
        let lookup_result = lookup::run(&ctx, &query, lookup_span);
        if enabled {
            sink.annotate(lookup_span, "terms", lookup_result.matches.len().into());
            sink.annotate(lookup_span, "complexity", lookup_result.complexity().into());
            sink.end_span(lookup_span);
        }
        timings.lookup = t0.elapsed();

        // Step 2 — rank and top N.
        let t0 = Instant::now();
        let rank_span = if enabled {
            sink.begin_span(names::RANK, root)
        } else {
            SpanId::NONE
        };
        let solutions = rank::enumerate_and_rank_boosted(
            &lookup_result,
            &self.config.weights,
            self.config.top_n.max(max_results),
            1_000,
            |entry| {
                feedback
                    .map(|f| f.adjustment(&entry.phrase, self.graph.uri(entry.node)))
                    .unwrap_or(0.0)
            },
        );
        if enabled {
            sink.annotate(rank_span, "solutions", solutions.len().into());
            sink.end_span(rank_span);
        }
        timings.rank = t0.elapsed();

        let mut results: Vec<SodaResult> = Vec::new();
        let mut seen_sql: HashSet<String> = HashSet::new();

        for solution in &solutions {
            // Step 3 — tables and joins.
            let t0 = Instant::now();
            let mut plan = tables::run(&ctx, solution);
            timings.tables += t0.elapsed();

            // Step 4 — filters.
            let t0 = Instant::now();
            let (filter_exprs, notes) =
                filters::run(&ctx, solution, &mut plan, &lookup_result.constraints);
            timings.filters += t0.elapsed();

            // Step 5 — SQL.
            let t0 = Instant::now();
            let statement = sqlgen::run(&ctx, &plan, &filter_exprs, &lookup_result);
            timings.sql += t0.elapsed();

            let Some(statement) = statement else { continue };
            let sql = print_select(&statement);
            if !seen_sql.insert(sql.clone()) {
                continue;
            }
            results.push(SodaResult {
                sql,
                statement,
                score: solution.score,
                tables: plan.tables.iter().cloned().collect(),
                interpretation: solution
                    .entries
                    .iter()
                    .map(|e| Interpretation {
                        phrase: e.phrase.clone(),
                        provenance: e.provenance,
                        entry_uri: self.graph.uri(e.node).to_string(),
                    })
                    .collect(),
                join_path_complete: plan.join_path_complete,
                used_bridges: plan.used_bridges.clone(),
                notes,
            });
            if results.len() >= max_results {
                break;
            }
        }

        // Optional compactness re-ranking (BLINKS-inspired extension): among
        // interpretations, the ones that connect their entry points with fewer
        // tables and a complete join path are more likely to reflect the
        // user's intent, so they are promoted.  The paper's default ranking is
        // provenance-only, hence the flag.
        if self.config.compactness_rerank {
            for result in &mut results {
                let extra_tables = result.tables.len().saturating_sub(1) as f64;
                let incomplete = if result.join_path_complete { 0.0 } else { 0.5 };
                result.score /= 1.0 + 0.1 * extra_tables + incomplete;
            }
            results.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }

        if enabled {
            sink.record_span(
                names::TABLES,
                root,
                timings.tables,
                vec![("solutions", solutions.len().into())],
            );
            sink.record_span(names::FILTERS, root, timings.filters, Vec::new());
            sink.record_span(
                names::SQLGEN,
                root,
                timings.sql,
                vec![("results", results.len().into())],
            );
            sink.annotate(root, "results", results.len().into());
            sink.end_span(root);
        }

        Ok((results, lookup_result, solutions.len(), timings))
    }
}

/// A memoizing retention checker for one data-only swap episode: each
/// distinct probe dependency is checked against the new index at most once,
/// no matter how many cached pages share it — the swap-time pass over a
/// full cache costs `O(distinct dependencies)` probes instead of
/// `O(entries × deps)`.
pub struct RetentionGate<'a> {
    snapshot: &'a EngineSnapshot,
    dirty: &'a [usize],
    memo: std::collections::HashMap<ProbeDep, bool>,
}

impl<'a> RetentionGate<'a> {
    /// A gate for pages crossing the swap that dirtied `dirty` shards,
    /// checked against the *new* snapshot.
    pub fn new(snapshot: &'a EngineSnapshot, dirty: &'a [usize]) -> Self {
        Self {
            snapshot,
            dirty,
            memo: std::collections::HashMap::new(),
        }
    }

    /// [`EngineSnapshot::retains_page`] with the per-dependency probe checks
    /// memoized across calls.
    pub fn retains(
        &mut self,
        touched_mask: u64,
        touched_overflow: bool,
        deps: &[ProbeDep],
    ) -> bool {
        if self.dirty.is_empty() {
            return true;
        }
        if touched_overflow || self.dirty.iter().any(|&s| s >= 64) {
            return false;
        }
        if self.dirty.iter().any(|&s| touched_mask & (1 << s) != 0) {
            return false;
        }
        deps.iter().all(|dep| self.dep_unchanged(dep))
    }

    fn dep_unchanged(&mut self, dep: &ProbeDep) -> bool {
        if let Some(&ok) = self.memo.get(dep) {
            return ok;
        }
        let ok = self.snapshot.probe_dep_unchanged(dep, self.dirty);
        self.memo.insert(dep.clone(), ok);
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn snapshot_is_send_and_sync() {
        assert_send_sync::<EngineSnapshot>();
        assert_send_sync::<Arc<EngineSnapshot>>();
    }

    #[test]
    fn snapshot_outlives_its_warehouse() {
        let snapshot = {
            let w = soda_warehouse::minibank::build(42);
            EngineSnapshot::build(
                Arc::new(w.database),
                Arc::new(w.graph),
                SodaConfig::default(),
            )
        };
        let results = snapshot.search("Sara Guttinger").unwrap();
        assert!(!results.is_empty());
        assert!(results[0].sql.starts_with("SELECT"));
    }

    #[test]
    fn every_search_entry_point_runs_the_same_pipeline() {
        let (db, graph) = soda_warehouse::minibank::build(42).shared_parts();
        let snapshot = EngineSnapshot::build(db, graph, SodaConfig::default());
        let max = snapshot.config().max_results;
        for query in [
            "Sara Guttinger",
            "wealthy customers",
            "sum (amount) group by (transaction date)",
        ] {
            let results = snapshot.search(query).unwrap();
            let (traced, trace) = snapshot.search_traced(query).unwrap();
            assert_eq!(results, traced, "divergence on '{query}'");
            assert_eq!(trace.results, results.len());
            let feedback = snapshot
                .search_with_feedback(query, &FeedbackStore::new())
                .unwrap();
            assert_eq!(results, feedback, "divergence on '{query}'");
            let sink = soda_trace::CollectingSink::new();
            let recorder = ProbeRecorder::new();
            let (page, _) = snapshot
                .search_paged_observed(query, 0, max, Some(&recorder), &sink)
                .unwrap();
            assert_eq!(page.results, results, "divergence on '{query}'");
            assert_eq!(page, snapshot.search_paged(query, 0, max).unwrap());
        }
    }

    #[test]
    fn sharded_snapshot_is_byte_identical_and_reports_stats() {
        let (db, graph) = soda_warehouse::minibank::build(42).shared_parts();
        let baseline = EngineSnapshot::build(
            Arc::clone(&db),
            Arc::clone(&graph),
            SodaConfig {
                shards: 1,
                ..SodaConfig::default()
            },
        );
        let sharded = EngineSnapshot::build(
            db,
            graph,
            SodaConfig {
                shards: 4,
                ..SodaConfig::default()
            },
        );
        assert_eq!(sharded.shard_count(), 4);
        for query in ["Sara Guttinger", "wealthy customers", "customers Zurich"] {
            assert_eq!(
                baseline.search(query).unwrap(),
                sharded.search(query).unwrap(),
                "divergence on '{query}'"
            );
        }
        let stats = sharded.shard_stats();
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.classification_phrases.len(), 4);
        assert_eq!(stats.index_postings.len(), 4);
        assert_eq!(
            stats.classification_phrases.iter().sum::<usize>(),
            sharded.classification_index().len()
        );
        assert_eq!(
            stats.index_postings.iter().sum::<usize>(),
            sharded.inverted_index().unwrap().posting_count()
        );
        // The searches above probed the base data, so scan work accumulated
        // on the shards holding the matched tables.
        assert_eq!(stats.probes.len(), 4);
        assert!(stats.total_probes() > 0);
    }

    #[test]
    fn retains_page_attests_only_provably_unaffected_queries() {
        // At 8 shards `individuals` (shard 7) and `addresses` (shard 3) land
        // in different partitions — the split this test relies on.
        let shards = 8;
        assert_ne!(
            soda_relation::shard_for_table("individuals", shards),
            soda_relation::shard_for_table("addresses", shards),
        );
        let w = soda_warehouse::minibank::build(42);
        let handle = crate::SnapshotHandle::new(Arc::new(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig {
                shards,
                ..SodaConfig::default()
            },
        )));
        let recorder = crate::shard::ProbeRecorder::new();
        handle
            .load()
            .search_paged_observed("Sara Guttinger", 0, 10, Some(&recorder), &NoopSink)
            .unwrap();
        let deps = recorder.deps();
        assert!(!deps.is_empty(), "the query probes the base data");
        let mask = recorder.touched_mask();
        assert!(!recorder.overflowed());

        // Ingest into `addresses`: the Sara page provably never saw it.
        let feed = crate::ChangeFeed::new().append_row(
            "addresses",
            vec![
                soda_relation::Value::Int(900),
                soda_relation::Value::Int(1),
                soda_relation::Value::from("Retain Lane 1"),
                soda_relation::Value::from("Retainville"),
                soda_relation::Value::from("Switzerland"),
            ],
        );
        handle.absorb(&feed).unwrap();
        let after = handle.load();
        let dirty = after.shards_for_tables(&["addresses".to_string()]);
        assert!(after.retains_page(mask, false, &deps, &dirty));
        // …and the retained answer really is unchanged.
        assert_eq!(
            after.search("Sara Guttinger").unwrap(),
            handle.load().search("Sara Guttinger").unwrap()
        );

        // A swap dirtying a shard the page's probes scanned is rejected.
        let sara_shard = after.shards_for_tables(&["individuals".to_string()]);
        assert!(!after.retains_page(mask, false, &deps, &sara_shard));
        // Overflowed recorders and empty dirty sets take the trivial paths.
        assert!(!after.retains_page(mask, true, &deps, &dirty));
        assert!(after.retains_page(mask, true, &deps, &[]));

        // A feed that gives a previously postings-free phrase candidates in
        // a dirty shard kills pages that probed it: "Retainville" was
        // nowhere before this absorb, so a page that probed it carried a
        // `None` token — and now the probe resolves.
        let nowhere = crate::shard::ProbeRecorder::new();
        handle
            .load()
            .search_paged_observed("Nowhereville", 0, 10, Some(&nowhere), &NoopSink)
            .unwrap();
        let nowhere_deps = nowhere.deps();
        assert!(nowhere_deps.iter().any(|d| d.token.is_none()));
        let retain_probe = crate::shard::ProbeRecorder::new();
        handle
            .load()
            .search_paged_observed("Retainville", 0, 10, Some(&retain_probe), &NoopSink)
            .unwrap();
        assert!(
            retain_probe.deps().iter().any(|d| d.token.is_some()),
            "the absorbed row resolves the probe"
        );
        // Against a hypothetical swap dirtying the addresses shard, the
        // Retainville page (whose probe scanned it) must not be retained.
        assert!(!after.retains_page(
            retain_probe.touched_mask(),
            retain_probe.overflowed(),
            &retain_probe.deps(),
            &dirty
        ));
    }

    #[test]
    fn shared_snapshot_serves_multiple_threads() {
        let w = soda_warehouse::minibank::build(42);
        let snapshot = Arc::new(EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        ));
        let expected = snapshot.search("Sara Guttinger").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let snapshot = Arc::clone(&snapshot);
                let expected = expected.clone();
                scope.spawn(move || {
                    let got = snapshot.search("Sara Guttinger").unwrap();
                    assert_eq!(got, expected);
                });
            }
        });
    }
}
