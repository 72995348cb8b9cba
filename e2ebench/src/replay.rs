//! The pipeline replay: one input run through `parse_query` and the five
//! `soda_core::pipeline` steps, assembled from `EngineSnapshot`'s public
//! accessors, with every step timed.  Its page must be byte-identical to the
//! one the service served, which is what lets the traced run attribute a
//! miss's time to the steps.

use std::collections::HashSet;

use soda_core::pipeline::{filters, lookup, rank, sqlgen, tables, PipelineContext};
use soda_core::{
    parse_query, EngineSnapshot, Interpretation, NoopSink, ResultPage, ShardProbes, SodaPatterns,
    SodaResult, SpanId,
};
use soda_relation::print_select;

use crate::spans::{Open, Tracer};

/// Combinations the rank step enumerates at most (the engine's cap).
const RANK_CAP: usize = 1_000;

/// What one replay counted (its step times are in its spans).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepStats {
    /// Size of the candidate product (Table 4's complexity).
    pub complexity: usize,
    /// Base-data probes the lookup made.
    pub probes: u64,
    /// Ranked solutions kept.
    pub solutions: usize,
    /// `tables::run` calls.
    pub tables_calls: usize,
    /// Statements `sqlgen::run` produced.
    pub statements: usize,
    /// Distinct statements kept on the result list.
    pub kept: usize,
}

/// Replays `input` for result page `page` of `page_size` against `snapshot`,
/// recording one span per step call under `parent`.
pub fn replay(
    snapshot: &EngineSnapshot,
    input: &str,
    page: usize,
    page_size: usize,
    tracer: &mut Tracer,
    parent: Option<Open>,
    request: u64,
) -> soda_core::Result<(ResultPage, StepStats)> {
    let config = snapshot.config();
    let patterns = SodaPatterns::default();
    let probes = ShardProbes::new(snapshot.shard_count());
    let ctx = PipelineContext {
        db: snapshot.database(),
        graph: snapshot.graph(),
        config,
        classification: snapshot.classification_index(),
        index: snapshot.inverted_index(),
        probes: &probes,
        recorder: None,
        sink: &NoopSink,
        patterns: &patterns,
        joins: snapshot.join_catalog(),
    };
    let mut stats = StepStats::default();
    let page_size = page_size.max(1);
    let max_results = (page + 1).saturating_mul(page_size).saturating_add(1);

    let query = tracer.time("core.parse", parent, request, || parse_query(input))?;
    let found = tracer.time("core.lookup", parent, request, || {
        lookup::run(&ctx, &query, SpanId::NONE)
    });
    stats.complexity = found.complexity();
    stats.probes = probes.total();
    let solutions = tracer.time("core.rank", parent, request, || {
        rank::enumerate_and_rank(
            &found,
            &config.weights,
            config.top_n.max(max_results),
            RANK_CAP,
        )
    });
    stats.solutions = solutions.len();

    let mut results: Vec<SodaResult> = Vec::new();
    let mut seen_sql: HashSet<String> = HashSet::new();
    for solution in &solutions {
        let mut plan = tracer.time("core.tables", parent, request, || {
            tables::run(&ctx, solution)
        });
        stats.tables_calls += 1;
        let (filter_exprs, notes) = tracer.time("core.filters", parent, request, || {
            filters::run(&ctx, solution, &mut plan, &found.constraints)
        });
        let statement = tracer.time("core.sqlgen", parent, request, || {
            sqlgen::run(&ctx, &plan, &filter_exprs, &found)
        });
        let Some(statement) = statement else { continue };
        stats.statements += 1;
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
                    entry_uri: snapshot.graph().uri(e.node).to_string(),
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
    stats.kept = results.len();

    let total_results = results.len();
    let start = (page * page_size).min(total_results);
    let end = (start + page_size).min(total_results);
    let page = ResultPage {
        results: results[start..end].to_vec(),
        page,
        page_size,
        total_results,
        has_next: total_results > end,
    };
    Ok((page, stats))
}
