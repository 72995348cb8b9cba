//! Turning a run's measurements into the named metrics it prints.

use std::collections::{BTreeMap, HashMap};

use crate::replay::StepStats;
use crate::spans::Span;
use crate::stats::{median, supported_tail, Hist};
use crate::workload::{Phase, SetupTimes};

/// The end-to-end metrics an untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("answer_p50_us", "us"),
    ("answer_p99_us", "us"),
    ("answer_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("service.submit_us", "us"),
    ("service.wait_us", "us"),
    ("service.overhead_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_retained_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("parse.busy_us", "us"),
    ("lookup.busy_us", "us"),
    ("lookup.complexity", "count"),
    ("lookup.probes", "count"),
    ("rank.busy_us", "us"),
    ("rank.solutions", "count"),
    ("tables.busy_us", "us"),
    ("tables.calls", "count"),
    ("tables.useful_ratio", "ratio"),
    ("filters.busy_us", "us"),
    ("sqlgen.busy_us", "us"),
    ("sqlgen.statements", "count"),
    ("exec.busy_us", "us"),
    ("exec.rows_out", "count"),
    ("exec.rows_used_ratio", "ratio"),
    ("exec.answer_share", "ratio"),
    ("ingest.busy_us", "us"),
    ("ingest.tables_copied_ratio", "ratio"),
    ("ingest.compactions", "count"),
    ("ingest_p50_us", "us"),
    ("ingest_p99_us", "us"),
    ("journal.bytes_per_row", "B"),
    ("journal.appends", "count"),
    ("setup.warehouse_s", "s"),
    ("setup.snapshot_s", "s"),
    ("setup.service_s", "s"),
    ("load.writer_late_max_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("replay.checked", "count"),
];

/// Named metric values.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets `name`; non-finite values (an empty ratio) read as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: exactly the keys `correct`, `attempted`, `failed`
    /// and `metrics`, with every metric of `names` in `names`' order.
    pub fn json(
        &self,
        names: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).expect("every listed metric is measured");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident memory of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One round's answers: their latencies and the round's measured seconds.
#[derive(Debug, Clone)]
pub struct RoundAnswers {
    /// Answer latencies.
    pub latencies: Hist,
    /// Wall time of the round's measured phase.
    pub elapsed_s: f64,
}

/// The end-to-end metrics of an untraced run, and the percentile the tail
/// is reported at.  Each answer figure is the median over the rounds of
/// that round's figure, so a transient slowdown of the machine during one
/// round does not move the run's result; the tail percentile is the highest
/// every round supports, capped at 99.
pub fn end_to_end(
    setups: &[SetupTimes],
    rounds: &[RoundAnswers],
    peak_rss_mb: f64,
) -> (Metrics, f64) {
    let mut m = Metrics::default();
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    m.set("setup_s", median(&totals).unwrap_or(0.0));
    let fewest = rounds
        .iter()
        .map(|r| r.latencies.count())
        .min()
        .unwrap_or(0);
    let tail_at = supported_tail(fewest as usize).unwrap_or(50.0).min(99.0);
    let per_round = |figure: &dyn Fn(&RoundAnswers) -> Option<f64>| {
        let figures: Vec<f64> = rounds.iter().filter_map(figure).collect();
        median(&figures).unwrap_or(0.0)
    };
    m.set(
        "answer_p50_us",
        per_round(&|r| r.latencies.percentile(50.0)),
    );
    m.set(
        "answer_p99_us",
        per_round(&|r| r.latencies.percentile(tail_at)),
    );
    m.set(
        "answer_qps",
        per_round(&|r| Some(ratio(r.latencies.count() as f64, r.elapsed_s))),
    );
    m.set("peak_rss_mb", peak_rss_mb);
    (m, tail_at)
}

/// Durations of the spans called `name`, in microseconds.
fn span_micros(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::micros)
        .collect()
}

/// Per request, the summed duration of its spans called `name` (requests
/// without such a span are left out).
fn per_request(spans: &[Span], name: &str) -> HashMap<u64, f64> {
    let mut sums = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *sums.entry(s.request).or_insert(0.0) += s.micros();
    }
    sums
}

/// The pipeline steps the replay records, by span name.
const STEPS: [(&str, &str); 6] = [
    ("core.parse", "parse.busy_us"),
    ("core.lookup", "lookup.busy_us"),
    ("core.rank", "rank.busy_us"),
    ("core.tables", "tables.busy_us"),
    ("core.filters", "filters.busy_us"),
    ("core.sqlgen", "sqlgen.busy_us"),
];

/// The per-layer metrics of a traced run: `untraced` is its first, untraced
/// phase and `traced` the second, whose spans give the service, executor
/// and ingest figures.  `misses` holds every replayed miss — of the traced
/// phase and of a traced priming pass — and `miss_spans` their spans.
pub fn per_layer(
    setups: &[SetupTimes],
    untraced: &Phase,
    traced: &Phase,
    misses: (&[StepStats], &[Span]),
    lifetime: &crate::workload::Counters,
    snippet_rows: usize,
) -> Metrics {
    let mut m = Metrics::default();
    let spans = &traced.tally.spans;
    let (replays, miss_spans) = misses;
    let med = |values: Vec<f64>| median(&values).unwrap_or(0.0);

    m.set(
        "service.submit_us",
        med(span_micros(spans, "service.query")),
    );
    m.set("service.wait_us", med(span_micros(spans, "service.wait")));
    let waits = per_request(miss_spans, "service.wait");
    let mut pipeline: HashMap<u64, f64> = HashMap::new();
    for (span, _) in STEPS {
        for (request, us) in per_request(miss_spans, span) {
            *pipeline.entry(request).or_insert(0.0) += us;
        }
    }
    let overheads = pipeline
        .iter()
        .filter_map(|(request, us)| waits.get(request).map(|wait| wait - us))
        .collect();
    m.set("service.overhead_us", med(overheads));
    let c = &traced.counters;
    m.set(
        "service.cache_hit_ratio",
        ratio(c.hits as f64, (c.hits + c.misses) as f64),
    );
    m.set(
        "service.cache_retained_ratio",
        ratio(
            lifetime.retained as f64,
            (lifetime.retained + lifetime.purged) as f64,
        ),
    );
    m.set("service.coalesced", lifetime.coalesced as f64);

    for (span, metric) in STEPS {
        m.set(
            metric,
            med(per_request(miss_spans, span).into_values().collect()),
        );
    }
    let mean = |f: fn(&StepStats) -> usize| {
        ratio(
            replays.iter().map(|r| f(r) as f64).sum(),
            replays.len() as f64,
        )
    };
    m.set("lookup.complexity", mean(|r| r.complexity));
    m.set("lookup.probes", mean(|r| r.probes as usize));
    m.set("rank.solutions", mean(|r| r.solutions));
    m.set("tables.calls", mean(|r| r.tables_calls));
    m.set("sqlgen.statements", mean(|r| r.statements));
    m.set(
        "tables.useful_ratio",
        ratio(
            replays.iter().map(|r| r.kept as f64).sum(),
            replays.iter().map(|r| r.tables_calls as f64).sum(),
        ),
    );
    m.set("replay.checked", replays.len() as f64);

    let rows = &traced.tally.exec_rows;
    m.set("exec.busy_us", med(span_micros(spans, "exec.execute")));
    m.set(
        "exec.rows_out",
        ratio(rows.iter().sum::<usize>() as f64, rows.len() as f64),
    );
    m.set(
        "exec.rows_used_ratio",
        ratio(
            rows.iter().map(|&r| r.min(snippet_rows)).sum::<usize>() as f64,
            rows.iter().sum::<usize>() as f64,
        ),
    );
    let a = &untraced.tally;
    m.set("exec.answer_share", ratio(a.exec_sum_us, a.answer_us.sum()));

    m.set("ingest.busy_us", med(span_micros(spans, "ingest.call")));
    m.set(
        "ingest.tables_copied_ratio",
        ratio(
            lifetime.tables_copied as f64,
            (lifetime.tables_copied + lifetime.tables_shared) as f64,
        ),
    );
    m.set("ingest.compactions", lifetime.compactions as f64);
    let mut ingest_us = a.ingest_us.clone();
    ingest_us.merge(&traced.tally.ingest_us);
    let ingest = ingest_us.summary();
    m.set("ingest_p50_us", ingest.map_or(0.0, |s| s.p50));
    m.set("ingest_p99_us", ingest.map_or(0.0, |s| s.tail));
    m.set(
        "journal.bytes_per_row",
        med(traced.tally.journal_bytes_per_row.clone()),
    );
    m.set("journal.appends", lifetime.journal_appends as f64);

    m.set(
        "setup.warehouse_s",
        med(setups.iter().map(|s| s.warehouse_s).collect()),
    );
    m.set(
        "setup.snapshot_s",
        med(setups.iter().map(|s| s.snapshot_s).collect()),
    );
    m.set(
        "setup.service_s",
        med(setups.iter().map(|s| s.service_s).collect()),
    );
    m.set(
        "load.writer_late_max_ms",
        a.writer_late_max_ms.max(traced.tally.writer_late_max_ms),
    );
    let p50 = |phase: &Phase| phase.tally.answer_us.percentile(50.0).unwrap_or(0.0);
    m.set("trace.overhead_ratio", ratio(p50(traced), p50(untraced)));
    m
}
