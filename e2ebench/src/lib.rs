//! End-to-end benchmark of the SODA serving stack.
//!
//! `run` generates one workload's inputs from a seed, sets the system up,
//! drives the inputs through the public API for a fixed time, checks every
//! answer against a reference computed outside the timed region, and prints
//! the run's metrics by name and unit.  An untraced run reports the
//! end-to-end metrics; a traced run spends half its time untraced and half
//! recording spans around every call into the system, and reports the
//! per-layer metrics.

#![deny(deprecated)]

pub mod config;
pub mod inputs;
pub mod replay;
pub mod report;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::{Metrics, END_TO_END, PER_LAYER};
use workload::{Counters, Driver, Phase, Tally, Workload};

/// Result-page size of every request (the paper's result page).
pub const PAGE_SIZE: usize = 10;
/// Rounds per run, each on a freshly set-up system.
pub const ROUNDS: usize = 5;
/// Set-ups per round; `setup_s` is the median over all of them.
pub const SETUP_SAMPLES: usize = 3;

/// What one invocation runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Runs one workload and prints its report, the JSON result last; returns
/// whether every answer and ingest was correct.
///
/// The run is split into [`ROUNDS`] rounds.  Each sets the system up
/// afresh (which times set-up), primes it and measures it for an equal
/// share of the run, so one run samples several independent starts of the
/// system (thread placement, hash keys, allocation layout) instead of one.
/// The end-to-end answer figures are medians over the rounds; the traced
/// run pools its rounds.
pub fn run(options: &Options) -> std::io::Result<bool> {
    let workload = options.workload;
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&work)?;
    println!(
        "workload {} seed {} seconds {} trace {} rounds {ROUNDS}",
        workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    println!("soda config: {:?}", config::soda_config());
    let ingesting = workload == Workload::IngestMixed;
    println!("service config: {:?}", config::service_config(ingesting));
    if ingesting {
        println!(
            "durability: {:?}; writer: open loop, {} feeds/s of {} customers",
            config::durability_config(work.join("round-N-M")),
            workload::FEED_RATE,
            workload::FEED_CUSTOMERS
        );
    }

    let round_length = options.seconds / ROUNDS as f64;
    let epoch = Instant::now();
    let mut setups = Vec::with_capacity(ROUNDS * SETUP_SAMPLES);
    let mut checks = Tally::default();
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let mut lifetime = Counters::default();
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut snippet_rows = 0;
    for round in 0..ROUNDS {
        // Set up several times and keep the last system: set-up takes
        // milliseconds, so one sample per round would be mostly noise.
        let mut system = None;
        let mut dir = PathBuf::new();
        for sample in 0..SETUP_SAMPLES {
            drop(system.take());
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
            dir = work.join(format!("round-{round}-{sample}"));
            let built = workload::set_up(workload, &dir);
            setups.push(built.times);
            system = Some(built);
        }
        let system = system.expect("at least one set-up per round");
        snippet_rows = system.snapshot.config().snippet_rows;
        // Each round draws its own inputs from the seeded stream, so one run
        // averages over several input mixes instead of hinging on one.
        let round_seed = rng::Rng::new(options.seed, round as u64).next_u64();
        let inputs = &workload::prepare(workload, &system, round_seed, round_length);
        let before = Counters::read(&system.service);
        let mut driver = Driver::new(
            workload,
            &system,
            inputs,
            options.seed,
            (epoch, round as u16),
        );
        let mut round_checks = driver.prime(options.trace);
        let length = Duration::from_secs_f64(round_length);
        let mut phases = if options.trace {
            vec![
                driver.phase(length / 2, false),
                driver.phase(length / 2, true),
            ]
        } else {
            vec![driver.phase(length, false)]
        };
        lifetime.add(&Counters::read(&system.service).since(&before));
        if ingesting {
            for phase in &mut phases {
                for (page, times) in phase.tally.unchecked.drain() {
                    *round_checks.unchecked.entry(page).or_insert(0) += times;
                }
            }
            let sent = driver.feeds_sent();
            workload::check_served_under_ingest(&system, inputs, sent, &mut round_checks);
            workload::check_final_state(&system, inputs, sent, &mut round_checks);
        }
        checks.merge(round_checks);
        rounds.push(report::RoundAnswers {
            latencies: phases[0].tally.answer_us.clone(),
            elapsed_s: phases[0].elapsed_s,
        });
        if let Some(s) = phases[0].tally.answer_us.summary() {
            println!(
                "round {round}: answer_p50_us {} answer_p99_us {} (p{}) answers {} in {:.3} s",
                s.p50, s.tail, s.tail_at, s.count, phases[0].elapsed_s
            );
        }
        let mut phases = phases.into_iter();
        untraced.merge(phases.next().expect("an untraced phase"));
        if let Some(phase) = phases.next() {
            traced.merge(phase);
        }
        drop(driver);
        drop(system);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
    }
    let peak_rss_mb = report::peak_rss_mb().unwrap_or(0.0);

    let (metrics, names) = if options.trace {
        let mut spans = std::mem::take(&mut checks.spans);
        spans.extend(traced.tally.spans.iter().copied());
        std::fs::create_dir_all(".bench_out")?;
        let path = PathBuf::from(".bench_out").join(format!("{}.spans.tsv", workload.name()));
        spans::write_tsv(&path, &spans)?;
        println!("spans: {} written to {}", spans.len(), path.display());
        let mut replays = std::mem::take(&mut checks.replays);
        replays.extend(traced.tally.replays.iter().copied());
        let metrics = report::per_layer(
            &setups,
            &untraced,
            &traced,
            (&replays, &spans),
            &lifetime,
            snippet_rows,
        );
        for (name, unit) in PER_LAYER {
            println!("{name} {} {unit}", metrics.get(name).unwrap_or(0.0));
        }
        (metrics, &PER_LAYER[..])
    } else {
        let (metrics, tail_at) = report::end_to_end(&setups, &rounds, peak_rss_mb);
        print_end_to_end(workload, &metrics, &untraced, tail_at, &setups);
        (metrics, &END_TO_END[..])
    };

    let mut tally = checks;
    tally.merge(untraced.tally);
    tally.merge(traced.tally);
    for failure in &tally.failures {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "failed_ratio {} ({} of {} operations)",
        report::ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    std::fs::remove_dir_all(&work)?;
    // Fails, harmlessly, while another run still has its directory there.
    let _ = std::fs::remove_dir(".bench_work");
    let correct = tally.failed == 0;
    let json = metrics.json(names, correct, tally.attempted.max(1), tally.failed);
    println!("{json}");
    Ok(correct)
}

/// The human-readable lines of an untraced run: every end-to-end metric
/// with its unit and sample count, and the workload's defining property.
fn print_end_to_end(
    workload: Workload,
    m: &Metrics,
    phase: &Phase,
    tail_at: f64,
    setups: &[workload::SetupTimes],
) {
    let value = |name: &str| m.get(name).unwrap_or(0.0);
    let totals: Vec<String> = setups.iter().map(|s| format!("{:.3}", s.total())).collect();
    println!(
        "setup_s {} s (median of {} set-ups: {})",
        value("setup_s"),
        setups.len(),
        totals.join(", ")
    );
    let n = phase.tally.answer_us.count();
    let of = format!(
        "median of {ROUNDS} rounds, {n} answers in {:.3} s",
        phase.elapsed_s
    );
    println!("answer_p50_us {} us ({of})", value("answer_p50_us"));
    println!(
        "answer_p99_us {} us (p{tail_at}, {of})",
        value("answer_p99_us")
    );
    println!("answer_qps {} 1/s ({of})", value("answer_qps"));
    println!("peak_rss_mb {} MB", value("peak_rss_mb"));
    if let Some(ingest) = phase.tally.ingest_us.summary() {
        println!("ingest_p50_us {} us (n={})", ingest.p50, ingest.count);
        println!(
            "ingest_p99_us {} us (reported at p{}, n={})",
            ingest.tail, ingest.tail_at, ingest.count
        );
    }
    let c = &phase.counters;
    let hit_ratio = report::ratio(c.hits as f64, (c.hits + c.misses) as f64);
    let t = &phase.tally;
    let property = match workload {
        Workload::ColdAdhoc | Workload::WarmRepeat => format!("cache_hit_ratio {hit_ratio}"),
        Workload::AnswerPreview => format!(
            "exec_answer_share {}",
            report::ratio(t.exec_sum_us, t.answer_us.sum())
        ),
        Workload::IngestMixed => format!(
            "compaction_cycles {} (cache_hit_ratio {hit_ratio})",
            c.compactions
        ),
    };
    println!("property {property}");
}
