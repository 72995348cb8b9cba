//! Seeded input generators: ad-hoc queries in the shapes of the paper's
//! Table 2, the popularity-skewed repeat pool, and the chained onboarding
//! feeds of the ingest workload.  The system under test only ever sees the
//! generated strings and feeds.

use std::collections::{BTreeSet, HashSet};

use soda_core::{normalize_query, EngineSnapshot, ResultPage};
use soda_relation::{Database, Value};
use soda_warehouse::delta::WarehouseDelta;
use soda_warehouse::enterprise::{data, ontology};
use soda_warehouse::SchemaModel;

use crate::rng::Rng;

/// The inputs of the paper's Table 2, in table order, duplicates removed
/// (Q3.1 and Q3.2 share their keywords).
pub fn table2_inputs() -> Vec<String> {
    let mut seen = HashSet::new();
    soda_eval::workload::workload()
        .into_iter()
        .map(|q| q.keywords.to_string())
        .filter(|k| seen.insert(k.clone()))
        .collect()
}

/// The words ad-hoc inputs are built from, harvested from the warehouse.
#[derive(Debug, Clone, PartialEq)]
pub struct Vocabulary {
    /// Text values of the base data (names, cities, currencies, ...).
    pub values: Vec<String>,
    /// Conceptual entity and attribute names of the schema model.
    pub schema: Vec<String>,
    /// Domain-ontology concept names.
    pub ontology: Vec<String>,
    /// Date-valued attribute phrases.
    pub dates: Vec<String>,
    /// Amount-valued attribute phrases.
    pub amounts: Vec<String>,
    /// Attribute phrases to group by.
    pub groups: Vec<String>,
}

/// Keeps phrases made of letters and spaces only: the padding subject areas
/// are numbered ("Reference Entity 042") and are not business vocabulary.
fn plain(phrase: &str) -> bool {
    let words = phrase.split_whitespace().count();
    (1..=3).contains(&words)
        && phrase.len() >= 2
        && phrase.chars().all(|c| c.is_ascii_alphabetic() || c == ' ')
}

impl Vocabulary {
    /// Harvests the vocabulary of a warehouse, in a deterministic order.
    pub fn harvest(db: &Database, model: &SchemaModel) -> Self {
        // Single text values ("Sara", "Credit Suisse") and adjacent pairs of
        // one row ("Sara Guttinger"), the way users quote base data.
        let mut values = BTreeSet::new();
        for table in db.tables() {
            for row in table.rows().iter() {
                let texts: Vec<&str> = row
                    .iter()
                    .filter_map(|v| match v {
                        Value::Text(text) if plain(text) => Some(text.as_str()),
                        _ => None,
                    })
                    .collect();
                values.extend(texts.iter().map(|t| t.to_string()));
                for pair in texts.windows(2) {
                    let phrase = format!("{} {}", pair[0], pair[1]);
                    if plain(&phrase) {
                        values.insert(phrase);
                    }
                }
            }
        }
        let mut schema = BTreeSet::new();
        for entity in &model.conceptual {
            schema.insert(entity.name.to_lowercase());
            schema.extend(entity.attributes.iter().map(|a| a.to_lowercase()));
        }
        schema.retain(|p| plain(p));
        let ontology: BTreeSet<String> = ontology::ontology()
            .concepts
            .iter()
            .flat_map(|c| c.all_names())
            .map(str::to_lowercase)
            .collect();
        let attributes = schema.iter().chain(&ontology);
        let dates = attributes
            .clone()
            .filter(|p| p.contains("date") || p.contains("period"))
            .cloned()
            .collect();
        let amounts = attributes
            .clone()
            .filter(|p| p.contains("amount") || p.contains("investment") || p.contains("volume"))
            .cloned()
            .collect();
        let groups = attributes
            .filter(|p| {
                ["currency", "country", "city", "status", "type"]
                    .iter()
                    .any(|g| p.ends_with(g))
            })
            .cloned()
            .collect();
        Self {
            values: values.into_iter().collect(),
            schema: schema.into_iter().collect(),
            ontology: ontology.into_iter().collect(),
            dates,
            amounts,
            groups,
        }
    }

    /// One candidate input of shape `shape` (taken modulo [`SHAPES`]): the
    /// Table-2 shapes of base-data values, schema terms, ontology terms,
    /// comparisons and aggregates.
    pub fn draw(&self, shape: usize, rng: &mut Rng) -> String {
        let v = &self.values;
        let s = &self.schema;
        let o = &self.ontology;
        match shape % SHAPES {
            0 => rng.pick(v).clone(),
            1 => format!("{} {}", rng.pick(v), rng.pick(s)),
            2 => format!("{} {}", rng.pick(o), rng.pick(s)),
            3 => format!("{} {}", rng.pick(v), rng.pick(v)),
            4 => format!("{} {}", rng.pick(s), rng.pick(o)),
            5 => format!(
                "{} {} > date({}-{:02}-{:02})",
                rng.pick(s),
                rng.pick(&self.dates),
                2005 + rng.below(10),
                1 + rng.below(12),
                1 + rng.below(28)
            ),
            6 => format!(
                "{} {} > {}",
                rng.pick(o),
                rng.pick(&self.amounts),
                1_000 * (1 + rng.below(500))
            ),
            7 => format!("select count() {} {}", rng.pick(o), rng.pick(v)),
            _ => format!(
                "{}({}) {} group by ({})",
                rng.pick(&["sum", "avg", "min", "max"]),
                rng.pick(&self.amounts),
                rng.pick(o),
                rng.pick(&self.groups)
            ),
        }
    }
}

/// A generated input with a digest of its reference page: the answer
/// `EngineSnapshot::search_paged` gives on the snapshot the service pins.
/// Only the digest is kept, so the benchmark's own memory stays small next
/// to the system's.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    /// The input text.
    pub input: String,
    /// Digest of its reference first page.
    pub reference: u64,
    /// Statements on the reference page and their SQL bytes in total.
    pub size: (usize, usize),
}

impl Checked {
    /// `input` checked against its reference `page`.
    pub fn new(input: String, page: &ResultPage) -> Self {
        let bytes = page.results.iter().map(|r| r.sql.len()).sum();
        Self {
            input,
            reference: digest(page),
            size: (page.results.len(), bytes),
        }
    }
}

/// A digest of everything a result page shows (each statement is covered
/// by its SQL text, which is printed from it).
pub fn digest(page: &ResultPage) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (page.page, page.page_size, page.total_results, page.has_next).hash(&mut h);
    for r in &page.results {
        (&r.sql, r.score.to_bits(), &r.tables, r.join_path_complete).hash(&mut h);
        (&r.used_bridges, &r.notes).hash(&mut h);
        for i in &r.interpretation {
            (&i.phrase, i.provenance, &i.entry_uri).hash(&mut h);
        }
    }
    h.finish()
}

/// The first result page of `input` on `snapshot`: the reference every
/// served page is compared to.
pub fn reference(snapshot: &EngineSnapshot, input: &str) -> soda_core::Result<ResultPage> {
    snapshot.search_paged(input, 0, crate::PAGE_SIZE)
}

/// Input shapes [`Vocabulary::draw`] knows.
pub const SHAPES: usize = 9;

/// `count` distinct inputs (distinct after normalisation, so each is its
/// own cache key) that answer with at least one statement on `snapshot`:
/// `fixed` first, then generated ones whose shapes cycle through all
/// [`SHAPES`], so every seed draws the same mix of shapes.  References are
/// computed on two threads; the result depends on the seed only.
pub fn pool(
    snapshot: &EngineSnapshot,
    vocab: &Vocabulary,
    fixed: &[String],
    count: usize,
    seed: u64,
) -> Vec<Checked> {
    let mut rng = Rng::new(seed, 0x706f_6f6c);
    let mut seen: HashSet<String> = fixed
        .iter()
        .filter_map(|input| normalize_query(input).ok())
        .collect();
    let mut slots: Vec<Option<Checked>> = check(snapshot, fixed);
    assert!(
        slots.iter().all(Option::is_some),
        "every fixed input answers"
    );
    slots.resize(count.max(fixed.len()), None);
    for _round in 0..MAX_ROUNDS {
        let open: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
        if open.is_empty() {
            break;
        }
        let candidates: Vec<String> = open
            .iter()
            .map(|&slot| {
                (0..MAX_DRAWS)
                    .map(|_| vocab.draw(slot - fixed.len(), &mut rng))
                    .find(|input| normalize_query(input).is_ok_and(|key| seen.insert(key)))
                    .expect("the vocabulary yields enough distinct inputs of every shape")
            })
            .collect();
        let (left, right) = candidates.split_at(candidates.len() / 2);
        let checked = std::thread::scope(|scope| {
            let other = scope.spawn(|| check(snapshot, right));
            let mut out = check(snapshot, left);
            out.extend(other.join().expect("reference thread"));
            out
        });
        for (slot, checked) in open.into_iter().zip(checked) {
            slots[slot] = checked;
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("the vocabulary yields enough answerable inputs"))
        .collect()
}

/// The inputs that answer with at least one statement, with their
/// references; `None` for the others.
fn check(snapshot: &EngineSnapshot, inputs: &[String]) -> Vec<Option<Checked>> {
    inputs
        .iter()
        .map(|input| {
            let page = reference(snapshot, input).ok()?;
            (!page.results.is_empty()).then(|| Checked::new(input.clone(), &page))
        })
        .collect()
}

/// Draws per slot before a shape counts as exhausted.
const MAX_DRAWS: usize = 10_000;

/// Candidate batches [`pool`] draws before giving up.
const MAX_ROUNDS: usize = 64;

/// `count` chained onboarding feeds of `customers` new customers each: feed
/// `i` continues the party ids of the base data with feeds `0..i` applied.
pub fn feed_chain(
    base: &Database,
    count: usize,
    customers: usize,
    seed: u64,
) -> Vec<WarehouseDelta> {
    let mut rng = Rng::new(seed, 0x6665_6564);
    let mut db = base.clone();
    (0..count)
        .map(|_| {
            let delta = data::onboarding_delta(&db, rng.next_u64(), customers);
            db = delta.apply(&db).expect("onboarding feeds apply");
            delta
        })
        .collect()
}

/// The base data with the first `applied` feeds of a chain applied.
pub fn apply_chain(base: &Database, feeds: &[WarehouseDelta]) -> Database {
    feeds.iter().fold(base.clone(), |db, delta| {
        delta.apply(&db).expect("onboarding feeds apply")
    })
}
