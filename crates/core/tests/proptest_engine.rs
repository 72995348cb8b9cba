//! Property-based tests of the SODA engine: the input-query parser never
//! panics, generated SQL always parses and executes, and ranking respects the
//! provenance weights.

use proptest::prelude::*;

use soda_core::{parse_query, EngineSnapshot, SodaConfig};
use soda_relation::parse_select;
use soda_warehouse::minibank;

/// Printable ASCII plus Latin-1, Greek, Cyrillic, CJK, kana, emoji,
/// combining marks and zero-width characters: multi-byte UTF-8 of every
/// width, up to 200 characters.
const UNICODE_INPUT: &str = "[ -~¡-ÿΑ-ωА-я一-丿ぁ-ん😀-🙏\u{300}-\u{36F}\u{200B}-\u{200D}]{0,200}";

fn minibank_engine() -> EngineSnapshot {
    let (db, graph) = minibank::build(42).shared_parts();
    EngineSnapshot::build(db, graph, SodaConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The input parser never panics on arbitrary Unicode input, and any
    /// successfully parsed query preserves at least one term.
    #[test]
    fn query_parser_never_panics(input in UNICODE_INPUT) {
        if let Ok(query) = parse_query(&input) { prop_assert!(!query.terms.is_empty()) }
    }

    /// Keyword-only inputs over a small vocabulary always yield SQL that both
    /// parses and executes on the warehouse.
    #[test]
    fn generated_sql_is_always_executable(
        words in proptest::collection::vec(
            prop_oneof![
                Just("customers"), Just("Zurich"), Just("financial"), Just("instruments"),
                Just("Sara"), Just("wealthy"), Just("trading"), Just("volume"),
                Just("private"), Just("organizations"), Just("gibberishword")
            ],
            1..5
        )
    ) {
        // Building the engine per case would dominate; a thread-local
        // engine keeps the property fast.
        thread_local! {
            static ENGINE: EngineSnapshot = minibank_engine();
        }
        ENGINE.with(|engine| {
            let input = words.join(" ");
            if let Ok(results) = engine.search(&input) {
                for r in results {
                    let parsed = parse_select(&r.sql);
                    prop_assert!(parsed.is_ok(), "unparseable SQL: {}", r.sql);
                    prop_assert!(
                        engine.database().run_sql(&r.sql).is_ok(),
                        "inexecutable SQL: {}",
                        r.sql
                    );
                    prop_assert!(!r.tables.is_empty());
                }
            }
            Ok(())
        })?;
    }

    /// Results are returned in non-increasing score order and scores stay
    /// within the weight range (0, 1].
    #[test]
    fn ranking_scores_are_sorted_and_bounded(
        words in proptest::collection::vec(
            prop_oneof![
                Just("customers"), Just("Zurich"), Just("instruments"),
                Just("Sara"), Just("salary"), Just("transactions")
            ],
            1..4
        )
    ) {
        thread_local! {
            static ENGINE: EngineSnapshot = minibank_engine();
        }
        ENGINE.with(|engine| {
            if let Ok(results) = engine.search(&words.join(" ")) {
                for pair in results.windows(2) {
                    prop_assert!(pair[0].score >= pair[1].score);
                }
                for r in &results {
                    prop_assert!(r.score > 0.0 && r.score <= 1.0);
                }
            }
            Ok(())
        })?;
    }
}
