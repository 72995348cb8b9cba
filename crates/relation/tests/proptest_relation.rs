//! Property-based tests of the relational substrate: value ordering, LIKE
//! matching, SQL printer/parser round trips and executor invariants.

use proptest::prelude::*;

use soda_relation::exec::eval::like_match;
use soda_relation::{
    parse_select, print_select, CompareOp, DataType, Database, Date, Expr, TableSchema, Value,
};

/// Printable ASCII (quotes included) plus Latin-1, Greek, Cyrillic, CJK,
/// kana, emoji, combining marks and zero-width characters: multi-byte
/// UTF-8 of every width.
const UNICODE_TEXT: &str = "[ -~¡-ÿΑ-ωА-я一-丿ぁ-ん😀-🙏\u{300}-\u{36F}\u{200B}-\u{200D}]{0,200}";

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1.0e6..1.0e6).prop_map(Value::Float),
        "[a-zA-Z ]{0,12}".prop_map(Value::Text),
        (1980i32..2030, 1u8..13, 1u8..29).prop_map(|(y, m, d)| Value::Date(Date::new(y, m, d))),
    ]
}

proptest! {
    /// The total order used for sorting is reflexive-consistent, antisymmetric
    /// in outcome and agrees with equality.
    #[test]
    fn total_cmp_is_consistent(a in value_strategy(), b in value_strategy()) {
        use std::cmp::Ordering;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab.reverse(), ba);
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        if a == b {
            prop_assert_eq!(ab, Ordering::Equal);
        }
    }

    /// Equal values hash identically (required for hash joins and grouping).
    #[test]
    fn eq_implies_same_hash(a in value_strategy(), b in value_strategy()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if a == b {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    /// `%text%` always matches a string containing `text`, and a pattern
    /// without wildcards only matches (case-insensitively) itself.
    #[test]
    fn like_matching_properties(text in "[a-zA-Z ]{0,16}", needle in "[a-zA-Z]{1,6}") {
        let padded = format!("xx{needle}yy {text}");
        let pattern = format!("%{needle}%");
        prop_assert!(like_match(&padded, &pattern));
        prop_assert!(like_match(&text, &text));
        prop_assert_eq!(like_match(&text, &needle), text.eq_ignore_ascii_case(&needle));
    }

    /// Dates parse/display round trip and ordering follows the calendar.
    #[test]
    fn date_round_trip(y in 1900i32..2100, m in 1u8..13, d in 1u8..29) {
        let date = Date::new(y, m, d);
        prop_assert_eq!(Date::parse(&date.to_string()), Some(date));
        let later = Date::new(y, m, d + 1);
        prop_assert!(later > date);
    }

    /// Printer output re-parses to the same statement for generated SELECTs.
    #[test]
    fn sql_print_parse_round_trip(
        limit in proptest::option::of(1usize..100),
        distinct in any::<bool>(),
        value in 0i64..1_000_000,
    ) {
        let mut sql = String::from("SELECT ");
        if distinct {
            sql.push_str("DISTINCT ");
        }
        sql.push_str("a.x, sum(a.y) FROM a, b WHERE a.id = b.id AND a.x >= ");
        sql.push_str(&value.to_string());
        sql.push_str(" GROUP BY a.x ORDER BY sum(a.y) DESC");
        if let Some(l) = limit {
            sql.push_str(&format!(" LIMIT {l}"));
        }
        let stmt = parse_select(&sql).unwrap();
        let printed = print_select(&stmt);
        let reparsed = parse_select(&printed).unwrap();
        prop_assert_eq!(stmt, reparsed);
    }

    /// A quoted literal of any Unicode text (quotes doubled) parses back to
    /// exactly that text — multi-byte characters are never split.
    #[test]
    fn string_literals_round_trip_any_unicode(text in UNICODE_TEXT) {
        let sql = format!("SELECT * FROM t WHERE c = '{}'", text.replace('\'', "''"));
        let stmt = parse_select(&sql).unwrap();
        let want = Date::parse(&text).map_or_else(|| Value::Text(text.clone()), Value::Date);
        match stmt.selection {
            Some(Expr::Compare { op: CompareOp::Eq, right, .. }) => {
                prop_assert_eq!(*right, Expr::Literal(want));
            }
            other => prop_assert!(false, "unexpected selection {:?}", other),
        }
    }
}

/// Executor invariants over a small randomly populated table.
fn populated_db(salaries: &[i64]) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("person")
            .column("id", DataType::Int)
            .column("salary", DataType::Int)
            .primary_key("id")
            .build(),
    )
    .unwrap();
    for (i, s) in salaries.iter().enumerate() {
        db.insert("person", vec![Value::Int(i as i64), Value::Int(*s)])
            .unwrap();
    }
    db
}

proptest! {
    /// A filter never returns more rows than the table, LIMIT caps the output,
    /// and count(*) equals the filtered row count.
    #[test]
    fn filters_limits_and_counts_agree(
        salaries in proptest::collection::vec(0i64..200_000, 0..40),
        threshold in 0i64..200_000,
        limit in 1usize..10,
    ) {
        let db = populated_db(&salaries);
        let filtered = db
            .run_sql(&format!("SELECT id FROM person WHERE salary >= {threshold}"))
            .unwrap();
        let expected = salaries.iter().filter(|s| **s >= threshold).count();
        prop_assert_eq!(filtered.row_count(), expected);

        let limited = db
            .run_sql(&format!(
                "SELECT id FROM person WHERE salary >= {threshold} LIMIT {limit}"
            ))
            .unwrap();
        prop_assert_eq!(limited.row_count(), expected.min(limit));

        let counted = db
            .run_sql(&format!("SELECT count(*) FROM person WHERE salary >= {threshold}"))
            .unwrap();
        prop_assert_eq!(counted.rows()[0][0].clone(), Value::Int(expected as i64));
    }

    /// A self equi-join on the primary key returns exactly the table rows.
    #[test]
    fn self_join_on_primary_key_is_identity(
        salaries in proptest::collection::vec(0i64..100_000, 0..30),
    ) {
        let db = populated_db(&salaries);
        let joined = db
            .run_sql("SELECT a.id FROM person a, person b WHERE a.id = b.id")
            .unwrap();
        prop_assert_eq!(joined.row_count(), salaries.len());
    }

    /// Aggregation over groups preserves the total: the sum of per-group
    /// counts equals the number of rows.
    #[test]
    fn group_counts_sum_to_row_count(
        salaries in proptest::collection::vec(0i64..5, 1..50),
    ) {
        let db = populated_db(&salaries);
        let grouped = db
            .run_sql("SELECT salary, count(*) FROM person GROUP BY salary")
            .unwrap();
        let total: i64 = grouped
            .rows()
            .iter()
            .map(|r| r[1].as_i64().unwrap())
            .sum();
        prop_assert_eq!(total as usize, salaries.len());
    }
}
