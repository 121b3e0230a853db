//! Fact ingest, parser to database: `parse_program` + `load_facts` must
//! build exactly the database that inserting each fact with
//! `Database::insert`, in source order, builds. Same predicates, equal
//! relations with identical row order, equal `fact_count`.
//!
//! The sources interleave predicates, repeat facts, use arities 0–3,
//! negative and extreme integers, bare and quoted symbols with escapes,
//! and non-ASCII text. The last test runs `mpq` on a non-ASCII symbol.

use mp_datalog::parser::parse_program;
use mp_datalog::{Database, Predicate};
use mp_storage::{Tuple, Value};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::Arc;

const PREDS: [&str; 4] = ["e", "f_2", "count", "p0"];
const EXTREMES: [i64; 5] = [i64::MIN, i64::MAX, i64::MIN + 1, -1, 0];
const IDENTS: [&str; 4] = ["a", "b_1", "sum", "zed"];
const PIECES: [&str; 11] = [
    "x", "\"", "\\", "\n", "\t", "é", "日本", "🦀", " ", "%", ".",
];
const SEPARATORS: [&str; 4] = [" ", "\n", "  % a comment, with ) and .\n", "\t"];

/// One generated term: its source text and the value it denotes.
fn term(kind: u8, raw: u64) -> (String, Value) {
    match kind {
        0 => {
            let i = (raw % 7) as i64 - 3;
            (i.to_string(), Value::int(i))
        }
        1 => {
            let i = EXTREMES[(raw % 5) as usize];
            (i.to_string(), Value::int(i))
        }
        2 => ((raw as i64).to_string(), Value::int(raw as i64)),
        3 => {
            let s = IDENTS[(raw % 4) as usize];
            (s.to_string(), Value::str(s))
        }
        4 => {
            let mut text = String::new();
            let mut src = String::from("\"");
            for k in 0..(raw % 5) {
                let piece = PIECES[((raw >> (4 * k + 3)) % 11) as usize];
                text.push_str(piece);
                match piece {
                    "\"" => src.push_str("\\\""),
                    "\\" => src.push_str("\\\\"),
                    "\n" => src.push_str("\\n"),
                    "\t" => src.push_str("\\t"),
                    // An escaped ordinary character is the character.
                    "é" if raw & 1 == 1 => src.push_str("\\é"),
                    other => src.push_str(other),
                }
            }
            src.push('"');
            (src, Value::str(text))
        }
        // A small pool, so whole facts repeat.
        _ => {
            let i = (raw % 2) as i64;
            (i.to_string(), Value::int(i))
        }
    }
}

type Fact = (usize, (u8, u64), (u8, u64), (u8, u64));

/// Render `facts` as source text and insert each into a reference
/// database, one `Database::insert` per fact.
fn render(facts: &[Fact], arities: [usize; 4], reference: &mut Database) -> String {
    let mut src = String::new();
    for (n, &(p, a, b, c)) in facts.iter().enumerate() {
        let arity = arities[p];
        let terms: Vec<(String, Value)> = [a, b, c][..arity]
            .iter()
            .map(|&(kind, raw)| term(kind, raw))
            .collect();
        src.push_str(PREDS[p]);
        if arity > 0 {
            let args: Vec<&str> = terms.iter().map(|(s, _)| s.as_str()).collect();
            write!(src, "({})", args.join(", ")).unwrap();
        }
        src.push('.');
        src.push_str(SEPARATORS[n % SEPARATORS.len()]);
        let tuple: Tuple = terms.into_iter().map(|(_, v)| v).collect();
        reference.insert(PREDS[p], tuple).unwrap();
    }
    src
}

fn same_database(got: &Database, want: &Database) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.predicates().collect::<Vec<_>>(),
        want.predicates().collect::<Vec<_>>()
    );
    for (pred, rel) in want.iter() {
        let mine = got.relation(pred).unwrap();
        prop_assert_eq!(mine.arity(), rel.arity(), "arity of {}", pred);
        prop_assert_eq!(mine.rows(), rel.rows(), "rows of {}", pred);
        prop_assert!(mine == rel, "relation {} differs", pred);
    }
    prop_assert_eq!(got.fact_count(), want.fact_count());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn parsed_facts_load_like_inserted_facts(
        arities in (0usize..4, 0usize..4, 0usize..4, 0usize..4),
        facts in prop::collection::vec(
            (0usize..4, (0u8..6, 0u64..u64::MAX), (0u8..6, 0u64..u64::MAX), (0u8..6, 0u64..u64::MAX)),
            0..120,
        ),
        preload in prop::collection::vec((0u8..6, 0u64..u64::MAX), 0..4),
    ) {
        let arities = [arities.0, arities.1, arities.2, arities.3];
        let mut reference = Database::new();
        let src = render(&facts, arities, &mut reference);
        let program = parse_program(&src).map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;
        prop_assert!(program.rules.is_empty());

        let mut db = Database::new();
        program.load_facts(&mut db).unwrap();
        same_database(&db, &reference)?;

        // Loading again changes nothing and copies nothing.
        let before: Vec<Arc<_>> = db.predicates().map(|p| db.shared_relation(p).unwrap()).collect();
        program.load_facts(&mut db).unwrap();
        same_database(&db, &reference)?;
        for (p, rel) in db.predicates().zip(&before) {
            prop_assert!(Arc::ptr_eq(&db.shared_relation(p).unwrap(), rel));
        }

        // A relation the caller filled first keeps its rows, and the
        // program's facts follow in source order.
        let e = Predicate::new(PREDS[0]);
        let mut filled = Database::new();
        let mut reference = Database::new();
        for &(kind, raw) in &preload {
            let v = term(kind, raw).1;
            let t: Tuple = (0..arities[0]).map(|_| v).collect();
            filled.insert(e.clone(), t.clone()).unwrap();
            reference.insert(e.clone(), t).unwrap();
        }
        render(&facts, arities, &mut reference);
        program.load_facts(&mut filled).unwrap();
        same_database(&filled, &reference)?;
    }
}

#[test]
fn a_source_with_every_term_kind_round_trips() {
    let mut reference = Database::new();
    let facts: Vec<Fact> = (0..6u8)
        .flat_map(|kind| {
            (0..40u64)
                .map(move |raw| (raw as usize % 4, (kind, raw * 7919), (5, raw), (kind, !raw)))
        })
        .collect();
    let src = render(&facts, [2, 3, 1, 0], &mut reference);
    let program = parse_program(&src).unwrap();
    let mut db = Database::new();
    program.load_facts(&mut db).unwrap();
    assert_eq!(db.fact_count(), reference.fact_count());
    for (pred, rel) in reference.iter() {
        assert_eq!(db.relation(pred).unwrap().rows(), rel.rows(), "{pred}");
    }
}

#[test]
fn mpq_prints_non_ascii_symbols_as_written() {
    let src = "p(\"héllo\"). p(\"日本\"). q(X) :- p(X).\n?- q(X).\n";
    for args in [&[][..], &["--baseline", "naive"][..]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mpq"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("mpq runs");
        child
            .stdin
            .take()
            .expect("stdin is piped")
            .write_all(src.as_bytes())
            .expect("mpq reads stdin");
        let out = child.wait_with_output().expect("mpq exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            "(héllo)\n(日本)\n",
            "{args:?}"
        );
    }
}
