//! The EDB passes every compile runs — `DbStats::of` and the sort
//! seeds of `SortAnalysis::infer` — against straightforward reference
//! computations: a `BTreeSet` of distinct values per column, a
//! `BTreeMap` of degree counts, and a fold of one single-value sort per
//! row through `SortSet::union_with`. The column kernels must agree with
//! them exactly on random relations, and at the widening cap.

use mp_analyze::sorts::{SortAnalysis, SortSet, DEFAULT_WIDEN_CAP};
use mp_datalog::{Database, DbStats, Predicate, Program, RelationStats};
use mp_storage::{Relation, Tuple, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Reference statistics: distinct values through a `BTreeSet` per
/// column, degrees of binary relations through a `BTreeMap` per column.
fn reference_stats(rel: &Relation) -> RelationStats {
    let arity = rel.arity();
    let mut seen: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); arity];
    for t in rel.iter() {
        for (c, s) in seen.iter_mut().enumerate() {
            s.insert(t[c]);
        }
    }
    let (max_out_degree, max_in_degree) = if arity == 2 {
        let mut out: BTreeMap<Value, usize> = BTreeMap::new();
        let mut inn: BTreeMap<Value, usize> = BTreeMap::new();
        for t in rel.iter() {
            *out.entry(t[0]).or_insert(0) += 1;
            *inn.entry(t[1]).or_insert(0) += 1;
        }
        (
            Some(out.values().copied().max().unwrap_or(0)),
            Some(inn.values().copied().max().unwrap_or(0)),
        )
    } else {
        (None, None)
    };
    RelationStats {
        rows: rel.len(),
        distinct: seen.iter().map(BTreeSet::len).collect(),
        max_out_degree,
        max_in_degree,
    }
}

/// Reference sort seeds: every value of every row joined in as its own
/// one-element sort.
fn reference_sorts(rel: &Relation, cap: usize) -> Vec<SortSet> {
    let mut cols = vec![SortSet::empty(); rel.arity()];
    for t in rel.iter() {
        for (c, slot) in cols.iter_mut().enumerate() {
            slot.union_with(&SortSet::Values(BTreeSet::from([t[c]])), cap);
        }
    }
    cols
}

/// The seeded sorts of `db`: inference over a program with no rules.
fn seeded_sorts(db: &Database, cap: usize) -> BTreeMap<Predicate, Vec<SortSet>> {
    SortAnalysis::infer(&Program::default(), db, cap).sorts
}

/// Column kinds: 0 integers, 1 symbols, 2 both (by parity).
fn value(kind: u8, raw: u16, spread: u16) -> Value {
    let v = raw % spread;
    match kind {
        0 => Value::int(i64::from(v)),
        1 => Value::str(format!("s{v}")),
        _ if v % 2 == 1 => Value::str(format!("m{v}")),
        _ => Value::int(i64::from(v)),
    }
}

fn check(db: &Database, cap: usize) -> Result<(), TestCaseError> {
    let stats = DbStats::of(db);
    let sorts = seeded_sorts(db, cap);
    prop_assert_eq!(stats.len(), db.predicates().count());
    for (pred, rel) in db.iter() {
        prop_assert_eq!(stats.relation(pred), Some(&reference_stats(rel)));
        prop_assert_eq!(sorts.get(pred), Some(&reference_sorts(rel, cap)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn column_kernels_match_the_reference(
        arity in 0usize..4,
        kinds in (0u8..3, 0u8..3, 0u8..3),
        spread in 1u16..400,
        rows in prop::collection::vec((0u16..u16::MAX, 0u16..u16::MAX, 0u16..u16::MAX), 0..601),
        cap in 0usize..300,
    ) {
        let kinds = [kinds.0, kinds.1, kinds.2];
        let mut db = Database::new();
        db.declare("r", arity).unwrap();
        for &(a, b, c) in &rows {
            let raw = [a, b, c];
            let t: Tuple = (0..arity).map(|i| value(kinds[i], raw[i], spread)).collect();
            db.insert("r", t).unwrap();
        }
        // A second, empty relation of the same arity.
        db.declare("empty", arity).unwrap();
        // Caps at, just under and just over each column's distinct count
        // put every column on both sides of the widening boundary.
        let distinct = DbStats::of(&db).relation(&Predicate::new("r")).unwrap().distinct.clone();
        let mut caps = BTreeSet::from([cap, DEFAULT_WIDEN_CAP]);
        for d in distinct {
            caps.extend([d.saturating_sub(1), d, d + 1]);
        }
        for cap in caps {
            check(&db, cap)?;
        }
    }
}

/// A unary relation of `n` distinct values, interleaving integers and
/// symbols when `mixed`.
fn distinct_values(n: usize, mixed: bool) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        let v = if mixed && i % 2 == 1 {
            Value::str(format!("v{i}"))
        } else {
            Value::int(i as i64)
        };
        db.insert("r", std::iter::once(v).collect()).unwrap();
    }
    db
}

#[test]
fn a_column_at_the_cap_keeps_its_values() {
    for mixed in [false, true] {
        let db = distinct_values(DEFAULT_WIDEN_CAP, mixed);
        let sorts = seeded_sorts(&db, DEFAULT_WIDEN_CAP);
        let col = &sorts[&Predicate::new("r")][0];
        assert_eq!(col.size(), Some(DEFAULT_WIDEN_CAP));
        assert_eq!(
            col,
            &reference_sorts(
                db.relation(&Predicate::new("r")).unwrap(),
                DEFAULT_WIDEN_CAP
            )[0]
        );
        let stats = DbStats::of(&db);
        assert_eq!(
            stats.relation(&Predicate::new("r")).unwrap().distinct,
            vec![DEFAULT_WIDEN_CAP]
        );
    }
}

#[test]
fn a_column_past_the_cap_widens_to_its_types() {
    for mixed in [false, true] {
        let db = distinct_values(DEFAULT_WIDEN_CAP + 1, mixed);
        let sorts = seeded_sorts(&db, DEFAULT_WIDEN_CAP);
        let col = &sorts[&Predicate::new("r")][0];
        assert_eq!(
            col,
            &SortSet::Top {
                ints: true,
                syms: mixed
            }
        );
        assert_eq!(
            col,
            &reference_sorts(
                db.relation(&Predicate::new("r")).unwrap(),
                DEFAULT_WIDEN_CAP
            )[0]
        );
        let stats = DbStats::of(&db);
        assert_eq!(
            stats.relation(&Predicate::new("r")).unwrap().distinct,
            vec![DEFAULT_WIDEN_CAP + 1]
        );
    }
}
