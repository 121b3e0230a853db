//! Programs: the IDB (PIDB ∪ query rules) plus §1 well-formedness checks.

use crate::facts::FactTables;
use crate::{Database, DatalogError, FactTable, Predicate, Rule, GOAL};
use std::collections::BTreeMap;

/// An intentional database: the union of the permanent IDB and the query
/// rules (§1). Facts encountered in source text are kept separately, as
/// tables, so they can be loaded into a [`Database`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Proper rules (nonempty body).
    pub rules: Vec<Rule>,
    /// Inline facts: one table per predicate and arity (plus one entry
    /// per non-ground fact), in order of first appearance.
    pub facts: Vec<FactTable>,
}

impl Program {
    /// Build a program from rules, separating out facts into tables.
    pub fn new(rules: Vec<Rule>) -> Self {
        let mut facts = FactTables::default();
        for r in rules.iter().filter(|r| r.is_fact()) {
            facts.push(r.head.pred.name(), &r.head.terms, None);
        }
        let facts = facts.finish();
        Program {
            rules: rules.into_iter().filter(|r| !r.is_fact()).collect(),
            facts,
        }
    }

    /// The goal predicate.
    pub fn goal_pred() -> Predicate {
        Predicate::new(GOAL)
    }

    /// Rules whose head is `goal` (the query, §1).
    pub fn query_rules(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.rules.iter().filter(|r| r.head.pred.name() == GOAL)
    }

    /// Rules whose head is not `goal` (the PIDB, §1).
    pub fn pidb_rules(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.rules.iter().filter(|r| r.head.pred.name() != GOAL)
    }

    /// All rules defining `pred` (by name and arity).
    pub fn rules_for(&self, pred: &Predicate, arity: usize) -> Vec<&Rule> {
        self.rules
            .iter()
            .filter(|r| r.head.pred == *pred && r.head.arity() == arity)
            .collect()
    }

    /// Predicates appearing in rule heads (the IDB predicates), in name
    /// order with their arities.
    pub fn idb_predicates(&self) -> BTreeMap<Predicate, usize> {
        let mut out = BTreeMap::new();
        for r in &self.rules {
            out.entry(r.head.pred.clone())
                .or_insert_with(|| r.head.arity());
        }
        out
    }

    /// Load this program's inline facts into a database: each table is
    /// shared into it (see `Database::load_relation`). Stops at the first
    /// arity conflict or non-ground fact.
    pub fn load_facts(&self, db: &mut Database) -> Result<(), DatalogError> {
        for table in &self.facts {
            match table {
                FactTable::Rows { pred, rows, .. } => db.load_relation(pred, rows)?,
                FactTable::NonGround { atom, .. } => {
                    return Err(DatalogError::NonGroundFact {
                        atom: atom.to_string(),
                    })
                }
            }
        }
        Ok(())
    }

    /// Validate the program against the §1 conditions relative to `db`:
    ///
    /// 1. every rule is range-restricted (safe);
    /// 2. no EDB predicate occurs positively (in a head) in the IDB;
    /// 3. `goal` occurs in no rule body;
    /// 4. at least one `goal` rule exists;
    /// 5. every predicate has a single arity across the program and EDB;
    /// 6. inline facts are ground.
    pub fn validate(&self, db: &Database) -> Result<(), DatalogError> {
        let mut arities: BTreeMap<Predicate, usize> = BTreeMap::new();
        for (p, r) in db.iter() {
            arities.insert(p.clone(), r.arity());
        }
        let mut check_arity = |pred: &Predicate, arity: usize| -> Result<(), DatalogError> {
            match arities.get(pred) {
                Some(&n) if n != arity => Err(DatalogError::ArityConflict {
                    pred: pred.name().to_string(),
                    a: n,
                    b: arity,
                }),
                Some(_) => Ok(()),
                None => {
                    arities.insert(pred.clone(), arity);
                    Ok(())
                }
            }
        };

        let mut has_query = false;
        for r in &self.rules {
            check_arity(&r.head.pred, r.head.arity())?;
            for b in r.body.iter().chain(r.neg.iter()) {
                check_arity(&b.pred, b.arity())?;
                if b.pred.name() == GOAL {
                    return Err(DatalogError::GoalInBody);
                }
            }
            if let Some(v) = r.unsafe_var() {
                return Err(DatalogError::UnsafeRule {
                    rule: r.to_string(),
                    var: v.name().to_string(),
                });
            }
            if db.contains_pred(&r.head.pred) {
                return Err(DatalogError::EdbPredicateInHead {
                    pred: r.head.pred.name().to_string(),
                });
            }
            if r.head.pred.name() == GOAL {
                has_query = true;
            }
        }
        for table in &self.facts {
            check_arity(table.pred(), table.arity())?;
            if let FactTable::NonGround { atom, .. } = table {
                return Err(DatalogError::NonGroundFact {
                    atom: atom.to_string(),
                });
            }
        }
        if !has_query {
            return Err(DatalogError::NoQuery);
        }
        Ok(())
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for table in &self.facts {
            write!(f, "{table}")?;
        }
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, Atom, Term};
    use mp_storage::tuple;

    fn tc_program() -> Program {
        Program::new(vec![
            Rule::new(atom!("goal"; var "Z"), vec![atom!("path"; val 1, var "Z")]),
            Rule::new(
                atom!("path"; var "X", var "Y"),
                vec![atom!("edge"; var "X", var "Y")],
            ),
            Rule::new(
                atom!("path"; var "X", var "Z"),
                vec![
                    atom!("path"; var "X", var "Y"),
                    atom!("edge"; var "Y", var "Z"),
                ],
            ),
        ])
    }

    fn edb() -> Database {
        let mut db = Database::new();
        db.insert("edge", tuple![1, 2]).unwrap();
        db
    }

    #[test]
    fn valid_program_passes() {
        tc_program().validate(&edb()).unwrap();
    }

    #[test]
    fn query_and_pidb_split() {
        let p = tc_program();
        assert_eq!(p.query_rules().count(), 1);
        assert_eq!(p.pidb_rules().count(), 2);
        assert_eq!(p.rules_for(&Predicate::new("path"), 2).len(), 2);
        assert_eq!(p.rules_for(&Predicate::new("path"), 3).len(), 0);
    }

    #[test]
    fn rejects_edb_head() {
        let mut p = tc_program();
        p.rules.push(Rule::new(
            atom!("edge"; var "X", var "X"),
            vec![atom!("path"; var "X", var "X")],
        ));
        assert!(matches!(
            p.validate(&edb()),
            Err(DatalogError::EdbPredicateInHead { .. })
        ));
    }

    #[test]
    fn rejects_goal_in_body() {
        let mut p = tc_program();
        p.rules
            .push(Rule::new(atom!("q"; var "X"), vec![atom!("goal"; var "X")]));
        assert_eq!(p.validate(&edb()), Err(DatalogError::GoalInBody));
    }

    #[test]
    fn rejects_unsafe_rule() {
        let mut p = tc_program();
        p.rules.push(Rule::new(
            atom!("q"; var "X", var "W"),
            vec![atom!("path"; var "X", var "X")],
        ));
        assert!(matches!(
            p.validate(&edb()),
            Err(DatalogError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn negated_subgoals_are_validated_too() {
        // Arity conflicts and goal-in-body apply to negated subgoals.
        let mut p = tc_program();
        p.rules.push(
            Rule::new(atom!("q"; var "X"), vec![atom!("path"; var "X", var "X")])
                .with_neg(vec![atom!("path"; var "X")]),
        );
        assert!(matches!(
            p.validate(&edb()),
            Err(DatalogError::ArityConflict { .. })
        ));

        let mut p = tc_program();
        p.rules.push(
            Rule::new(atom!("q"; var "X"), vec![atom!("path"; var "X", var "X")])
                .with_neg(vec![atom!("goal"; var "X")]),
        );
        assert_eq!(p.validate(&edb()), Err(DatalogError::GoalInBody));
    }

    #[test]
    fn rejects_missing_query() {
        let p = Program::new(vec![Rule::new(
            atom!("p"; var "X"),
            vec![atom!("e"; var "X")],
        )]);
        assert_eq!(p.validate(&Database::new()), Err(DatalogError::NoQuery));
    }

    #[test]
    fn rejects_arity_conflict() {
        let mut p = tc_program();
        p.rules.push(Rule::new(
            atom!("q"; var "X"),
            vec![atom!("path"; var "X", var "X", var "X")],
        ));
        assert!(matches!(
            p.validate(&edb()),
            Err(DatalogError::ArityConflict { .. })
        ));
    }

    #[test]
    fn facts_are_separated_and_loadable() {
        let fact = |a: i64, b: i64| Rule::fact(Atom::new("edge", vec![Term::val(a), Term::val(b)]));
        let p = Program::new(vec![
            fact(1, 2),
            Rule::new(
                atom!("goal"; var "X"),
                vec![atom!("edge"; var "X", var "X")],
            ),
            fact(2, 3),
            fact(1, 2),
        ]);
        // One table for `edge`, its rows deduplicated in source order.
        assert_eq!(p.facts.len(), 1);
        assert_eq!(p.rules.len(), 1);
        let FactTable::Rows { rows, span, .. } = &p.facts[0] else {
            panic!("ground facts make a row table")
        };
        assert_eq!(rows.rows(), &[tuple![1, 2], tuple![2, 3]]);
        assert_eq!(*span, None);
        let mut db = Database::new();
        p.load_facts(&mut db).unwrap();
        assert_eq!(db.fact_count(), 2);
        assert!(std::sync::Arc::ptr_eq(
            &db.shared_relation(&Predicate::new("edge")).unwrap(),
            rows
        ));
        assert_eq!(
            p.to_string(),
            "edge(1, 2).\nedge(2, 3).\ngoal(X) :- edge(X, X).\n"
        );
    }

    #[test]
    fn fact_tables_are_validated() {
        let mut p = tc_program();
        p.facts = Program::new(vec![Rule::fact(atom!("path"; val 1))]).facts;
        assert!(matches!(
            p.validate(&edb()),
            Err(DatalogError::ArityConflict { .. })
        ));
        p.facts = Program::new(vec![Rule::fact(atom!("edge"; var "X", val 1))]).facts;
        assert!(matches!(p.facts[0], FactTable::NonGround { .. }));
        assert!(matches!(
            p.validate(&edb()),
            Err(DatalogError::NonGroundFact { .. })
        ));
        assert!(matches!(
            p.load_facts(&mut Database::new()),
            Err(DatalogError::NonGroundFact { .. })
        ));
    }
}
