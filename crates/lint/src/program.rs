//! Program lints (`MP001`–`MP012`): the §1 well-formedness conditions,
//! checked over the Datalog AST with per-clause spans.
//!
//! These subsume `Program::validate` — every condition `validate` rejects
//! maps to a deny-level code here — and add advisory lints (`MP006`
//! unreachable predicates, `MP007` singleton variables) that `validate`
//! has no channel for, plus the rule-local safety half of the
//! stratification story: `MP011` (negated subgoals must range over
//! positively-bound variables) and `MP012` (aggregate well-formedness).
//! The global half — stratum inference, `MP009`/`MP010` — needs the
//! dependency graph and lives in `mp-analyze`'s `stratify` pass.

use crate::{Code, Diagnostic};
use mp_datalog::analysis::DependencyAnalysis;
use mp_datalog::{Database, FactTable, Predicate, Program, Rule, SourceMap, GOAL};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Where a predicate's arity was first seen, for MP002's message.
#[derive(Clone, Copy)]
enum Site<'p> {
    Database,
    Rule(&'p Rule),
    /// A fact table, named by its first fact.
    Fact(&'p FactTable),
}

impl fmt::Display for Site<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Database => f.write_str("the database"),
            Site::Rule(r) => write!(f, "rule `{r}`"),
            Site::Fact(t) => write!(f, "fact `{}.`", t.first_fact()),
        }
    }
}

/// Lint a program. `db` supplies externally-loaded EDB relations (arities
/// and EDB/IDB separation are checked against it when present); `spans`
/// attaches source positions to clause-level diagnostics when the program
/// came from [`mp_datalog::parse_program_with_spans`].
pub fn lint_program<'p>(
    program: &'p Program,
    db: Option<&'p Database>,
    spans: Option<&SourceMap>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let rule_span = |i: usize| spans.and_then(|m| m.rule(i));

    // MP002: one arity per predicate, across rules, facts, and the EDB.
    // Report each conflicting predicate once, at its first conflicting use.
    // Sites are described lazily: the text is only needed on a conflict.
    let mut arities: BTreeMap<&str, (usize, Site)> = BTreeMap::new();
    if let Some(db) = db {
        for (p, r) in db.iter() {
            arities.insert(p.name(), (r.arity(), Site::Database));
        }
    }
    let mut reported = BTreeSet::new();
    let mut check_arity = |pred: &'p Predicate,
                           arity: usize,
                           site: Site<'p>,
                           span,
                           diags: &mut Vec<Diagnostic>| {
        match arities.get(pred.name()) {
            Some(&(n, first)) if n != arity => {
                if reported.insert(pred.name()) {
                    diags.push(
                        Diagnostic::new(
                            Code::ArityConflict,
                            format!(
                                "predicate `{}` used with arity {} in {}, but with arity {} in {}",
                                pred.name(),
                                arity,
                                site,
                                n,
                                first
                            ),
                        )
                        .with_span(span)
                        .with_note("every predicate must have a single arity across the program and the EDB"),
                    );
                }
            }
            Some(_) => {}
            None => {
                arities.insert(pred.name(), (arity, site));
            }
        }
    };
    let fact_preds: BTreeSet<&Predicate> = program.facts.iter().map(FactTable::pred).collect();

    let mut has_query = false;
    for (i, r) in program.rules.iter().enumerate() {
        let span = rule_span(i);
        check_arity(
            &r.head.pred,
            r.head.arity(),
            Site::Rule(r),
            span,
            &mut diags,
        );
        for b in r.body.iter().chain(r.neg.iter()) {
            check_arity(&b.pred, b.arity(), Site::Rule(r), span, &mut diags);
            // MP004: `goal` may not be a subgoal (of either polarity).
            if b.pred.name() == GOAL {
                diags.push(
                    Diagnostic::new(
                        Code::GoalInBody,
                        format!("the query predicate `{GOAL}` occurs in the body of `{r}`"),
                    )
                    .with_span(span)
                    .with_note(
                        "`goal` is the distinguished query head (§1); it cannot be a subgoal",
                    ),
                );
            }
        }
        if r.head.pred.name() == GOAL {
            has_query = true;
        }

        // MP001: range restriction / safety.
        if let Some(v) = r.unsafe_var() {
            diags.push(
                Diagnostic::new(
                    Code::UnsafeRule,
                    format!(
                        "rule `{r}` is unsafe: head variable `{}` does not occur in the body",
                        v.name()
                    ),
                )
                .with_span(span)
                .with_note(
                    "range restriction (§1): every head variable must be bound by a body subgoal",
                ),
            );
        }

        // MP003: a rule head that already has EDB facts.
        let inline_fact = fact_preds.contains(&r.head.pred);
        let in_db = db.is_some_and(|d| d.contains_pred(&r.head.pred));
        if inline_fact || in_db {
            diags.push(
                Diagnostic::new(
                    Code::EdbIdbOverlap,
                    format!(
                        "predicate `{}` has {} facts but is derived by rule `{r}`",
                        r.head.pred.name(),
                        if in_db { "database" } else { "asserted" },
                    ),
                )
                .with_span(span)
                .with_note(
                    "§1 requires EDB and IDB predicates to be disjoint; goal nodes assume \
                     a predicate is either stored or derived, never both",
                ),
            );
        }

        // MP011: safety of negation. Every variable in a negated subgoal
        // must be bound by a positive subgoal, and there must be at least
        // one positive subgoal for the negation to filter.
        let pos_vars: std::collections::BTreeSet<&str> = r
            .body
            .iter()
            .flat_map(|a| a.terms.iter())
            .filter_map(|t| t.as_var().map(|v| v.name()))
            .collect();
        if !r.neg.is_empty() && r.body.is_empty() {
            diags.push(
                Diagnostic::new(
                    Code::UnsafeNegation,
                    format!("rule `{r}` has negated subgoals but no positive subgoal"),
                )
                .with_span(span)
                .with_note(
                    "negation filters positive bindings; with no positive subgoal it would \
                     range over the infinite complement",
                ),
            );
        }
        for n in &r.neg {
            for v in n.vars() {
                if !pos_vars.contains(v.name()) {
                    diags.push(
                        Diagnostic::new(
                            Code::UnsafeNegation,
                            format!(
                                "negated subgoal `!{n}` in rule `{r}` uses variable `{}` \
                                 not bound by any positive subgoal",
                                v.name()
                            ),
                        )
                        .with_span(span)
                        .with_note(
                            "bind the variable positively, or project it away through a \
                             helper predicate before negating",
                        ),
                    );
                }
            }
        }

        // MP012: aggregate well-formedness.
        if let Some(agg) = &r.agg {
            if !pos_vars.contains(agg.var.name()) {
                diags.push(
                    Diagnostic::new(
                        Code::UnsafeAggregate,
                        format!(
                            "aggregate `{}<{}>` in rule `{r}` folds a variable not bound \
                             by any positive subgoal",
                            agg.func.name(),
                            agg.var.name()
                        ),
                    )
                    .with_span(span)
                    .with_note("the fold variable must range over positive body bindings"),
                );
            }
            let in_grouping = r
                .head
                .terms
                .iter()
                .enumerate()
                .any(|(pos, t)| pos != agg.position && t.as_var() == Some(&agg.var));
            if in_grouping {
                diags.push(
                    Diagnostic::new(
                        Code::UnsafeAggregate,
                        format!(
                            "aggregate variable `{}` in rule `{r}` also appears in the \
                             grouping key",
                            agg.var.name()
                        ),
                    )
                    .with_span(span)
                    .with_note(
                        "grouping by the fold variable makes every group a singleton; \
                         use a distinct variable",
                    ),
                );
            }
            if r.head.pred.name() == GOAL {
                diags.push(
                    Diagnostic::new(
                        Code::UnsafeAggregate,
                        format!("the query head in `{r}` carries an aggregate"),
                    )
                    .with_span(span)
                    .with_note(
                        "name the aggregate as its own predicate and query that: \
                         `total(D, sum<S>) :- ... .  ?- total(D, C).`",
                    ),
                );
            }
            if program
                .rules
                .iter()
                .filter(|o| o.head.pred == r.head.pred)
                .count()
                > 1
            {
                diags.push(
                    Diagnostic::new(
                        Code::UnsafeAggregate,
                        format!(
                            "aggregate predicate `{}` has more than one defining rule",
                            r.head.pred.name()
                        ),
                    )
                    .with_span(span)
                    .with_note(
                        "an aggregate folds the full extension of its one rule body; \
                         multiple rules would make the fold ambiguous",
                    ),
                );
            }
        }

        // MP007: singleton variables (underscore-prefixed are deliberate).
        let mut occurrences: BTreeMap<&str, usize> = BTreeMap::new();
        for t in r
            .head
            .terms
            .iter()
            .chain(r.body.iter().flat_map(|a| a.terms.iter()))
            .chain(r.neg.iter().flat_map(|a| a.terms.iter()))
        {
            if let Some(v) = t.as_var() {
                *occurrences.entry(v.name()).or_insert(0) += 1;
            }
        }
        for (name, n) in occurrences {
            if n == 1 && !name.starts_with('_') {
                diags.push(
                    Diagnostic::new(
                        Code::SingletonVariable,
                        format!("variable `{name}` occurs only once in rule `{r}`"),
                    )
                    .with_span(span)
                    .with_note(format!(
                        "possibly a typo; rename it `_{name}` if the single occurrence is intended"
                    )),
                );
            }
        }
    }

    // Facts, one table at a time: a table is one predicate and arity,
    // and its span is its first fact's.
    for table in &program.facts {
        let span = table.span();
        check_arity(
            table.pred(),
            table.arity(),
            Site::Fact(table),
            span,
            &mut diags,
        );
        // MP008: facts must be ground.
        if let FactTable::NonGround { atom, .. } = table {
            diags.push(
                Diagnostic::new(
                    Code::NonGroundFact,
                    format!("fact `{atom}.` contains a variable"),
                )
                .with_span(span)
                .with_note("EDB relations hold ground tuples only (§1)"),
            );
        }
    }

    // MP005: no query at all.
    if !has_query {
        diags.push(
            Diagnostic::new(
                Code::NoQuery,
                format!("program has no `{GOAL}` rule — nothing to evaluate"),
            )
            .with_note("write a query clause such as `?- p(1, X).`"),
        );
    }

    // MP006: IDB predicates the query can never reach. Only meaningful
    // when a query exists (otherwise MP005 already fired).
    if has_query {
        let analysis = DependencyAnalysis::of(program);
        let relevant = analysis.relevant_to_goal();
        for (i, r) in program.rules.iter().enumerate() {
            if r.head.pred.name() == GOAL || relevant.contains(&r.head.pred) {
                continue;
            }
            // One report per predicate, at its first defining rule.
            if program.rules[..i]
                .iter()
                .any(|p| p.head.pred == r.head.pred)
            {
                continue;
            }
            diags.push(
                Diagnostic::new(
                    Code::UnreachablePredicate,
                    format!(
                        "predicate `{}` is not reachable from the query and will never be evaluated",
                        r.head.pred.name()
                    ),
                )
                .with_span(rule_span(i))
                .with_note(
                    "top-down evaluation only expands goals reachable from `goal` (§1.1); \
                     dead rules are usually leftovers or typos",
                ),
            );
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use mp_datalog::parser::{parse_program, parse_program_with_spans};

    fn codes(src: &str) -> Vec<Code> {
        let program = parse_program(src).unwrap();
        let mut ds = lint_program(&program, None, None);
        crate::sort_diagnostics(&mut ds);
        ds.into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let src = "
            e(1, 2). e(2, 3).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            ?- tc(1, X).
        ";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn unsafe_rule_fires_mp001() {
        let src = "p(X, Y) :- e(X). e(1). ?- p(1, Z).";
        assert!(codes(src).contains(&Code::UnsafeRule));
    }

    #[test]
    fn arity_conflict_fires_mp002_once() {
        let src = "p(X) :- e(X, X), e(X). e(1, 2). ?- p(X).";
        let cs = codes(src);
        assert_eq!(cs.iter().filter(|c| **c == Code::ArityConflict).count(), 1);
    }

    #[test]
    fn arity_conflict_points_at_the_conflicting_fact() {
        let (program, spans) = parse_program_with_spans("e(1). f(2). e(1, 2).").unwrap();
        let d = lint_program(&program, None, Some(&spans))
            .into_iter()
            .find(|d| d.code == Code::ArityConflict)
            .expect("MP002 fires");
        assert_eq!(d.span, Some(mp_datalog::Span::new(1, 13)));
        assert!(d.message.contains("fact `e(1, 2).`"), "{}", d.message);
    }

    #[test]
    fn arity_conflict_messages_name_both_sites() {
        let message = |src: &str, db: Option<&Database>| {
            let program = parse_program(src).unwrap();
            lint_program(&program, db, None)
                .into_iter()
                .find(|d| d.code == Code::ArityConflict)
                .map(|d| d.message)
                .unwrap()
        };
        assert_eq!(
            message("e(1). e(1, 2). p(X) :- f(X). f(3). ?- p(X).", None),
            "predicate `e` used with arity 2 in fact `e(1, 2).`, but with arity 1 in fact `e(1).`"
        );
        assert_eq!(
            message("p(X) :- e(X). e(1, 2). ?- p(X).", None),
            "predicate `e` used with arity 2 in fact `e(1, 2).`, but with arity 1 in rule `p(X) :- e(X).`"
        );
        assert_eq!(
            message("p(X) :- e(X, X), e(X). ?- p(X).", None),
            "predicate `e` used with arity 1 in rule `p(X) :- e(X, X), e(X).`, but with arity 2 in rule `p(X) :- e(X, X), e(X).`"
        );
        let mut db = Database::new();
        db.declare("e", 2).unwrap();
        assert_eq!(
            message("p(X) :- e(X). ?- p(X).", Some(&db)),
            "predicate `e` used with arity 1 in rule `p(X) :- e(X).`, but with arity 2 in the database"
        );
        assert_eq!(
            message("e(1). p(X) :- f(X). f(3). ?- p(X).", Some(&db)),
            "predicate `e` used with arity 1 in fact `e(1).`, but with arity 2 in the database"
        );
    }

    #[test]
    fn arity_conflict_against_db() {
        let program = parse_program("p(X) :- e(X). ?- p(X).").unwrap();
        let mut db = Database::new();
        db.declare("e", 2).unwrap();
        let ds = lint_program(&program, Some(&db), None);
        assert!(ds.iter().any(|d| d.code == Code::ArityConflict));
    }

    #[test]
    fn idb_facts_fire_mp003() {
        let src = "p(1). p(X) :- e(X). e(2). ?- p(X).";
        assert!(codes(src).contains(&Code::EdbIdbOverlap));
    }

    #[test]
    fn db_relation_as_head_fires_mp003() {
        let program = parse_program("e(X) :- f(X). ?- e(X).").unwrap();
        let mut db = Database::new();
        db.declare("e", 1).unwrap();
        db.declare("f", 1).unwrap();
        let ds = lint_program(&program, Some(&db), None);
        assert!(ds.iter().any(|d| d.code == Code::EdbIdbOverlap));
    }

    #[test]
    fn goal_in_body_fires_mp004() {
        let src = "p(X) :- goal(X). e(1). ?- p(X).";
        assert!(codes(src).contains(&Code::GoalInBody));
    }

    #[test]
    fn missing_query_fires_mp005() {
        assert_eq!(codes("p(X) :- e(X). e(1)."), vec![Code::NoQuery]);
    }

    #[test]
    fn unreachable_predicate_warns_mp006() {
        let src = "
            p(X) :- e(X).
            dead(X) :- e(X).
            e(1).
            ?- p(X).
        ";
        let program = parse_program(src).unwrap();
        let ds = lint_program(&program, None, None);
        let d = ds
            .iter()
            .find(|d| d.code == Code::UnreachablePredicate)
            .unwrap();
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.contains("`dead`"));
    }

    #[test]
    fn singleton_variable_warns_mp007_unless_underscored() {
        let src = "p(X) :- e(X, Y). p(X) :- f(X, _Skip). e(1, 2). f(1, 2). ?- p(X).";
        let program = parse_program(src).unwrap();
        let ds = lint_program(&program, None, None);
        let singles: Vec<_> = ds
            .iter()
            .filter(|d| d.code == Code::SingletonVariable)
            .collect();
        assert_eq!(singles.len(), 1, "{singles:?}");
        assert!(singles[0].message.contains("`Y`"));
    }

    #[test]
    fn non_ground_fact_fires_mp008() {
        let src = "e(1, X). p(Y) :- e(1, Y). ?- p(Z).";
        assert!(codes(src).contains(&Code::NonGroundFact));
    }

    #[test]
    fn safe_negation_and_aggregate_are_clean() {
        let src = "
            move(1, 2). move(2, 3).
            moved(X) :- move(X, _Y).
            stuck(X) :- move(X, Y), !moved(Y).
            ?- stuck(X).
        ";
        assert!(codes(src).is_empty(), "{:?}", codes(src));
        let src = "
            pay(hw, 1, 10). pay(hw, 2, 20).
            total(D, sum<S>) :- pay(D, _E, S).
            ?- total(D, C).
        ";
        assert!(codes(src).is_empty(), "{:?}", codes(src));
    }

    #[test]
    fn unbound_negation_variable_fires_mp011() {
        let src = "p(X) :- e(X), !q(X, Y), r(Y). e(1). r(1). ?- p(X).";
        assert!(!codes(src).contains(&Code::UnsafeNegation));
        let src = "p(X) :- e(X), !q(X, Y). e(1). ?- p(X).";
        assert!(codes(src).contains(&Code::UnsafeNegation));
    }

    #[test]
    fn negation_without_positive_body_fires_mp011() {
        let src = "p(1) :- !q(1). q(2). ?- p(X).";
        assert!(codes(src).contains(&Code::UnsafeNegation));
    }

    #[test]
    fn aggregate_misuse_fires_mp012() {
        // Fold variable in the grouping key.
        let src = "t(S, sum<S>) :- pay(S). pay(1). ?- t(A, B).";
        assert!(codes(src).contains(&Code::UnsafeAggregate));
        // Fold variable unbound by the positive body (MP001 fires too —
        // the aggregate position is an ordinary head variable — but the
        // dedicated MP012 names the fold).
        let src = "t(D, sum<S>) :- pay(D), !q(D, S). pay(1). ?- t(A, B).";
        assert!(codes(src).contains(&Code::UnsafeAggregate));
        // Multiple defining rules for an aggregate predicate.
        let src = "
            t(D, sum<S>) :- pay(D, S).
            t(D, S) :- extra(D, S).
            pay(1, 2). extra(1, 3).
            ?- t(A, B).
        ";
        assert!(codes(src).contains(&Code::UnsafeAggregate));
    }

    #[test]
    fn aggregate_on_query_head_fires_mp012() {
        let program = mp_datalog::Program::new(vec![
            mp_datalog::parser::parse_rule("goal(D, count<S>) :- pay(D, S).").unwrap(),
            mp_datalog::parser::parse_rule("pay(1, 2).").unwrap(),
        ]);
        let ds = lint_program(&program, None, None);
        assert!(ds.iter().any(|d| d.code == Code::UnsafeAggregate));
    }

    #[test]
    fn negated_subgoal_vars_count_for_mp007() {
        // `Y` occurs once (in the negated subgoal) — singleton; `X` twice.
        let src = "p(X) :- e(X), !q(X). e(1). ?- p(X).";
        let program = parse_program(src).unwrap();
        let ds = lint_program(&program, None, None);
        assert!(!ds.iter().any(|d| d.code == Code::SingletonVariable));
    }

    #[test]
    fn spans_point_at_the_offending_clause() {
        let src = "e(1, 2).\nbad(X, Y) :- e(X, W).\n?- bad(1, Z).\n";
        let (program, map) = parse_program_with_spans(src).unwrap();
        let ds = lint_program(&program, None, Some(&map));
        let unsafe_d = ds.iter().find(|d| d.code == Code::UnsafeRule).unwrap();
        assert_eq!(unsafe_d.span.map(|s| s.line), Some(2));
    }
}
