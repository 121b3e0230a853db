//! Generalized magic sets + semi-naive: the batch analogue of the
//! paper's sideways information passing. The transformation reuses the
//! same adornment and SIP machinery as the rule/goal graph (a deliberate
//! design: the paper's class-`d` restriction and the magic predicates
//! restrict evaluation to the same "relevant, or at least potentially
//! relevant, portions of intermediate relations").

use crate::common::EvalStats;
use crate::seminaive::evaluate_stratified;
use crate::{EvalResult, Evaluator};
use mp_datalog::{Atom, Database, DatalogError, Predicate, Program, Rule, Term};
use mp_rulegoal::{Adornment, ArgClass, SipKind};
use mp_storage::Relation;
use std::collections::{HashSet, VecDeque};

/// The magic-sets evaluator.
#[derive(Clone, Copy, Debug)]
pub struct MagicSets {
    /// SIP strategy used to adorn rules (greedy by default, mirroring
    /// the engine's default).
    pub sip: SipKind,
}

impl Default for MagicSets {
    fn default() -> Self {
        MagicSets {
            sip: SipKind::Greedy,
        }
    }
}

/// Canonicalize an adornment to bound/free: `c`/`d` → `D`, `e`/`f` → `F`.
fn canon(ad: &Adornment) -> Adornment {
    Adornment(
        ad.0.iter()
            .map(|c| {
                if c.is_bound() {
                    ArgClass::D
                } else {
                    ArgClass::F
                }
            })
            .collect(),
    )
}

fn bf_string(ad: &Adornment) -> String {
    ad.0.iter()
        .map(|c| if c.is_bound() { 'b' } else { 'f' })
        .collect()
}

fn adorned_pred(p: &Predicate, ad: &Adornment) -> Predicate {
    Predicate::new(format!("{}#{}", p.name(), bf_string(ad)))
}

fn magic_pred(p: &Predicate, ad: &Adornment) -> Predicate {
    Predicate::new(format!("m_{}#{}", p.name(), bf_string(ad)))
}

/// Terms at the bound positions of an atom under an adornment — but when
/// an adornment position holds a constant the binding is static, so the
/// magic argument is that constant.
fn bound_terms(atom: &Atom, ad: &Adornment) -> Vec<Term> {
    ad.0.iter()
        .enumerate()
        .filter(|(_, c)| c.is_bound())
        .map(|(i, _)| atom.terms[i].clone())
        .collect()
}

impl MagicSets {
    /// Produce the transformed rule set and the adorned goal predicate.
    pub fn transform(&self, program: &Program, db: &Database) -> (Vec<Rule>, Predicate) {
        let idb = program.idb_predicates();
        let is_idb = |p: &Predicate| idb.contains_key(p) && !db.contains_pred(p);

        let goal = Program::goal_pred();
        let goal_arity = program
            .query_rules()
            .next()
            .map(|r| r.head.arity())
            .unwrap_or(0);
        let goal_ad = Adornment(vec![ArgClass::F; goal_arity]);

        let mut out: Vec<Rule> = Vec::new();
        // Seed: the goal's magic predicate holds the (empty) binding.
        out.push(Rule::fact(Atom::new(
            magic_pred(&goal, &goal_ad),
            Vec::new(),
        )));

        let mut seen: HashSet<(Predicate, String)> = HashSet::new();
        let mut worklist: VecDeque<(Predicate, Adornment)> = VecDeque::new();
        seen.insert((goal.clone(), bf_string(&goal_ad)));
        worklist.push_back((goal, goal_ad));

        while let Some((p, ad)) = worklist.pop_front() {
            for rule in program.rules.iter().filter(|r| r.head.pred == p) {
                let plan = mp_rulegoal::sip::plan(rule, &ad, self.sip);
                let mut new_body =
                    vec![Atom::new(magic_pred(&p, &ad), bound_terms(&rule.head, &ad))];
                for &i in &plan.order {
                    let sub = &rule.body[i];
                    if is_idb(&sub.pred) {
                        let adq = canon(&plan.adornments[i]);
                        // Magic rule: the bindings this subgoal will be
                        // asked with.
                        out.push(Rule::new(
                            Atom::new(magic_pred(&sub.pred, &adq), bound_terms(sub, &adq)),
                            new_body.clone(),
                        ));
                        if seen.insert((sub.pred.clone(), bf_string(&adq))) {
                            worklist.push_back((sub.pred.clone(), adq.clone()));
                        }
                        new_body.push(Atom::new(adorned_pred(&sub.pred, &adq), sub.terms.clone()));
                    } else {
                        new_body.push(sub.clone());
                    }
                }
                out.push(Rule::new(
                    Atom::new(adorned_pred(&p, &ad), rule.head.terms.clone()),
                    new_body,
                ));
            }
        }
        let goal_ad = Adornment(vec![ArgClass::F; goal_arity]);
        (out, adorned_pred(&Program::goal_pred(), &goal_ad))
    }
}

impl Evaluator for MagicSets {
    fn name(&self) -> &'static str {
        "magic"
    }

    fn evaluate(&self, program: &Program, db: &Database) -> Result<EvalResult, DatalogError> {
        let mut db = db.clone();
        program.load_facts(&mut db)?;
        program.validate(&db)?;
        let (rules, adorned_goal) = self.transform(program, &db);
        // The transformed program carries its own seed fact.
        let transformed = Program::new(rules);
        transformed.load_facts(&mut db)?;
        let mut stats = EvalStats::default();
        let store = evaluate_stratified(&transformed.rules, &db, &mut stats);
        stats.stored_tuples = store.total_tuples();

        let goal_arity = program
            .query_rules()
            .next()
            .map(|r| r.head.arity())
            .unwrap_or(0);
        let mut answers = Relation::new(goal_arity);
        if let Some(rel) = store.get(&adorned_goal) {
            for t in rel.iter() {
                answers.insert(t.clone()).expect("goal arity");
            }
        }
        Ok(EvalResult { answers, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datalog::parser::parse_program;
    use mp_storage::tuple;

    #[test]
    fn transform_produces_magic_and_modified_rules() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).
             ?- path(0, Z).",
        )
        .unwrap();
        let db = {
            let mut db = Database::new();
            db.insert("edge", tuple![0, 1]).unwrap();
            db
        };
        let (rules, adorned_goal) = MagicSets::default().transform(&program, &db);
        assert_eq!(adorned_goal.name(), "goal#f");
        let heads: Vec<String> = rules
            .iter()
            .map(|r| r.head.pred.name().to_string())
            .collect();
        assert!(heads.iter().any(|h| h == "m_goal#f"));
        assert!(heads.iter().any(|h| h == "m_path#bf"));
        assert!(heads.iter().any(|h| h == "path#bf"));
        assert!(heads.iter().any(|h| h == "goal#f"));
        // The recursive rule generates a magic rule whose body includes
        // the magic of the head: m_path#bf(X) :- m_path#bf(X) [+ ...].
        let magic_rules = rules
            .iter()
            .filter(|r| r.head.pred.name() == "m_path#bf" && !r.is_fact())
            .count();
        assert!(magic_rules >= 2);
    }

    #[test]
    fn point_query_restricts_computation() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).
             ?- path(95, Z).",
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..100 {
            db.insert("edge", tuple![i, i + 1]).unwrap();
        }
        let magic = MagicSets::default().evaluate(&program, &db).unwrap();
        assert_eq!(
            magic.answers.sorted_rows(),
            (96..=100).map(|i| tuple![i]).collect::<Vec<_>>()
        );
        // Only the suffix from 95 was computed: 5 path tuples (+ magic
        // seeds + edges) rather than ~5000.
        assert!(
            magic.stats.stored_tuples < 200,
            "stored {}",
            magic.stats.stored_tuples
        );
    }

    #[test]
    fn bound_bound_query() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).
             path(X, Z) :- path(X, Y), edge(Y, Z).
             ?- path(0, 7).",
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..10 {
            db.insert("edge", tuple![i, i + 1]).unwrap();
        }
        let magic = MagicSets::default().evaluate(&program, &db).unwrap();
        assert_eq!(magic.answers.len(), 1);
        assert_eq!(magic.answers.rows()[0], mp_storage::Tuple::unit());
    }

    #[test]
    fn sip_choice_affects_transform_but_not_answers() {
        let program = parse_program(
            "sg(X, Y) :- flat(X, Y).
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
             ?- sg(\"a\", Y).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert("up", tuple!["a", "m1"]).unwrap();
        db.insert("flat", tuple!["m1", "m2"]).unwrap();
        db.insert("down", tuple!["m2", "c"]).unwrap();
        let greedy = MagicSets {
            sip: SipKind::Greedy,
        }
        .evaluate(&program, &db)
        .unwrap();
        let ltr = MagicSets {
            sip: SipKind::LeftToRight,
        }
        .evaluate(&program, &db)
        .unwrap();
        assert_eq!(greedy.answers, ltr.answers);
    }
}
