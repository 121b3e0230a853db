//! The extensional database (EDB): named, fixed-arity relations of ground
//! facts, "viewed as a conventional relational database" (§1).

use crate::{Atom, DatalogError, Predicate};
use mp_storage::{Relation, Tuple};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The EDB: a map from predicate name to relation.
///
/// Iteration over predicates is in name order (BTreeMap), keeping
/// everything downstream deterministic.
///
/// Relations are copy-on-write: a clone of the database shares every
/// relation with the original, and a write copies only the one relation
/// it touches, and only while that relation is still shared. The staged
/// pipeline's working database and every sub-run's EDB are such clones,
/// and EDB leaves hold the shared relation itself
/// ([`Database::shared_relation`]) rather than a copy of it.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: BTreeMap<Predicate, Arc<Relation>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Declare a relation with the given arity (idempotent; errors on
    /// conflicting arity).
    pub fn declare(
        &mut self,
        pred: impl Into<Predicate>,
        arity: usize,
    ) -> Result<(), DatalogError> {
        let pred = pred.into();
        match self.relations.get(&pred) {
            Some(r) if r.arity() != arity => Err(DatalogError::ArityConflict {
                pred: pred.name().to_string(),
                a: r.arity(),
                b: arity,
            }),
            Some(_) => Ok(()),
            None => {
                self.relations.insert(pred, Arc::new(Relation::new(arity)));
                Ok(())
            }
        }
    }

    /// Insert a fact tuple, declaring the relation if needed.
    /// Returns whether the tuple was new.
    pub fn insert(
        &mut self,
        pred: impl Into<Predicate>,
        tuple: Tuple,
    ) -> Result<bool, DatalogError> {
        let pred = pred.into();
        self.declare(pred.clone(), tuple.arity())?;
        let rel = self.relations.get_mut(&pred).expect("just declared");
        // A duplicate changes nothing, so it must not copy a shared
        // relation either.
        if Arc::strong_count(rel) > 1 && rel.contains(&tuple) {
            return Ok(false);
        }
        Arc::make_mut(rel).insert(tuple).map_err(|e| match e {
            mp_storage::StorageError::ArityMismatch { expected, got } => {
                DatalogError::ArityConflict {
                    pred: pred.name().to_string(),
                    a: expected,
                    b: got,
                }
            }
            _ => unreachable!("insert only raises arity errors"),
        })
    }

    /// Insert a ground atom as a fact.
    pub fn insert_atom(&mut self, atom: &Atom) -> Result<bool, DatalogError> {
        let tuple = atom.to_tuple().ok_or_else(|| DatalogError::NonGroundFact {
            atom: atom.to_string(),
        })?;
        self.insert(atom.pred.clone(), tuple)
    }

    /// Bulk-load ground atoms, pre-sizing the process-wide symbol
    /// interner for the load. Returns how many facts were new.
    ///
    /// Symbols in atoms that came through the parser are interned at
    /// parse time, so for those the reservation is a no-op; programmatic
    /// loads that mint string values while building atoms get one
    /// pre-sized table instead of repeated rehashes mid-load
    /// (over-estimating is harmless — see
    /// [`mp_storage::reserve_symbols`]).
    pub fn bulk_insert_atoms<'a>(
        &mut self,
        atoms: impl IntoIterator<Item = &'a Atom>,
    ) -> Result<usize, DatalogError> {
        let atoms: Vec<&Atom> = atoms.into_iter().collect();
        let sym_terms: usize = atoms
            .iter()
            .map(|a| {
                a.terms
                    .iter()
                    .filter(|t| t.as_const().is_some_and(|v| v.as_str().is_some()))
                    .count()
            })
            .sum();
        mp_storage::reserve_symbols(sym_terms);
        let mut new = 0;
        for a in atoms {
            if self.insert_atom(a)? {
                new += 1;
            }
        }
        Ok(new)
    }

    /// The relation for a predicate, if present.
    pub fn relation(&self, pred: &Predicate) -> Option<&Relation> {
        self.relations.get(pred).map(|r| &**r)
    }

    /// A shared handle to the relation for a predicate, if present: the
    /// relation itself, not a copy. Later writes to this database leave
    /// the handle's contents unchanged.
    pub fn shared_relation(&self, pred: &Predicate) -> Option<Arc<Relation>> {
        self.relations.get(pred).cloned()
    }

    /// True if the predicate is an EDB predicate of this database.
    pub fn contains_pred(&self, pred: &Predicate) -> bool {
        self.relations.contains_key(pred)
    }

    /// Iterate (predicate, relation) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Predicate, &Relation)> + '_ {
        self.relations.iter().map(|(p, r)| (p, &**r))
    }

    /// All EDB predicate names, in order.
    pub fn predicates(&self) -> impl Iterator<Item = &Predicate> + '_ {
        self.relations.keys()
    }

    /// Total number of facts across all relations.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Term;
    use mp_storage::tuple;

    #[test]
    fn insert_and_lookup() {
        let mut db = Database::new();
        assert!(db.insert("edge", tuple![1, 2]).unwrap());
        assert!(!db.insert("edge", tuple![1, 2]).unwrap());
        assert!(db.insert("edge", tuple![2, 3]).unwrap());
        let rel = db.relation(&Predicate::new("edge")).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(db.fact_count(), 2);
        assert!(db.contains_pred(&Predicate::new("edge")));
        assert!(!db.contains_pred(&Predicate::new("nope")));
    }

    #[test]
    fn arity_conflicts_rejected() {
        let mut db = Database::new();
        db.insert("p", tuple![1, 2]).unwrap();
        assert!(matches!(
            db.insert("p", tuple![1]),
            Err(DatalogError::ArityConflict { .. })
        ));
        assert!(db.declare("p", 2).is_ok());
        assert!(db.declare("p", 3).is_err());
    }

    #[test]
    fn bulk_insert_counts_new_facts_only() {
        let mut db = Database::new();
        let facts = vec![
            Atom::new("likes", vec![Term::val("ann"), Term::val("bo")]),
            Atom::new("likes", vec![Term::val("bo"), Term::val("cy")]),
            Atom::new("likes", vec![Term::val("ann"), Term::val("bo")]),
        ];
        assert_eq!(db.bulk_insert_atoms(&facts).unwrap(), 2);
        assert_eq!(db.fact_count(), 2);
        // Symbols from the load resolve through the interner.
        assert!(mp_storage::symbol_count() >= 3);
    }

    fn shares(a: &Database, b: &Database, pred: &str) -> bool {
        let p = Predicate::new(pred);
        Arc::ptr_eq(
            &a.shared_relation(&p).unwrap(),
            &b.shared_relation(&p).unwrap(),
        )
    }

    #[test]
    fn clones_share_relations_until_written() {
        let mut db = Database::new();
        db.insert("e", tuple![1, 2]).unwrap();
        db.insert("u", tuple![7]).unwrap();
        let mut copy = db.clone();
        assert!(shares(&db, &copy, "e") && shares(&db, &copy, "u"));
        // A duplicate writes nothing; a new tuple copies only the
        // relation it lands in.
        assert!(!copy.insert("e", tuple![1, 2]).unwrap());
        assert!(shares(&db, &copy, "e"));
        assert!(copy.insert("e", tuple![2, 3]).unwrap());
        assert!(!shares(&db, &copy, "e"));
        assert!(shares(&db, &copy, "u"));
    }

    #[test]
    fn writes_to_a_clone_leave_the_original_unchanged() {
        let mut db = Database::new();
        db.insert("e", tuple![1, 2]).unwrap();
        let handle = db.shared_relation(&Predicate::new("e")).unwrap();
        let mut copy = db.clone();
        assert!(copy.insert("e", tuple![2, 3]).unwrap());
        assert_eq!(copy.relation(&Predicate::new("e")).unwrap().len(), 2);
        assert_eq!(db.relation(&Predicate::new("e")).unwrap().len(), 1);
        assert_eq!(handle.sorted_rows(), vec![tuple![1, 2]]);
        // Writes to the original after the clone do not leak either.
        assert!(db.insert("e", tuple![5, 6]).unwrap());
        assert_eq!(handle.len(), 1);
        assert!(!copy
            .relation(&Predicate::new("e"))
            .unwrap()
            .contains(&tuple![5, 6]));
    }

    #[test]
    fn new_predicates_in_a_clone_stay_in_the_clone() {
        let mut db = Database::new();
        db.insert("e", tuple![1, 2]).unwrap();
        let mut copy = db.clone();
        copy.insert("win", tuple![1]).unwrap();
        copy.declare("lose", 1).unwrap();
        for p in ["win", "lose"] {
            assert!(copy.contains_pred(&Predicate::new(p)));
            assert!(!db.contains_pred(&Predicate::new(p)));
        }
        assert_eq!((db.fact_count(), copy.fact_count()), (1, 2));
        assert!(shares(&db, &copy, "e"));
    }

    #[test]
    fn insert_atom_requires_ground() {
        let mut db = Database::new();
        let ok = Atom::new("p", vec![Term::val(1)]);
        assert!(db.insert_atom(&ok).unwrap());
        let bad = Atom::new("p", vec![Term::var("X")]);
        assert!(matches!(
            db.insert_atom(&bad),
            Err(DatalogError::NonGroundFact { .. })
        ));
    }
}
