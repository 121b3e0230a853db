//! The extensional database (EDB): named, fixed-arity relations of ground
//! facts, "viewed as a conventional relational database" (§1).

use crate::{DatalogError, Predicate};
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

    /// Add every row of `rows` to `pred`'s relation. A predicate the
    /// database does not hold yet takes `rows` itself, shared, and loading
    /// the same relation again costs nothing; only a relation filled
    /// separately has rows merged into it.
    pub(crate) fn load_relation(
        &mut self,
        pred: &Predicate,
        rows: &Arc<Relation>,
    ) -> Result<(), DatalogError> {
        let Some(rel) = self.relations.get_mut(pred) else {
            self.relations.insert(pred.clone(), Arc::clone(rows));
            return Ok(());
        };
        if Arc::ptr_eq(rel, rows) {
            return Ok(());
        }
        if rel.arity() != rows.arity() {
            return Err(DatalogError::ArityConflict {
                pred: pred.name().to_string(),
                a: rel.arity(),
                b: rows.arity(),
            });
        }
        for t in rows.iter() {
            // As in `insert`: a duplicate must not copy a shared relation.
            if !rel.contains(t) {
                Arc::make_mut(rel)
                    .insert(t.clone())
                    .expect("arities checked above");
            }
        }
        Ok(())
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
    fn load_relation_shares_then_merges() {
        let mut rows = Relation::new(2);
        rows.insert(tuple![1, 2]).unwrap();
        rows.insert(tuple![2, 3]).unwrap();
        let rows = Arc::new(rows);
        let e = Predicate::new("e");
        let mut db = Database::new();
        db.load_relation(&e, &rows).unwrap();
        assert!(Arc::ptr_eq(&db.shared_relation(&e).unwrap(), &rows));
        // The same relation again: nothing to do, still shared.
        db.load_relation(&e, &rows).unwrap();
        assert!(Arc::ptr_eq(&db.shared_relation(&e).unwrap(), &rows));
        // A relation filled separately gets the new rows merged in,
        // after its own, and the loaded relation is left as it was.
        let mut other = Database::new();
        other.insert("e", tuple![2, 3]).unwrap();
        other.insert("e", tuple![7, 7]).unwrap();
        other.load_relation(&e, &rows).unwrap();
        assert_eq!(
            other.relation(&e).unwrap().rows(),
            &[tuple![2, 3], tuple![7, 7], tuple![1, 2]]
        );
        assert_eq!(rows.len(), 2);
        assert!(matches!(
            other.load_relation(&e, &Arc::new(Relation::new(3))),
            Err(DatalogError::ArityConflict { a: 2, b: 3, .. })
        ));
    }

    #[test]
    fn loading_duplicates_into_a_clone_copies_nothing() {
        let mut db = Database::new();
        db.insert("e", tuple![1, 2]).unwrap();
        let rows = db.shared_relation(&Predicate::new("e")).unwrap();
        let mut copy = db.clone();
        let dup = Arc::new((*rows).clone());
        copy.load_relation(&Predicate::new("e"), &dup).unwrap();
        assert!(shares(&db, &copy, "e"));
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
}
