//! EDB statistics: cardinalities and per-column distinct counts.
//!
//! §1.2: "The basic set can be extended in order to pass optimization
//! information, offering the possibility of taking advantage of
//! statistics on the EDB and using various heuristics." These statistics
//! feed the cost-based sideways-information-passing strategy in
//! `mp-rulegoal` and the §4.3 cost model's calibrated variant.

use crate::{Database, Predicate};
use mp_storage::{FastMap, Value};
use std::collections::BTreeMap;

/// Statistics for one relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationStats {
    /// Row count.
    pub rows: usize,
    /// Distinct values per column.
    pub distinct: Vec<usize>,
    /// For binary relations: the largest number of rows sharing one
    /// column-0 value (the max out-degree when the relation is read as a
    /// graph edge set). `None` for other arities.
    pub max_out_degree: Option<usize>,
    /// For binary relations: the largest number of rows sharing one
    /// column-1 value (max in-degree). `None` for other arities.
    pub max_in_degree: Option<usize>,
}

impl RelationStats {
    /// Estimated rows matching an equality selection on `bound_cols`,
    /// under the uniformity assumption: each bound column divides the
    /// relation by its distinct count.
    pub fn selected_rows(&self, bound_cols: &[usize]) -> f64 {
        let mut est = self.rows as f64;
        for &c in bound_cols {
            let d = self.distinct.get(c).copied().unwrap_or(1).max(1);
            est /= d as f64;
        }
        est
    }
}

/// Statistics for a whole database.
#[derive(Clone, Debug, Default)]
pub struct DbStats {
    per_relation: BTreeMap<Predicate, RelationStats>,
}

impl DbStats {
    /// Collect statistics with one pass per column of each relation,
    /// over the relation's column-major mirror.
    pub fn of(db: &Database) -> DbStats {
        let mut per_relation = BTreeMap::new();
        let mut counts: FastMap<Value, usize> = FastMap::default();
        for (pred, rel) in db.iter() {
            let mut distinct = Vec::with_capacity(rel.arity());
            let mut max_degree = Vec::with_capacity(rel.arity());
            for c in 0..rel.arity() {
                counts.clear();
                for &v in rel.column(c) {
                    *counts.entry(v).or_insert(0) += 1;
                }
                distinct.push(counts.len());
                max_degree.push(counts.values().copied().max().unwrap_or(0));
            }
            // Degree statistics only make sense for edge-shaped (binary)
            // relations; they bound the fan-out of one join step and feed
            // the mp-analyze message-volume estimator.
            let (max_out_degree, max_in_degree) = match max_degree[..] {
                [out, inn] => (Some(out), Some(inn)),
                _ => (None, None),
            };
            per_relation.insert(
                pred.clone(),
                RelationStats {
                    rows: rel.len(),
                    distinct,
                    max_out_degree,
                    max_in_degree,
                },
            );
        }
        DbStats { per_relation }
    }

    /// Statistics for one predicate, if it is an EDB relation.
    pub fn relation(&self, pred: &Predicate) -> Option<&RelationStats> {
        self.per_relation.get(pred)
    }

    /// Number of relations covered.
    pub fn len(&self) -> usize {
        self.per_relation.len()
    }

    /// True when no relations are covered.
    pub fn is_empty(&self) -> bool {
        self.per_relation.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_storage::tuple;

    #[test]
    fn collects_rows_and_distincts() {
        let mut db = Database::new();
        for (a, b) in [(1, 10), (1, 11), (2, 10), (3, 12)] {
            db.insert("e", tuple![a, b]).unwrap();
        }
        let stats = DbStats::of(&db);
        let rs = stats.relation(&Predicate::new("e")).unwrap();
        assert_eq!(rs.rows, 4);
        assert_eq!(rs.distinct, vec![3, 3]);
        assert!(stats.relation(&Predicate::new("nope")).is_none());
        assert_eq!(stats.len(), 1);
    }

    #[test]
    fn binary_relations_get_degree_bounds() {
        let mut db = Database::new();
        // Node 1 has out-degree 3; node 10 has in-degree 2.
        for (a, b) in [(1, 10), (1, 11), (1, 12), (2, 10), (3, 12)] {
            db.insert("e", tuple![a, b]).unwrap();
        }
        db.insert("u", tuple![7]).unwrap();
        db.insert("t", tuple![1, 2, 3]).unwrap();
        let stats = DbStats::of(&db);
        let e = stats.relation(&Predicate::new("e")).unwrap();
        assert_eq!(e.max_out_degree, Some(3));
        assert_eq!(e.max_in_degree, Some(2));
        // Non-binary relations carry no degree bounds.
        let u = stats.relation(&Predicate::new("u")).unwrap();
        assert_eq!((u.max_out_degree, u.max_in_degree), (None, None));
        let t = stats.relation(&Predicate::new("t")).unwrap();
        assert_eq!((t.max_out_degree, t.max_in_degree), (None, None));
    }

    #[test]
    fn selection_estimates_divide_by_distincts() {
        let rs = RelationStats {
            rows: 100,
            distinct: vec![10, 50],
            max_out_degree: Some(10),
            max_in_degree: Some(2),
        };
        assert_eq!(rs.selected_rows(&[]), 100.0);
        assert_eq!(rs.selected_rows(&[0]), 10.0);
        assert_eq!(rs.selected_rows(&[1]), 2.0);
        assert_eq!(rs.selected_rows(&[0, 1]), 0.2);
    }

    #[test]
    fn empty_database() {
        let stats = DbStats::of(&Database::new());
        assert!(stats.is_empty());
    }
}
