//! Inline facts as tables: the program text's EDB part, stored the way
//! the [`Database`](crate::Database) stores it.
//!
//! The parser reads each ground fact straight into one deduplicated,
//! column-major [`Relation`] per (predicate, arity), in source order.
//! Loading the program shares those relations into the database, so no
//! pass after the parser touches inline facts one at a time.

use crate::{Atom, Predicate, Span, Term};
use mp_storage::{Relation, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The inline facts of one predicate and arity, or one non-ground fact.
///
/// [`Program::facts`](crate::Program::facts) lists these in the order of
/// each entry's first fact in the source.
#[derive(Clone, Debug, PartialEq)]
pub enum FactTable {
    /// Every ground fact of `pred` with one arity: deduplicated rows in
    /// source order. Never empty.
    Rows {
        /// The predicate.
        pred: Predicate,
        /// The rows, shared with every database the program is loaded into.
        rows: Arc<Relation>,
        /// Where the first of these facts begins, when parsed.
        span: Option<Span>,
    },
    /// A fact with a variable in it. It cannot be loaded; it is kept so
    /// that MP008 can report it.
    NonGround {
        /// The fact as written.
        atom: Atom,
        /// Where the fact begins, when parsed.
        span: Option<Span>,
    },
}

impl FactTable {
    /// The predicate.
    pub fn pred(&self) -> &Predicate {
        match self {
            FactTable::Rows { pred, .. } => pred,
            FactTable::NonGround { atom, .. } => &atom.pred,
        }
    }

    /// The arity of every fact in the entry.
    pub fn arity(&self) -> usize {
        match self {
            FactTable::Rows { rows, .. } => rows.arity(),
            FactTable::NonGround { atom, .. } => atom.arity(),
        }
    }

    /// Where the entry's first fact begins, when parsed.
    pub fn span(&self) -> Option<Span> {
        match self {
            FactTable::Rows { span, .. } | FactTable::NonGround { span, .. } => *span,
        }
    }

    /// The entry's first fact, as an atom (built on demand; diagnostics
    /// name it).
    pub fn first_fact(&self) -> Atom {
        match self {
            FactTable::Rows { pred, rows, .. } => {
                row_atom(pred, rows.rows().first().map_or(&[], |t| t.values()))
            }
            FactTable::NonGround { atom, .. } => atom.clone(),
        }
    }
}

fn row_atom(pred: &Predicate, row: &[Value]) -> Atom {
    Atom::new(pred.clone(), row.iter().map(|&v| Term::Const(v)).collect())
}

/// One fact per line, as `pred(v1, ..., vn).`, in row order.
impl fmt::Display for FactTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactTable::Rows { pred, rows, .. } => rows
                .iter()
                .try_for_each(|row| writeln!(f, "{}.", row_atom(pred, row.values()))),
            FactTable::NonGround { atom, .. } => writeln!(f, "{atom}."),
        }
    }
}

/// Builds fact tables one fact at a time. Each (predicate name, arity)
/// is looked up by the borrowed name, so a [`Predicate`] is made once
/// per table, not once per fact. The names come from the source text,
/// so the lookup keeps the default (collision-resistant) hasher.
#[derive(Default)]
pub(crate) struct FactTables<'s> {
    tables: Vec<FactTable>,
    by_name: HashMap<(&'s str, usize), usize>,
    /// Reused buffer for one ground fact's values.
    values: Vec<Value>,
}

impl<'s> FactTables<'s> {
    /// Add the fact `name(terms)`: a row of its table when ground, an
    /// entry of its own otherwise.
    pub(crate) fn push(&mut self, name: &'s str, terms: &[Term], span: Option<Span>) {
        self.values.clear();
        self.values
            .extend(terms.iter().map_while(|t| t.as_const().copied()));
        if self.values.len() < terms.len() {
            self.tables.push(FactTable::NonGround {
                atom: Atom::new(name, terms.to_vec()),
                span,
            });
            return;
        }
        let tables = &mut self.tables;
        let i = *self.by_name.entry((name, terms.len())).or_insert_with(|| {
            tables.push(FactTable::Rows {
                pred: Predicate::new(name),
                rows: Arc::new(Relation::new(terms.len())),
                span,
            });
            tables.len() - 1
        });
        let FactTable::Rows { rows, .. } = &mut self.tables[i] else {
            unreachable!("`by_name` indexes row tables only")
        };
        // The table is not shared until `finish`, so this never copies.
        Arc::make_mut(rows)
            .insert_values(&self.values)
            .expect("a table holds one arity");
    }

    /// The tables, in order of first appearance.
    pub(crate) fn finish(self) -> Vec<FactTable> {
        self.tables
    }
}
