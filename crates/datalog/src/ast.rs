//! AST for function-free Horn clauses, extended with stratified negation
//! (`!subgoal`) and head aggregates (`count/sum/min/max<Var>`).

use mp_storage::Value;
use std::fmt;
use std::sync::Arc;

pub use mp_storage::AggFunc;

/// A predicate symbol. Predicates are identified by name; arity is checked
/// separately during validation (one arity per name).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Predicate(pub Arc<str>);

impl Predicate {
    /// Create a predicate from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Predicate(Arc::from(name.as_ref()))
    }

    /// The predicate's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Predicate {
    fn from(s: &str) -> Self {
        Predicate::new(s)
    }
}

/// A logical variable, identified by name within a rule.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub Arc<str>);

impl Var {
    /// Create a variable from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Var(Arc::from(name.as_ref()))
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// A term: a variable or a constant. The system is function-free (§1), so
/// there are no compound terms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Value),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(name: impl AsRef<str>) -> Self {
        Term::Var(Var::new(name))
    }

    /// Shorthand for a constant term.
    pub fn val(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }

    /// The variable, if this term is one.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant, if this term is one.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }

    /// True for variable terms.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An atomic formula: a predicate applied to terms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// The predicate symbol.
    pub pred: Predicate,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Create an atom.
    pub fn new(pred: impl Into<Predicate>, terms: Vec<Term>) -> Self {
        Atom {
            pred: pred.into(),
            terms,
        }
    }

    /// The atom's arity.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Variables occurring in the atom, in order of first occurrence,
    /// deduplicated.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A head aggregate: one head position holds `func<Var>` instead of a
/// plain term. The remaining head positions are the grouping key; the
/// aggregate folds the distinct bindings of `var` per group (set
/// semantics, like the rest of the data plane).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// The fold function.
    pub func: AggFunc,
    /// The aggregated body variable.
    pub var: Var,
    /// Which head position carries the aggregate output.
    pub position: usize,
}

impl fmt::Debug for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<{}>", self.func.name(), self.var)
    }
}

/// A Horn clause: `head :- body`, extended with negated subgoals and an
/// optional head aggregate. An empty rule (no subgoals at all) makes the
/// rule a fact (which must then be ground).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// The positive literal (the rule's head, §1). When the rule
    /// aggregates, the aggregate position holds `Term::Var(agg.var)` so
    /// arity/range-restriction machinery sees an ordinary head variable.
    pub head: Atom,
    /// The positive subgoals (the rule's body literals, §1).
    pub body: Vec<Atom>,
    /// Negated subgoals (`!p(..)`): satisfied when no matching tuple
    /// exists. Every variable must be bound by a positive subgoal.
    pub neg: Vec<Atom>,
    /// Head aggregate, when present.
    pub agg: Option<AggSpec>,
}

impl Rule {
    /// Create a rule (positive subgoals only).
    pub fn new(head: Atom, body: Vec<Atom>) -> Self {
        Rule {
            head,
            body,
            neg: Vec::new(),
            agg: None,
        }
    }

    /// Create a fact (empty body).
    pub fn fact(head: Atom) -> Self {
        Rule {
            head,
            body: Vec::new(),
            neg: Vec::new(),
            agg: None,
        }
    }

    /// Attach negated subgoals (builder form).
    pub fn with_neg(mut self, neg: Vec<Atom>) -> Self {
        self.neg = neg;
        self
    }

    /// Attach a head aggregate (builder form).
    pub fn with_agg(mut self, agg: AggSpec) -> Self {
        self.agg = Some(agg);
        self
    }

    /// True if the rule has no subgoals of any polarity and no aggregate.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty() && self.neg.is_empty() && self.agg.is_none()
    }

    /// All variables of the rule (head first, then positive body, then
    /// negated subgoals), in order of first occurrence, deduplicated.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for atom in std::iter::once(&self.head)
            .chain(self.body.iter())
            .chain(self.neg.iter())
        {
            for v in atom.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Check range restriction: every head variable occurs in the
    /// positive body. Returns the first offending variable, if any.
    /// (Negated-subgoal binding is checked separately — MP011.)
    pub fn unsafe_var(&self) -> Option<Var> {
        let body_vars: Vec<Var> = self.body.iter().flat_map(|a| a.vars()).collect();
        self.head
            .vars()
            .into_iter()
            .find(|v| !body_vars.contains(v))
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            match &self.agg {
                None => write!(f, "{}", self.head),
                Some(agg) => {
                    write!(f, "{}(", self.head.pred)?;
                    for (i, t) in self.head.terms.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        if i == agg.position {
                            write!(f, "{agg:?}")?;
                        } else {
                            write!(f, "{t}")?;
                        }
                    }
                    write!(f, ")")
                }
            }
        };
        if self.is_fact() {
            head(f)?;
            return write!(f, ".");
        }
        head(f)?;
        write!(f, " :- ")?;
        let mut first = true;
        for a in &self.body {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{a}")?;
        }
        for a in &self.neg {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "!{a}")?;
        }
        write!(f, ".")
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Build an atom tersely: `atom!(p(var "X", val 3))` is unwieldy; instead
/// use the parser in tests, or `Atom::new` directly. This macro covers the
/// common positional form used across the workspace's unit tests:
/// `atom!("p"; var "X", val 1)`.
#[macro_export]
macro_rules! atom {
    ($p:expr $(; $($kind:ident $v:expr),*)?) => {
        $crate::Atom::new($p, vec![$($($crate::atom!(@term $kind $v)),*)?])
    };
    (@term var $v:expr) => { $crate::Term::var($v) };
    (@term val $v:expr) => { $crate::Term::val($v) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_vars_dedup_in_order() {
        let a = Atom::new(
            "p",
            vec![Term::var("X"), Term::val(1), Term::var("Y"), Term::var("X")],
        );
        assert_eq!(a.vars(), vec![Var::new("X"), Var::new("Y")]);
    }

    #[test]
    fn rule_vars_and_safety() {
        let r = Rule::new(
            Atom::new("p", vec![Term::var("X"), Term::var("Z")]),
            vec![
                Atom::new("a", vec![Term::var("X"), Term::var("Y")]),
                Atom::new("b", vec![Term::var("Y"), Term::var("Z")]),
            ],
        );
        assert_eq!(r.vars(), vec![Var::new("X"), Var::new("Z"), Var::new("Y")]);
        assert_eq!(r.unsafe_var(), None);

        let bad = Rule::new(
            Atom::new("p", vec![Term::var("X"), Term::var("W")]),
            vec![Atom::new("a", vec![Term::var("X")])],
        );
        assert_eq!(bad.unsafe_var(), Some(Var::new("W")));
    }

    #[test]
    fn display_forms() {
        let r = Rule::new(
            Atom::new("p", vec![Term::var("X")]),
            vec![Atom::new("e", vec![Term::var("X"), Term::val(3)])],
        );
        assert_eq!(format!("{r}"), "p(X) :- e(X, 3).");
        let f = Rule::fact(Atom::new("e", vec![Term::val(1), Term::val(2)]));
        assert_eq!(format!("{f}"), "e(1, 2).");
    }

    #[test]
    fn atom_macro() {
        let a = atom!("p"; var "X", val 3);
        assert_eq!(a, Atom::new("p", vec![Term::var("X"), Term::val(3)]));
        let n = atom!("nullary");
        assert_eq!(n.arity(), 0);
    }
}
