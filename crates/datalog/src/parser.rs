//! A hand-written recursive-descent parser for Prolog-style Datalog text.
//!
//! Grammar (whitespace and `%`-to-end-of-line comments allowed anywhere):
//!
//! ```text
//! program   := clause*
//! clause    := head ( (":-" | "<-") literal ("," literal)* )? "."
//!            | "?-" literal ("," literal)* "."
//! head      := ident ( "(" (term | AGG) ("," (term | AGG))* ")" )?
//! literal   := "!"? atom
//! atom      := ident ( "(" term ("," term)* ")" )?
//! AGG       := ("count" | "sum" | "min" | "max") "<" VARIABLE ">"
//! term      := VARIABLE | ident | INTEGER | STRING
//! VARIABLE  := [A-Z_][A-Za-z0-9_]*
//! ident     := [a-z][A-Za-z0-9_]*          (lower-case: constant or predicate)
//! INTEGER   := -?[0-9]+
//! STRING    := '"' ... '"'
//! ```
//!
//! A `?- q1, ..., qk.` query clause is desugared into the paper's §1 form:
//! a rule `goal(V1, ..., Vn) :- q1, ..., qk.` where `V1..Vn` are the
//! distinct variables of the *positive* query atoms in order of first
//! occurrence (negated subgoals only filter, so their variables are
//! bound elsewhere or the clause is unsafe — MP011).
//!
//! `!` marks a negated subgoal and is only legal in bodies; an aggregate
//! term `func<Var>` is only legal in a rule head, at most once per head,
//! and requires a body to aggregate over. All violations are reported as
//! typed [`DatalogError::Parse`] errors carrying line/column spans.

use crate::facts::FactTables;
use crate::{AggFunc, AggSpec, Atom, DatalogError, Program, Rule, SourceMap, Span, Term, GOAL};
use mp_storage::Value;

/// Parse a program from source text.
pub fn parse_program(src: &str) -> Result<Program, DatalogError> {
    Ok(Parser::new(src).program()?.0)
}

/// Parse a program and record where each rule begins, for rendering
/// diagnostics against the source text. (Fact tables carry their own
/// spans.)
pub fn parse_program_with_spans(src: &str) -> Result<(Program, SourceMap), DatalogError> {
    Parser::new(src).program()
}

/// Parse a single atom (useful in tests and tools).
pub fn parse_atom(src: &str) -> Result<Atom, DatalogError> {
    let mut p = Parser::new(src);
    let a = p.atom()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after atom"));
    }
    Ok(a)
}

/// Parse a single rule or fact terminated by `.`.
pub fn parse_rule(src: &str) -> Result<Rule, DatalogError> {
    let mut p = Parser::new(src);
    let r = match p.clause()? {
        Some(Clause::Rule(r)) => r,
        Some(Clause::Fact(name)) => Rule::fact(Atom::new(name, p.terms.clone())),
        None => return Err(p.err("expected a clause")),
    };
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after clause"));
    }
    Ok(r)
}

/// One parsed clause. A fact's terms stay in the parser's `terms`
/// buffer, so a fact builds no atom of its own.
enum Clause<'a> {
    Rule(Rule),
    /// A fact, by predicate name.
    Fact(&'a str),
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    line_start: usize,
    /// The terms of the last clause head, reused from clause to clause.
    terms: Vec<Term>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            pos: 0,
            line: 1,
            line_start: 0,
            terms: Vec::new(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> DatalogError {
        self.err_at(self.pos, msg)
    }

    /// An error at byte `pos`, which must lie on the current line.
    fn err_at(&self, pos: usize, msg: impl Into<String>) -> DatalogError {
        DatalogError::Parse {
            line: self.line,
            col: pos - self.line_start + 1,
            msg: msg.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.src.as_bytes()[self.pos..].starts_with(token.as_bytes()) {
            for _ in 0..token.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), DatalogError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{token}`")))
        }
    }

    /// An identifier, borrowed from the source.
    fn ident(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                self.bump();
            }
            _ => return None,
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        // Identifiers are ASCII, so both ends are char boundaries.
        Some(&self.src[start..self.pos])
    }

    fn integer(&mut self) -> Result<Option<i64>, DatalogError> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        let digits_start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == digits_start {
            self.pos = start;
            return Ok(None);
        }
        match self.src[start..self.pos].parse() {
            Ok(i) => Ok(Some(i)),
            Err(_) => Err(self.err_at(
                start,
                format!(
                    "integer literal `{}` is out of range for a 64-bit integer",
                    &self.src[start..self.pos]
                ),
            )),
        }
    }

    fn string(&mut self) -> Result<Option<Value>, DatalogError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Ok(None);
        }
        self.bump();
        let mut out = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(c) => out.push(c),
                    None => return Err(self.err("unterminated escape")),
                },
                Some(c) => out.push(c),
            }
        }
        // The literal is a run of the (UTF-8) source with ASCII escapes
        // replaced by ASCII bytes, so it is UTF-8 too.
        let text = String::from_utf8(out).map_err(|_| self.err("string is not valid UTF-8"))?;
        Ok(Some(Value::str(text)))
    }

    fn term(&mut self) -> Result<Term, DatalogError> {
        self.skip_ws();
        if let Some(i) = self.integer()? {
            return Ok(Term::val(i));
        }
        if let Some(v) = self.string()? {
            return Ok(Term::Const(v));
        }
        let start_pos = self.pos;
        match self.ident() {
            Some(name) => {
                let first = name.as_bytes()[0];
                if first.is_ascii_uppercase() || first == b'_' {
                    Ok(Term::var(name))
                } else {
                    // Lower-case identifier in term position: a symbolic
                    // constant.
                    Ok(Term::val(Value::str(name)))
                }
            }
            None => {
                self.pos = start_pos;
                Err(self.err("expected a term"))
            }
        }
    }

    /// A predicate name.
    fn pred_name(&mut self) -> Result<&'a str, DatalogError> {
        self.skip_ws();
        let name = self
            .ident()
            .ok_or_else(|| self.err("expected predicate name"))?;
        if name.as_bytes()[0].is_ascii_uppercase() {
            return Err(self.err("predicate names must start lower-case"));
        }
        Ok(name)
    }

    fn atom(&mut self) -> Result<Atom, DatalogError> {
        let name = self.pred_name()?;
        let mut terms = Vec::new();
        if self.eat("(") {
            loop {
                terms.push(self.term()?);
                if self.eat(",") {
                    continue;
                }
                self.expect(")")?;
                break;
            }
        }
        Ok(Atom::new(name, terms))
    }

    /// Parse a clause head into its predicate name and `self.terms`. An
    /// argument position may also hold a single aggregate term
    /// `func<Var>`.
    fn head(&mut self) -> Result<(&'a str, Option<AggSpec>), DatalogError> {
        let name = self.pred_name()?;
        self.terms.clear();
        let mut agg: Option<AggSpec> = None;
        if self.eat("(") {
            loop {
                if let Some(spec) = self.agg_term(self.terms.len())? {
                    if agg.is_some() {
                        return Err(self.err("at most one aggregate term per rule head"));
                    }
                    self.terms.push(Term::Var(spec.var.clone()));
                    agg = Some(spec);
                } else {
                    let t = self.term()?;
                    self.terms.push(t);
                }
                if self.eat(",") {
                    continue;
                }
                self.expect(")")?;
                break;
            }
        }
        Ok((name, agg))
    }

    /// Try to parse an aggregate head term `count/sum/min/max<Var>` at the
    /// given head position. Backtracks (returning `None`) when the next
    /// token is not an aggregate function name followed by `<`, so plain
    /// constants named `count` etc. keep parsing as before.
    fn agg_term(&mut self, position: usize) -> Result<Option<AggSpec>, DatalogError> {
        self.skip_ws();
        let start = (self.pos, self.line, self.line_start);
        let Some(name) = self.ident() else {
            return Ok(None);
        };
        let func = match AggFunc::parse(name) {
            Some(f) if self.eat("<") => f,
            _ => {
                (self.pos, self.line, self.line_start) = start;
                return Ok(None);
            }
        };
        let var = self
            .ident()
            .ok_or_else(|| self.err(format!("expected a variable inside `{name}<...>`")))?;
        if !(var.as_bytes()[0].is_ascii_uppercase() || var.as_bytes()[0] == b'_') {
            return Err(self.err(format!(
                "aggregate `{name}<{var}>` must name a variable (upper-case)"
            )));
        }
        self.expect(">")?;
        Ok(Some(AggSpec {
            func,
            var: crate::Var::new(var),
            position,
        }))
    }

    /// Parse a body: positive subgoals and `!`-prefixed negated subgoals,
    /// each kept in source order within its polarity.
    fn body(&mut self) -> Result<(Vec<Atom>, Vec<Atom>), DatalogError> {
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        loop {
            if self.eat("!") {
                neg.push(self.atom()?);
            } else {
                pos.push(self.atom()?);
            }
            if !self.eat(",") {
                break;
            }
        }
        Ok((pos, neg))
    }

    /// Parse one clause; `None` at end of input.
    fn clause(&mut self) -> Result<Option<Clause<'a>>, DatalogError> {
        self.skip_ws();
        if self.at_end() {
            return Ok(None);
        }
        if self.eat("?-") {
            let (body, neg) = self.body()?;
            self.expect(".")?;
            // Desugar: goal(V1..Vn) :- body, over distinct positive-body
            // variables in order of first occurrence. Negated subgoals
            // filter; they never introduce head variables.
            let mut vars = Vec::new();
            for a in &body {
                for v in a.vars() {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
            }
            let head = Atom::new(GOAL, vars.into_iter().map(Term::Var).collect());
            return Ok(Some(Clause::Rule(Rule::new(head, body).with_neg(neg))));
        }
        let (name, agg) = self.head()?;
        if self.eat(":-") || self.eat("<-") {
            let head = Atom::new(name, self.terms.drain(..).collect());
            let (body, neg) = self.body()?;
            self.expect(".")?;
            let mut rule = Rule::new(head, body).with_neg(neg);
            if let Some(spec) = agg {
                rule = rule.with_agg(spec);
            }
            Ok(Some(Clause::Rule(rule)))
        } else {
            self.expect(".")?;
            if agg.is_some() {
                return Err(self.err("an aggregate head requires a rule body"));
            }
            Ok(Some(Clause::Fact(name)))
        }
    }

    /// Position of the next non-whitespace byte.
    fn here(&mut self) -> Span {
        self.skip_ws();
        Span::new(self.line, self.pos - self.line_start + 1)
    }

    /// The whole program. Each fact goes straight from the head buffer
    /// into its predicate's table.
    fn program(&mut self) -> Result<(Program, SourceMap), DatalogError> {
        let mut rules = Vec::new();
        let mut facts = FactTables::default();
        let mut map = SourceMap::default();
        loop {
            let span = self.here();
            match self.clause()? {
                None => break,
                Some(Clause::Rule(r)) => {
                    rules.push(r);
                    map.rule_spans.push(span);
                }
                Some(Clause::Fact(name)) => facts.push(name, &self.terms, Some(span)),
            }
        }
        let facts = facts.finish();
        Ok((Program { rules, facts }, map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, FactTable, Var};
    use mp_storage::tuple;

    #[test]
    fn parses_facts_rules_and_query() {
        let p = parse_program(
            r#"
            % the paper's P1, with an EDB sample
            r(1, 2).
            r(2, 3).
            p(X, Y) :- r(X, Y).
            p(X, Y) :- p(X, V), q(V, W), p(W, Y).
            ?- p(1, Z).
            "#,
        )
        .unwrap();
        assert_eq!(p.facts.len(), 1);
        let FactTable::Rows { rows, span, .. } = &p.facts[0] else {
            panic!("ground facts make a row table")
        };
        assert_eq!(rows.rows(), &[tuple![1, 2], tuple![2, 3]]);
        assert_eq!(*span, Some(Span::new(3, 13)));
        assert_eq!(p.rules.len(), 3);
        let q: Vec<_> = p.query_rules().collect();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].head, atom!("goal"; var "Z"));
        assert_eq!(q[0].body[0], atom!("p"; val 1, var "Z"));
    }

    #[test]
    fn query_head_vars_in_first_occurrence_order() {
        let p = parse_program("?- a(Y, X), b(X, Z).").unwrap();
        let q = p.query_rules().next().unwrap();
        assert_eq!(
            q.head.vars(),
            vec![Var::new("Y"), Var::new("X"), Var::new("Z")]
        );
    }

    #[test]
    fn term_kinds() {
        let a = parse_atom(r#"p(X, _anon, foo, -12, "hi there")"#).unwrap();
        assert_eq!(a.terms[0], Term::var("X"));
        assert_eq!(a.terms[1], Term::var("_anon"));
        assert_eq!(a.terms[2], Term::val(Value::str("foo")));
        assert_eq!(a.terms[3], Term::val(-12));
        assert_eq!(a.terms[4], Term::val(Value::str("hi there")));
    }

    #[test]
    fn nullary_atoms() {
        let p = parse_program("yes. win :- yes. ?- win.").unwrap();
        assert_eq!(p.facts[0].arity(), 0);
        assert_eq!(p.rules[0].head, atom!("win"));
    }

    #[test]
    fn alternative_arrow() {
        let r = parse_rule("p(X) <- e(X).").unwrap();
        assert_eq!(r.body.len(), 1);
    }

    #[test]
    fn string_escapes() {
        let a = parse_atom(r#"p("a\nb\"c")"#).unwrap();
        assert_eq!(a.terms[0], Term::val(Value::str("a\nb\"c")));
    }

    #[test]
    fn string_literals_decode_as_utf8() {
        let a = parse_atom(r#"p("héllo", "日本\"語", "\é")"#).unwrap();
        assert_eq!(a.terms[0], Term::val(Value::str("héllo")));
        assert_eq!(a.terms[1], Term::val(Value::str("日本\"語")));
        // An escaped non-ASCII character is the character itself.
        assert_eq!(a.terms[2], Term::val(Value::str("é")));
    }

    #[test]
    fn out_of_range_integers_are_reported_at_the_literal() {
        for (src, col) in [
            ("p(99999999999999999999).", 3),
            ("p(1, -99999999999999999999).", 6),
            ("q(X) :- e(X, 9223372036854775808).", 14),
        ] {
            match parse_program(src) {
                Err(DatalogError::Parse {
                    line: 1,
                    col: c,
                    msg,
                }) => {
                    assert_eq!(c, col, "{src}: {msg}");
                    assert!(msg.contains("out of range"), "{src}: {msg}");
                }
                other => panic!("expected a parse error for {src:?}, got {other:?}"),
            }
        }
        // The extremes themselves parse.
        let a = parse_atom("p(-9223372036854775808, 9223372036854775807)").unwrap();
        assert_eq!(a.terms, vec![Term::val(i64::MIN), Term::val(i64::MAX)]);
    }

    #[test]
    fn facts_become_one_table_per_predicate_and_arity() {
        let p = parse_program(
            "e(1, 2). f(a). e(2, 3).\ne(X, 1). e(1, 2). f(a, b). p(X) :- e(X, Y), f(Y).",
        )
        .unwrap();
        let summary: Vec<(String, usize, Option<Span>, usize)> = p
            .facts
            .iter()
            .map(|t| {
                let rows = match t {
                    FactTable::Rows { rows, .. } => rows.len(),
                    FactTable::NonGround { .. } => 0,
                };
                (t.pred().to_string(), t.arity(), t.span(), rows)
            })
            .collect();
        assert_eq!(
            summary,
            vec![
                ("e".into(), 2, Some(Span::new(1, 1)), 2),
                ("f".into(), 1, Some(Span::new(1, 10)), 1),
                ("e".into(), 2, Some(Span::new(2, 1)), 0),
                ("f".into(), 2, Some(Span::new(2, 19)), 1),
            ]
        );
        assert_eq!(p.facts[2].first_fact(), atom!("e"; var "X", val 1));
        assert_eq!(p.facts[3].first_fact().to_string(), "f(a, b)");
        assert_eq!(p.rules.len(), 1);
        // A single clause still parses as a fact rule.
        let r = parse_rule("e(1, 2).").unwrap();
        assert!(r.is_fact());
        assert_eq!(r.head, atom!("e"; val 1, val 2));
    }

    #[test]
    fn error_positions() {
        let e = parse_program("p(X :- q(X).").unwrap_err();
        match e {
            DatalogError::Parse { line, col, .. } => {
                assert_eq!(line, 1);
                assert!(col > 1);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_uppercase_predicate() {
        assert!(parse_program("Pred(x).").is_err());
    }

    #[test]
    fn comments_anywhere() {
        let p = parse_program("p(1). % trailing\n% full line\nq(2).").unwrap();
        assert_eq!(p.facts.len(), 2);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(parse_atom(r#"p("oops)"#).is_err());
    }

    #[test]
    fn round_trip_display_parse() {
        let src = "p(X, Z) :- a(X, Y), b(Y, Z).";
        let r = parse_rule(src).unwrap();
        let r2 = parse_rule(&r.to_string()).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn parses_negated_subgoals() {
        let r = parse_rule("win(X) :- move(X, Y), !win(Y).").unwrap();
        assert_eq!(r.body, vec![atom!("move"; var "X", var "Y")]);
        assert_eq!(r.neg, vec![atom!("win"; var "Y")]);
        assert!(!r.is_fact());
        // A body of only negated subgoals still parses (safety is MP011's
        // job, not the parser's) and is not a fact.
        let r = parse_rule("odd(X) :- !even(X).").unwrap();
        assert!(r.body.is_empty());
        assert_eq!(r.neg.len(), 1);
        assert!(!r.is_fact());
    }

    #[test]
    fn parses_aggregate_heads() {
        let r = parse_rule("total(D, sum<S>) :- pay(D, E, S).").unwrap();
        let agg = r.agg.as_ref().unwrap();
        assert_eq!(agg.func, crate::AggFunc::Sum);
        assert_eq!(agg.var, Var::new("S"));
        assert_eq!(agg.position, 1);
        // The aggregate position holds the variable as an ordinary term.
        assert_eq!(r.head, atom!("total"; var "D", var "S"));
        for func in ["count", "min", "max"] {
            let r = parse_rule(&format!("a({func}<X>) :- e(X).")).unwrap();
            assert_eq!(r.agg.as_ref().unwrap().func.name(), func);
        }
    }

    #[test]
    fn aggregate_name_without_bracket_is_a_constant() {
        let r = parse_rule("p(count) :- e(count).").unwrap();
        assert!(r.agg.is_none());
        assert_eq!(r.head.terms[0], Term::val(Value::str("count")));
    }

    #[test]
    fn neg_and_agg_round_trip_display_parse() {
        for src in [
            "win(X) :- move(X, Y), !win(Y).",
            "total(D, sum<S>) :- pay(D, E, S).",
            "rcount(X, count<Y>) :- reach(X, Y), !blocked(X).",
        ] {
            let r = parse_rule(src).unwrap();
            let r2 = parse_rule(&r.to_string()).unwrap();
            assert_eq!(r, r2, "round-tripping {src}");
        }
    }

    #[test]
    fn query_head_vars_ignore_negated_subgoals() {
        let p = parse_program("?- p(X), !q(X, Y).").unwrap();
        let q = p.query_rules().next().unwrap();
        assert_eq!(q.head.vars(), vec![Var::new("X")]);
        assert_eq!(q.neg, vec![atom!("q"; var "X", var "Y")]);
    }

    #[test]
    fn aggregate_misuse_is_a_typed_parse_error() {
        for src in [
            "total(sum<S>).",                  // fact head
            "p(sum<S>, count<T>) :- e(S, T).", // two aggregates
            "p(sum<s>) :- e(X).",              // lower-case "variable"
            "p(sum<>) :- e(X).",               // missing variable
            "p(sum<S) :- e(S).",               // missing close
            "p(X) :- q(sum<S>).",              // aggregate in body
        ] {
            match parse_program(src) {
                Err(DatalogError::Parse { line, col, .. }) => {
                    assert!(line >= 1 && col >= 1, "span for {src}");
                }
                other => panic!("expected parse error for {src:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn bang_outside_body_is_an_error() {
        assert!(parse_program("!p(1).").is_err());
        assert!(parse_program("?- !!p(X).").is_err());
    }
}
