//! Source positions for parsed clauses.
//!
//! Rules stay a pure AST — compared structurally in tests and built
//! programmatically by workloads — so their positions live in a side
//! table ([`SourceMap`]) produced by
//! [`parser::parse_program_with_spans`](crate::parser::parse_program_with_spans)
//! and consumed by diagnostics tooling (the `mp-lint` crate). An inline
//! fact table records where its first fact begins itself.

/// A 1-based source position: where a clause begins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
}

impl Span {
    /// Build a span.
    pub fn new(line: usize, col: usize) -> Self {
        Span { line, col }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Rule positions for one parsed program, aligned by index with
/// `Program::rules`. Each inline fact table carries its own span
/// ([`FactTable::span`](crate::FactTable::span)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceMap {
    /// `rule_spans[i]` is where `program.rules[i]` begins.
    pub rule_spans: Vec<Span>,
}

impl SourceMap {
    /// Span of rule `i`, if tracked.
    pub fn rule(&self, i: usize) -> Option<Span> {
        self.rule_spans.get(i).copied()
    }
}
