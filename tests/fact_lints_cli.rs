//! CLI surface of bad inline facts: `mpq` hands the engine an empty
//! database and lets it load the program's facts, so a fact with the
//! wrong arity or a variable is rejected by the compile-time lints
//! (MP002, MP008) with exit status 1. The `--baseline` path loads the
//! facts itself and refuses the same inputs.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// Run `mpq ARGS` with `source` on stdin.
fn mpq_stdin(args: &[&str], source: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mpq"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mpq runs");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(source.as_bytes())
        .expect("mpq reads stdin");
    child.wait_with_output().expect("mpq exits")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

const ARITY_CONFLICT: &str = "e(1). e(1, 2).\np(X) :- e(X).\n?- p(X).\n";
const NON_GROUND: &str = "e(1). e(X).\np(X) :- e(X).\n?- p(X).\n";

#[test]
fn arity_conflicting_facts_fail_with_mp002() {
    let out = mpq_stdin(&[], ARITY_CONFLICT);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("MP002"), "{}", stderr(&out));
    assert!(out.stdout.is_empty());
}

#[test]
fn non_ground_facts_fail_with_mp008() {
    let out = mpq_stdin(&[], NON_GROUND);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("MP008"), "{}", stderr(&out));
    assert!(out.stdout.is_empty());
}

#[test]
fn baselines_refuse_bad_facts() {
    for src in [ARITY_CONFLICT, NON_GROUND] {
        let out = mpq_stdin(&["--baseline", "naive"], src);
        assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn clean_facts_still_answer() {
    let out = mpq_stdin(&[], "e(1). e(2).\np(X) :- e(X).\n?- p(X).\n");
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(String::from_utf8(out.stdout).unwrap(), "(1)\n(2)\n");
}
