//! Machine speed, from a fixed kernel that owes nothing to the program
//! under test and is timed alongside it.
//!
//! On a shared host the same binary on the same input runs up to 1.9×
//! slower from one minute to the next (CPU time grows with wall time, so
//! it is not waiting), while the ratio between any two of the program's
//! operations holds within a few percent. Each run times this kernel
//! between its operations; dividing each operation's time by the
//! kernel's median time around it, relative to [`NOMINAL_MS`], reports
//! it at one nominal speed, so a change in a reported time is a change
//! the program made.
//!
//! The kernel does what the front end does: it formats facts as text,
//! parses them back, and builds and probes hash and ordered indexes. On a
//! shared 2-CPU x86-64 container, over 100 s in which the `win-move`
//! query time moved by ±19%, query time over kernel time moved by ±4%.
//! Page-fault and process start-up costs, which `mpq` runs pay, can move
//! without it.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time, in ms, at nominal speed.
pub const NOMINAL_MS: f64 = 20.0;

/// Facts the kernel formats, parses and indexes.
const FACTS: usize = 40_000;

/// Run the kernel once and return its time in ms.
pub fn sample_ms() -> f64 {
    let t0 = Instant::now();
    // A fixed xorshift sequence: the same input on every run.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut text = String::with_capacity(FACTS * 16);
    for _ in 0..FACTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        writeln!(text, "e({}, {}).", x % 5000, (x >> 20) % 5000).expect("write to String");
    }
    let mut by_src: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut by_dst: BTreeSet<(u64, u64)> = BTreeSet::new();
    for line in text.lines() {
        let (a, b) = line[2..line.len() - 2]
            .split_once(", ")
            .expect("the kernel's own format");
        let a: u64 = a.parse().expect("the kernel's own format");
        let b: u64 = b.parse().expect("the kernel's own format");
        by_src.entry(a).or_default().push(b);
        by_dst.insert((b, a));
    }
    let mut joined = 0usize;
    for dsts in by_src.values() {
        for d in dsts {
            joined += by_src.get(d).map_or(0, Vec::len);
        }
    }
    black_box((joined, by_dst.len()));
    t0.elapsed().as_secs_f64() * 1000.0
}
