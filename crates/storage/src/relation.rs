//! Duplicate-free, insertion-ordered relations with incrementally
//! maintained hash indexes over column-major storage.
//!
//! Deletion of duplicates is load-bearing in the paper: "Detection of
//! duplicates is necessary to allow loops to terminate" (§3.1). Every
//! relation here is a set; [`Relation::insert`] reports whether the tuple
//! was genuinely new, which is exactly the signal nodes use to decide
//! whether to forward an answer tuple.
//!
//! Rows are stored twice, deliberately:
//!
//! * a row arena (`Vec<Tuple>`) keeps the `Arc<[Value]>` tuple view the
//!   message plane ships — cloning a row out of the arena is a refcount
//!   bump, and
//! * a column-major mirror (one `Vec<Value>` per column of interned
//!   tagged words) feeds the scan, probe-verification, and batched
//!   key-hashing kernels with contiguous slices — no per-row `Arc`
//!   dereference, no pointer chasing, in the hot loops.
//!
//! The dedup structure and every [`KeyIndex`] hold `u32` row ids into the
//! arena and store *hashes*, not keys: candidates are verified against
//! the column mirror, so a tuple's values are never stored a third time
//! and indexes stay valid as rows are appended.
//!
//! The dedup set is a chained hash table: a map from row hash to the
//! newest row with that hash, plus one `next` link per row to the
//! previous row with the same hash. A new distinct row costs one map
//! entry and one `u32`, not a `Vec` of its own.

use crate::fast_hash::{fold_key_word, FastMap, FastSet};
use crate::{FastHasher, StorageError, Tuple, Value};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault};

/// Fold a probe key into the `u64` bucket hash all key indexes share.
/// The fold must match [`Relation::key_hashes`] word for word: the
/// batched per-column pass and the per-key pass land in the same bucket.
#[inline]
pub(crate) fn key_hash(key: &[Value]) -> u64 {
    key.iter().fold(0, |h, v| fold_key_word(h, v.key_word()))
}

/// End of a dedup hash chain.
const NO_ROW: u32 = u32::MAX;

/// A set of same-arity tuples, iterated in insertion order.
///
/// The relation owns its rows in an arena (plus the column-major mirror)
/// and maintains, on demand, hash indexes over arbitrary column sets
/// ([`Relation::ensure_index`]) that are updated incrementally on every
/// [`Relation::insert`]. Rule nodes store their subgoals' temporary
/// relations (§3.1) and probe them by `d`-column values on every
/// arriving tuple; prepared indexes keep those probes O(1) amortized as
/// tuples trickle in.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    arity: usize,
    rows: Vec<Tuple>,
    /// Column-major mirror of `rows`: `cols[c][i] == rows[i][c]`. The
    /// scan and verification kernels loop over these contiguous slices.
    cols: Vec<Vec<Value>>,
    /// Dedup set, the head of each hash chain: row hash → id of the
    /// newest row with that hash. Holds ids, not cloned tuples;
    /// candidates are verified against the arena. Keys are interned
    /// engine data, so the deterministic [`FastHasher`] replaces SipHash
    /// on this hottest of paths.
    dedup: FastMap<u64, u32>,
    /// Hash chains: `next[i]` is the previous row with row `i`'s hash,
    /// or [`NO_ROW`] at the end of the chain.
    next: Vec<u32>,
    /// Hash state used to fold a row into the `u64` dedup key.
    state: BuildHasherDefault<FastHasher>,
    indexes: HashMap<Vec<usize>, KeyIndex>,
}

impl Relation {
    /// Create an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            rows: Vec::new(),
            cols: vec![Vec::new(); arity],
            dedup: FastMap::default(),
            next: Vec::new(),
            state: BuildHasherDefault::default(),
            indexes: HashMap::new(),
        }
    }

    /// Create a relation from an iterator of tuples, deduplicating.
    /// Errors if any tuple disagrees with `arity`.
    pub fn from_tuples(
        arity: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, StorageError> {
        let mut rel = Relation::new(arity);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The id of the arena row equal to `values`, if any (a relation
    /// is a set, so there is at most one).
    fn find(&self, values: &[Value]) -> Option<u32> {
        self.find_hashed(self.state.hash_one(values), values)
    }

    fn find_hashed(&self, h: u64, values: &[Value]) -> Option<u32> {
        let mut id = *self.dedup.get(&h)?;
        while id != NO_ROW {
            if self.rows[id as usize].values() == values {
                return Some(id);
            }
            id = self.next[id as usize];
        }
        None
    }

    fn check_arity(&self, got: usize) -> Result<(), StorageError> {
        if got == self.arity {
            Ok(())
        } else {
            Err(StorageError::ArityMismatch {
                expected: self.arity,
                got,
            })
        }
    }

    /// Insert a tuple. Returns `Ok(true)` if the tuple was new, `Ok(false)`
    /// if it was a duplicate. All prepared indexes are updated.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, StorageError> {
        self.check_arity(t.arity())?;
        // `Tuple` hashes exactly like its value slice.
        let h = self.state.hash_one(t.values());
        if self.find_hashed(h, t.values()).is_some() {
            return Ok(false);
        }
        self.push_new(h, t);
        Ok(true)
    }

    /// [`Relation::insert`] from a borrowed value slice: the tuple is
    /// only allocated when the row is new. Bulk loaders that parse rows
    /// into a reused buffer pay nothing for a duplicate.
    pub fn insert_values(&mut self, values: &[Value]) -> Result<bool, StorageError> {
        self.check_arity(values.len())?;
        let h = self.state.hash_one(values);
        if self.find_hashed(h, values).is_some() {
            return Ok(false);
        }
        self.push_new(h, Tuple::from(values));
        Ok(true)
    }

    /// Append a row known to be new, with its dedup hash `h`.
    fn push_new(&mut self, h: u64, t: Tuple) {
        let row_id = u32::try_from(self.rows.len())
            .ok()
            .filter(|&id| id != NO_ROW)
            .expect("relation exceeds the u32 row id space");
        for idx in self.indexes.values_mut() {
            idx.add(row_id, &t);
        }
        for (col, &v) in self.cols.iter_mut().zip(t.values()) {
            col.push(v);
        }
        self.rows.push(t);
        self.next
            .push(self.dedup.insert(h, row_id).unwrap_or(NO_ROW));
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.find(t.values()).is_some()
    }

    /// Iterate in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.rows.iter()
    }

    /// The rows as a slice (insertion order).
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// One column of the column-major mirror, as a contiguous slice of
    /// interned words: `column(c)[i] == rows()[i][c]`. This is the slice
    /// the tight scan/join kernels loop over.
    ///
    /// # Panics
    /// Panics if `c >= arity()`.
    pub fn column(&self, c: usize) -> &[Value] {
        &self.cols[c]
    }

    /// Batched key hashing over the column mirror: one pass per key
    /// column, folding each row's word into its running bucket hash.
    /// `key_hashes(cols)[i]` equals [`key_hash`] of row `i` projected
    /// onto `cols` — the join kernels compute the whole probe-hash
    /// column in column-at-a-time passes instead of gathering per row.
    ///
    /// Callers validate `cols` against the arity first.
    pub(crate) fn key_hashes(&self, cols: &[usize]) -> Vec<u64> {
        let mut hashes = vec![0u64; self.rows.len()];
        for &c in cols {
            let col = &self.cols[c];
            for (h, v) in hashes.iter_mut().zip(col) {
                *h = fold_key_word(*h, v.key_word());
            }
        }
        hashes
    }

    /// A canonically sorted copy of the rows, for order-insensitive
    /// comparisons in tests and reports.
    pub fn sorted_rows(&self) -> Vec<Tuple> {
        let mut v = self.rows.clone();
        v.sort();
        v
    }

    /// Set equality (ignores insertion order).
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.rows.len() == other.rows.len()
            && other.iter().all(|t| self.contains(t))
    }

    /// Ensure an index exists on `cols` (builds it over existing rows);
    /// it is then maintained incrementally by [`Relation::insert`].
    pub fn ensure_index(&mut self, cols: &[usize]) -> Result<(), StorageError> {
        if !self.indexes.contains_key(cols) {
            let idx = KeyIndex::build(self, cols)?;
            self.indexes.insert(cols.to_vec(), idx);
        }
        Ok(())
    }

    /// The prepared index on exactly `cols`, if any.
    pub fn index_for(&self, cols: &[usize]) -> Option<&KeyIndex> {
        self.indexes.get(cols)
    }

    /// Tuples whose projection onto `cols` equals `key`, using an index if
    /// one exists on exactly those columns, else scanning.
    ///
    /// Call [`Relation::ensure_index`] up front on hot column sets.
    pub fn lookup<'a>(&'a self, cols: &[usize], key: &Tuple) -> Vec<&'a Tuple> {
        self.probe(cols, key.values())
    }

    /// The shared probe kernel: row ids matching `key` on `cols`, fed to
    /// `f` in arena order. Index-backed when a prepared index exists on
    /// exactly `cols` (hash-bucket candidates verified against the
    /// column mirror), else a tight scan over the column slices.
    fn probe_ids(&self, cols: &[usize], key: &[Value], mut f: impl FnMut(u32)) {
        if let Some(idx) = self.indexes.get(cols) {
            for id in idx.probe_in(self, key) {
                f(id);
            }
            return;
        }
        // Columnar scan fallback. A column outside the arity matches
        // nothing (same contract the tuple-at-a-time scan had); extra
        // probe columns beyond the key (or vice versa) are ignored.
        let mut pairs: Vec<(&[Value], Value)> = Vec::with_capacity(cols.len().min(key.len()));
        for (&c, &v) in cols.iter().zip(key) {
            match self.cols.get(c) {
                Some(col) => pairs.push((col.as_slice(), v)),
                None => return,
            }
        }
        'row: for i in 0..self.rows.len() {
            for (col, v) in &pairs {
                if col[i] != *v {
                    continue 'row;
                }
            }
            f(i as u32);
        }
    }

    /// [`Relation::lookup`] with a borrowed key slice — the engine's
    /// per-tuple probe form, no key allocation when an index exists.
    pub fn probe<'a>(&'a self, cols: &[usize], key: &[Value]) -> Vec<&'a Tuple> {
        let mut out = Vec::new();
        self.probe_ids(cols, key, |i| out.push(&self.rows[i as usize]));
        out
    }

    /// Owned-tuples form of [`Relation::probe`]: clones the matches
    /// straight out of the arena — one result allocation, no
    /// intermediate reference vector. The engine's join kernels use this
    /// when they must release the borrow before acting on the matches.
    pub fn probe_cloned(&self, cols: &[usize], key: &[Value]) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.probe_ids(cols, key, |i| out.push(self.rows[i as usize].clone()));
        out
    }

    /// Distinct values of a single column (insertion order of first sight).
    pub fn distinct_column(&self, col: usize) -> Vec<Value> {
        let mut seen = FastSet::default();
        let mut out = Vec::new();
        for &v in &self.cols[col] {
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}
impl Eq for Relation {}

/// Historical name for a [`Relation`] with prepared indexes. Index
/// maintenance now lives on [`Relation`] itself; the alias keeps older
/// call sites and tests readable.
pub type IndexedRelation = Relation;

/// A hash index from values of a column subset to candidate row ids.
///
/// The map is keyed by the *hash* of the key, not the key itself — the
/// index never stores tuple data, only `u32` ids into the owning
/// relation's arena. Probes verify candidates against the relation's
/// column mirror ([`KeyIndex::probe_in`]), so hash collisions are
/// benign; they cost a failed comparison, never a wrong answer.
#[derive(Clone, Debug, Default)]
pub struct KeyIndex {
    cols: Vec<usize>,
    /// Bucket-hash of the projected key → candidate row ids.
    buckets: FastMap<u64, Vec<u32>>,
}

impl KeyIndex {
    /// Build an index over `cols` for all rows of `rel`, hashing the key
    /// columns in batched column-at-a-time passes.
    pub fn build(rel: &Relation, cols: &[usize]) -> Result<Self, StorageError> {
        for &c in cols {
            if c >= rel.arity() {
                return Err(StorageError::ColumnOutOfBounds {
                    column: c,
                    arity: rel.arity(),
                });
            }
        }
        let mut idx = KeyIndex {
            cols: cols.to_vec(),
            buckets: FastMap::default(),
        };
        for (i, h) in rel.key_hashes(cols).into_iter().enumerate() {
            idx.buckets.entry(h).or_default().push(i as u32);
        }
        Ok(idx)
    }

    /// The indexed columns.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Register a row in the index. Hashes the key columns straight out
    /// of the tuple — nothing is projected or stored.
    pub fn add(&mut self, row_id: u32, t: &Tuple) {
        let h = self
            .cols
            .iter()
            .fold(0, |h, &c| fold_key_word(h, t[c].key_word()));
        self.buckets.entry(h).or_default().push(row_id);
    }

    /// Unverified candidate row ids in the bucket for a precomputed key
    /// hash. The batch join kernels pair this with [`KeyIndex::verify`]
    /// after a [`Relation::key_hashes`] pass.
    pub(crate) fn candidates(&self, hash: u64) -> &[u32] {
        self.buckets.get(&hash).map_or(&[], Vec::as_slice)
    }

    /// True if arena row `id` of `rel` matches `key` on the indexed
    /// columns — a tight comparison against the column mirror.
    pub(crate) fn verify(&self, rel: &Relation, id: u32, key: &[Value]) -> bool {
        self.cols
            .iter()
            .zip(key)
            .all(|(&c, v)| rel.cols[c][id as usize] == *v)
    }

    /// Row ids of `rel` whose projection onto the indexed columns equals
    /// `key`, in arena order: bucket candidates verified against the
    /// column mirror. `rel` must be the relation the index was built
    /// over (or is maintained by).
    pub fn probe_in<'a>(
        &'a self,
        rel: &'a Relation,
        key: &'a [Value],
    ) -> impl Iterator<Item = u32> + 'a {
        let cands = if key.len() == self.cols.len() {
            self.candidates(key_hash(key))
        } else {
            // A mis-sized key can never equal a projection onto `cols`.
            &[]
        };
        cands
            .iter()
            .copied()
            .filter(move |&id| self.verify(rel, id, key))
    }

    /// Number of distinct key hashes (equals the number of distinct keys
    /// up to hash collisions, which the probes tolerate).
    pub fn distinct_keys(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rel(rows: &[Tuple]) -> Relation {
        Relation::from_tuples(rows.first().map_or(0, Tuple::arity), rows.iter().cloned())
            .expect("test rows share an arity")
    }

    #[test]
    fn insert_deduplicates_and_preserves_order() {
        let mut r = Relation::new(2);
        assert!(r.insert(tuple![1, 2]).unwrap());
        assert!(r.insert(tuple![3, 4]).unwrap());
        assert!(!r.insert(tuple![1, 2]).unwrap());
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows(), &[tuple![1, 2], tuple![3, 4]]);
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut r = Relation::new(2);
        assert_eq!(
            r.insert(tuple![1]),
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn from_tuples_reports_ragged_arity() {
        let err = Relation::from_tuples(2, vec![tuple![1, 2], tuple![3]]);
        assert_eq!(
            err,
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn set_eq_ignores_order() {
        let a = rel(&[tuple![1, 2], tuple![3, 4]]);
        let b = rel(&[tuple![3, 4], tuple![1, 2]]);
        assert_eq!(a, b);
        let c = rel(&[tuple![1, 2]]);
        assert_ne!(a, c);
    }

    #[test]
    fn column_mirror_tracks_rows() {
        let r = rel(&[tuple![1, 10], tuple![2, 20], tuple![3, 30]]);
        assert_eq!(r.column(0), &[Value::int(1), Value::int(2), Value::int(3)]);
        assert_eq!(
            r.column(1),
            &[Value::int(10), Value::int(20), Value::int(30)]
        );
        for (i, t) in r.iter().enumerate() {
            assert_eq!(r.column(0)[i], t[0]);
            assert_eq!(r.column(1)[i], t[1]);
        }
    }

    #[test]
    fn batched_key_hashes_match_scalar_fold() {
        let r = rel(&[tuple![1, 10, "a"], tuple![2, 20, "b"], tuple![1, 20, "a"]]);
        let cols = [2usize, 0];
        let batched = r.key_hashes(&cols);
        for (i, t) in r.iter().enumerate() {
            let key: Vec<Value> = cols.iter().map(|&c| t[c]).collect();
            assert_eq!(batched[i], key_hash(&key), "row {i}");
        }
    }

    #[test]
    fn key_index_lookup() {
        let r = rel(&[tuple![1, 10], tuple![1, 11], tuple![2, 20]]);
        let idx = KeyIndex::build(&r, &[0]).unwrap();
        let ids = |key: &Tuple| -> Vec<u32> { idx.probe_in(&r, key.values()).collect() };
        assert_eq!(ids(&tuple![1]), vec![0, 1]);
        assert_eq!(ids(&tuple![2]), vec![2]);
        assert_eq!(ids(&tuple![9]), Vec::<u32>::new());
        // A mis-sized probe key matches nothing.
        assert_eq!(ids(&tuple![1, 10]), Vec::<u32>::new());
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn key_index_rejects_bad_column() {
        let r = rel(&[tuple![1, 2]]);
        assert!(matches!(
            KeyIndex::build(&r, &[5]),
            Err(StorageError::ColumnOutOfBounds {
                column: 5,
                arity: 2
            })
        ));
    }

    #[test]
    fn indexed_relation_incremental_maintenance() {
        let mut r = IndexedRelation::new(2);
        r.ensure_index(&[0]).unwrap();
        r.insert(tuple![1, 10]).unwrap();
        r.insert(tuple![1, 11]).unwrap();
        r.insert(tuple![2, 20]).unwrap();
        assert!(!r.insert(tuple![2, 20]).unwrap());
        let hits = r.lookup(&[0], &tuple![1]);
        assert_eq!(hits.len(), 2);
        // Lookup without a prepared index falls back to scanning.
        let hits2 = r.lookup(&[1], &tuple![20]);
        assert_eq!(hits2, vec![&tuple![2, 20]]);
    }

    #[test]
    fn distinct_column_orders_by_first_sight() {
        let mut r = IndexedRelation::new(2);
        for t in [tuple![2, 0], tuple![1, 0], tuple![2, 1]] {
            r.insert(t).unwrap();
        }
        assert_eq!(r.distinct_column(0), vec![Value::int(2), Value::int(1)]);
    }

    #[test]
    fn clone_preserves_dedup_and_indexes() {
        let mut r = Relation::new(2);
        r.ensure_index(&[0]).unwrap();
        r.insert(tuple![1, 10]).unwrap();
        let mut c = r.clone();
        assert!(!c.insert(tuple![1, 10]).unwrap());
        assert!(c.insert(tuple![1, 11]).unwrap());
        assert_eq!(c.lookup(&[0], &tuple![1]).len(), 2);
        // The original is untouched.
        assert_eq!(r.len(), 1);
        assert_eq!(c.column(1).len(), 2);
    }

    /// Rows `(a, y)` whose dedup hashes all equal that of `(0, 0)`, one
    /// per `a` in `keys`. The last word the hasher mixes is the final
    /// integer payload, `h = (rotl(p, 5) ^ y) * SEED` with `p` the state
    /// before it, so `y` is solved for by inverting the multiply.
    fn colliding_rows(r: &Relation, keys: std::ops::Range<i64>) -> Vec<Tuple> {
        let seed = crate::fast_hash::SEED;
        let mut inv = seed;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(seed.wrapping_mul(inv)));
        }
        assert_eq!(seed.wrapping_mul(inv), 1);
        let pre = |a: i64| r.state.hash_one(tuple![a, 0].values()).wrapping_mul(inv);
        let rows: Vec<Tuple> = keys.map(|a| tuple![a, (pre(0) ^ pre(a)) as i64]).collect();
        let target = r.state.hash_one(tuple![0, 0].values());
        for t in &rows {
            assert_eq!(r.state.hash_one(t.values()), target, "{t} must collide");
        }
        rows
    }

    #[test]
    fn chained_dedup_rejects_duplicates() {
        let mut r = Relation::new(2);
        for i in 0..50i64 {
            assert!(r.insert(tuple![i % 10, i / 10]).unwrap());
        }
        for i in (0..50i64).rev() {
            assert!(!r.insert(tuple![i % 10, i / 10]).unwrap());
            assert!(!r
                .insert_values(&[Value::int(i % 10), Value::int(i / 10)])
                .unwrap());
        }
        assert_eq!(r.len(), 50);
        assert!(r
            .insert_values(&[Value::int(99), Value::str("new")])
            .unwrap());
        assert_eq!(r.rows()[50], tuple![99, "new"]);
        assert_eq!(
            r.insert_values(&[Value::int(1)]),
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
        // Arity 0: the empty row is the only row.
        let mut unit = Relation::new(0);
        assert!(unit.insert(Tuple::unit()).unwrap());
        assert!(!unit.insert_values(&[]).unwrap());
        assert_eq!(unit.len(), 1);
    }

    #[test]
    fn chained_dedup_survives_hash_collisions() {
        let mut r = Relation::new(2);
        let rows = colliding_rows(&r, 1..9);
        // Every row lands in one chain; each is still told apart.
        for t in &rows {
            assert!(r.insert(t.clone()).unwrap());
        }
        assert_eq!(r.dedup.len(), 1);
        for t in rows.iter().rev() {
            assert!(r.contains(t));
            assert!(!r.insert(t.clone()).unwrap());
        }
        // A row with the chain's hash that was never inserted is absent,
        // then joins the chain at its head.
        assert!(!r.contains(&tuple![0, 0]));
        assert!(r.insert_values(&[Value::int(0), Value::int(0)]).unwrap());
        assert!(r.contains(&tuple![0, 0]));
        assert_eq!(r.len(), rows.len() + 1);
        assert_eq!(&r.rows()[..rows.len()], &rows[..]);
    }

    #[test]
    fn clones_extend_their_own_chains() {
        let mut r = Relation::new(2);
        let rows = colliding_rows(&r, 1..7);
        for t in &rows[..3] {
            r.insert(t.clone()).unwrap();
        }
        let mut c = r.clone();
        for t in &rows[3..] {
            assert!(c.insert(t.clone()).unwrap());
        }
        for t in &rows {
            assert!(!c.insert(t.clone()).unwrap());
        }
        // The original's chain is untouched by the clone's inserts.
        assert_eq!(r.len(), 3);
        for t in &rows[3..] {
            assert!(!r.contains(t));
        }
        assert!(r.insert(rows[5].clone()).unwrap());
        assert_eq!(
            r.rows(),
            &[
                rows[0].clone(),
                rows[1].clone(),
                rows[2].clone(),
                rows[5].clone()
            ]
        );
        assert_eq!(c.rows(), &rows[..]);
    }

    #[test]
    fn column_mirror_matches_rows_exactly() {
        // The columnar kernels read `column(c)` where the row-major path
        // reads `rows()[i][c]`; the mirror must track every insert
        // (including rejected duplicates) word for word.
        let mut r = Relation::new(3);
        for i in 0..32i64 {
            r.insert(tuple![i % 7, i * 3, i]).unwrap();
            r.insert(tuple![i % 7, i * 3, i]).unwrap(); // duplicate: no-op
        }
        assert_eq!(r.len(), 32);
        for c in 0..3 {
            let col = r.column(c);
            assert_eq!(col.len(), r.len());
            for (i, row) in r.rows().iter().enumerate() {
                assert_eq!(col[i], row[c], "mirror diverged at row {i} col {c}");
            }
        }
    }

    #[test]
    fn batched_key_hashes_match_scalar_key_hash() {
        // `key_hashes` computes the probe-hash column in per-column
        // passes; it must agree with the scalar `key_hash` of each row's
        // projection for any key column set, else batched joins probe
        // the wrong buckets.
        let mut r = Relation::new(3);
        for i in 0..24i64 {
            r.insert(tuple![i % 5, i % 3, i]).unwrap();
        }
        for cols in [&[0usize][..], &[1], &[2], &[0, 2], &[2, 0], &[0, 1, 2]] {
            let batched = r.key_hashes(cols);
            for (i, row) in r.rows().iter().enumerate() {
                let key: Vec<Value> = cols.iter().map(|&c| row[c]).collect();
                assert_eq!(
                    batched[i],
                    key_hash(&key),
                    "cols {cols:?} row {i}: batched hash diverged from scalar"
                );
            }
        }
    }
}
