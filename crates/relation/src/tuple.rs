//! Tuples: fixed-arity rows of `u64` values.

/// A domain value. All attribute domains are modelled as `u64`; instance
/// generators assign disjoint value ranges per attribute where needed.
pub type Value = u64;

/// Widest tuple stored inline (no heap allocation). Join keys are 1–2
/// values, most relation tuples 2–3, and the output rows of 3-relation
/// acyclic joins (line-3, star3) and weighted binary delta rows 4, so the
/// hot paths never box.
const INLINE: usize = 4;

/// An immutable fixed-arity tuple.
///
/// Tuples are *atomic* in the paper's tuple-based model: algorithms move and
/// copy them whole. Tuples of arity ≤ 4 are stored **inline** (clone = a
/// 40-byte copy, no allocation); wider tuples fall back to a boxed slice.
/// `Eq`/`Ord`/`Hash` are defined on the value sequence alone, so the two
/// representations are indistinguishable — in particular `Hash` matches the
/// std slice hash, which the `Borrow<[Value]>` lookup contract requires.
#[derive(Clone)]
enum Repr {
    Inline(u8, [Value; INLINE]),
    Boxed(Box<[Value]>),
}

/// See the type-level docs on representation; construct with [`Tuple::new`].
#[derive(Clone)]
pub struct Tuple(Repr);

// The inline width sets the size of every tuple moved through the data
// plane: one tag word plus `INLINE` values.
const _: () = assert!(std::mem::size_of::<Tuple>() == 40);

impl Tuple {
    /// Create a tuple from values (anything slice-like: `Vec`, array,
    /// slice, boxed slice).
    #[inline]
    pub fn new(values: impl AsRef<[Value]>) -> Self {
        Tuple::from_slice(values.as_ref())
    }

    /// Create a tuple by copying a value slice.
    #[inline]
    pub fn from_slice(v: &[Value]) -> Self {
        if v.len() <= INLINE {
            let mut vals = [0; INLINE];
            vals[..v.len()].copy_from_slice(v);
            Tuple(Repr::Inline(v.len() as u8, vals))
        } else {
            Tuple(Repr::Boxed(v.into()))
        }
    }

    /// The empty (0-ary) tuple.
    pub fn unit() -> Self {
        Tuple(Repr::Inline(0, [0; INLINE]))
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Value at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        self.values()[i]
    }

    /// Borrow all values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline(len, vals) => &vals[..*len as usize],
            Repr::Boxed(b) => b,
        }
    }

    /// Project onto the given positions, in the given order.
    #[inline]
    pub fn project(&self, positions: &[usize]) -> Tuple {
        let vals = self.values();
        if positions.len() <= INLINE {
            let mut out = [0; INLINE];
            for (o, &i) in out.iter_mut().zip(positions) {
                *o = vals[i];
            }
            Tuple(Repr::Inline(positions.len() as u8, out))
        } else {
            Tuple(Repr::Boxed(positions.iter().map(|&i| vals[i]).collect()))
        }
    }

    /// Project into a caller-provided scratch buffer (cleared first) instead
    /// of allocating a new tuple. Combined with the `Borrow<[Value]>` impl,
    /// this turns `map.get(&t.project(&pos))` in hot inner loops into the
    /// allocation-free `map.get(scratch.as_slice())` after
    /// `t.project_into(&pos, &mut scratch)`.
    #[inline]
    pub fn project_into(&self, positions: &[usize], out: &mut Vec<Value>) {
        let vals = self.values();
        out.clear();
        out.extend(positions.iter().map(|&i| vals[i]));
    }

    /// Concatenate with another tuple.
    #[inline]
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple::from_concat(self.values(), other.values())
    }

    /// Build a tuple directly from two concatenated value slices — the
    /// output-assembly fast path of the local hash joins (no intermediate
    /// scratch, inline result for combined arity ≤ 4).
    #[inline]
    pub fn from_concat(a: &[Value], b: &[Value]) -> Tuple {
        if a.len() + b.len() <= INLINE {
            let mut vals = [0; INLINE];
            vals[..a.len()].copy_from_slice(a);
            vals[a.len()..a.len() + b.len()].copy_from_slice(b);
            Tuple(Repr::Inline((a.len() + b.len()) as u8, vals))
        } else {
            let mut v = Vec::with_capacity(a.len() + b.len());
            v.extend_from_slice(a);
            v.extend_from_slice(b);
            Tuple(Repr::Boxed(v.into_boxed_slice()))
        }
    }

    /// Concatenation into a caller-provided scratch buffer (cleared first):
    /// the allocation-free form of [`Tuple::concat`] for inner loops that
    /// post-process the concatenation (e.g. reorder columns) before boxing.
    #[inline]
    pub fn concat_into(&self, other: &Tuple, out: &mut Vec<Value>) {
        let a = self.values();
        let b = other.values();
        out.clear();
        out.reserve(a.len() + b.len());
        out.extend_from_slice(a);
        out.extend_from_slice(b);
    }

    /// Append values at the end.
    pub fn extend(&self, extra: &[Value]) -> Tuple {
        Tuple::from_concat(self.values(), extra)
    }
}

// Equality, ordering, and hashing are over the value sequence, so inline and
// boxed representations of the same values are fully interchangeable.

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Tuple) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Tuple) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    #[inline]
    fn cmp(&self, other: &Tuple) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

impl std::hash::Hash for Tuple {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must match `<[Value] as Hash>::hash` exactly — the
        // `Borrow<[Value]>` contract for slice-probed maps depends on it.
        self.values().hash(state);
    }
}

/// Lets hash maps keyed by `Tuple` answer lookups for a bare value slice
/// (`HashMap::get` takes any `Q` the key type borrows to): `Hash` and `Eq`
/// on `Tuple` delegate to the value slice, so they agree with the `[Value]`
/// impls as the `Borrow` contract requires.
impl std::borrow::Borrow<[Value]> for Tuple {
    #[inline]
    fn borrow(&self) -> &[Value] {
        self.values()
    }
}

impl std::fmt::Debug for Tuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(v: [Value; N]) -> Self {
        Tuple::from_slice(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::from([1, 2, 3]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(1), 2);
        assert_eq!(t.values(), &[1, 2, 3]);
        assert_eq!(Tuple::unit().arity(), 0);
    }

    #[test]
    fn project_reorders() {
        let t = Tuple::from([10, 20, 30]);
        assert_eq!(t.project(&[2, 0]), Tuple::from([30, 10]));
        assert_eq!(t.project(&[]), Tuple::unit());
    }

    #[test]
    fn concat_extend() {
        let a = Tuple::from([1]);
        let b = Tuple::from([2, 3]);
        assert_eq!(a.concat(&b), Tuple::from([1, 2, 3]));
        assert_eq!(a.extend(&[9, 9]), Tuple::from([1, 9, 9]));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Tuple::from([1, 2]) < Tuple::from([1, 3]));
        assert!(Tuple::from([1]) < Tuple::from([1, 0]));
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Tuple::from([4, 5])), "(4,5)");
    }

    #[test]
    fn scratch_paths_match_allocating_paths() {
        let t = Tuple::from([10, 20, 30]);
        let u = Tuple::from([7, 8]);
        let mut scratch = Vec::new();
        t.project_into(&[2, 0], &mut scratch);
        assert_eq!(scratch, t.project(&[2, 0]).values());
        t.concat_into(&u, &mut scratch);
        assert_eq!(scratch, t.concat(&u).values());
        // Scratch is cleared between uses, not appended to.
        t.project_into(&[1], &mut scratch);
        assert_eq!(scratch, vec![20]);
    }

    #[test]
    fn hash_lookup_by_borrowed_slice() {
        use crate::fxhash::FxHashMap;
        let mut m: FxHashMap<Tuple, u32> = FxHashMap::default();
        m.insert(Tuple::from([1, 2]), 7);
        assert_eq!(m.get([1u64, 2].as_slice()), Some(&7));
        assert_eq!(m.get([9u64].as_slice()), None);
    }

    #[test]
    fn inline_and_boxed_reprs_are_interchangeable() {
        // Arity 4 is inline, arity 5 boxed; semantics must not differ.
        let small = Tuple::from([1, 2, 3, 4]);
        let big = Tuple::from([1, 2, 3, 4, 5]);
        assert!(is_inline(&small) && !is_inline(&big));
        assert_eq!(small.values(), &[1, 2, 3, 4]);
        assert_eq!(big.values(), &[1, 2, 3, 4, 5]);
        assert!(small < big, "lexicographic prefix ordering");
        // A boxed projection down to inline width equals a fresh inline tuple.
        assert_eq!(big.project(&[0, 1, 2, 3]), small);
        // Hashing matches the slice hash in both representations.
        use crate::fxhash::FxHashMap;
        let mut m: FxHashMap<Tuple, u8> = FxHashMap::default();
        m.insert(big.clone(), 1);
        m.insert(small.clone(), 2);
        assert_eq!(m.get([1u64, 2, 3, 4, 5].as_slice()), Some(&1));
        assert_eq!(m.get([1u64, 2, 3, 4].as_slice()), Some(&2));
        // Concat crossing the inline boundary.
        assert_eq!(small.concat(&big).values(), &[1, 2, 3, 4, 1, 2, 3, 4, 5]);
    }

    fn is_inline(t: &Tuple) -> bool {
        matches!(t.0, Repr::Inline(..))
    }

    /// A seeded Fisher–Yates shuffle of `0..n`.
    fn shuffled(seed: u64, n: usize) -> Vec<usize> {
        let mut x = seed | 1;
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.swap(i, (x % (i as u64 + 1)) as usize);
        }
        v
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..proptest::ProptestConfig::default() })]

        /// `project` gathers the listed positions for any column
        /// permutation, or column-dropping prefix of one, at every arity on
        /// both sides of the inline boundary, and the result is inline
        /// exactly when it fits.
        #[test]
        fn project_gathers_permutations(seed in 0u64..1_000_000, arity in 0usize..9, keep in 0usize..10) {
            let vals: Vec<Value> = (0..arity as u64).map(|i| (i + 1) * 1_000_003).collect();
            let t = Tuple::new(vals.clone());
            let mut order = shuffled(seed, arity);
            order.truncate(keep);
            let got = t.project(&order);
            let want: Vec<Value> = order.iter().map(|&i| vals[i]).collect();
            proptest::prop_assert_eq!(got.values(), &want[..]);
            proptest::prop_assert_eq!(is_inline(&got), order.len() <= INLINE);
        }
    }
}
