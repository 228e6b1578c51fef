//! Local (single-server) multiway join evaluation.
//!
//! Once an algorithm has routed all relevant tuples of a sub-instance to one
//! server, that server finishes the join locally — local computation is free
//! in the MPC cost model. This module provides the hash-join pipeline used
//! for those final steps. It works for cyclic local queries too (needed by
//! the HyperCube executor).

use aj_primitives::FxHashMap;

use aj_relation::{Attr, Tuple};

/// One local input fragment: schema + tuples (tuples may carry extra
/// trailing columns, which are concatenated through).
#[derive(Debug, Clone)]
pub struct LocalRel {
    /// Attribute layout of the fragment.
    pub attrs: Vec<Attr>,
    /// The fragment's tuples.
    pub tuples: Vec<Tuple>,
}

/// Join all fragments with pairwise hash joins, relation order as given
/// except that each step prefers a fragment sharing attributes with the
/// accumulated result (to avoid needless cross products).
///
/// Returns the output schema (concatenation order of first-seen attributes;
/// extra trailing columns of each input are appended after its own attrs in
/// encounter order) and the result tuples.
pub fn multiway_join(rels: &[LocalRel]) -> (Vec<Attr>, Vec<Tuple>) {
    assert!(!rels.is_empty());
    let mut remaining: Vec<usize> = (0..rels.len()).collect();
    // Start from the first fragment.
    let first = remaining.remove(0);
    let mut acc_attrs: Vec<Attr> = rels[first].attrs.clone();
    let mut acc_extra: usize = rels[first]
        .tuples
        .first()
        .map(|t| t.arity() - rels[first].attrs.len())
        .unwrap_or(0);
    let mut acc: Vec<Tuple> = rels[first].tuples.clone();
    while !remaining.is_empty() {
        // Prefer a connected fragment.
        let pick = remaining
            .iter()
            .position(|&i| rels[i].attrs.iter().any(|a| acc_attrs.contains(a)))
            .unwrap_or(0);
        let i = remaining.remove(pick);
        let rel = &rels[i];
        let shared: Vec<Attr> = rel
            .attrs
            .iter()
            .copied()
            .filter(|a| acc_attrs.contains(a))
            .collect();
        let rel_key_pos: Vec<usize> = shared
            .iter()
            .map(|a| rel.attrs.iter().position(|x| x == a).unwrap())
            .collect();
        let acc_key_pos: Vec<usize> = shared
            .iter()
            .map(|a| acc_attrs.iter().position(|x| x == a).unwrap())
            .collect();
        // Columns of `rel` to append: non-shared attrs + extra trailing cols.
        let n_attr = rel.attrs.len();
        let arity = rel.tuples.first().map(Tuple::arity).unwrap_or(n_attr);
        let append_pos: Vec<usize> = (0..arity)
            .filter(|&c| c >= n_attr || !shared.contains(&rel.attrs[c]))
            .collect();
        let mut index: FxHashMap<Tuple, Vec<Tuple>> =
            aj_primitives::fx_map_with_capacity(rel.tuples.len());
        for t in &rel.tuples {
            index
                .entry(t.project(&rel_key_pos))
                .or_default()
                .push(t.project(&append_pos));
        }
        // New schema: acc attrs, then acc extras, then rel's appended attrs,
        // then rel extras. To keep attr positions aligned with values, we
        // must interleave: values are acc(attrs+extras) ++ appended. Track
        // attrs with explicit positions instead.
        // Rebuild attrs/extras bookkeeping:
        let mut new_attrs = acc_attrs.clone();
        for &c in &append_pos {
            if c < n_attr {
                new_attrs.push(rel.attrs[c]);
            }
        }
        let new_extra = acc_extra + append_pos.iter().filter(|&&c| c >= n_attr).count();
        // Values layout: [acc attrs][acc extras][appended mixed]. To keep
        // "attrs first, extras last" invariant, reorder columns.
        let acc_len = acc_attrs.len();
        let appended_attr_cols: Vec<usize> = append_pos
            .iter()
            .enumerate()
            .filter(|(_, &c)| c < n_attr)
            .map(|(k, _)| acc_len + acc_extra + k)
            .collect();
        let appended_extra_cols: Vec<usize> = append_pos
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= n_attr)
            .map(|(k, _)| acc_len + acc_extra + k)
            .collect();
        let mut order: Vec<usize> = (0..acc_len).collect();
        order.extend(appended_attr_cols);
        order.extend((acc_len..acc_len + acc_extra).collect::<Vec<_>>());
        order.extend(appended_extra_cols);
        // Probe by value slice; build each output row in scratch so the
        // concat + column-reorder costs one allocation per output tuple.
        let mut next = Vec::new();
        let mut key = Vec::with_capacity(acc_key_pos.len());
        let mut cat = Vec::new();
        let mut row = Vec::with_capacity(order.len());
        for t in &acc {
            t.project_into(&acc_key_pos, &mut key);
            if let Some(matches) = index.get(key.as_slice()) {
                for m in matches {
                    t.concat_into(m, &mut cat);
                    row.clear();
                    row.extend(order.iter().map(|&i| cat[i]));
                    next.push(Tuple::new(row.as_slice()));
                }
            }
        }
        acc = next;
        acc_attrs = new_attrs;
        acc_extra = new_extra;
    }
    (acc_attrs, acc)
}

/// Normalize multiway-join output to ascending attribute order, keeping any
/// extra trailing columns in place. The column order is computed once and
/// each tuple is projected into the reused vector; an already-ascending
/// layout is returned untouched.
pub fn normalize(attrs: &[Attr], tuples: Vec<Tuple>) -> (Vec<Attr>, Vec<Tuple>) {
    let (sorted_attrs, order) = normal_order(attrs, tuples.iter(), true);
    let tuples = match order {
        Some(order) => tuples.into_iter().map(|t| t.project(&order)).collect(),
        None => tuples,
    };
    (sorted_attrs, tuples)
}

/// The ascending layout of `attrs` and the column order that produces it
/// from a relation's `tuples` — extra trailing columns kept in place if
/// `keep_extras`, else dropped. The order is `None` when it is the identity
/// (no column moves). Computed once per relation, never per tuple: every
/// tuple must have the arity of the first.
pub(crate) fn normal_order<'a>(
    attrs: &[Attr],
    mut tuples: impl Iterator<Item = &'a Tuple>,
    keep_extras: bool,
) -> (Vec<Attr>, Option<Vec<usize>>) {
    let arity = tuples.next().map_or(attrs.len(), Tuple::arity);
    debug_assert!(
        tuples.all(|t| t.arity() == arity),
        "normalization requires one arity per relation"
    );
    let mut order: Vec<usize> = (0..attrs.len()).collect();
    order.sort_by_key(|&i| attrs[i]);
    let sorted_attrs = order.iter().map(|&i| attrs[i]).collect();
    if keep_extras {
        order.extend(attrs.len()..arity);
    }
    let identity = order.len() == arity && order.iter().copied().eq(0..arity);
    (sorted_attrs, (!identity).then_some(order))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_way_join() {
        let r1 = LocalRel {
            attrs: vec![0, 1],
            tuples: vec![Tuple::from([1, 10]), Tuple::from([2, 20])],
        };
        let r2 = LocalRel {
            attrs: vec![1, 2],
            tuples: vec![Tuple::from([10, 100]), Tuple::from([10, 101])],
        };
        let (attrs, tuples) = multiway_join(&[r1, r2]);
        assert_eq!(attrs, vec![0, 1, 2]);
        let mut t = tuples;
        t.sort_unstable();
        assert_eq!(
            t,
            vec![Tuple::from([1, 10, 100]), Tuple::from([1, 10, 101])]
        );
    }

    #[test]
    fn cross_product_when_disconnected() {
        let r1 = LocalRel {
            attrs: vec![0],
            tuples: vec![Tuple::from([1]), Tuple::from([2])],
        };
        let r2 = LocalRel {
            attrs: vec![1],
            tuples: vec![Tuple::from([7])],
        };
        let (attrs, tuples) = multiway_join(&[r1, r2]);
        assert_eq!(attrs, vec![0, 1]);
        assert_eq!(tuples.len(), 2);
    }

    #[test]
    fn triangle_join_locally() {
        // R1(B,C) ⋈ R2(A,C) ⋈ R3(A,B) with attrs A=0,B=1,C=2.
        let r1 = LocalRel {
            attrs: vec![1, 2],
            tuples: vec![Tuple::from([1, 2]), Tuple::from([1, 3])],
        };
        let r2 = LocalRel {
            attrs: vec![0, 2],
            tuples: vec![Tuple::from([0, 2]), Tuple::from([0, 3])],
        };
        let r3 = LocalRel {
            attrs: vec![0, 1],
            tuples: vec![Tuple::from([0, 1])],
        };
        let (attrs, tuples) = multiway_join(&[r1, r2, r3]);
        let (attrs, tuples) = normalize(&attrs, tuples);
        assert_eq!(attrs, vec![0, 1, 2]);
        let mut t = tuples;
        t.sort_unstable();
        assert_eq!(t, vec![Tuple::from([0, 1, 2]), Tuple::from([0, 1, 3])]);
    }

    #[test]
    fn extra_columns_are_carried() {
        // Annotation columns beyond the schema ride along.
        let r1 = LocalRel {
            attrs: vec![0],
            tuples: vec![Tuple::from([1, 77])], // 77 = annotation
        };
        let r2 = LocalRel {
            attrs: vec![0, 1],
            tuples: vec![Tuple::from([1, 5, 88])],
        };
        let (attrs, tuples) = multiway_join(&[r1, r2]);
        assert_eq!(attrs, vec![0, 1]);
        assert_eq!(tuples, vec![Tuple::from([1, 5, 77, 88])]);
    }

    #[test]
    fn empty_input_relation_gives_empty_result() {
        let r1 = LocalRel {
            attrs: vec![0],
            tuples: vec![],
        };
        let r2 = LocalRel {
            attrs: vec![0],
            tuples: vec![Tuple::from([1])],
        };
        let (_, tuples) = multiway_join(&[r1, r2]);
        assert!(tuples.is_empty());
    }

    #[test]
    fn normalize_reorders() {
        let (attrs, tuples) = normalize(&[2, 0], vec![Tuple::from([9, 5, 111])]);
        assert_eq!(attrs, vec![0, 2]);
        assert_eq!(tuples, vec![Tuple::from([5, 9, 111])]);
    }
}
