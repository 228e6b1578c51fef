//! A distributed collection: one shard per server.

/// A collection of items partitioned over the servers of a
/// [`crate::Net`]: `parts()[s]` lives on local server `s`.
///
/// Constructing or locally transforming a `Partitioned` is free (local
/// computation costs nothing in the MPC model); only
/// [`crate::Net::exchange`]-based movement is charged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioned<T> {
    parts: Vec<Vec<T>>,
}

impl<T> Partitioned<T> {
    /// Wrap existing shards.
    pub fn from_parts(parts: Vec<Vec<T>>) -> Self {
        Partitioned { parts }
    }

    /// `p` empty shards.
    pub fn empty(p: usize) -> Self {
        Partitioned {
            parts: (0..p).map(|_| Vec::new()).collect(),
        }
    }

    /// Distribute `items` evenly over `p` servers by blocks, modelling the
    /// initial placement of the MPC model ("data is initially distributed
    /// evenly, each server holding IN/p tuples"). Free of charge.
    pub fn distribute(items: Vec<T>, p: usize) -> Self {
        assert!(p >= 1);
        let n = items.len();
        let chunk = n.div_ceil(p).max(1);
        let mut parts: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            parts[(i / chunk).min(p - 1)].push(item);
        }
        Partitioned { parts }
    }

    /// Number of shards (= servers of the owning view).
    pub fn p(&self) -> usize {
        self.parts.len()
    }

    /// Borrow the shards.
    pub fn parts(&self) -> &[Vec<T>] {
        &self.parts
    }

    /// Mutably borrow the shards (local computation is free).
    pub fn parts_mut(&mut self) -> &mut [Vec<T>] {
        &mut self.parts
    }

    /// Take ownership of the shards.
    pub fn into_parts(self) -> Vec<Vec<T>> {
        self.parts
    }

    /// Iterate over shards.
    pub fn iter(&self) -> std::slice::Iter<'_, Vec<T>> {
        self.parts.iter()
    }

    /// Total number of items across all shards.
    pub fn total_len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Size of the largest shard (a *storage* skew indicator; not the load).
    pub fn max_part_len(&self) -> usize {
        self.parts.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// True if no shard holds any item.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(Vec::is_empty)
    }

    /// Apply a local map on every shard (free).
    pub fn map<U>(self, mut f: impl FnMut(usize, T) -> U) -> Partitioned<U> {
        Partitioned {
            parts: self
                .parts
                .into_iter()
                .enumerate()
                .map(|(s, items)| items.into_iter().map(|x| f(s, x)).collect())
                .collect(),
        }
    }

    /// Keep only items satisfying the predicate (free local filter).
    pub fn filter(self, mut pred: impl FnMut(&T) -> bool) -> Partitioned<T> {
        Partitioned {
            parts: self
                .parts
                .into_iter()
                .map(|items| items.into_iter().filter(|x| pred(x)).collect())
                .collect(),
        }
    }

    /// Split each shard into (matching, rest) by a predicate (free).
    pub fn partition(self, mut pred: impl FnMut(&T) -> bool) -> (Partitioned<T>, Partitioned<T>) {
        let mut yes = Vec::with_capacity(self.parts.len());
        let mut no = Vec::with_capacity(self.parts.len());
        for items in self.parts {
            let (a, b): (Vec<T>, Vec<T>) = items.into_iter().partition(|x| pred(x));
            yes.push(a);
            no.push(b);
        }
        (Partitioned::from_parts(yes), Partitioned::from_parts(no))
    }

    /// Concatenate all shards into one `Vec` **without any communication
    /// charge** — use only for test assertions and final result inspection,
    /// never inside an algorithm.
    pub fn gather_free(self) -> Vec<T> {
        self.parts.into_iter().flatten().collect()
    }

    /// Merge another partitioned collection shard-wise (free; both must have
    /// the same number of shards): `other`'s items follow `self`'s. A shard
    /// of `other` landing on an empty shard is moved, not copied.
    pub fn union(mut self, other: Partitioned<T>) -> Partitioned<T> {
        assert_eq!(self.parts.len(), other.parts.len());
        for (mine, theirs) in self.parts.iter_mut().zip(other.parts) {
            if mine.is_empty() {
                *mine = theirs;
            } else {
                mine.extend(theirs);
            }
        }
        self
    }
}

impl<T> std::ops::Index<usize> for Partitioned<T> {
    type Output = Vec<T>;
    fn index(&self, s: usize) -> &Vec<T> {
        &self.parts[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribute_is_even() {
        let parts = Partitioned::distribute((0..10).collect::<Vec<_>>(), 4);
        assert_eq!(parts.p(), 4);
        assert_eq!(parts.total_len(), 10);
        assert!(parts.max_part_len() <= 3);
        assert_eq!(parts.clone().gather_free(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn distribute_more_servers_than_items() {
        let parts = Partitioned::distribute(vec![1, 2], 5);
        assert_eq!(parts.total_len(), 2);
        assert_eq!(parts.p(), 5);
    }

    #[test]
    fn map_filter_partition() {
        let parts = Partitioned::distribute((0..8u64).collect::<Vec<_>>(), 2);
        let doubled = parts.clone().map(|_, x| x * 2);
        assert_eq!(doubled.total_len(), 8);
        let evens = parts.clone().filter(|x| x % 2 == 0);
        assert_eq!(evens.total_len(), 4);
        let (lo, hi) = parts.partition(|&x| x < 4);
        assert_eq!(lo.total_len(), 4);
        assert_eq!(hi.total_len(), 4);
    }

    #[test]
    fn union_preserves_shards() {
        let a = Partitioned::from_parts(vec![vec![1], vec![2]]);
        let b = Partitioned::from_parts(vec![vec![3], vec![]]);
        let u = a.union(b);
        assert_eq!(u.parts()[0], vec![1, 3]);
        assert_eq!(u.parts()[1], vec![2]);
    }
}
