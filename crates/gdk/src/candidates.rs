//! Candidate lists.
//!
//! GDK operators take an optional *candidate list*: a sorted set of head oids
//! restricting which tuples participate. Selections produce candidate lists;
//! downstream operators consume them, which is how MonetDB (and our kernel)
//! pushes selections through plans without materialising intermediate BATs.

use crate::types::Oid;

/// A sorted set of candidate oids, either dense (a contiguous range) or an
/// explicit sorted list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Candidates {
    /// The dense range `first .. first+len`.
    Dense {
        /// First oid in the range.
        first: Oid,
        /// Number of oids.
        len: usize,
    },
    /// Explicit strictly-increasing oid list.
    List(Vec<Oid>),
}

impl Candidates {
    /// All `len` tuples of a BAT whose head starts at oid 0.
    pub fn all(len: usize) -> Self {
        Candidates::Dense { first: 0, len }
    }

    /// Empty candidate list.
    pub fn none() -> Self {
        Candidates::Dense { first: 0, len: 0 }
    }

    /// From a vector of oids; sorts and deduplicates, then compresses to a
    /// dense range when possible.
    pub fn from_vec(mut v: Vec<Oid>) -> Self {
        v.sort_unstable();
        v.dedup();
        Self::from_sorted(v)
    }

    /// From an already strictly-increasing vector.
    pub fn from_sorted(v: Vec<Oid>) -> Self {
        debug_assert!(
            v.windows(2).all(|w| w[0] < w[1]),
            "candidates must be strictly increasing"
        );
        if !v.is_empty() && v[v.len() - 1] - v[0] == (v.len() - 1) as Oid {
            Candidates::Dense {
                first: v[0],
                len: v.len(),
            }
        } else {
            Candidates::List(v)
        }
    }

    /// The write order of a scatter whose source row `i` is aimed at
    /// `targets[i]`: the distinct targets as candidates, plus — unless the
    /// rows already aim in strictly increasing order — the source row that
    /// feeds each candidate. Of several rows aimed at one target the last
    /// wins, as if the rows were written one after the other.
    pub fn for_scatter(targets: Vec<Oid>) -> (Candidates, Option<Vec<Oid>>) {
        if targets.windows(2).all(|w| w[0] < w[1]) {
            return (Self::from_sorted(targets), None);
        }
        let mut order: Vec<usize> = (0..targets.len()).collect();
        order.sort_by_key(|&r| targets[r]); // stable: equal targets keep row order
        let mut rows: Vec<Oid> = Vec::with_capacity(order.len());
        for r in order {
            match rows.last_mut() {
                Some(last) if targets[*last as usize] == targets[r] => *last = r as Oid,
                _ => rows.push(r as Oid),
            }
        }
        let cells = rows.iter().map(|&r| targets[r as usize]).collect();
        (Self::from_sorted(cells), Some(rows))
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        match self {
            Candidates::Dense { len, .. } => *len,
            Candidates::List(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th candidate oid.
    #[inline]
    pub fn get(&self, i: usize) -> Oid {
        match self {
            Candidates::Dense { first, .. } => first + i as Oid,
            Candidates::List(v) => v[i],
        }
    }

    /// Membership test (binary search on lists).
    pub fn contains(&self, oid: Oid) -> bool {
        match self {
            Candidates::Dense { first, len } => oid >= *first && oid < first + *len as Oid,
            Candidates::List(v) => v.binary_search(&oid).is_ok(),
        }
    }

    /// Iterate the candidate oids in order.
    pub fn iter(&self) -> CandIter<'_> {
        CandIter {
            cands: self,
            pos: 0,
        }
    }

    /// Intersection of two candidate lists (both sorted).
    pub fn intersect(&self, other: &Candidates) -> Candidates {
        match (self, other) {
            (
                Candidates::Dense { first: f1, len: l1 },
                Candidates::Dense { first: f2, len: l2 },
            ) => {
                let lo = (*f1).max(*f2);
                let hi = (f1 + *l1 as Oid).min(f2 + *l2 as Oid);
                if hi <= lo {
                    Candidates::none()
                } else {
                    Candidates::Dense {
                        first: lo,
                        len: (hi - lo) as usize,
                    }
                }
            }
            _ => {
                let (small, large) = if self.len() <= other.len() {
                    (self, other)
                } else {
                    (other, self)
                };
                let out: Vec<Oid> = small.iter().filter(|&o| large.contains(o)).collect();
                Candidates::from_sorted(out)
            }
        }
    }

    /// Union of two candidate lists.
    pub fn union(&self, other: &Candidates) -> Candidates {
        let mut out: Vec<Oid> = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.len() && j < other.len() {
            let (a, b) = (self.get(i), other.get(j));
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    out.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a);
                    i += 1;
                    j += 1;
                }
            }
        }
        while i < self.len() {
            out.push(self.get(i));
            i += 1;
        }
        while j < other.len() {
            out.push(other.get(j));
            j += 1;
        }
        Candidates::from_sorted(out)
    }

    /// Difference `self \ other`.
    pub fn difference(&self, other: &Candidates) -> Candidates {
        let out: Vec<Oid> = self.iter().filter(|&o| !other.contains(o)).collect();
        Candidates::from_sorted(out)
    }

    /// Collect into a plain oid vector.
    pub fn to_vec(&self) -> Vec<Oid> {
        self.iter().collect()
    }

    /// The sub-list covering candidate *positions* `[range.start,
    /// range.end)` (not oid values). Used by the parallel driver to hand
    /// disjoint windows of one candidate list to worker threads.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Candidates {
        debug_assert!(range.end <= self.len(), "candidate slice out of range");
        match self {
            Candidates::Dense { first, .. } => Candidates::Dense {
                first: first + range.start as Oid,
                len: range.len(),
            },
            Candidates::List(v) => Candidates::from_sorted(v[range].to_vec()),
        }
    }
}

/// Iterator over candidate oids.
pub struct CandIter<'a> {
    cands: &'a Candidates,
    pos: usize,
}

impl Iterator for CandIter<'_> {
    type Item = Oid;
    fn next(&mut self) -> Option<Oid> {
        if self.pos < self.cands.len() {
            let o = self.cands.get(self.pos);
            self.pos += 1;
            Some(o)
        } else {
            None
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.cands.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CandIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_compresses_dense() {
        let c = Candidates::from_vec(vec![3, 1, 2, 2]);
        assert_eq!(c, Candidates::Dense { first: 1, len: 3 });
        let c = Candidates::from_vec(vec![1, 3, 5]);
        assert!(matches!(c, Candidates::List(_)));
        assert_eq!(c.to_vec(), vec![1, 3, 5]);
    }

    #[test]
    fn scatter_order_keeps_the_last_row_per_target() {
        assert_eq!(
            Candidates::for_scatter(vec![2, 3, 4]),
            (Candidates::Dense { first: 2, len: 3 }, None)
        );
        // Rows 0 and 2 both aim at 5; row 2 wins.
        let (at, rows) = Candidates::for_scatter(vec![5, 1, 5, 3]);
        assert_eq!(at.to_vec(), vec![1, 3, 5]);
        assert_eq!(rows, Some(vec![1, 3, 2]));
    }

    #[test]
    fn intersect_dense_dense() {
        let a = Candidates::Dense { first: 0, len: 10 };
        let b = Candidates::Dense { first: 5, len: 10 };
        assert_eq!(a.intersect(&b), Candidates::Dense { first: 5, len: 5 });
        let c = Candidates::Dense { first: 20, len: 5 };
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn intersect_mixed() {
        let a = Candidates::from_vec(vec![1, 4, 7, 9]);
        let b = Candidates::Dense { first: 4, len: 4 };
        assert_eq!(a.intersect(&b).to_vec(), vec![4, 7]);
    }

    #[test]
    fn union_and_difference() {
        let a = Candidates::from_vec(vec![1, 3, 5]);
        let b = Candidates::from_vec(vec![2, 3, 6]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 5, 6]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 5]);
    }

    #[test]
    fn membership() {
        let d = Candidates::Dense { first: 2, len: 3 };
        assert!(d.contains(2) && d.contains(4) && !d.contains(5));
        let l = Candidates::from_vec(vec![1, 8]);
        assert!(l.contains(8) && !l.contains(4));
    }

    #[test]
    fn iter_exact_size() {
        let c = Candidates::Dense { first: 7, len: 3 };
        let v: Vec<Oid> = c.iter().collect();
        assert_eq!(v, vec![7, 8, 9]);
        assert_eq!(c.iter().len(), 3);
    }
}
