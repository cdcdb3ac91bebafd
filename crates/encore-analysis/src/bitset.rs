//! Dense bitsets for dataflow facts.
//!
//! The RS/GA/EA fixpoints (Eqs. 1–3 of the paper) and register liveness
//! manipulate sets of small dense indices — load/store sites, guard
//! cells, virtual registers — millions of times per module. A packed
//! `u64`-word representation turns every union/intersection/difference
//! into a handful of word ops, and the final `EA ∩ RS` probe (Eq. 4)
//! walks the intersection word by word with `iter_and`.

/// A fixed-universe set of `usize` indices packed into `u64` words.
///
/// All binary operations require both operands to share the same
/// universe size; dataflow over one function always does.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over the universe `0..len`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// The universe size (not the number of elements; see
    /// [`BitSet::count`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no index is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of indices present.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Widens the universe to `0..new_len` (no-op when already at least
    /// that wide); existing members are preserved.
    pub fn grow(&mut self, new_len: usize) {
        if new_len > self.len {
            self.len = new_len;
            self.words.resize(new_len.div_ceil(64), 0);
        }
    }

    /// Inserts `i`; returns `true` if it was absent.
    ///
    /// # Panics
    ///
    /// Panics when `i` is outside the universe.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} outside universe 0..{}", self.len);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let absent = self.words[w] & m == 0;
        self.words[w] |= m;
        absent
    }

    /// Removes `i`; returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let present = self.words[w] & m != 0;
        self.words[w] &= !m;
        present
    }

    /// `true` when `i` is present.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Removes every index.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    fn assert_same_universe(&self, other: &BitSet) {
        assert_eq!(
            self.len, other.len,
            "bitset universe mismatch: {} vs {}",
            self.len, other.len
        );
    }

    /// `self ∪= other`; returns `true` when `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        self.assert_same_universe(other);
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self ∩= other`; returns `true` when `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        self.assert_same_universe(other);
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let new = *a & b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self −= other`; returns `true` when `self` changed.
    pub fn subtract(&mut self, other: &BitSet) -> bool {
        self.assert_same_universe(other);
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let new = *a & !b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Iterates the members of `self ∩ other` in ascending order without
    /// materializing the intersection.
    pub fn iter_and<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        self.assert_same_universe(other);
        self.words.iter().zip(&other.words).enumerate().flat_map(|(wi, (&a, &b))| {
            let mut rest = a & b;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a set whose universe is just large enough
    /// for the largest member.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new(0);
        for i in iter {
            s.grow(i + 1);
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports no change");
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.count(), 2);
        assert!(s.remove(129));
        assert!(!s.remove(129));
        assert!(!s.contains(129));
    }

    #[test]
    fn grow_preserves_members() {
        let mut s = BitSet::new(3);
        s.insert(2);
        s.grow(200);
        assert_eq!(s.len(), 200);
        assert!(s.contains(2));
        assert!(s.insert(199));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 199]);
        // Shrinking is a no-op.
        s.grow(10);
        assert_eq!(s.len(), 200);
    }

    #[test]
    fn union_reports_change_exactly_when_bits_arrive() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(3);
        b.insert(3);
        assert!(!a.union_with(&b), "union with a subset is a no-op");
        b.insert(99);
        assert!(a.union_with(&b));
        assert!(a.contains(99));
        assert!(!a.union_with(&b), "fixpoint: second union changes nothing");
    }

    #[test]
    fn intersect_and_subtract_report_change() {
        let mut a: BitSet = [1, 2, 3].into_iter().collect();
        a.grow(10);
        let mut b: BitSet = [2, 3].into_iter().collect();
        b.grow(10);
        assert!(a.intersect_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert!(!a.intersect_with(&b));
        assert!(a.subtract(&b));
        assert!(a.is_empty());
        assert!(!a.subtract(&b));
    }

    #[test]
    fn iter_and_walks_the_intersection() {
        let mut a: BitSet = [0, 5, 64, 190].into_iter().collect();
        a.grow(256);
        let mut b: BitSet = [5, 63, 64, 200].into_iter().collect();
        b.grow(256);
        assert_eq!(a.iter_and(&b).collect::<Vec<_>>(), vec![5, 64]);
        assert_eq!(b.iter_and(&a).collect::<Vec<_>>(), vec![5, 64]);
        let empty = BitSet::new(256);
        assert_eq!(a.iter_and(&empty).count(), 0);
    }

    #[test]
    fn iter_is_ascending() {
        let s: BitSet = [190, 0, 63, 64, 5].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63, 64, 190]);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mixed_universe_ops_panic() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(20);
        a.union_with(&b);
    }
}
