//! A compact fixed-domain bit set over `u64` words.

/// A set of small integers `0..domain`, stored one bit per element.
///
/// This is the lattice element of every analysis in this crate: register
/// sets are `BitSet`s with domain 32, reaching-definition sets have one
/// bit per definition site. All operations needed by a union/gen-kill
/// worklist solver are provided; the mutating set operations report
/// whether they changed the set so the solver can drive its worklist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    domain: usize,
}

impl BitSet {
    /// Creates an empty set over `0..domain`.
    pub fn new(domain: usize) -> BitSet {
        BitSet {
            words: vec![0; domain.div_ceil(64)],
            domain,
        }
    }

    /// Creates a set containing the given elements.
    ///
    /// # Panics
    ///
    /// Panics if any element is outside the domain.
    pub fn of(domain: usize, elems: &[usize]) -> BitSet {
        let mut s = BitSet::new(domain);
        for &e in elems {
            s.insert(e);
        }
        s
    }

    /// The domain size this set ranges over.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Adds `x`; returns true if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the domain.
    pub fn insert(&mut self, x: usize) -> bool {
        assert!(x < self.domain, "{x} outside domain {}", self.domain);
        let (w, b) = (x / 64, 1u64 << (x % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    /// Removes `x`; returns true if it was present.
    pub fn remove(&mut self, x: usize) -> bool {
        if x >= self.domain {
            return false;
        }
        let (w, b) = (x / 64, 1u64 << (x % 64));
        let had = self.words[w] & b != 0;
        self.words[w] &= !b;
        had
    }

    /// True if `x` is in the set.
    pub fn contains(&self, x: usize) -> bool {
        x < self.domain && self.words[x / 64] & (1 << (x % 64)) != 0
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self |= other`; returns true if `self` grew.
    ///
    /// # Panics
    ///
    /// Panics if the domains differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.domain, other.domain, "domain mismatch");
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let merged = *a | b;
            changed |= merged != *a;
            *a = merged;
        }
        changed
    }

    /// `self -= other`; returns true if `self` shrank.
    ///
    /// # Panics
    ///
    /// Panics if the domains differ.
    pub fn subtract(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.domain, other.domain, "domain mismatch");
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let masked = *a & !b;
            changed |= masked != *a;
            *a = masked;
        }
        changed
    }

    /// `self = other`, reusing `self`'s allocation.
    ///
    /// # Panics
    ///
    /// Panics if the domains differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.domain, other.domain, "domain mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// The lowest 64 elements as a bit mask (bit `i` set iff `i` is in the
    /// set). Handy for register sets, whose domain is 32.
    pub fn low_word(&self) -> u64 {
        self.words.first().copied().unwrap_or(0)
    }

    /// Iterates over the elements in increasing order.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert reports no change");
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.count(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.remove(4096), "out of domain remove is a no-op");
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn insert_out_of_domain_panics() {
        BitSet::new(8).insert(8);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::of(100, &[1, 5, 64, 99]);
        let b = BitSet::of(100, &[5, 64]);
        let mut u = b.clone();
        assert!(u.union_with(&a));
        assert!(!u.union_with(&a), "idempotent");
        assert_eq!(u, a);

        let mut d = a.clone();
        assert!(d.subtract(&b));
        assert_eq!(d, BitSet::of(100, &[1, 99]));
    }

    /// `copy_from` across the empty-, single-, and multi-word layouts
    /// (domains 0, 40, 130), over stale contents.
    #[test]
    fn copy_from_all_word_counts() {
        let cases: [(usize, &[usize], &[usize]); 3] = [
            (0, &[], &[]),
            (40, &[1, 39], &[0, 39]),
            (130, &[0, 64, 129], &[63, 64, 70]),
        ];
        for (domain, xs, ys) in cases {
            let a = BitSet::of(domain, xs);
            let mut copied = BitSet::of(domain, ys);
            copied.copy_from(&a);
            assert_eq!(copied, a, "domain {domain}");
        }
    }

    #[test]
    fn iter_in_order() {
        let s = BitSet::of(200, &[3, 64, 65, 199]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 65, 199]);
    }

    #[test]
    fn low_word_mask() {
        let s = BitSet::of(32, &[0, 4, 31]);
        assert_eq!(s.low_word(), 1 | (1 << 4) | (1 << 31));
        assert_eq!(BitSet::new(0).low_word(), 0);
    }
}
