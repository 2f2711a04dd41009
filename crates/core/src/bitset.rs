//! A dense, growable bit set over `usize` indices.
//!
//! Interpretations, component up-sets and the order matrix are all sets
//! over dense `u32` id spaces; a `Vec<u64>` bit set is the natural
//! representation and keeps the semantics engine allocation-light.

/// A dense bit set.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for indices `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        BitSet {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn loc(i: usize) -> (usize, u64) {
        (i / 64, 1u64 << (i % 64))
    }

    /// Inserts `i`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, m) = Self::loc(i);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let newly = self.words[w] & m == 0;
        self.words[w] |= m;
        self.len += usize::from(newly);
        newly
    }

    /// Removes `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, m) = Self::loc(i);
        if w >= self.words.len() {
            return false;
        }
        let present = self.words[w] & m != 0;
        self.words[w] &= !m;
        self.len -= usize::from(present);
        self.normalize();
        present
    }

    /// Drops trailing zero words so that logically equal sets compare
    /// equal under the derived `PartialEq`/`Hash` regardless of their
    /// mutation history.
    fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        let (w, m) = Self::loc(i);
        self.words.get(w).is_some_and(|&word| word & m != 0)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all elements, keeping capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Whether the sets intersect.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(&a, &b)| a & b != 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (i, &w) in other.words.iter().enumerate() {
            self.words[i] |= w;
        }
        self.normalize();
        self.recount();
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &BitSet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= !other.words.get(i).copied().unwrap_or(0);
        }
        self.normalize();
        self.recount();
    }

    fn recount(&mut self) {
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Iterates over members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut word = w;
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = BitSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(!s.contains(2));
        assert!(!s.contains(1000));
        assert_eq!(s.len(), 1);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_across_word_boundaries() {
        let mut s = BitSet::with_capacity(10);
        for i in [0, 63, 64, 65, 300] {
            assert!(s.insert(i));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 300]);
    }

    #[test]
    fn subset_and_intersects() {
        let a: BitSet = [1, 5, 9].into_iter().collect();
        let b: BitSet = [1, 5, 9, 200].into_iter().collect();
        let c: BitSet = [2, 4].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let empty = BitSet::new();
        assert!(empty.is_subset(&a));
        assert!(empty.is_subset(&empty));
        assert!(!empty.intersects(&a));
    }

    #[test]
    fn union_and_difference() {
        let mut a: BitSet = [1, 2, 70].into_iter().collect();
        let b: BitSet = [2, 3, 400].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 3, 70, 400]);
        a.difference_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 70]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn equality_ignores_mutation_history() {
        // A set that grew and shrank must equal a freshly built one.
        let mut a = BitSet::new();
        a.insert(500);
        a.insert(3);
        a.remove(500);
        let b: BitSet = [3].into_iter().collect();
        assert_eq!(a, b);
        let mut c = BitSet::with_capacity(1000);
        c.insert(3);
        assert_eq!(a, c);
        a.remove(3);
        assert_eq!(a, BitSet::new());
    }

    #[test]
    fn clear_keeps_working() {
        let mut s: BitSet = (0..100).collect();
        assert_eq!(s.len(), 100);
        s.clear();
        assert!(s.is_empty());
        assert!(s.insert(42));
        assert_eq!(s.len(), 1);
    }
}
