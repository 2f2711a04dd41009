//! Interpretations.
//!
//! §2 of the paper: an *interpretation* is a **consistent** subset of
//! `B_P ∪ ¬B_P` — a 3-valued assignment where a ground atom is true
//! (the positive literal is in the set), false (the negative literal
//! is), or *undefined* (neither). [`Interpretation`] stores the two
//! polarities as dense bit sets over [`AtomId`]s and maintains
//! consistency by construction.

use crate::bitset::BitSet;
use crate::gterm::AtomId;
use crate::literal::{GLit, Sign};
use crate::world::World;

/// The truth value of an atom under an interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Truth {
    /// The positive literal is in the interpretation.
    True,
    /// The negative literal is in the interpretation.
    False,
    /// Neither literal is in the interpretation.
    Undefined,
}

impl std::fmt::Display for Truth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Truth::True => "true",
            Truth::False => "false",
            Truth::Undefined => "undefined",
        })
    }
}

/// Error: attempted to insert a literal whose complement is present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inconsistency(pub GLit);

impl std::fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "inserting literal would make interpretation inconsistent"
        )
    }
}

impl std::error::Error for Inconsistency {}

/// A consistent 3-valued interpretation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Interpretation {
    pos: BitSet,
    neg: BitSet,
}

impl Interpretation {
    /// The empty interpretation (everything undefined).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes for `n_atoms` atoms.
    pub fn with_capacity(n_atoms: usize) -> Self {
        Interpretation {
            pos: BitSet::with_capacity(n_atoms),
            neg: BitSet::with_capacity(n_atoms),
        }
    }

    /// Truth value of `atom`.
    #[inline]
    pub fn value(&self, atom: AtomId) -> Truth {
        if self.pos.contains(atom.index()) {
            Truth::True
        } else if self.neg.contains(atom.index()) {
            Truth::False
        } else {
            Truth::Undefined
        }
    }

    /// Whether literal `l` is **in** the interpretation (i.e. true).
    #[inline]
    pub fn holds(&self, l: GLit) -> bool {
        match l.sign() {
            Sign::Pos => self.pos.contains(l.atom().index()),
            Sign::Neg => self.neg.contains(l.atom().index()),
        }
    }

    /// Whether the atom of `l` is undefined.
    #[inline]
    pub fn undefined(&self, atom: AtomId) -> bool {
        self.value(atom) == Truth::Undefined
    }

    /// Inserts literal `l`. Fails if the complement is present.
    pub fn insert(&mut self, l: GLit) -> Result<bool, Inconsistency> {
        if self.holds(l.complement()) {
            return Err(Inconsistency(l));
        }
        Ok(match l.sign() {
            Sign::Pos => self.pos.insert(l.atom().index()),
            Sign::Neg => self.neg.insert(l.atom().index()),
        })
    }

    /// In-place union with `other`. Fails, leaving `self` unchanged, if
    /// some literal of `other` has its complement in `self`.
    pub fn union_with(&mut self, other: &Interpretation) -> Result<(), Inconsistency> {
        if self.pos.intersects(&other.neg) || self.neg.intersects(&other.pos) {
            let clash = other
                .literals()
                .find(|&l| self.holds(l.complement()))
                .expect("intersecting sets share a literal");
            return Err(Inconsistency(clash));
        }
        self.pos.union_with(&other.pos);
        self.neg.union_with(&other.neg);
        Ok(())
    }

    /// Removes literal `l`; returns whether it was present.
    pub fn remove(&mut self, l: GLit) -> bool {
        match l.sign() {
            Sign::Pos => self.pos.remove(l.atom().index()),
            Sign::Neg => self.neg.remove(l.atom().index()),
        }
    }

    /// Number of literals (defined atoms).
    pub fn len(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// Whether everything is undefined.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the interpretation is **total** over atoms `0..n_atoms`:
    /// no atom is undefined (Def. 5a: `M̄` is empty).
    pub fn is_total(&self, n_atoms: usize) -> bool {
        (0..n_atoms).all(|i| !self.undefined(AtomId(i as u32)))
    }

    /// Set inclusion as sets of literals (`self ⊆ other`).
    pub fn is_subset(&self, other: &Interpretation) -> bool {
        self.pos.is_subset(&other.pos) && self.neg.is_subset(&other.neg)
    }

    /// Proper inclusion.
    pub fn is_proper_subset(&self, other: &Interpretation) -> bool {
        self.is_subset(other) && self.len() < other.len()
    }

    /// Iterates over all literals in the interpretation, positive ones
    /// first.
    pub fn literals(&self) -> impl Iterator<Item = GLit> + '_ {
        self.pos
            .iter()
            .map(|i| GLit::pos(AtomId(i as u32)))
            .chain(self.neg.iter().map(|i| GLit::neg(AtomId(i as u32))))
    }

    /// Iterates over the undefined atoms among `0..n_atoms`.
    pub fn undefined_atoms(&self, n_atoms: usize) -> impl Iterator<Item = AtomId> + '_ {
        (0..n_atoms as u32)
            .map(AtomId)
            .filter(move |&a| self.undefined(a))
    }

    /// The positive part `I⁺` as atom ids.
    pub fn pos_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.pos.iter().map(|i| AtomId(i as u32))
    }

    /// The negative part `I⁻` as atom ids.
    pub fn neg_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.neg.iter().map(|i| AtomId(i as u32))
    }

    /// Builds an interpretation from literals; fails on inconsistency.
    pub fn from_literals(
        lits: impl IntoIterator<Item = GLit>,
    ) -> Result<Interpretation, Inconsistency> {
        let mut i = Interpretation::new();
        for l in lits {
            i.insert(l)?;
        }
        Ok(i)
    }

    /// Renders as `{lit, lit, …}` sorted alphabetically (stable for
    /// tests and experiment output).
    pub fn render(&self, world: &World) -> String {
        let mut parts: Vec<String> = self.literals().map(|l| world.glit_str(l)).collect();
        parts.sort();
        format!("{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_all_undefined() {
        let i = Interpretation::new();
        assert_eq!(i.value(AtomId(0)), Truth::Undefined);
        assert!(i.is_empty());
        assert!(!i.is_total(1));
        assert!(i.is_total(0));
    }

    #[test]
    fn insert_and_value() {
        let mut i = Interpretation::new();
        let a = AtomId(0);
        let b = AtomId(1);
        assert!(i.insert(GLit::pos(a)).unwrap());
        assert!(i.insert(GLit::neg(b)).unwrap());
        assert!(!i.insert(GLit::pos(a)).unwrap()); // idempotent
        assert_eq!(i.value(a), Truth::True);
        assert_eq!(i.value(b), Truth::False);
        assert!(i.holds(GLit::pos(a)));
        assert!(!i.holds(GLit::neg(a)));
        assert!(i.is_total(2));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn consistency_enforced() {
        let mut i = Interpretation::new();
        i.insert(GLit::pos(AtomId(3))).unwrap();
        assert_eq!(
            i.insert(GLit::neg(AtomId(3))),
            Err(Inconsistency(GLit::neg(AtomId(3))))
        );
        // Removing restores insertability.
        assert!(i.remove(GLit::pos(AtomId(3))));
        assert!(i.insert(GLit::neg(AtomId(3))).is_ok());
    }

    #[test]
    fn subset_ordering() {
        let a = Interpretation::from_literals([GLit::pos(AtomId(0))]).unwrap();
        let b =
            Interpretation::from_literals([GLit::pos(AtomId(0)), GLit::neg(AtomId(1))]).unwrap();
        assert!(a.is_subset(&b));
        assert!(a.is_proper_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(!a.is_proper_subset(&a));
        // Same atom, different sign: incomparable.
        let c = Interpretation::from_literals([GLit::neg(AtomId(0))]).unwrap();
        assert!(!a.is_subset(&c) && !c.is_subset(&a));
    }

    #[test]
    fn literal_iteration_and_undefined() {
        let i =
            Interpretation::from_literals([GLit::neg(AtomId(2)), GLit::pos(AtomId(0))]).unwrap();
        let lits: Vec<GLit> = i.literals().collect();
        assert_eq!(lits, vec![GLit::pos(AtomId(0)), GLit::neg(AtomId(2))]);
        let undef: Vec<AtomId> = i.undefined_atoms(4).collect();
        assert_eq!(undef, vec![AtomId(1), AtomId(3)]);
    }

    #[test]
    fn union_with_joins_or_refuses() {
        let mut a = Interpretation::from_literals([GLit::pos(AtomId(0))]).unwrap();
        let b =
            Interpretation::from_literals([GLit::neg(AtomId(1)), GLit::pos(AtomId(70))]).unwrap();
        a.union_with(&b).unwrap();
        assert_eq!(
            a,
            Interpretation::from_literals([
                GLit::pos(AtomId(0)),
                GLit::neg(AtomId(1)),
                GLit::pos(AtomId(70))
            ])
            .unwrap()
        );
        let before = a.clone();
        let clash = Interpretation::from_literals([GLit::pos(AtomId(1))]).unwrap();
        assert_eq!(
            a.union_with(&clash),
            Err(Inconsistency(GLit::pos(AtomId(1))))
        );
        assert_eq!(a, before, "a refused union leaves the set unchanged");
    }

    #[test]
    fn from_literals_detects_conflict() {
        assert!(
            Interpretation::from_literals([GLit::pos(AtomId(1)), GLit::neg(AtomId(1))]).is_err()
        );
    }
}
