//! Hash-consed ground terms and ground atoms.
//!
//! The Herbrand universe of a program with function symbols is infinite;
//! the engine only ever materialises the finite fragment it touches, and
//! every distinct ground term is stored **exactly once**. This is the
//! "term graph ownership" answer: instead of `Rc<Term>` graphs, a term is
//! a [`GTermId`] (`u32`) into a [`TermStore`] arena, and structural
//! equality is id equality. Ground atoms get the same treatment in
//! [`AtomStore`].

use crate::fxhash::FxHashMap;
use crate::pred::PredId;
use crate::symbol::Sym;

/// An interned ground term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GTermId(pub u32);

impl GTermId {
    /// The raw index, for use as a dense-array key.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of a ground term. Children are ids, so the whole store forms
/// a DAG with maximal sharing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GTerm {
    /// A constant symbol, e.g. `penguin`.
    Const(Sym),
    /// An integer constant, e.g. `16`.
    Int(i64),
    /// A compound term `f(t1, …, tn)` with `n ≥ 1`.
    Func(Sym, Box<[GTermId]>),
}

/// Hash-consing arena for ground terms.
#[derive(Debug, Default, Clone)]
pub struct TermStore {
    terms: Vec<GTerm>,
    by_term: FxHashMap<GTerm, GTermId>,
}

impl TermStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, t: GTerm) -> GTermId {
        if let Some(&id) = self.by_term.get(&t) {
            return id;
        }
        let id = GTermId(u32::try_from(self.terms.len()).expect("term store overflow"));
        self.terms.push(t.clone());
        self.by_term.insert(t, id);
        id
    }

    /// Interns the constant `sym`.
    pub fn constant(&mut self, sym: Sym) -> GTermId {
        self.intern(GTerm::Const(sym))
    }

    /// Interns the integer `i`.
    pub fn int(&mut self, i: i64) -> GTermId {
        self.intern(GTerm::Int(i))
    }

    /// Interns the compound term `f(args…)`.
    ///
    /// # Panics
    /// Panics if `args` is empty — zero-arity "functions" are constants.
    pub fn func(&mut self, f: Sym, args: &[GTermId]) -> GTermId {
        assert!(!args.is_empty(), "0-ary function terms must be constants");
        self.intern(GTerm::Func(f, args.into()))
    }

    /// The shape of term `id`.
    pub fn get(&self, id: GTermId) -> &GTerm {
        &self.terms[id.index()]
    }

    /// Looks up an already-interned term without interning it — the
    /// read-only twin of the intern methods, for callers holding a
    /// shared (`&`) world such as frozen KB snapshots. Children of a
    /// `Func` must already be ids from *this* store.
    pub fn lookup(&self, t: &GTerm) -> Option<GTermId> {
        self.by_term.get(t).copied()
    }

    /// If `id` is an integer constant, its value.
    pub fn as_int(&self, id: GTermId) -> Option<i64> {
        match self.terms[id.index()] {
            GTerm::Int(i) => Some(i),
            _ => None,
        }
    }

    /// The nesting depth of `id`: constants and ints have depth 0,
    /// `f(t…)` has depth `1 + max(depth(t…))`.
    ///
    /// Used by the grounder to enforce the Herbrand-universe depth bound.
    pub fn depth(&self, id: GTermId) -> u32 {
        match self.get(id) {
            GTerm::Const(_) | GTerm::Int(_) => 0,
            GTerm::Func(_, args) => 1 + args.iter().map(|&a| self.depth(a)).max().unwrap_or(0),
        }
    }

    /// Number of distinct ground terms materialised.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over all term ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = GTermId> {
        (0..self.terms.len() as u32).map(GTermId)
    }
}

/// An interned ground atom `p(t1, …, tn)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The raw index, for use as a dense-array key.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The content of a ground atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroundAtom {
    /// The predicate.
    pub pred: PredId,
    /// The argument terms; length equals the predicate's arity.
    pub args: Box<[GTermId]>,
}

/// A ground atom's content as a borrowed lookup key, so probing
/// [`AtomStore`] allocates nothing. Hashes and compares exactly as the
/// derived impls of [`GroundAtom`] do.
trait AtomKey {
    fn parts(&self) -> (PredId, &[GTermId]);
}

impl AtomKey for GroundAtom {
    fn parts(&self) -> (PredId, &[GTermId]) {
        (self.pred, &self.args)
    }
}

impl AtomKey for (PredId, &[GTermId]) {
    fn parts(&self) -> (PredId, &[GTermId]) {
        *self
    }
}

impl<'a> std::borrow::Borrow<dyn AtomKey + 'a> for GroundAtom {
    fn borrow(&self) -> &(dyn AtomKey + 'a) {
        self
    }
}

impl std::hash::Hash for dyn AtomKey + '_ {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        let (pred, args) = self.parts();
        pred.hash(h);
        args.hash(h);
    }
}

impl PartialEq for dyn AtomKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn AtomKey + '_ {}

/// Hash-consing arena for ground atoms, with a per-predicate index.
#[derive(Debug, Default, Clone)]
pub struct AtomStore {
    atoms: Vec<GroundAtom>,
    by_atom: FxHashMap<GroundAtom, AtomId>,
    by_pred: Vec<Vec<AtomId>>,
}

impl AtomStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns the ground atom `pred(args…)`.
    pub fn intern(&mut self, pred: PredId, args: &[GTermId]) -> AtomId {
        if let Some(&id) = self.by_atom.get(&(pred, args) as &dyn AtomKey) {
            return id;
        }
        let key = GroundAtom {
            pred,
            args: args.into(),
        };
        let id = AtomId(u32::try_from(self.atoms.len()).expect("atom store overflow"));
        self.atoms.push(key.clone());
        self.by_atom.insert(key, id);
        if self.by_pred.len() <= pred.index() {
            self.by_pred.resize_with(pred.index() + 1, Vec::new);
        }
        self.by_pred[pred.index()].push(id);
        id
    }

    /// Looks up a ground atom without interning.
    pub fn get_id(&self, pred: PredId, args: &[GTermId]) -> Option<AtomId> {
        self.by_atom.get(&(pred, args) as &dyn AtomKey).copied()
    }

    /// The content of atom `id`.
    pub fn get(&self, id: AtomId) -> &GroundAtom {
        &self.atoms[id.index()]
    }

    /// All atoms of predicate `pred`, in interning order.
    pub fn of_pred(&self, pred: PredId) -> &[AtomId] {
        self.by_pred.get(pred.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct ground atoms materialised. This is the size of
    /// the *materialised* Herbrand base `B_P`.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterates over all atom ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = AtomId> {
        (0..self.atoms.len() as u32).map(AtomId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::PredTable;
    use crate::symbol::SymbolTable;

    fn setup() -> (SymbolTable, PredTable, TermStore, AtomStore) {
        (
            SymbolTable::new(),
            PredTable::new(),
            TermStore::new(),
            AtomStore::new(),
        )
    }

    #[test]
    fn constants_are_shared() {
        let (mut syms, _, mut terms, _) = setup();
        let c = syms.intern("mimmo");
        let a = terms.constant(c);
        let b = terms.constant(c);
        assert_eq!(a, b);
        assert_eq!(terms.len(), 1);
    }

    #[test]
    fn ints_and_consts_are_distinct() {
        let (mut syms, _, mut terms, _) = setup();
        let c = syms.intern("x");
        let a = terms.constant(c);
        let b = terms.int(0);
        assert_ne!(a, b);
        assert_eq!(terms.as_int(b), Some(0));
        assert_eq!(terms.as_int(a), None);
    }

    #[test]
    fn compound_terms_hash_cons_structurally() {
        let (mut syms, _, mut terms, _) = setup();
        let f = syms.intern("f");
        let c = syms.intern("c");
        let cc = terms.constant(c);
        let t1 = terms.func(f, &[cc]);
        let t2 = terms.func(f, &[cc]);
        assert_eq!(t1, t2);
        let t3 = terms.func(f, &[t1]);
        assert_ne!(t1, t3);
        assert_eq!(terms.depth(cc), 0);
        assert_eq!(terms.depth(t1), 1);
        assert_eq!(terms.depth(t3), 2);
    }

    #[test]
    #[should_panic(expected = "0-ary")]
    fn zero_arity_func_panics() {
        let (mut syms, _, mut terms, _) = setup();
        let f = syms.intern("f");
        terms.func(f, &[]);
    }

    #[test]
    fn atoms_intern_and_index_by_pred() {
        let (mut syms, mut preds, mut terms, mut atoms) = setup();
        let bird = preds.intern(syms.intern("bird"), 1);
        let fly = preds.intern(syms.intern("fly"), 1);
        let penguin = terms.constant(syms.intern("penguin"));
        let pigeon = terms.constant(syms.intern("pigeon"));
        let a1 = atoms.intern(bird, &[penguin]);
        let a2 = atoms.intern(bird, &[pigeon]);
        let a3 = atoms.intern(fly, &[penguin]);
        let a1b = atoms.intern(bird, &[penguin]);
        assert_eq!(a1, a1b);
        assert_ne!(a1, a2);
        assert_ne!(a1, a3);
        assert_eq!(atoms.of_pred(bird), &[a1, a2]);
        assert_eq!(atoms.of_pred(fly), &[a3]);
        assert_eq!(atoms.get_id(bird, &[penguin]), Some(a1));
        assert_eq!(atoms.get(a3).pred, fly);
    }

    #[test]
    fn of_pred_for_unknown_pred_is_empty() {
        let (mut syms, mut preds, _, atoms) = setup();
        let p = preds.intern(syms.intern("p"), 0);
        assert!(atoms.of_pred(p).is_empty());
    }
}
