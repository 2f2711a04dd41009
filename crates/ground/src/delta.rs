//! The delta (incremental) grounder.
//!
//! [`crate::ground_smart`] recomputes the entire derivability closure on
//! every call. A live knowledge base that asserts and retracts single
//! rules pays that full cost per mutation. [`DeltaGrounder`] instead
//! *persists* the smart grounder's state — the derivability closure
//! `D`, the active domain, and every phase-1 firing instance tagged
//! with the rule that produced it — and updates it per mutation:
//!
//! * **Assert**: the new rule is compiled and registered with the join
//!   drivers, its constants enter the active domain, and a single seed
//!   join runs it against the current `D`. The ordinary semi-naive
//!   closure then propagates: newly derived literals drive old and new
//!   rules alike, and active-domain growth re-runs the domain-dependent
//!   rules. This grounds exactly the asserted rule's instantiations
//!   plus the universe growth they induce.
//! * **Retract**: derivations are *non-monotone* under rule removal, so
//!   the grounder replays the retained instances **propositionally**: an
//!   instance fires iff its (distinct) body literals are all (re)derived
//!   and its recorded residual bindings lie within the rebuilt active
//!   domain. The replay is a counter-based worklist over stored
//!   instances — no joins, no variable matching — linear in the size of
//!   the previous grounding, and computes the exact least fixpoint the
//!   smart grounder would reach from scratch (the retained instance
//!   store is a superset of the from-scratch instance set, and
//!   admissibility re-checks exactly the conditions that gated their
//!   original emission).
//!
//! The closure, the seed join and the attacker phase are the smart
//! grounder's own driver ([`crate::smart`]), run over a sink that also
//! records each instance's producing rule and residual bindings — the
//! provenance retraction replays — which [`crate::ground_smart`] does
//! not pay for. The read-only match phase fans out over
//! [`GroundConfig::threads`] workers (paying off on large assert
//! deltas), the commit phase is sequential, and the result is
//! independent of the thread count.
//!
//! Phase 2 (attacker instances, including the eternal-attacker
//! sentinel collapse — see [`crate::smart`]) is re-run from the updated
//! `D` on every mutation: attacks depend non-monotonically on
//! derivability in both directions, and the phase is cheap relative to
//! the closure (it never joins, only matches victims). Like the smart
//! grounder it enumerates a *sorted* copy of the active domain, so the
//! attacker set matches a from-scratch grounding even though the delta
//! grounder admits domain terms in a different order.
//!
//! **Invariant** (tested in this module and fuzzed in
//! `tests/incremental.rs`): after every successful operation, the
//! assembled [`GroundProgram`] is identical to what [`crate::ground_smart`]
//! would produce on the mutated source program. On error (budget
//! exhaustion, instance cap) the internal state is unspecified; callers
//! must discard the grounder and fall back to a full reground.

use crate::join::{Item, SpendPool};
use crate::program::{GroundProgram, GroundRule};
use crate::smart::{Closure, Sink};
use crate::universe::{GroundConfig, GroundError};
use olp_core::term::Bindings;
use olp_core::{
    Budget, CompId, FxHashMap, FxHashSet, GLit, GTermId, Order, OrderedProgram, Rule, Sym, World,
};

/// A phase-1 firing instance with enough provenance to replay it.
#[derive(Debug)]
struct Inst {
    /// Index of the producing rule in the closure's rule table.
    rule: u32,
    gr: GroundRule,
    /// The ground terms bound to the rule's residual variables at
    /// emission, deduplicated. The instance exists only while all of
    /// them remain in the active domain.
    residual_terms: Box<[GTermId]>,
}

/// The incremental grounder's [`Sink`]: every firing instance with its
/// provenance, deduplicated per producing rule, and which rules have
/// been retracted.
#[derive(Debug, Default)]
struct Provenance {
    insts: Vec<Inst>,
    seen: FxHashSet<(u32, GroundRule)>,
    /// `retracted[r]` marks rule `r` dead (it stays registered, so
    /// indices are stable); rules past the end are alive.
    retracted: Vec<bool>,
}

impl Sink for Provenance {
    #[inline]
    fn live(&self, r: usize) -> bool {
        !self.retracted.get(r).copied().unwrap_or(false)
    }

    fn record(&mut self, r: usize, gr: GroundRule, residual: &[Sym], b: &Bindings) {
        if self.seen.insert((r as u32, gr.clone())) {
            let mut residual_terms: Vec<GTermId> =
                residual.iter().filter_map(|v| b.get(v).copied()).collect();
            residual_terms.sort_unstable();
            residual_terms.dedup();
            self.insts.push(Inst {
                rule: r as u32,
                gr,
                residual_terms: residual_terms.into_boxed_slice(),
            });
        }
    }
}

/// Identifier of a registered rule, returned by
/// [`DeltaGrounder::assert_rule`] and consumed by
/// [`DeltaGrounder::retract_rule`].
pub type DeltaRuleId = u32;

/// Persistent incremental grounder: the grounding closure's state,
/// kept across mutations. See the module docs for the algorithm.
#[derive(Debug)]
pub struct DeltaGrounder {
    order: Order,
    max_instances: usize,
    closure: Closure<Provenance>,
    /// Phase-2 output, rebuilt per mutation.
    out2: Vec<GroundRule>,
}

impl DeltaGrounder {
    /// Grounds `prog` from scratch and returns the grounder together
    /// with the initial [`GroundProgram`] — identical to what
    /// [`crate::ground_smart`] produces.
    pub fn new(
        world: &mut World,
        prog: &OrderedProgram,
        cfg: &GroundConfig,
    ) -> Result<(Self, GroundProgram), GroundError> {
        let order = prog.order()?;
        let mut g = DeltaGrounder {
            order,
            max_instances: cfg.max_instances,
            closure: Closure::ground(world, prog, cfg, Provenance::default())?,
            out2: Vec::new(),
        };
        g.attackers(world)?;
        let gp = g.assemble(world);
        Ok((g, gp))
    }

    /// Asserts `rule` into component `comp`: grounds only the new
    /// rule's instantiations plus whatever the derivability closure and
    /// active-domain growth they cause make newly derivable. Returns
    /// the rule's id (for later retraction) and the updated ground
    /// program.
    ///
    /// On `Err` the grounder's state is unspecified: discard it.
    pub fn assert_rule(
        &mut self,
        world: &mut World,
        comp: CompId,
        rule: &Rule,
        gov: &Budget,
    ) -> Result<(DeltaRuleId, GroundProgram), GroundError> {
        self.closure.pool = SpendPool::new(self.max_instances, gov.clone());
        let id = self.closure.register(world, comp, rule);
        self.closure.admit_consts(world, id);
        // Seed join: instances of the new rule whose bodies are already
        // within `D` (later derivations drive it via the drivers).
        self.closure.run_batch(world, &[Item::Seed { rule: id }])?;
        self.closure.run(world)?;
        self.attackers(world)?;
        Ok((id as DeltaRuleId, self.assemble(world)))
    }

    /// Retracts a previously registered rule and replays the retained
    /// instances to the exact from-scratch fixpoint (see module docs).
    ///
    /// On `Err` the grounder's state is unspecified: discard it.
    pub fn retract_rule(
        &mut self,
        world: &mut World,
        id: DeltaRuleId,
        gov: &Budget,
    ) -> Result<GroundProgram, GroundError> {
        self.closure.pool = SpendPool::new(self.max_instances, gov.clone());
        let retracted = &mut self.closure.sink.retracted;
        if retracted.len() <= id as usize {
            retracted.resize(id as usize + 1, false);
        }
        retracted[id as usize] = true;
        self.replay(world)?;
        self.attackers(world)?;
        Ok(self.assemble(world))
    }

    /// Number of phase-1 + phase-2 instances currently held (diagnostic
    /// — the CLI's timing output reports the delta between mutations).
    pub fn instance_count(&self) -> usize {
        self.closure.sink.insts.len() + self.out2.len()
    }

    /// Propositional replay after a retraction: rebuilds `D`, the
    /// active domain, and the instance store from the retained
    /// instances alone, by a counter-based worklist. An instance fires
    /// iff all its body literals are (re)derived and all its recorded
    /// residual terms are (re)admitted to the domain; firing derives
    /// its head, which admits the head's terms.
    fn replay(&mut self, world: &mut World) -> Result<(), GroundError> {
        let c = &mut self.closure;
        let cands: Vec<Inst> = std::mem::take(&mut c.sink.insts)
            .into_iter()
            .filter(|i| c.sink.live(i.rule as usize))
            .collect();
        c.d_set.clear();
        c.index.clear();
        c.adom.clear();
        c.adom_set.clear();
        c.queue.clear();
        c.sink.seen.clear();
        for r in 0..c.rules.len() {
            if c.sink.live(r) {
                c.admit_consts(world, r);
            }
        }
        let mut waiters_lit: FxHashMap<GLit, Vec<usize>> = FxHashMap::default();
        let mut waiters_term: FxHashMap<GTermId, Vec<usize>> = FxHashMap::default();
        // Per candidate: (#body literals not yet derived, #residual
        // terms not yet in the domain). Bodies are already distinct
        // (canonicalised); residual terms are deduplicated at emission.
        let mut missing: Vec<(usize, usize)> = Vec::with_capacity(cands.len());
        let mut fired = vec![false; cands.len()];
        let mut ready: Vec<usize> = Vec::new();
        for (i, inst) in cands.iter().enumerate() {
            c.pool.spend(1)?;
            for &l in &inst.gr.body {
                waiters_lit.entry(l).or_default().push(i);
            }
            for &t in &inst.residual_terms {
                waiters_term.entry(t).or_default().push(i);
            }
            missing.push((inst.gr.body.len(), inst.residual_terms.len()));
            if inst.gr.body.is_empty() && inst.residual_terms.is_empty() {
                ready.push(i);
            }
        }
        // The seed-domain terms admitted above are processed through
        // the same cursor as replay-time admissions.
        let mut adom_cursor = 0usize;
        loop {
            if adom_cursor < c.adom.len() {
                let t = c.adom[adom_cursor];
                adom_cursor += 1;
                if let Some(ws) = waiters_term.get(&t) {
                    for &i in ws {
                        missing[i].1 -= 1;
                        if missing[i] == (0, 0) {
                            ready.push(i);
                        }
                    }
                }
                continue;
            }
            if let Some(l) = c.queue.pop_front() {
                if let Some(ws) = waiters_lit.get(&l) {
                    for &i in ws {
                        missing[i].0 -= 1;
                        if missing[i] == (0, 0) {
                            ready.push(i);
                        }
                    }
                }
                continue;
            }
            match ready.pop() {
                Some(i) => {
                    if !fired[i] {
                        fired[i] = true;
                        c.d_add(world, cands[i].gr.head);
                    }
                }
                None => break,
            }
        }
        for (i, inst) in cands.into_iter().enumerate() {
            if fired[i] {
                c.sink.seen.insert((inst.rule, inst.gr.clone()));
                c.sink.insts.push(inst);
            }
        }
        Ok(())
    }

    /// Phase 2 from the current `D`, rebuilt in full every mutation.
    fn attackers(&mut self, world: &mut World) -> Result<(), GroundError> {
        self.out2.clear();
        self.closure.attackers(world, &mut self.out2)
    }

    /// Assembles the current state into a canonical [`GroundProgram`].
    fn assemble(&self, world: &World) -> GroundProgram {
        let insts = &self.closure.sink.insts;
        let mut rules: Vec<GroundRule> = Vec::with_capacity(insts.len() + self.out2.len());
        rules.extend(insts.iter().map(|i| i.gr.clone()));
        rules.extend(self.out2.iter().cloned());
        GroundProgram::new(rules, self.order.clone(), world.atoms.len())
    }
}

/// The exact rule-level difference between two ground programs — what a
/// mutation through [`DeltaGrounder`] actually changed, expressed as
/// instance ids per program.
///
/// [`GroundProgram::new`] canonicalises `rules`: sorted by
/// `(comp, head, body)` and deduplicated. The programs before and after
/// a mutation are therefore two sorted sequences over the same key, and
/// the difference falls out of a single linear merge — no hashing, no
/// cloning. Retained rules keep their relative order on both sides,
/// which is what lets `FlatView::apply_delta` splice arenas instead of
/// rebuilding them.
#[derive(Debug, Clone, Default)]
pub struct GroundDelta {
    /// Indices into the *new* program's rules absent from the old one.
    pub added: Vec<u32>,
    /// Indices into the *old* program's rules absent from the new one.
    pub removed: Vec<u32>,
}

impl GroundDelta {
    /// Computes the delta between two canonicalised ground programs by
    /// one sorted merge over `(comp, head, body)`.
    pub fn between(old: &GroundProgram, new: &GroundProgram) -> Self {
        use std::cmp::Ordering;
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < old.rules.len() && j < new.rules.len() {
            let a = &old.rules[i];
            let b = &new.rules[j];
            match (a.comp, a.head, &a.body).cmp(&(b.comp, b.head, &b.body)) {
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                Ordering::Less => {
                    removed.push(i as u32);
                    i += 1;
                }
                Ordering::Greater => {
                    added.push(j as u32);
                    j += 1;
                }
            }
        }
        while i < old.rules.len() {
            removed.push(i as u32);
            i += 1;
        }
        while j < new.rules.len() {
            added.push(j as u32);
            j += 1;
        }
        GroundDelta { added, removed }
    }

    /// Whether the two programs have identical rule sets.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Sorted, deduplicated indices of every atom occurring in a
    /// changed rule (head or body) — the seed set for dirty-stratum
    /// revalidation.
    pub fn touched_atoms(&self, old: &GroundProgram, new: &GroundProgram) -> Vec<usize> {
        let mut touched = Vec::new();
        {
            let mut note = |r: &GroundRule| {
                touched.push(r.head.atom().index());
                for &b in &r.body {
                    touched.push(b.atom().index());
                }
            };
            for &i in &self.removed {
                note(&old.rules[i as usize]);
            }
            for &j in &self.added {
                note(&new.rules[j as usize]);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Restricts the delta to the view of component `c`: the added
    /// indices (into the new program) and removed indices (into the
    /// old) whose rules are visible from `c` per [`Order::in_view`].
    pub fn for_view(
        &self,
        old: &GroundProgram,
        new: &GroundProgram,
        c: CompId,
    ) -> (Vec<u32>, Vec<u32>) {
        let added = self
            .added
            .iter()
            .copied()
            .filter(|&j| new.order.in_view(c, new.rules[j as usize].comp))
            .collect();
        let removed = self
            .removed
            .iter()
            .copied()
            .filter(|&i| old.order.in_view(c, old.rules[i as usize].comp))
            .collect();
        (added, removed)
    }

    /// Whether any changed rule is visible from component `c` — the
    /// per-`CompId` invalidation test for cached arenas and models.
    pub fn affects_view(&self, old: &GroundProgram, new: &GroundProgram, c: CompId) -> bool {
        self.added
            .iter()
            .any(|&j| new.order.in_view(c, new.rules[j as usize].comp))
            || self
                .removed
                .iter()
                .any(|&i| old.order.in_view(c, old.rules[i as usize].comp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smart::ground_smart;
    use olp_parser::{parse_program, parse_rule};

    /// Asserts that `gp` equals a from-scratch smart grounding of
    /// `prog` (rendered, so differences print usefully).
    fn assert_matches_scratch(world: &mut World, prog: &OrderedProgram, gp: &GroundProgram) {
        let scratch = ground_smart(world, prog, &GroundConfig::default()).unwrap();
        assert_eq!(
            gp.render(world),
            scratch.render(world),
            "delta grounding diverged from scratch"
        );
    }

    fn setup(src: &str) -> (World, OrderedProgram, DeltaGrounder, GroundProgram) {
        let mut w = World::new();
        let p = parse_program(&mut w, src).unwrap();
        let (g, gp) = DeltaGrounder::new(&mut w, &p, &GroundConfig::default()).unwrap();
        (w, p, g, gp)
    }

    #[test]
    fn initial_grounding_matches_ground_smart() {
        for src in [
            "parent(a,b). parent(b,c).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
            "q(a). q(b). -p(X).",
            "module c2 { a. }
             module c1 < c2 { -a :- b. }",
            "module c2 { a. b. }
             module c1 < c2 { -a :- b. -b :- a. }",
            "inflation(12). take_loan :- inflation(X), X > 11.",
            "even(zero). even(s(s(X))) :- even(X).",
        ] {
            let (mut w, p, _, gp) = setup(src);
            assert_matches_scratch(&mut w, &p, &gp);
        }
    }

    #[test]
    fn assert_fact_grounds_incrementally_and_exactly() {
        let (mut w, mut p, mut g, _) = setup(
            "parent(a,b). parent(b,c).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        );
        let c = p.component_by_name(w.syms.intern("main")).unwrap();
        let r = parse_rule(&mut w, "parent(c,d).").unwrap();
        let (_, gp) = g.assert_rule(&mut w, c, &r, &Budget::unlimited()).unwrap();
        p.add_rule(c, r);
        // The new edge extends the transitive closure: anc(a,d) etc.
        assert_matches_scratch(&mut w, &p, &gp);
    }

    #[test]
    fn assert_rule_with_residual_and_fresh_constant() {
        // Asserting a CWA-style non-ground fact instantiates it over
        // the whole active domain; asserting a fact with a fresh
        // constant afterwards must extend those instantiations.
        let (mut w, mut p, mut g, _) = setup("q(a). q(b).");
        let c = p.component_by_name(w.syms.intern("main")).unwrap();
        let cwa = parse_rule(&mut w, "-p(X).").unwrap();
        let (_, gp) = g
            .assert_rule(&mut w, c, &cwa, &Budget::unlimited())
            .unwrap();
        p.add_rule(c, cwa);
        assert_matches_scratch(&mut w, &p, &gp);
        let fresh = parse_rule(&mut w, "q(c).").unwrap();
        let (_, gp) = g
            .assert_rule(&mut w, c, &fresh, &Budget::unlimited())
            .unwrap();
        p.add_rule(c, fresh);
        assert_matches_scratch(&mut w, &p, &gp); // -p(c) now instantiated
    }

    #[test]
    fn retract_replays_to_scratch_fixpoint() {
        let (mut w, mut p, mut g, _) = setup(
            "parent(a,b). parent(b,c). parent(c,d).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        );
        let c = p.component_by_name(w.syms.intern("main")).unwrap();
        // parent(b,c) is rule index 1 in registration order.
        let gp = g.retract_rule(&mut w, 1, &Budget::unlimited()).unwrap();
        p.components[c.index()].rules.remove(1);
        // The chain is broken: anc(a,c), anc(a,d), anc(b,*) vanish.
        assert_matches_scratch(&mut w, &p, &gp);
    }

    #[test]
    fn retract_shrinks_cwa_instantiations() {
        // Retracting the only rule mentioning constant `b` must remove
        // -p(b): a stale active domain would unsoundly keep it.
        let (mut w, mut p, mut g, _) = setup("q(a). q(b). -p(X).");
        let c = p.component_by_name(w.syms.intern("main")).unwrap();
        let gp = g.retract_rule(&mut w, 1, &Budget::unlimited()).unwrap();
        p.components[c.index()].rules.remove(1);
        assert_matches_scratch(&mut w, &p, &gp);
    }

    #[test]
    fn assert_retract_roundtrip_restores_grounding() {
        let (mut w, p, mut g, gp0) = setup(
            "module c2 { a. b. }
             module c1 < c2 { -a :- b. -b :- a. }",
        );
        let c2 = p.component_by_name(w.syms.intern("c2")).unwrap();
        let r = parse_rule(&mut w, "c :- a.").unwrap();
        let (id, _) = g.assert_rule(&mut w, c2, &r, &Budget::unlimited()).unwrap();
        let gp = g.retract_rule(&mut w, id, &Budget::unlimited()).unwrap();
        assert_eq!(gp.render(&w), gp0.render(&w));
    }

    #[test]
    fn attacker_classification_tracks_mutations() {
        // Initially `-a :- b.` has an underivable body → eternal
        // sentinel. Asserting `b.` makes the body derivable → the
        // sentinel disappears in favour of the phase-1 instance.
        let (mut w, mut p, mut g, gp0) = setup(
            "module c2 { a. }
             module c1 < c2 { -a :- b. }",
        );
        assert!(gp0
            .rules
            .iter()
            .any(|r| r.body.len() == 1 && w.atom_str(r.body[0].atom()) == "#undef"));
        let c2 = p.component_by_name(w.syms.intern("c2")).unwrap();
        let b = parse_rule(&mut w, "b.").unwrap();
        let (_, gp) = g.assert_rule(&mut w, c2, &b, &Budget::unlimited()).unwrap();
        p.add_rule(c2, b);
        assert_matches_scratch(&mut w, &p, &gp);
        assert!(!gp
            .rules
            .iter()
            .any(|r| r.body.len() == 1 && w.atom_str(r.body[0].atom()) == "#undef"));
    }

    #[test]
    fn budget_trips_on_oversized_assert() {
        let (mut w, p, mut g, _) = setup("p(a). p(b). p(c).");
        let c = p.component_by_name(w.syms.intern("main")).unwrap();
        let big = parse_rule(&mut w, "q(X,Y,Z) :- p(X), p(Y), p(Z).").unwrap();
        let gov = Budget::limited(Some(5), None);
        assert!(matches!(
            g.assert_rule(&mut w, c, &big, &gov),
            Err(GroundError::Interrupted(_))
        ));
    }

    #[test]
    fn random_mutation_sequence_stays_exact() {
        // A scripted assert/retract sequence over a mixed program; the
        // fuzz suite (tests/incremental.rs) does this at scale.
        let (mut w, mut p, mut g, _) = setup(
            "module c2 { bird(tweety). fly(X) :- bird(X). }
             module c1 < c2 { penguin(opus). -fly(X) :- penguin(X). }",
        );
        let c1 = p.component_by_name(w.syms.intern("c1")).unwrap();
        let c2 = p.component_by_name(w.syms.intern("c2")).unwrap();
        let mut ids = Vec::new();
        for (comp, src) in [
            (c2, "bird(opus)."),
            (c1, "penguin(tweety)."),
            (c2, "sings(X) :- bird(X), fly(X)."),
        ] {
            let r = parse_rule(&mut w, src).unwrap();
            let (id, gp) = g
                .assert_rule(&mut w, comp, &r, &Budget::unlimited())
                .unwrap();
            p.add_rule(comp, r);
            ids.push((comp, id));
            assert_matches_scratch(&mut w, &p, &gp);
        }
        // Retract the middle assertion (penguin(tweety), first rule
        // appended to c1 → source index 2 in that component).
        let (comp, id) = ids[1];
        let gp = g.retract_rule(&mut w, id, &Budget::unlimited()).unwrap();
        let n = p.components[comp.index()].rules.len();
        p.components[comp.index()].rules.remove(n - 1);
        assert_matches_scratch(&mut w, &p, &gp);
    }

    #[test]
    fn ground_delta_is_exact_and_view_filtered() {
        let (mut w, mut p, mut g, gp0) = setup(
            "module c2 { bird(tweety). fly(X) :- bird(X). }
             module c1 < c2 { penguin(opus). }",
        );
        let c1 = p.component_by_name(w.syms.intern("c1")).unwrap();
        let c2 = p.component_by_name(w.syms.intern("c2")).unwrap();
        let r = parse_rule(&mut w, "bird(opus).").unwrap();
        let (_, gp1) = g.assert_rule(&mut w, c2, &r, &Budget::unlimited()).unwrap();
        p.add_rule(c2, r);
        let d = GroundDelta::between(&gp0, &gp1);
        assert!(!d.is_empty());
        assert!(d.removed.is_empty(), "a pure assert removes nothing");
        // Every reported index points at a rule absent from the other
        // side, and retained rules are exactly the intersection.
        assert_eq!(gp0.len() + d.added.len(), gp1.len());
        for &j in &d.added {
            assert!(!gp0.rules.contains(&gp1.rules[j as usize]));
        }
        // Atoms of the changed rules (bird(opus), fly(opus)) are
        // touched; the untouched base atoms are not.
        let touched = d.touched_atoms(&gp0, &gp1);
        for &j in &d.added {
            let r = &gp1.rules[j as usize];
            assert!(touched.contains(&r.head.atom().index()));
        }
        // The changed rules live in c2, so both views (c1 sees c2's
        // rules through the order) are affected.
        assert!(d.affects_view(&gp0, &gp1, c1));
        assert!(d.affects_view(&gp0, &gp1, c2));
        let (a1, r1) = d.for_view(&gp0, &gp1, c1);
        let (a2, r2) = d.for_view(&gp0, &gp1, c2);
        assert!(r1.is_empty() && r2.is_empty());
        assert_eq!(a1, d.added, "c1's view includes all of c2's rules");
        assert_eq!(a2, d.added);
        // A no-op delta is empty.
        assert!(GroundDelta::between(&gp1, &gp1).is_empty());
    }

    #[test]
    fn parallel_delta_matches_sequential_delta() {
        // Same mutation sequence at threads=1 and threads=4 in separate
        // worlds: identical instance sets after every step.
        let run = |threads: usize| {
            let mut w = World::new();
            let p = parse_program(
                &mut w,
                "parent(a,b). parent(b,c).
                 anc(X,Y) :- parent(X,Y).
                 anc(X,Y) :- parent(X,Z), anc(Z,Y).",
            )
            .unwrap();
            let cfg = GroundConfig {
                threads,
                ..Default::default()
            };
            let (mut g, _) = DeltaGrounder::new(&mut w, &p, &cfg).unwrap();
            let c = p.component_by_name(w.syms.intern("main")).unwrap();
            let mut renders = Vec::new();
            for src in ["parent(c,d).", "parent(d,e).", "anc2(X,Y) :- anc(X,Y)."] {
                let r = parse_rule(&mut w, src).unwrap();
                let (_, gp) = g.assert_rule(&mut w, c, &r, &Budget::unlimited()).unwrap();
                renders.push(gp.render(&w));
            }
            let gp = g.retract_rule(&mut w, 0, &Budget::unlimited()).unwrap();
            renders.push(gp.render(&w));
            renders
        };
        assert_eq!(run(1), run(4));
    }
}
