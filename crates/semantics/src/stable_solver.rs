//! A propagating enumerator for assumption-free models.
//!
//! [`crate::stable::enumerate_assumption_free`] branches 3-ways per
//! derivable atom and checks Definition 3 + Theorem 1a only at the
//! leaves. This solver adds **unit propagation** derived from
//! Definition 3, pruning entire subtrees:
//!
//! * **P1 (fire).** A rule whose body is surely true and whose every
//!   potential overruler *and* defeater is surely blocked forces its
//!   head: leaving the head undefined would violate (b), and making the
//!   complement true would violate (a) (no overruler can be applied
//!   when all are blocked). Conflicts backtrack immediately.
//! * **P2 (re-confirm).** For a literal already true, every rule with
//!   the complementary head and **no** potential overrulers must end up
//!   blocked. If none of its body literals can be refuted any more,
//!   the branch is dead; if exactly one still can, its refutation is
//!   forced (unit propagation).
//!
//! Both rules are *monotone*: whatever they force holds in every
//! completion of the partial assignment, so the enumeration stays
//! complete. Leaves still run the exact model + assumption-free checks;
//! the output is set-equal to the naive enumerator (differentially
//! property-tested in `tests/theorems.rs`).

use crate::assumption::is_assumption_free;
use crate::stable::maximal_only;
use crate::view::{LocalIdx, View};
use olp_core::{
    AtomId, Budget, Eval, FxHashMap, FxHashSet, GLit, Interpretation, InterruptReason, Interrupted,
    Sign,
};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};

const UNKNOWN: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;
const UNDEF: u8 = 3;

fn encode_reason(r: InterruptReason) -> u8 {
    match r {
        InterruptReason::Steps => 1,
        InterruptReason::Deadline => 2,
        InterruptReason::Cancelled => 3,
        InterruptReason::ModelCap => 4,
    }
}

/// Inverse of [`encode_reason`]. Code 0 is the governor's "no reason
/// latched yet" sentinel and is never decoded (every decode site reads
/// the cell only after a trip stored a non-zero code); any other
/// unknown code is a logic error, not a silent `Cancelled`.
fn decode_reason(code: u8) -> InterruptReason {
    match code {
        1 => InterruptReason::Steps,
        2 => InterruptReason::Deadline,
        3 => InterruptReason::Cancelled,
        4 => InterruptReason::ModelCap,
        other => {
            debug_assert!(false, "decode_reason: unknown reason code {other}");
            InterruptReason::Cancelled
        }
    }
}

/// Shared governor state for one enumeration: the budget handle plus
/// the cross-worker model count and first-interrupt latch. Sequential
/// searches use a private instance; the parallel enumerator shares one
/// across its crossbeam workers so a cap or budget trip stops all of
/// them cooperatively.
struct Governor<'b> {
    budget: &'b Budget,
    /// Stop enumerating once this many models have been found.
    cap: usize,
    found: AtomicUsize,
    stopped: AtomicBool,
    reason: AtomicU8,
}

impl<'b> Governor<'b> {
    fn new(budget: &'b Budget, max_models: Option<usize>) -> Self {
        Governor {
            budget,
            cap: max_models.unwrap_or(usize::MAX),
            found: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            reason: AtomicU8::new(0),
        }
    }

    /// Latch the first interrupt reason and raise the stop flag.
    fn trip(&self, r: InterruptReason) -> InterruptReason {
        let _ =
            self.reason
                .compare_exchange(0, encode_reason(r), Ordering::Relaxed, Ordering::Relaxed);
        self.stopped.store(true, Ordering::Release);
        decode_reason(self.reason.load(Ordering::Relaxed))
    }

    /// Per-node gate: observes a prior trip, the model cap, and the
    /// budget (one tick charged per call).
    #[inline]
    fn gate(&self) -> Result<(), InterruptReason> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(decode_reason(self.reason.load(Ordering::Relaxed)));
        }
        if self.found.load(Ordering::Relaxed) >= self.cap {
            return Err(self.trip(InterruptReason::ModelCap));
        }
        self.budget.tick().map_err(|r| self.trip(r))
    }

    /// The latched trip reason, if any worker tripped the governor.
    fn tripped_reason(&self) -> Option<InterruptReason> {
        if self.stopped.load(Ordering::Acquire) {
            Some(decode_reason(self.reason.load(Ordering::Relaxed)))
        } else {
            None
        }
    }
}

#[derive(Clone)]
struct Solver<'a, 'g> {
    view: &'a View<'g>,
    /// Derivability closure (bound on every AF model).
    d: FxHashSet<GLit>,
    /// Branch atoms and their index in the assignment vector.
    atoms: Vec<AtomId>,
    slot: FxHashMap<AtomId, usize>,
    /// Watched-literal index: `watchers[s]` lists the rules whose P1/P2
    /// status can change when the branch atom in slot `s` is assigned —
    /// the rules watching the atom through their own body, their head,
    /// or the body of one of their potential overrulers/defeaters.
    watchers: Vec<Vec<LocalIdx>>,
    out: Vec<Interpretation>,
}

impl<'a, 'g> Solver<'a, 'g> {
    fn new(view: &'a View<'g>, d: FxHashSet<GLit>, atoms: Vec<AtomId>) -> Self {
        let slot: FxHashMap<AtomId, usize> =
            atoms.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        // The P1 condition of a rule reads its body atoms, its head atom
        // and its attackers' body atoms; P2 reads its head atom and its
        // body atoms. Register the rule as a watcher of each (branch)
        // atom in that union, so propagation only ever revisits rules
        // that can actually have changed.
        let mut watchers: Vec<Vec<LocalIdx>> = vec![Vec::new(); atoms.len()];
        for (li, r) in view.rules() {
            let mut watched: Vec<usize> = Vec::new();
            let add = |a: AtomId, watched: &mut Vec<usize>| {
                if let Some(&s) = slot.get(&a) {
                    watched.push(s);
                }
            };
            add(r.head.atom(), &mut watched);
            for &b in &r.body {
                add(b.atom(), &mut watched);
            }
            for &a in view.overrulers(li).iter().chain(view.defeaters(li)) {
                for &b in &view.rule(a).body {
                    add(b.atom(), &mut watched);
                }
            }
            watched.sort_unstable();
            watched.dedup();
            for s in watched {
                watchers[s].push(li);
            }
        }
        Solver {
            view,
            d,
            atoms,
            slot,
            watchers,
            out: Vec::new(),
        }
    }

    /// All rules — the dirty seed for a fresh (root) assignment.
    fn all_rules(&self) -> Vec<LocalIdx> {
        (0..self.view.len() as LocalIdx).collect()
    }

    /// Push every watcher of `atom` onto the dirty queue (called after
    /// `atom`'s assignment changed).
    #[inline]
    fn wake(&self, atom: AtomId, dirty: &mut Vec<LocalIdx>) {
        if let Some(&s) = self.slot.get(&atom) {
            dirty.extend_from_slice(&self.watchers[s]);
        }
    }
    /// `Some(state)` if the literal's atom is a branch atom, else the
    /// atom is permanently undefined (treated as assigned `UNDEF`).
    #[inline]
    fn atom_state(&self, assign: &[u8], atom: AtomId) -> u8 {
        match self.slot.get(&atom) {
            Some(&i) => assign[i],
            None => UNDEF,
        }
    }

    /// The literal is true in every completion.
    #[inline]
    fn surely_true(&self, assign: &[u8], l: GLit) -> bool {
        let s = self.atom_state(assign, l.atom());
        match l.sign() {
            Sign::Pos => s == TRUE,
            Sign::Neg => s == FALSE,
        }
    }

    /// The literal's complement is true in every completion (the
    /// literal is refuted).
    #[inline]
    fn surely_refuted(&self, assign: &[u8], l: GLit) -> bool {
        self.surely_true(assign, l.complement())
    }

    /// The literal's complement can no longer become true: its atom is
    /// decided to something other than the complement's sign.
    #[inline]
    fn complement_impossible(&self, assign: &[u8], l: GLit) -> bool {
        let s = self.atom_state(assign, l.atom());
        match l.sign() {
            // complement is ¬atom: impossible if atom TRUE or UNDEF
            Sign::Pos => s == TRUE || s == UNDEF,
            // complement is atom: impossible if atom FALSE or UNDEF
            Sign::Neg => s == FALSE || s == UNDEF,
        }
    }

    fn surely_applicable(&self, assign: &[u8], li: LocalIdx) -> bool {
        self.view
            .rule(li)
            .body
            .iter()
            .all(|&b| self.surely_true(assign, b))
    }

    fn surely_blocked(&self, assign: &[u8], li: LocalIdx) -> bool {
        self.view
            .rule(li)
            .body
            .iter()
            .any(|&b| self.surely_refuted(assign, b))
    }

    /// Assigns `value` to `atom`; `false` on conflict.
    fn set(&self, assign: &mut [u8], atom: AtomId, value: u8) -> bool {
        match self.slot.get(&atom) {
            Some(&i) => {
                if assign[i] == UNKNOWN {
                    assign[i] = value;
                    true
                } else {
                    assign[i] == value
                }
            }
            // Non-branch atoms are permanently undefined.
            None => value == UNDEF,
        }
    }

    /// Forces the literal true; `false` on conflict.
    fn force_lit(&self, assign: &mut [u8], l: GLit) -> bool {
        let v = match l.sign() {
            Sign::Pos => TRUE,
            Sign::Neg => FALSE,
        };
        self.set(assign, l.atom(), v)
    }

    /// Runs P1/P2 to fixpoint over the `dirty` rule queue; `Ok(false)`
    /// on conflict. Whenever a forced assignment lands, the watchers of
    /// the changed atom rejoin the queue — rules none of whose watched
    /// atoms changed are never revisited (their P1/P2 outcome is
    /// unchanged by construction of the watch sets).
    fn propagate(
        &self,
        assign: &mut [u8],
        gov: &Governor,
        dirty: &mut Vec<LocalIdx>,
    ) -> Result<bool, InterruptReason> {
        while let Some(li) = dirty.pop() {
            gov.budget.tick().map_err(|r| gov.trip(r))?;
            let r = self.view.rule(li);
            // P1: forced firing.
            if self.surely_applicable(assign, li)
                && self
                    .view
                    .overrulers(li)
                    .iter()
                    .all(|&a| self.surely_blocked(assign, a))
                && self
                    .view
                    .defeaters(li)
                    .iter()
                    .all(|&a| self.surely_blocked(assign, a))
            {
                match self.atom_state(assign, r.head.atom()) {
                    UNKNOWN => {
                        if !self.force_lit(assign, r.head) {
                            return Ok(false);
                        }
                        self.wake(r.head.atom(), dirty);
                    }
                    s => {
                        let want = match r.head.sign() {
                            Sign::Pos => TRUE,
                            Sign::Neg => FALSE,
                        };
                        if s != want {
                            return Ok(false);
                        }
                    }
                }
            }
            // P2: a true literal's unoverrulable contradictors must
            // be blocked.
            if self.surely_true(assign, r.head.complement())
                && self.view.overrulers(li).is_empty()
                && !self.surely_blocked(assign, li)
            {
                let refutable: Vec<GLit> = r
                    .body
                    .iter()
                    .copied()
                    .filter(|&b| !self.complement_impossible(assign, b))
                    .collect();
                match refutable.len() {
                    0 => return Ok(false),
                    1 => {
                        if !self.force_lit(assign, refutable[0].complement()) {
                            return Ok(false);
                        }
                        self.wake(refutable[0].atom(), dirty);
                    }
                    _ => {}
                }
            }
        }
        Ok(true)
    }

    fn search(
        &mut self,
        assign: &mut [u8],
        gov: &Governor,
        dirty: &mut Vec<LocalIdx>,
    ) -> Result<(), InterruptReason> {
        gov.gate()?;
        if !self.propagate(assign, gov, dirty)? {
            return Ok(());
        }
        match assign.iter().position(|&s| s == UNKNOWN) {
            None => {
                // Complete: exact leaf checks.
                let mut m = Interpretation::new();
                for (i, &s) in assign.iter().enumerate() {
                    let atom = self.atoms[i];
                    let lit = match s {
                        TRUE => GLit::pos(atom),
                        FALSE => GLit::neg(atom),
                        _ => continue,
                    };
                    if m.insert(lit).is_err() {
                        return Ok(()); // unreachable: one slot per atom
                    }
                }
                if crate::stable::is_model_for_af_search(self.view, &m)
                    && is_assumption_free(self.view, &m)
                {
                    self.out.push(m);
                    if gov.found.fetch_add(1, Ordering::Relaxed) + 1 >= gov.cap {
                        return Err(gov.trip(InterruptReason::ModelCap));
                    }
                }
                Ok(())
            }
            Some(i) => {
                let atom = self.atoms[i];
                let mut options = Vec::with_capacity(3);
                options.push(UNDEF);
                if self.d.contains(&GLit::pos(atom)) {
                    options.push(TRUE);
                }
                if self.d.contains(&GLit::neg(atom)) {
                    options.push(FALSE);
                }
                for v in options {
                    let mut child = assign.to_vec();
                    child[i] = v;
                    // Only rules watching the branched atom can react.
                    let mut child_dirty = self.watchers[i].clone();
                    self.search(&mut child, gov, &mut child_dirty)?;
                }
                Ok(())
            }
        }
    }
}

/// Enumerates every assumption-free model with unit propagation.
/// Set-equal to [`crate::stable::enumerate_assumption_free`], usually
/// much faster on programs with forced structure.
pub fn enumerate_assumption_free_propagating(view: &View, n_atoms: usize) -> Vec<Interpretation> {
    enumerate_assumption_free_propagating_budgeted(view, n_atoms, &Budget::unlimited(), None)
        .into_value()
}

/// [`enumerate_assumption_free_propagating`] under a [`Budget`],
/// optionally capped at `max_models` results.
///
/// **Anytime guarantee:** every interpretation in a partial result
/// passed the exact leaf checks, so the partial list is a subset of
/// the unbudgeted enumeration.
pub fn enumerate_assumption_free_propagating_budgeted(
    view: &View,
    _n_atoms: usize,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    let d = match crate::stable::derivability_closure_budgeted(view, budget) {
        Ok(d) => d,
        Err(reason) => {
            return Eval::Interrupted(Interrupted {
                reason,
                partial: Vec::new(),
            })
        }
    };
    let mut atoms: Vec<AtomId> = d
        .iter()
        .map(|l| l.atom())
        .collect::<FxHashSet<_>>()
        .into_iter()
        .collect();
    atoms.sort_unstable();
    let gov = Governor::new(budget, max_models);
    let mut solver = Solver::new(view, d, atoms);
    let mut assign = vec![UNKNOWN; solver.atoms.len()];
    let mut dirty = solver.all_rules();
    match solver.search(&mut assign, &gov, &mut dirty) {
        Ok(()) => Eval::Complete(solver.out),
        Err(reason) => Eval::Interrupted(Interrupted {
            reason,
            partial: solver.out,
        }),
    }
}

/// Stable models via the propagating enumerator.
pub fn stable_models_propagating(view: &View, n_atoms: usize) -> Vec<Interpretation> {
    maximal_only(enumerate_assumption_free_propagating(view, n_atoms))
}

/// Enumerates assumption-free models in parallel: the top of the search
/// tree is expanded into at least `2 × threads` propagated prefixes,
/// which worker threads then complete independently (the search below a
/// prefix shares no mutable state). Set-equal to the sequential
/// enumerators; worthwhile when the contested core is large.
pub fn enumerate_assumption_free_parallel(
    view: &View,
    n_atoms: usize,
    threads: usize,
) -> Vec<Interpretation> {
    enumerate_assumption_free_parallel_budgeted(view, n_atoms, threads, &Budget::unlimited(), None)
        .into_value()
}

/// [`enumerate_assumption_free_parallel`] under a shared [`Budget`].
///
/// All workers share one [`Governor`], so cancellation / exhaustion on
/// any thread stops the whole fleet promptly; the partial result is the
/// merged, deduplicated union of what every worker had verified so far
/// (each entry passed the exact leaf checks, so the partial list is a
/// subset of the unbudgeted enumeration).
pub fn enumerate_assumption_free_parallel_budgeted(
    view: &View,
    _n_atoms: usize,
    threads: usize,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    // Group-level parallelism first: when the view splits into
    // independent rule groups, whole groups are distributed to the
    // workers and the per-group model sets combined as a product
    // ([`crate::decomp`]). Prefix splitting is the fallback for a
    // single connected group.
    let decomp = crate::decomp::Decomposition::new(view);
    if decomp.groups().len() > 1 {
        return crate::decomp::enumerate_af_groups_parallel(
            view, &decomp, threads, budget, max_models, false,
        );
    }
    enumerate_af_prefix_parallel(view, threads, budget, max_models)
}

/// Prefix-splitting parallel enumeration of one connected view (see
/// [`enumerate_assumption_free_parallel_budgeted`]).
fn enumerate_af_prefix_parallel(
    view: &View,
    threads: usize,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    let d = match crate::stable::derivability_closure_budgeted(view, budget) {
        Ok(d) => d,
        Err(reason) => {
            return Eval::Interrupted(Interrupted {
                reason,
                partial: Vec::new(),
            })
        }
    };
    let mut atoms: Vec<AtomId> = d
        .iter()
        .map(|l| l.atom())
        .collect::<FxHashSet<_>>()
        .into_iter()
        .collect();
    atoms.sort_unstable();
    let threads = threads.max(1);
    let gov = Governor::new(budget, max_models);

    // Breadth-first expansion of the prefix frontier, with propagation
    // applied at every step so dead prefixes never spawn work.
    let seed_solver = Solver::new(view, d, atoms);
    let mut root = vec![UNKNOWN; seed_solver.atoms.len()];
    let mut root_dirty = seed_solver.all_rules();
    match seed_solver.propagate(&mut root, &gov, &mut root_dirty) {
        Ok(true) => {}
        // Root conflict: no assumption-free model exists at all.
        Ok(false) => return Eval::Complete(Vec::new()),
        Err(reason) => {
            return Eval::Interrupted(Interrupted {
                reason,
                partial: Vec::new(),
            })
        }
    }
    let mut frontier: Vec<Vec<u8>> = vec![root];
    let mut leaves: Vec<Vec<u8>> = Vec::new();
    while frontier.len() < threads * 2 {
        let Some(pos) = frontier.iter().position(|a| a.contains(&UNKNOWN)) else {
            break;
        };
        let assign = frontier.swap_remove(pos);
        let i = assign
            .iter()
            .position(|&s| s == UNKNOWN)
            .expect("checked above");
        let atom = seed_solver.atoms[i];
        let mut options = vec![UNDEF];
        if seed_solver.d.contains(&GLit::pos(atom)) {
            options.push(TRUE);
        }
        if seed_solver.d.contains(&GLit::neg(atom)) {
            options.push(FALSE);
        }
        for v in options {
            let mut child = assign.clone();
            child[i] = v;
            let mut child_dirty = seed_solver.watchers[i].clone();
            match seed_solver.propagate(&mut child, &gov, &mut child_dirty) {
                Ok(true) => {
                    if child.contains(&UNKNOWN) {
                        frontier.push(child);
                    } else {
                        leaves.push(child);
                    }
                }
                Ok(false) => {}
                // Interrupted before any leaf was verified: no model in
                // the partial result is unsound, so return the empty list.
                Err(reason) => {
                    return Eval::Interrupted(Interrupted {
                        reason,
                        partial: Vec::new(),
                    })
                }
            }
        }
        if frontier.is_empty() {
            break;
        }
    }
    frontier.extend(leaves);

    // Complete each prefix on a worker thread. Every worker shares the
    // one governor, so the first budget trip (on any thread) stops the
    // whole fleet at its next gate.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<Vec<Interpretation>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let frontier = &frontier;
                let next = &next;
                let seed_solver = &seed_solver;
                let gov = &gov;
                scope.spawn(move |_| {
                    let mut solver = seed_solver.clone();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= frontier.len() {
                            return solver.out;
                        }
                        let mut assign = frontier[i].clone();
                        // Prefixes were propagated to fixpoint during
                        // expansion, so the dirty queue starts empty.
                        if solver.search(&mut assign, gov, &mut Vec::new()).is_err() {
                            // Keep whatever this worker verified; the
                            // reason is latched in the governor.
                            return solver.out;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    })
    .expect("scope");

    let mut out: Vec<Interpretation> = results.into_iter().flatten().collect();
    // Deduplicate (distinct prefixes can propagate to the same complete
    // assignment only if they were duplicated in the frontier split —
    // they cannot, but dedup defensively and deterministically).
    out.sort_by(|a, b| {
        a.literals()
            .collect::<Vec<_>>()
            .cmp(&b.literals().collect::<Vec<_>>())
    });
    out.dedup();
    match gov.tripped_reason() {
        // A ModelCap trip with the cap actually reached is still a cap
        // interruption (the enumeration is intentionally truncated).
        Some(reason) => Eval::Interrupted(Interrupted {
            reason,
            partial: out,
        }),
        None => Eval::Complete(out),
    }
}

/// Stable models via the parallel enumerator.
pub fn stable_models_parallel(view: &View, n_atoms: usize, threads: usize) -> Vec<Interpretation> {
    stable_models_parallel_budgeted(view, n_atoms, threads, &Budget::unlimited(), None).into_value()
}

/// Budgeted stable models via the parallel enumerator.
///
/// A view that splits into independent rule groups is solved group by
/// group on the workers, each group filtered for maximality before the
/// product, exactly as [`crate::stable_models_decomposed_budgeted`]
/// does sequentially. A single connected view runs the prefix-splitting
/// enumeration followed by the **budgeted** maximality filter
/// ([`crate::stable::maximal_only_budgeted`]). The filter must share the
/// budget: an enumeration interrupted by a deadline can hand it a huge
/// candidate set, and an unbudgeted quadratic pass would then dwarf the
/// deadline it was meant to honour. When the enumeration was itself
/// interrupted its reason wins, and the partial set may contain
/// non-maximal assumption-free models (the filter gets no budget left).
pub fn stable_models_parallel_budgeted(
    view: &View,
    _n_atoms: usize,
    threads: usize,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    let decomp = crate::decomp::Decomposition::new(view);
    if decomp.groups().len() > 1 {
        return crate::decomp::enumerate_af_groups_parallel(
            view, &decomp, threads, budget, max_models, true,
        );
    }
    let (af, reason) = match enumerate_af_prefix_parallel(view, threads, budget, max_models) {
        Eval::Complete(ms) => (ms, None),
        Eval::Interrupted(i) => (i.partial, Some(i.reason)),
    };
    let filtered = crate::stable::maximal_only_budgeted(af, budget);
    match reason {
        None => filtered,
        Some(reason) => Eval::Interrupted(Interrupted {
            reason,
            partial: filtered.into_value(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::{enumerate_assumption_free, stable_models};
    use olp_core::{CompId, World};
    use olp_ground::{ground_exhaustive, GroundConfig, GroundProgram};
    use olp_parser::parse_program;

    fn ground(src: &str) -> (World, GroundProgram) {
        let mut w = World::new();
        let p = parse_program(&mut w, src).unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        (w, g)
    }

    fn renders(w: &World, ms: &[Interpretation]) -> Vec<String> {
        let mut v: Vec<String> = ms.iter().map(|m| m.render(w)).collect();
        v.sort();
        v
    }

    #[test]
    fn interrupt_reason_codes_round_trip() {
        use InterruptReason::*;
        for r in [Steps, Deadline, Cancelled, ModelCap] {
            assert_eq!(decode_reason(encode_reason(r)), r);
            assert_ne!(
                encode_reason(r),
                0,
                "0 is the governor's unset sentinel and must stay unused"
            );
        }
    }

    #[test]
    fn agrees_with_naive_on_paper_programs() {
        for src in [
            "module c2 { a. b. c. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }",
            "a :- b. -a :- b. b.",
            "module c3 { rich(mimmo). -poor(X) :- rich(X). }
             module c2 { poor(mimmo). -rich(X) :- poor(X). }
             module c1 < c2, c3 { free_ticket(X) :- poor(X). }",
            "module c2 { bird(penguin). bird(pigeon). fly(X) :- bird(X).
                -ground_animal(X) :- bird(X). }
             module c1 < c2 { ground_animal(penguin). -fly(X) :- ground_animal(X). }",
            "p. -p.",
            "a :- b.",
        ] {
            let (w, g) = ground(src);
            for ci in 0..g.order.len() {
                let v = View::new(&g, CompId(ci as u32));
                let naive = enumerate_assumption_free(&v, g.n_atoms);
                let prop = enumerate_assumption_free_propagating(&v, g.n_atoms);
                assert_eq!(
                    renders(&w, &naive),
                    renders(&w, &prop),
                    "AF sets differ on {src} in component {ci}"
                );
                assert_eq!(
                    renders(&w, &stable_models(&v, g.n_atoms)),
                    renders(&w, &stable_models_propagating(&v, g.n_atoms)),
                    "stable sets differ on {src} in component {ci}"
                );
            }
        }
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        for src in [
            "module c2 { a. b. c. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }",
            "module c2 { a. b. }
             module c1 < c2 { -a :- b. -b :- a. r :- a. r :- b. }",
            "p. -p. q :- p.",
        ] {
            let (w, g) = ground(src);
            for ci in 0..g.order.len() {
                let v = View::new(&g, CompId(ci as u32));
                for threads in [1, 2, 4] {
                    let seq = enumerate_assumption_free_propagating(&v, g.n_atoms);
                    let par = enumerate_assumption_free_parallel(&v, g.n_atoms, threads);
                    assert_eq!(
                        renders(&w, &seq),
                        renders(&w, &par),
                        "{src} comp {ci} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn propagation_prunes_forced_chains() {
        // A long forced chain has exactly one AF model; the propagating
        // solver must find it without exponential branching (this test
        // is fast *because* propagation collapses the space; the naive
        // enumerator would branch 3^40).
        use std::fmt::Write as _;
        let mut src = String::from("p0.\n");
        for i in 1..40 {
            let _ = writeln!(src, "p{} :- p{}.", i, i - 1);
        }
        let (_, g) = ground(&src);
        let v = View::new(&g, CompId(0));
        let af = enumerate_assumption_free_propagating(&v, g.n_atoms);
        assert_eq!(af.len(), 1);
        assert_eq!(af[0].len(), 40);
    }
}
