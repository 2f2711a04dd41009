//! The least-fixpoint engine over the flat arena representation
//! ([`FlatView`]).
//!
//! It computes the least fixpoint of `V_{P,C}` — the same object as the
//! oracle [`crate::fixpoint::least_model_naive`], against which it is
//! differentially tested — over [`olp_ground::flat`]'s dense arenas:
//! truth state is a [`BitSet`] indexed by [`olp_core::GLit::code`]
//! (one bit per signed atom), watch/attack lists are CSR slices, and
//! stratum membership is a range check — no hashing anywhere in the
//! inner loop. Strata run one after another in the arena's topological
//! order; within a stratum a semi-naive worklist fires each rule once
//! its body holds and every attacker is blocked.

use crate::view::View;
use olp_core::{
    AtomId, BitSet, Budget, Eval, GLit, Interpretation, InterruptReason, Interrupted, Ticker,
};
use olp_ground::FlatView;

/// Compiles the flat view corresponding to an interpretive [`View`]
/// (same component, same rule subset — including restricted sub-views).
pub fn flatten(view: &View) -> FlatView {
    let rules: Vec<u32> = (0..view.len() as u32)
        .map(|li| view.global_index(li))
        .collect();
    FlatView::from_rules(view.gp, view.comp, &rules)
}

/// Reusable per-engine scratch: one slot per flat rule. Allocated
/// zeroed; every rule belongs to exactly one stratum and each stratum
/// is evaluated at most once per fixpoint, so no resets are needed
/// between strata.
struct Scratch {
    unsat: Vec<u32>,
    over: Vec<u32>,
    defeat: Vec<u32>,
    blocked: Vec<bool>,
    fired: Vec<bool>,
    queue: Vec<GLit>,
}

impl Scratch {
    fn new(n_rules: usize) -> Self {
        Scratch {
            unsat: vec![0; n_rules],
            over: vec![0; n_rules],
            defeat: vec![0; n_rules],
            blocked: vec![false; n_rules],
            fired: vec![false; n_rules],
            queue: Vec::new(),
        }
    }
}

/// Runs the stratified worklist over strata `s_lo..s_hi` of `fv`,
/// reading and extending `truth`. On interruption `truth` still holds
/// a sound monotone prefix of the range's derivations.
///
/// When `definite` is set the caller asserts the view is **negation-free**
/// (no negative heads, no negative body literals — e.g. proved by
/// `olp-analyze`'s program profile): no literal can ever be blocked and
/// the attack lists are empty, so the blockedness bookkeeping and the
/// complement watch scan are skipped wholesale. Passing `definite` on a
/// view that does contain negation is unsound.
fn eval_strata(
    fv: &FlatView,
    truth: &mut BitSet,
    sc: &mut Scratch,
    definite: bool,
    s_lo: u32,
    s_hi: u32,
    ticker: &mut Ticker<'_>,
) -> Result<(), InterruptReason> {
    for s in s_lo..s_hi {
        let (lo, hi) = fv.stratum(s as usize);
        if lo == hi {
            continue;
        }
        macro_rules! try_fire {
            ($f:expr) => {{
                let f = $f;
                let z = f as usize;
                if sc.unsat[z] == 0 && sc.over[z] == 0 && sc.defeat[z] == 0 && !sc.fired[z] {
                    sc.fired[z] = true;
                    let head = fv.head(f);
                    debug_assert!(
                        definite || !truth.contains(head.complement().code()),
                        "V preserves consistency"
                    );
                    if truth.insert(head.code()) {
                        sc.queue.push(head);
                    }
                }
            }};
        }
        // Initialise the stratum's counters against everything derived
        // so far: body atoms live in strata ≤ s, attackers share the
        // victim's head atom and hence its stratum (their `blocked`
        // entries are initialised by the same loop).
        for f in lo..hi {
            ticker.tick()?;
            let z = f as usize;
            let mut blocked = false;
            let mut unsat = 0u32;
            for &b in fv.body(f) {
                if !definite {
                    blocked |= truth.contains(b.complement().code());
                }
                unsat += u32::from(!truth.contains(b.code()));
            }
            sc.blocked[z] = blocked;
            sc.unsat[z] = unsat;
        }
        if !definite {
            for f in lo..hi {
                let z = f as usize;
                sc.over[z] = fv
                    .overrulers(f)
                    .iter()
                    .filter(|&&a| !sc.blocked[a as usize])
                    .count() as u32;
                sc.defeat[z] = fv
                    .defeaters(f)
                    .iter()
                    .filter(|&&a| !sc.blocked[a as usize])
                    .count() as u32;
            }
        }
        for f in lo..hi {
            ticker.tick()?;
            try_fire!(f);
        }
        while let Some(lit) = sc.queue.pop() {
            ticker.tick()?;
            // Only rules of the current stratum can watch `lit` among
            // strata not yet evaluated; earlier strata are final and
            // later ones re-initialise when their turn comes, so the
            // range check is the entire stratum filter.
            for &w in fv.watchers(lit) {
                if w < lo || w >= hi {
                    continue;
                }
                sc.unsat[w as usize] -= 1;
                try_fire!(w);
            }
            if definite {
                continue;
            }
            for &w in fv.watchers(lit.complement()) {
                if w < lo || w >= hi || sc.blocked[w as usize] {
                    continue;
                }
                sc.blocked[w as usize] = true;
                // Victims share the attacker's head atom, hence the
                // stratum: no range check needed.
                for &v in fv.victims_overrule(w) {
                    sc.over[v as usize] -= 1;
                    try_fire!(v);
                }
                for &v in fv.victims_defeat(w) {
                    sc.defeat[v as usize] -= 1;
                    try_fire!(v);
                }
            }
        }
    }
    Ok(())
}

fn interp_of_bits(bits: &BitSet) -> Interpretation {
    Interpretation::from_literals(bits.iter().map(GLit::from_code))
        .expect("least fixpoint is consistent (Lemma 1)")
}

/// Least model of a flat view (differentially tested against
/// [`crate::fixpoint::least_model_naive`]).
pub fn least_model_flat(fv: &FlatView) -> Interpretation {
    least_model_flat_budgeted(fv, &Budget::unlimited()).into_value()
}

/// [`least_model_flat`] under a [`Budget`]. On interruption the partial
/// result is every completed stratum plus a monotone prefix of the
/// current one — a sound under-approximation of the least model.
pub fn least_model_flat_budgeted(fv: &FlatView, budget: &Budget) -> Eval<Interpretation> {
    least_model_flat_cfg(fv, false, budget)
}

/// [`least_model_flat_budgeted`] for a view proved **negation-free**
/// (by `olp-analyze`'s program profile): skips all blockedness and
/// attack bookkeeping. Unsound — and differentially caught — if the
/// view actually contains negation; the caller owns the proof.
pub fn least_model_flat_definite(fv: &FlatView, budget: &Budget) -> Eval<Interpretation> {
    least_model_flat_cfg(fv, true, budget)
}

fn least_model_flat_cfg(fv: &FlatView, definite: bool, budget: &Budget) -> Eval<Interpretation> {
    let mut truth = BitSet::with_capacity(2 * fv.n_atoms);
    let mut sc = Scratch::new(fv.len());
    let mut ticker = budget.ticker();
    let res = eval_strata(
        fv,
        &mut truth,
        &mut sc,
        definite,
        0,
        fv.n_strata() as u32,
        &mut ticker,
    );
    drop(ticker);
    let i = interp_of_bits(&truth);
    match res {
        Ok(()) => Eval::Complete(i),
        Err(reason) => Eval::Interrupted(Interrupted { reason, partial: i }),
    }
}

/// Incremental least model over flat arenas, differentially tested
/// against from-scratch [`least_model_flat`] and against
/// [`crate::fixpoint::least_model_naive`].
///
/// `old` is the least model of this view before the mutation and
/// `touched` the sorted atom indices occurring in any changed rule —
/// head *and* body literals of every added or removed instance (the
/// set `olp_ground::GroundDelta::touched_atoms` computes). `fv` is the
/// view *after* the mutation: either freshly built or spliced by
/// `FlatView::apply_delta` — the algorithm only relies on the
/// invariants both constructions guarantee (topological stratum order,
/// rules sharing a head atom sharing a stratum).
///
/// **Dirty closure.** An atom is dirty if it is touched or if some
/// rule watching a dirty atom derives it: a reverse dependency walk
/// over the packed watch lists (`watchers(+a)` / `watchers(-a)` *are*
/// the body→head reverse adjacency, so no adjacency map is
/// materialised). Removed derivation chains are covered because any
/// broken chain ends at a removed instance, whose head is touched. Attack edges need
/// no separate traversal — an attacker shares its victim's head atom,
/// so a change in the attacker's blockedness reaches the victim's atom
/// through the attacker's own body watches.
///
/// **Clean-bit copy.** A stratum none of whose head atoms is dirty is
/// *clean*: its rules are unchanged (a changed rule's head atom is
/// touched) and every literal they depend on is clean (a dirty body
/// atom would have dirtied the head through the watch list), so by
/// induction over the topological stratum order the old model's bits
/// for its head atoms are exact — they are copied verbatim, one budget
/// tick per rule. Dirty strata re-run the semi-naive worklist over
/// their contiguous rule ranges against the accumulated bits.
///
/// **Anytime contract.** Same as [`least_model_flat_budgeted`]: on
/// interruption the partial result is the copied clean bits plus every
/// completed dirty stratum plus a monotone prefix of the current one —
/// a sound under-approximation of the new least model.
pub fn least_model_delta_flat(
    fv: &FlatView,
    old: &Interpretation,
    touched: &[usize],
    budget: &Budget,
) -> Eval<Interpretation> {
    let n_atoms = fv.n_atoms;
    // Transitive dirty closure over the watch lists.
    let mut dirty = vec![false; n_atoms];
    let mut stack: Vec<u32> = Vec::new();
    for &a in touched {
        if a < n_atoms && !dirty[a] {
            dirty[a] = true;
            stack.push(a as u32);
        }
    }
    while let Some(a) = stack.pop() {
        let atom = AtomId(a);
        for l in [GLit::pos(atom), GLit::neg(atom)] {
            for &w in fv.watchers(l) {
                let h = fv.head(w).atom().index();
                if !dirty[h] {
                    dirty[h] = true;
                    stack.push(h as u32);
                }
            }
        }
    }

    let mut truth = BitSet::with_capacity(2 * n_atoms);
    let mut sc = Scratch::new(fv.len());
    let mut ticker = budget.ticker();
    let mut res = Ok(());
    'strata: for s in 0..fv.n_strata() {
        let (lo, hi) = fv.stratum(s);
        let is_dirty = (lo..hi).any(|f| dirty[fv.head(f).atom().index()]);
        if !is_dirty {
            for f in lo..hi {
                if let Err(r) = ticker.tick() {
                    res = Err(r);
                    break 'strata;
                }
                let h = fv.head(f).atom();
                for l in [GLit::pos(h), GLit::neg(h)] {
                    if old.holds(l) {
                        truth.insert(l.code());
                    }
                }
            }
        } else if let Err(r) = eval_strata(
            fv,
            &mut truth,
            &mut sc,
            false,
            s as u32,
            s as u32 + 1,
            &mut ticker,
        ) {
            res = Err(r);
            break 'strata;
        }
    }
    drop(ticker);
    let i = interp_of_bits(&truth);
    match res {
        Ok(()) => Eval::Complete(i),
        Err(reason) => Eval::Interrupted(Interrupted { reason, partial: i }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::least_model_naive;
    use olp_core::{CompId, World};
    use olp_ground::{ground_exhaustive, GroundConfig, GroundProgram};
    use olp_parser::parse_program;

    fn ground(src: &str) -> (World, GroundProgram) {
        let mut w = World::new();
        let p = parse_program(&mut w, src).unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        (w, g)
    }

    const FIG1: &str = "module c2 {
        bird(penguin). bird(pigeon).
        fly(X) :- bird(X).
        -ground_animal(X) :- bird(X).
     }
     module c1 < c2 {
        ground_animal(penguin).
        -fly(X) :- ground_animal(X).
     }";

    #[test]
    fn flat_matches_naive_on_examples() {
        for src in [
            FIG1,
            "module c3 { rich(mimmo). -poor(X) :- rich(X). }
             module c2 { poor(mimmo). -rich(X) :- poor(X). }
             module c1 < c2, c3 { free_ticket(X) :- poor(X). }",
            "a :- b. -a :- b. b.",
            "p. -p.",
            "module c2 { a. } module c1 < c2 { -a :- b. }",
        ] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let c = CompId(c as u32);
                let view = View::new(&g, c);
                let fv = FlatView::new(&g, c);
                assert_eq!(
                    least_model_flat(&fv),
                    least_model_naive(&view),
                    "flat != naive on {src} in component {}",
                    c.0
                );
            }
        }
    }

    #[test]
    fn definite_path_matches_naive_on_positive_programs() {
        for src in [
            "p. q :- p. r :- q, p.",
            "edge(a,b). edge(b,c). edge(c,d). path(X,Y) :- edge(X,Y).
             path(X,Z) :- edge(X,Y), path(Y,Z).",
        ] {
            let (_, g) = ground(src);
            let fv = FlatView::new(&g, CompId(0));
            let naive = least_model_naive(&View::new(&g, CompId(0)));
            assert_eq!(least_model_flat(&fv), naive, "{src}");
            let definite =
                least_model_flat_definite(&fv, &Budget::unlimited()).expect_complete("unlimited");
            assert_eq!(definite, naive, "{src} (definite)");
        }
    }

    #[test]
    fn budget_trip_leaves_sound_prefix() {
        let (_, g) = ground(FIG1);
        let fv = FlatView::new(&g, CompId(1));
        let full = least_model_flat(&fv);
        for steps in 0..12 {
            let eval = least_model_flat_budgeted(&fv, &Budget::with_steps(steps));
            if let Eval::Interrupted(i) = eval {
                for l in i.partial.literals() {
                    assert!(full.holds(l), "partial derived a non-model literal");
                }
            }
        }
    }

    /// Drives the full incremental pipeline between two groundings of
    /// the same world: diff → per-view patch (or honest rebuild) →
    /// `least_model_delta_flat`, checked against a from-scratch flat
    /// evaluation of the new program.
    fn check_delta_flat(old_gp: &GroundProgram, new_gp: &GroundProgram) {
        use olp_ground::{FlatPatch, FlatView, GroundDelta, GroundRule};
        let delta = GroundDelta::between(old_gp, new_gp);
        let touched = delta.touched_atoms(old_gp, new_gp);
        for c in 0..old_gp.order.len() {
            let c = CompId(c as u32);
            let fv_old = FlatView::new(old_gp, c);
            let old_model = least_model_flat(&fv_old);
            let (added, removed) = delta.for_view(old_gp, new_gp, c);
            let refs: Vec<&GroundRule> =
                removed.iter().map(|&i| &old_gp.rules[i as usize]).collect();
            let fv_new = match fv_old
                .locate(&refs)
                .map(|flat| fv_old.apply_delta(new_gp, &added, &flat))
            {
                Some(FlatPatch::Patched(p)) => p,
                _ => FlatView::new(new_gp, c),
            };
            let scratch = least_model_flat(&FlatView::new(new_gp, c));
            assert_eq!(scratch, least_model_naive(&View::new(new_gp, c)));
            // The (possibly patched) arena evaluates identically from
            // scratch…
            assert_eq!(least_model_flat(&fv_new), scratch);
            // …and the delta evaluator reproduces it from the old
            // model plus the touched set.
            let inc = least_model_delta_flat(&fv_new, &old_model, &touched, &Budget::unlimited())
                .expect_complete("unlimited budget");
            assert_eq!(
                inc, scratch,
                "delta evaluation diverged in component {}",
                c.0
            );
        }
    }

    #[test]
    fn delta_flat_matches_scratch_after_mutations() {
        // Propositional programs with contested atoms so the dirty
        // closure crosses attack edges, not just positive deps.
        let base = "p. q :- p. -r :- q. r :- p. s :- r.";
        let mutations = [
            "p. q :- p. -r :- q. r :- p. s :- r. t :- s.", // fresh-atom tail
            "p. q :- p. -r :- q. r :- p. s :- r. q :- s.", // back edge → rebuild path
            "p. q :- p. r :- p. s :- r.",                  // retract -r :- q.
            "q :- p. -r :- q. r :- p. s :- r.",            // retract the fact p.
        ];
        for m in mutations {
            let mut w = World::new();
            let p1 = parse_program(&mut w, base).unwrap();
            let g1 = ground_exhaustive(&mut w, &p1, &GroundConfig::default()).unwrap();
            let p2 = parse_program(&mut w, m).unwrap();
            let g2 = ground_exhaustive(&mut w, &p2, &GroundConfig::default()).unwrap();
            check_delta_flat(&g1, &g2);
            check_delta_flat(&g2, &g1); // and the reverse mutation
        }
    }

    #[test]
    fn delta_flat_matches_scratch_on_ordered_mutations() {
        for (before, after) in [
            // Assert a fact that extends a chain.
            (
                "parent(a,b). anc(X,Y) :- parent(X,Y). anc(X,Y) :- parent(X,Z), anc(Z,Y).",
                "parent(a,b). anc(X,Y) :- parent(X,Y). anc(X,Y) :- parent(X,Z), anc(Z,Y). parent(b,c).",
            ),
            // Retract: a derivation chain collapses.
            ("b. a :- b. c :- a.", "a :- b. c :- a."),
            // Mutation flips an attack outcome in an ordered program.
            (
                "module c2 { a. } module c1 < c2 { b :- a. }",
                "module c2 { a. } module c1 < c2 { b :- a. -a. }",
            ),
            // Unrelated stratum untouched (the copy path must carry it).
            ("p. q :- p. x. y :- x.", "p. q :- p. x. y :- x. z :- y."),
            // No-op mutation (identical programs): everything clean.
            ("a. b :- a.", "a. b :- a."),
        ] {
            let mut w = World::new();
            let p0 = parse_program(&mut w, before).unwrap();
            let g0 = ground_exhaustive(&mut w, &p0, &GroundConfig::default()).unwrap();
            let p1 = parse_program(&mut w, after).unwrap();
            let g1 = ground_exhaustive(&mut w, &p1, &GroundConfig::default()).unwrap();
            check_delta_flat(&g0, &g1);
        }
    }

    #[test]
    fn delta_flat_with_everything_touched_under_budget() {
        // Everything touched and no old model: every stratum is dirty,
        // the worst case; partials stay below the oracle's model.
        let (_, g) = ground(FIG1);
        let c = CompId(1);
        let fv = FlatView::new(&g, c);
        let full = least_model_naive(&View::new(&g, c));
        let touched: Vec<usize> = (0..g.n_atoms).collect();
        for steps in [1u64, 4, 16, 64, 256] {
            match least_model_delta_flat(
                &fv,
                &Interpretation::new(),
                &touched,
                &Budget::with_steps(steps),
            ) {
                Eval::Complete(m) => assert_eq!(m, full),
                Eval::Interrupted(i) => assert!(i.partial.is_subset(&full), "steps={steps}"),
            }
        }
    }

    #[test]
    fn delta_flat_matches_scratch_with_variables() {
        let mut w = World::new();
        let p1 = parse_program(
            &mut w,
            "parent(a,b). anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        )
        .unwrap();
        let g1 = ground_exhaustive(&mut w, &p1, &GroundConfig::default()).unwrap();
        let p2 = parse_program(
            &mut w,
            "parent(a,b). parent(b,c). anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        )
        .unwrap();
        let g2 = ground_exhaustive(&mut w, &p2, &GroundConfig::default()).unwrap();
        check_delta_flat(&g1, &g2);
        check_delta_flat(&g2, &g1);
    }

    #[test]
    fn delta_flat_budget_trip_leaves_sound_prefix() {
        let mut w = World::new();
        let p1 = parse_program(&mut w, "p. q :- p. -r :- q. r :- p. s :- r.").unwrap();
        let g1 = ground_exhaustive(&mut w, &p1, &GroundConfig::default()).unwrap();
        let p2 = parse_program(&mut w, "p. q :- p. r :- p. s :- r. t :- s.").unwrap();
        let g2 = ground_exhaustive(&mut w, &p2, &GroundConfig::default()).unwrap();
        use olp_ground::GroundDelta;
        let delta = GroundDelta::between(&g1, &g2);
        let touched = delta.touched_atoms(&g1, &g2);
        let c = CompId(0);
        let old_model = least_model_flat(&FlatView::new(&g1, c));
        let fv = FlatView::new(&g2, c);
        let full = least_model_flat(&fv);
        for steps in 0..16 {
            let eval =
                least_model_delta_flat(&fv, &old_model, &touched, &Budget::with_steps(steps));
            if let Eval::Interrupted(i) = eval {
                for l in i.partial.literals() {
                    assert!(full.holds(l), "partial derived a non-model literal");
                }
            }
        }
    }

    #[test]
    fn flatten_matches_direct_construction() {
        let (_, g) = ground(FIG1);
        for c in 0..g.order.len() {
            let c = CompId(c as u32);
            let view = View::new(&g, c);
            let fv = flatten(&view);
            assert_eq!(fv.len(), view.len());
            assert_eq!(least_model_flat(&fv), crate::fixpoint::least_model(&view));
        }
    }
}
