//! Model enumeration and stable models (Definitions 5, 9; Example 5;
//! Proposition 2).
//!
//! A **stable model** is a maximal assumption-free model. Deciding
//! stability is intractable in general (it generalises
//! Gelfond–Lifschitz stable models, Corollary 1), so enumeration is an
//! exact backtracking search:
//!
//! * assumption-free enumeration branches only over atoms that are
//!   *derivable at all* — the closure `D` of the rules ignoring
//!   statuses bounds every assumption-free model, which prunes the
//!   3-valued search space hard;
//! * arbitrary-model enumeration (needed for exhaustive models and for
//!   validating Prop. 2 on small programs) branches over the whole atom
//!   universe and is meant for small `n` only.

use crate::assumption::is_assumption_free;
use crate::model::is_model;
use crate::view::View;
use olp_core::Interpretation;
use olp_core::{AtomId, Budget, Eval, FxHashSet, GLit, InterruptReason, Interrupted};

/// Enumerates every assumption-free model of the view.
///
/// Exact but exponential in the number of derivable atoms; intended for
/// programs whose *contested* part is small (the paper's examples, the
/// benchmark generators). The result always contains the least model.
pub fn enumerate_assumption_free(view: &View, n_atoms: usize) -> Vec<Interpretation> {
    enumerate_assumption_free_budgeted(view, n_atoms, &Budget::unlimited(), None).into_value()
}

/// [`enumerate_assumption_free`] under a [`Budget`], optionally capped
/// at `max_models` results.
///
/// **Anytime guarantee:** every interpretation in a partial result
/// passed the exact leaf checks (model + assumption-free), so the
/// partial list is always a subset of the unbudgeted enumeration —
/// just possibly incomplete.
pub fn enumerate_assumption_free_budgeted(
    view: &View,
    _n_atoms: usize,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    let d = match derivability_closure_budgeted(view, budget) {
        Ok(d) => d,
        Err(reason) => {
            return Eval::Interrupted(Interrupted {
                reason,
                partial: Vec::new(),
            })
        }
    };

    // Branch atoms: atoms derivable in at least one sign; per-atom
    // candidate values derived from which signs are derivable.
    let mut atoms: Vec<AtomId> = d
        .iter()
        .map(|l| l.atom())
        .collect::<FxHashSet<_>>()
        .into_iter()
        .collect();
    atoms.sort_unstable();

    let mut out = Vec::new();
    let mut cur = Interpretation::new();
    let cap = max_models.unwrap_or(usize::MAX);
    match search_af(view, &d, &atoms, 0, &mut cur, &mut out, budget, cap) {
        Ok(()) => Eval::Complete(out),
        Err(reason) => Eval::Interrupted(Interrupted {
            reason,
            partial: out,
        }),
    }
}

/// The derivability closure `D` of a view: the `T`-fixpoint of all its
/// rules with statuses ignored. Every assumption-free model is `⊆ D`
/// (its literals are heads of applied rules whose bodies are again in
/// the model, inductively grounding out in facts). Unlike
/// [`crate::assumption::t_fixpoint`] it tolerates complementary heads —
/// it is a *bound*, not an interpretation.
pub fn derivability_closure(view: &View) -> FxHashSet<GLit> {
    derivability_closure_budgeted(view, &Budget::unlimited())
        .expect("unlimited budget cannot interrupt")
}

pub(crate) fn derivability_closure_budgeted(
    view: &View,
    budget: &Budget,
) -> Result<FxHashSet<GLit>, InterruptReason> {
    let all_rules: Vec<(GLit, Box<[GLit]>)> = view
        .rules()
        .map(|(_, r)| (r.head, r.body.clone()))
        .collect();
    t_closure_both_signs(&all_rules, budget)
}

fn t_closure_both_signs(
    rules: &[(GLit, Box<[GLit]>)],
    budget: &Budget,
) -> Result<FxHashSet<GLit>, InterruptReason> {
    let mut d: FxHashSet<GLit> = FxHashSet::default();
    loop {
        let mut changed = false;
        for (head, body) in rules {
            budget.tick()?;
            if !d.contains(head) && body.iter().all(|b| d.contains(b)) {
                d.insert(*head);
                changed = true;
            }
        }
        if !changed {
            return Ok(d);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn search_af(
    view: &View,
    d: &FxHashSet<GLit>,
    atoms: &[AtomId],
    at: usize,
    cur: &mut Interpretation,
    out: &mut Vec<Interpretation>,
    budget: &Budget,
    cap: usize,
) -> Result<(), InterruptReason> {
    budget.tick()?;
    if at == atoms.len() {
        if is_model_for_af_search(view, cur) && is_assumption_free(view, cur) {
            out.push(cur.clone());
            if out.len() >= cap {
                return Err(InterruptReason::ModelCap);
            }
        }
        return Ok(());
    }
    let a = atoms[at];
    // Undefined branch.
    search_af(view, d, atoms, at + 1, cur, out, budget, cap)?;
    // True branch (only if the positive literal is derivable).
    if d.contains(&GLit::pos(a)) {
        cur.insert(GLit::pos(a)).expect("fresh atom");
        let r = search_af(view, d, atoms, at + 1, cur, out, budget, cap);
        cur.remove(GLit::pos(a));
        r?;
    }
    // False branch.
    if d.contains(&GLit::neg(a)) {
        cur.insert(GLit::neg(a)).expect("fresh atom");
        let r = search_af(view, d, atoms, at + 1, cur, out, budget, cap);
        cur.remove(GLit::neg(a));
        r?;
    }
    Ok(())
}

/// Definition 3 evaluated by iterating rules instead of the atom
/// universe: condition (a) runs over the literals of `m`; condition (b)
/// is equivalent to "no rule with an undefined head atom is applicable
/// yet unattacked", because atoms with no rules satisfy (b) vacuously.
/// This avoids needing an `n_atoms` bound and is exact for any
/// interpretation (the AF search and the propagating solver both use
/// it).
pub(crate) fn is_model_for_af_search(view: &View, m: &Interpretation) -> bool {
    // (a) over the literals of m.
    for lit in m.literals() {
        for &li in view.rules_with_head(lit.complement()) {
            if !view.blocked(li, m) && !view.overruled_by_applied(li, m) {
                return false;
            }
        }
    }
    // (b) over rules with undefined heads.
    for (li, r) in view.rules() {
        if m.undefined(r.head.atom())
            && view.applicable(li, m)
            && !view.overruled(li, m)
            && !view.defeated(li, m)
        {
            return false;
        }
    }
    true
}

/// Enumerates **all** models (Definition 3) over the full atom universe
/// `0..n_atoms`, optionally restricted to supersets of `superset`.
///
/// 3^n worst case — use on small programs (the paper's examples, the
/// Prop. 2 validation suite).
pub fn enumerate_models(
    view: &View,
    n_atoms: usize,
    superset: Option<&Interpretation>,
) -> Vec<Interpretation> {
    let mut cur = match superset {
        Some(s) => s.clone(),
        None => Interpretation::new(),
    };
    let free: Vec<AtomId> = (0..n_atoms as u32)
        .map(AtomId)
        .filter(|&a| cur.undefined(a))
        .collect();
    let mut out = Vec::new();
    search_all(view, n_atoms, &free, 0, &mut cur, &mut out);
    out
}

fn search_all(
    view: &View,
    n_atoms: usize,
    free: &[AtomId],
    at: usize,
    cur: &mut Interpretation,
    out: &mut Vec<Interpretation>,
) {
    if at == free.len() {
        if is_model(view, cur, n_atoms) {
            out.push(cur.clone());
        }
        return;
    }
    let a = free[at];
    search_all(view, n_atoms, free, at + 1, cur, out);
    cur.insert(GLit::pos(a)).expect("fresh atom");
    search_all(view, n_atoms, free, at + 1, cur, out);
    cur.remove(GLit::pos(a));
    cur.insert(GLit::neg(a)).expect("fresh atom");
    search_all(view, n_atoms, free, at + 1, cur, out);
    cur.remove(GLit::neg(a));
}

/// Keeps only the maximal interpretations under literal-set inclusion.
pub fn maximal_only(models: Vec<Interpretation>) -> Vec<Interpretation> {
    let keep: Vec<bool> = models
        .iter()
        .map(|m| !models.iter().any(|n| m.is_proper_subset(n)))
        .collect();
    let mut out: Vec<Interpretation> = Vec::new();
    for (m, k) in models.into_iter().zip(keep) {
        if k && !out.contains(&m) {
            out.push(m);
        }
    }
    out
}

/// [`maximal_only`] on the partial list of an interrupted enumeration,
/// but only when that is provably cheap. The budget is already spent
/// there, and the filter is quadratic: on a large list it could cost
/// far more than the limit just enforced (a 1-second deadline must not
/// be followed by a 10-second filter). A longer list is returned raw,
/// which satisfies the same anytime guarantee (every member is a
/// genuine AF model).
pub(crate) fn maximal_if_cheap(partial: Vec<Interpretation>) -> Vec<Interpretation> {
    const CHEAP_FILTER: usize = 1024;
    if partial.len() <= CHEAP_FILTER {
        maximal_only(partial)
    } else {
        partial
    }
}

/// Budgeted [`maximal_only`]: same result on completion, but the
/// quadratic pairwise filter ticks the budget once per comparison, so
/// a deadline or cancellation stops it promptly even over a huge model
/// set (an interrupted enumeration can hand this function hundreds of
/// thousands of candidates). On interruption no enumerated model is
/// dropped: the not-yet-confirmed remainder is appended unfiltered, so
/// the partial set may contain non-maximal assumption-free models —
/// which the `Interrupted` wrapper already signals.
pub fn maximal_only_budgeted(
    models: Vec<Interpretation>,
    budget: &Budget,
) -> Eval<Vec<Interpretation>> {
    if budget.is_unlimited() {
        return Eval::Complete(maximal_only(models));
    }
    let mut ticker = budget.ticker();
    let mut out: Vec<Interpretation> = Vec::new();
    for (i, m) in models.iter().enumerate() {
        let mut interrupted = None;
        let mut keep = true;
        for n in &models {
            if let Err(reason) = ticker.tick() {
                interrupted = Some(reason);
                break;
            }
            if m.is_proper_subset(n) {
                keep = false;
                break;
            }
        }
        if keep && interrupted.is_none() {
            for n in &out {
                if let Err(reason) = ticker.tick() {
                    interrupted = Some(reason);
                    break;
                }
                if n == m {
                    keep = false;
                    break;
                }
            }
        }
        if let Some(reason) = interrupted {
            drop(ticker);
            let mut partial = out;
            partial.extend_from_slice(&models[i..]);
            return Eval::Interrupted(Interrupted { reason, partial });
        }
        if keep {
            out.push(m.clone());
        }
    }
    Eval::Complete(out)
}

/// The **stable models**: maximal assumption-free models (Definition 9).
///
/// Splits the view into independent rule groups first
/// ([`crate::decomp::stable_models_decomposed`]) and solves each with
/// the propagating enumerator
/// ([`crate::stable_solver::enumerate_assumption_free_propagating`]);
/// the plain enumerator ([`enumerate_assumption_free`]) is kept as the
/// differential-testing reference (`stable_models_naive`), and
/// [`crate::stable_solver::stable_models_propagating`] as the
/// undecomposed path.
pub fn stable_models(view: &View, n_atoms: usize) -> Vec<Interpretation> {
    crate::decomp::stable_models_decomposed(view, n_atoms)
}

/// [`stable_models`] under a [`Budget`], optionally capped at
/// `max_models` *assumption-free* models explored.
///
/// **Anytime guarantee:** every interpretation in a partial result is
/// a genuine assumption-free model (a member of the unbudgeted
/// assumption-free enumeration). Maximality, however, is relative to
/// the models found before the interruption — with a partial result a
/// listed model may be subsumed by an undiscovered larger one, so
/// treat partial entries as "best stable candidates so far".
pub fn stable_models_budgeted(
    view: &View,
    n_atoms: usize,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    crate::decomp::stable_models_decomposed_budgeted(view, n_atoms, budget, max_models)
}

/// [`stable_models_budgeted`] without the group decomposition: one
/// monolithic propagating search over the whole view: the path a view
/// that forms a single group takes, and the differential baseline of
/// the decomposition.
pub fn stable_models_monolithic_budgeted(
    view: &View,
    n_atoms: usize,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    match crate::stable_solver::enumerate_assumption_free_propagating_budgeted(
        view, n_atoms, budget, max_models,
    ) {
        Eval::Complete(ms) => Eval::Complete(maximal_only(ms)),
        Eval::Interrupted(Interrupted { reason, partial }) => Eval::Interrupted(Interrupted {
            reason,
            partial: maximal_if_cheap(partial),
        }),
    }
}

/// [`stable_models`] via the reference (non-propagating) enumerator.
pub fn stable_models_naive(view: &View, n_atoms: usize) -> Vec<Interpretation> {
    maximal_only(enumerate_assumption_free(view, n_atoms))
}

/// Whether a **total** model exists over `0..n_atoms` (Definition 5a).
/// Exponential; small programs only.
pub fn has_total_model(view: &View, n_atoms: usize) -> bool {
    enumerate_models(view, n_atoms, None)
        .iter()
        .any(|m| m.is_total(n_atoms))
}

/// Extends a model to an **exhaustive** model (Proposition 2): a model
/// that is a proper subset of no other model. Exact via enumeration of
/// superset models; exponential; small programs only.
pub fn extend_to_exhaustive(view: &View, m: &Interpretation, n_atoms: usize) -> Interpretation {
    let supers = enumerate_models(view, n_atoms, Some(m));
    // `m` itself is among the candidates when it is a model; Prop. 2
    // guarantees a maximal one exists.
    maximal_only(supers)
        .into_iter()
        .next()
        .expect("Proposition 2: every model extends to an exhaustive model")
}

/// Whether `m` is an exhaustive model (Definition 5b): a model with no
/// proper superset model. Exponential; small programs only.
pub fn is_exhaustive(view: &View, m: &Interpretation, n_atoms: usize) -> bool {
    if !is_model(view, m, n_atoms) {
        return false;
    }
    enumerate_models(view, n_atoms, Some(m))
        .iter()
        .all(|n| !m.is_proper_subset(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::least_model;
    use olp_core::{CompId, World};
    use olp_ground::{ground_exhaustive, GroundConfig, GroundProgram};
    use olp_parser::{parse_ground_literal, parse_program};

    fn ground(src: &str) -> (World, GroundProgram) {
        let mut w = World::new();
        let p = parse_program(&mut w, src).unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        (w, g)
    }

    fn render_all(w: &World, ms: &[Interpretation]) -> Vec<String> {
        let mut v: Vec<String> = ms.iter().map(|m| m.render(w)).collect();
        v.sort();
        v
    }

    #[test]
    fn example5_two_stable_models() {
        let (w, g) = ground(
            "module c2 { a. b. c. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }",
        );
        let v = View::new(&g, CompId(1));
        let af = enumerate_assumption_free(&v, g.n_atoms);
        // {c} is assumption-free but not stable.
        assert!(render_all(&w, &af).contains(&"{c}".to_string()));
        let stable = stable_models(&v, g.n_atoms);
        assert_eq!(
            render_all(&w, &stable),
            vec!["{-a, b, c}".to_string(), "{-b, a, c}".to_string()]
        );
    }

    #[test]
    fn fig2_no_total_model_and_empty_stable() {
        let (w, g) = ground(
            "module c3 { rich(mimmo). -poor(X) :- rich(X). }
             module c2 { poor(mimmo). -rich(X) :- poor(X). }
             module c1 < c2, c3 { free_ticket(X) :- poor(X). }",
        );
        let v = View::new(&g, CompId(2));
        assert!(!has_total_model(&v, g.n_atoms));
        let stable = stable_models(&v, g.n_atoms);
        assert_eq!(render_all(&w, &stable), vec!["{}".to_string()]);
    }

    #[test]
    fn p4_stable_is_empty_without_cwa() {
        let (mut w, g) = ground("a :- b.");
        let v = View::new(&g, CompId(0));
        let stable = stable_models(&v, g.n_atoms);
        assert_eq!(render_all(&w, &stable), vec!["{}".to_string()]);
        // {-a,-b} is a model (an exhaustive one, even) but not
        // assumption-free, hence not stable.
        let nn = Interpretation::from_literals([
            parse_ground_literal(&mut w, "-a").unwrap(),
            parse_ground_literal(&mut w, "-b").unwrap(),
        ])
        .unwrap();
        let all = enumerate_models(&v, g.n_atoms, None);
        assert!(all.contains(&nn));
        assert!(is_exhaustive(&v, &nn, g.n_atoms));
    }

    #[test]
    fn least_model_is_subset_of_every_stable_model() {
        for src in [
            "module c2 { a. b. c. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }",
            "a :- b. -a :- b. b.",
            "module c2 { p. -q. } module c1 < c2 { q :- p. }",
        ] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let v = View::new(&g, CompId(c as u32));
                let lm = least_model(&v);
                for s in stable_models(&v, g.n_atoms) {
                    assert!(lm.is_subset(&s), "lfp ⊄ stable for {src}");
                }
            }
        }
    }

    #[test]
    fn exhaustive_extension_exists_for_every_model() {
        // Proposition 2 on P3.
        let (_, g) = ground("a :- b. -a :- b.");
        let v = View::new(&g, CompId(0));
        for m in enumerate_models(&v, g.n_atoms, None) {
            let e = extend_to_exhaustive(&v, &m, g.n_atoms);
            assert!(m.is_subset(&e));
            assert!(is_exhaustive(&v, &e, g.n_atoms));
        }
    }

    #[test]
    fn total_model_exists_for_fig1_in_c1() {
        let (_, g) = ground(
            "module c2 { bird(penguin). bird(pigeon). fly(X) :- bird(X).
                -ground_animal(X) :- bird(X). }
             module c1 < c2 { ground_animal(penguin). -fly(X) :- ground_animal(X). }",
        );
        let v = View::new(&g, CompId(1));
        assert!(has_total_model(&v, g.n_atoms));
        // The least model is total here, so it is the unique stable one.
        let stable = stable_models(&v, g.n_atoms);
        assert_eq!(stable.len(), 1);
        assert_eq!(stable[0], least_model(&v));
    }

    #[test]
    fn af_enumeration_always_contains_least_model() {
        for src in [
            "a :- b. -a :- b.",
            "p. -p.",
            "module c2 { a. } module c1 < c2 { -a :- b. }",
        ] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let v = View::new(&g, CompId(c as u32));
                let lm = least_model(&v);
                let af = enumerate_assumption_free(&v, g.n_atoms);
                assert!(af.contains(&lm), "lfp missing from AF enumeration: {src}");
            }
        }
    }

    #[test]
    fn maximal_only_filters_correctly() {
        let a = Interpretation::from_literals([GLit::pos(AtomId(0))]).unwrap();
        let ab =
            Interpretation::from_literals([GLit::pos(AtomId(0)), GLit::pos(AtomId(1))]).unwrap();
        let c = Interpretation::from_literals([GLit::neg(AtomId(2))]).unwrap();
        let out = maximal_only(vec![a.clone(), ab.clone(), c.clone(), ab.clone()]);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&ab) && out.contains(&c) && !out.contains(&a));
    }
}
