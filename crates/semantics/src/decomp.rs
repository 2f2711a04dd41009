//! Independent rule groups and product-form enumeration.
//!
//! The stable-model search is exponential in the number of contested
//! atoms it explores at once. This module splits a view into **weakly
//! connected rule groups** (atoms never co-occurring in a dependency
//! are independent), enumerates each group separately
//! ([`enumerate_assumption_free_decomposed`] /
//! [`stable_models_decomposed`]) and combines the per-group model sets
//! as a cartesian product — two independent Fig. 2-style defeating
//! cliques cost `3^a + 3^b` instead of `3^(a+b)`. This is the
//! splitting-set idea of Lifschitz & Turner transplanted to the ordered
//! semantics.
//!
//! ## The dependency graph
//!
//! Nodes are **atoms** (an atom and its classical complement are one
//! node — `GLit::atom` drops the sign). Every rule contributes edges
//! `head atom → body atom`. Attack edges need no separate treatment:
//! a potential overruler/defeater of rule `r` has head complementary to
//! `H(r)`, i.e. the *same atom node*, and whether the attacker is
//! blocked depends on its own body atoms — which its own `head → body`
//! edges already reach from that shared node. So "body edges plus
//! attack edges" collapse to the head→body edges of every rule in the
//! view.
//!
//! ## Why the split is exact
//!
//! Two rules are grouped iff their atoms are connected in the
//! undirected dependency graph; distinct groups mention **disjoint**
//! atom sets, and every status of Def. 2, both model conditions of
//! Def. 3, and the enabled-version `T`-fixpoint of Defs. 6–8 evaluate a
//! rule using only atoms of its own group. Hence an interpretation is an
//! assumption-free model of the view iff its restriction to each group
//! is an assumption-free model of that group's sub-view ([`View::restrict`]),
//! and the AF model set is the product of the per-group sets. Maximality
//! distributes over products of disjoint-atom sets, so the stable models
//! (Def. 9) are the product of per-group maximal AF models.
//!
//! Budget/anytime behaviour is preserved: a tripped budget yields only
//! complete group tuples (every partial entry is a genuine AF model of
//! the whole view).

use crate::stable::{maximal_if_cheap, maximal_only};
use crate::stable_solver::enumerate_assumption_free_propagating_budgeted;
use crate::view::View;
use olp_core::{Budget, Eval, FxHashMap, Interpretation, InterruptReason, Interrupted};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The weakly connected rule groups of a view's dependency graph.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Weakly connected rule groups, as **global** rule indices suitable
    /// for [`View::restrict`]; group order is first-seen rule order.
    groups: Vec<Vec<u32>>,
}

pub(crate) fn uf_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        // Path halving.
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

pub(crate) fn uf_union(parent: &mut [u32], a: u32, b: u32) {
    let ra = uf_find(parent, a);
    let rb = uf_find(parent, b);
    if ra != rb {
        parent[rb as usize] = ra;
    }
}

impl Decomposition {
    /// Computes the rule groups of `view`'s dependency graph: one
    /// union-find pass, linear in atoms + rule-body edges.
    pub fn new(view: &View) -> Self {
        let mut parent: Vec<u32> = (0..view.gp.n_atoms as u32).collect();
        for (_, r) in view.rules() {
            let h = r.head.atom().index() as u32;
            for &b in &r.body {
                uf_union(&mut parent, h, b.atom().index() as u32);
            }
        }
        let mut group_of_root: FxHashMap<u32, usize> = FxHashMap::default();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for (li, r) in view.rules() {
            let root = uf_find(&mut parent, r.head.atom().index() as u32);
            let gi = *group_of_root.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(view.global_index(li));
        }
        Decomposition { groups }
    }

    /// The weakly connected rule groups (global rule indices).
    pub fn groups(&self) -> &[Vec<u32>] {
        &self.groups
    }
}

// ---- Product-form enumeration ---------------------------------------

/// Cartesian product of per-group model sets. Groups have pairwise
/// disjoint atoms, so merging never conflicts; every emitted entry is a
/// **complete** tuple (one model from every group) and therefore a
/// genuine AF model of the whole view. The cap and the budget interrupt
/// with only complete tuples in the partial list.
fn product(
    groups: &[Vec<Interpretation>],
    cap: usize,
    budget: &Budget,
) -> Result<Vec<Interpretation>, Interrupted<Vec<Interpretation>>> {
    if groups.iter().any(std::vec::Vec::is_empty) {
        return Ok(Vec::new());
    }
    let mut idx = vec![0usize; groups.len()];
    let mut out = Vec::new();
    let mut ticker = budget.ticker();
    loop {
        if let Err(reason) = ticker.tick() {
            return Err(Interrupted {
                reason,
                partial: out,
            });
        }
        let mut m = Interpretation::new();
        for (g, &i) in groups.iter().zip(idx.iter()) {
            for l in g[i].literals() {
                m.insert(l).expect("groups have disjoint atoms");
            }
        }
        out.push(m);
        if out.len() >= cap {
            return Err(Interrupted {
                reason: InterruptReason::ModelCap,
                partial: out,
            });
        }
        // Advance the odometer (group 0 varies fastest).
        let mut k = 0;
        loop {
            idx[k] += 1;
            if idx[k] < groups[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
            if k == groups.len() {
                return Ok(out);
            }
        }
    }
}

/// Per-group enumeration results combined as a product.
fn combine(
    per_group: &[Vec<Interpretation>],
    interrupted: Option<InterruptReason>,
    cap: usize,
    budget: &Budget,
) -> Eval<Vec<Interpretation>> {
    match (product(per_group, cap, budget), interrupted) {
        (Ok(ms), None) => Eval::Complete(ms),
        (Ok(ms), Some(reason)) => Eval::Interrupted(Interrupted {
            reason,
            partial: ms,
        }),
        // The product's own interruption (cap or budget) wins only if
        // the group enumeration itself was complete.
        (Err(Interrupted { reason, partial }), earlier) => Eval::Interrupted(Interrupted {
            reason: earlier.unwrap_or(reason),
            partial,
        }),
    }
}

/// Enumerates every assumption-free model by solving each weakly
/// connected rule group separately and combining the per-group model
/// sets as a cartesian product. Set-equal to
/// [`crate::enumerate_assumption_free_propagating`]; exponentially
/// faster when the view splits into independent groups.
pub fn enumerate_assumption_free_decomposed(view: &View, n_atoms: usize) -> Vec<Interpretation> {
    enumerate_assumption_free_decomposed_budgeted(view, n_atoms, &Budget::unlimited(), None)
        .into_value()
}

/// [`enumerate_assumption_free_decomposed`] under a [`Budget`],
/// optionally capped at `max_models` results.
///
/// **Anytime guarantee:** every entry of a partial result is a complete
/// product tuple, hence a genuine AF model of the whole view. A budget
/// trip while a *non-final* group is still enumerating yields an empty
/// partial list (no sound complete tuple exists yet).
pub fn enumerate_assumption_free_decomposed_budgeted(
    view: &View,
    n_atoms: usize,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    let d = Decomposition::new(view);
    if d.groups().len() <= 1 {
        return enumerate_assumption_free_propagating_budgeted(view, n_atoms, budget, max_models);
    }
    let cap = max_models.unwrap_or(usize::MAX);
    let n_groups = d.groups().len();
    let mut per_group: Vec<Vec<Interpretation>> = Vec::with_capacity(n_groups);
    for (gi, rules) in d.groups().iter().enumerate() {
        let sub = view.restrict(rules);
        match enumerate_assumption_free_propagating_budgeted(&sub, n_atoms, budget, None) {
            Eval::Complete(ms) => per_group.push(ms),
            Eval::Interrupted(Interrupted { reason, partial }) => {
                if gi + 1 == n_groups {
                    // Every earlier group is complete: tuples ending in
                    // a verified model of the last group are sound.
                    per_group.push(partial);
                    return combine(&per_group, Some(reason), cap, budget);
                }
                return Eval::Interrupted(Interrupted {
                    reason,
                    partial: Vec::new(),
                });
            }
        }
    }
    combine(&per_group, None, cap, budget)
}

/// Stable models (Def. 9) via per-group enumeration: maximality under
/// set inclusion distributes over products of disjoint-atom model sets,
/// so the product of per-group **maximal** AF models is exactly the
/// stable model set. The quadratic maximality filter runs per group,
/// never on the (possibly exponentially larger) product.
pub fn stable_models_decomposed(view: &View, n_atoms: usize) -> Vec<Interpretation> {
    stable_models_decomposed_budgeted(view, n_atoms, &Budget::unlimited(), None).into_value()
}

/// [`stable_models_decomposed`] under a [`Budget`], optionally capped at
/// `max_models` results. Same anytime caveat as
/// [`crate::stable_models_budgeted`]: entries of a partial result are
/// genuine AF models, but maximality is relative to what was explored.
pub fn stable_models_decomposed_budgeted(
    view: &View,
    n_atoms: usize,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    let d = Decomposition::new(view);
    if d.groups().len() <= 1 {
        return crate::stable::stable_models_monolithic_budgeted(view, n_atoms, budget, max_models);
    }
    let cap = max_models.unwrap_or(usize::MAX);
    let n_groups = d.groups().len();
    let mut per_group: Vec<Vec<Interpretation>> = Vec::with_capacity(n_groups);
    for (gi, rules) in d.groups().iter().enumerate() {
        let sub = view.restrict(rules);
        match enumerate_assumption_free_propagating_budgeted(&sub, n_atoms, budget, None) {
            Eval::Complete(ms) => per_group.push(maximal_only(ms)),
            Eval::Interrupted(Interrupted { reason, partial }) => {
                if gi + 1 == n_groups {
                    per_group.push(maximal_if_cheap(partial));
                    return combine(&per_group, Some(reason), cap, budget);
                }
                return Eval::Interrupted(Interrupted {
                    reason,
                    partial: Vec::new(),
                });
            }
        }
    }
    combine(&per_group, None, cap, budget)
}

/// The per-group memo of [`stable_models_decomposed_cached`]: a group's
/// canonicalised rule multiset to its stable models.
pub type GroupMemo = FxHashMap<Vec<olp_ground::GroundRule>, Vec<Interpretation>>;

/// [`stable_models_decomposed_budgeted`] with a **per-group memo
/// cache**, the stable-model side of incremental maintenance: a
/// mutation that leaves a weakly connected group's rule set unchanged
/// re-uses the group's maximal-AF-model set verbatim instead of
/// re-enumerating its 3-valued search space. The cache key is the
/// group's canonicalised rule multiset (sorted by `(comp, head, body)`
/// — a group's semantics within a fixed view depends on nothing else),
/// so a retract-then-reassert also hits. Only **complete** per-group
/// results are cached; interrupted enumerations are never stored.
///
/// The caller owns `cache` and is responsible for keying it per
/// consumer component (group semantics depends on the view's vantage
/// component through the attack relations) and for bounding its size.
pub fn stable_models_decomposed_cached(
    view: &View,
    n_atoms: usize,
    budget: &Budget,
    max_models: Option<usize>,
    cache: &mut GroupMemo,
) -> Eval<Vec<Interpretation>> {
    let d = Decomposition::new(view);
    if d.groups().len() <= 1 {
        return crate::stable::stable_models_monolithic_budgeted(view, n_atoms, budget, max_models);
    }
    let cap = max_models.unwrap_or(usize::MAX);
    let n_groups = d.groups().len();
    let mut per_group: Vec<Vec<Interpretation>> = Vec::with_capacity(n_groups);
    for (gi, rules) in d.groups().iter().enumerate() {
        let mut key: Vec<olp_ground::GroundRule> = rules
            .iter()
            .map(|&g| view.gp.rules[g as usize].clone())
            .collect();
        key.sort_unstable_by(|a, b| (a.comp, a.head, &a.body).cmp(&(b.comp, b.head, &b.body)));
        if let Some(ms) = cache.get(&key) {
            per_group.push(ms.clone());
            continue;
        }
        let sub = view.restrict(rules);
        match enumerate_assumption_free_propagating_budgeted(&sub, n_atoms, budget, None) {
            Eval::Complete(ms) => {
                let ms = maximal_only(ms);
                cache.insert(key, ms.clone());
                per_group.push(ms);
            }
            Eval::Interrupted(Interrupted { reason, partial }) => {
                if gi + 1 == n_groups {
                    per_group.push(maximal_if_cheap(partial));
                    return combine(&per_group, Some(reason), cap, budget);
                }
                return Eval::Interrupted(Interrupted {
                    reason,
                    partial: Vec::new(),
                });
            }
        }
    }
    combine(&per_group, None, cap, budget)
}

/// Parallel group-level enumeration: whole groups are distributed to the
/// worker threads (each group's sub-view is solved independently), and
/// the per-group sets are combined as a product. Used by
/// [`crate::enumerate_assumption_free_parallel_budgeted`] and, with
/// `maximal` set, by [`crate::stable_models_parallel_budgeted`] when the
/// view splits; the callers fall back to prefix splitting otherwise.
///
/// With `maximal`, each group's models are filtered for maximality on
/// its worker before the product, as in
/// [`stable_models_decomposed_budgeted`]: the product of per-group
/// maximal AF models is the stable model set, and the quadratic filter
/// never sees the product.
///
/// Unlike the sequential path, an interrupted group still contributes
/// its verified partial list — the other groups finished (or were
/// interrupted with their own partials), so every product tuple remains
/// a complete, sound AF model.
pub(crate) fn enumerate_af_groups_parallel(
    view: &View,
    d: &Decomposition,
    threads: usize,
    budget: &Budget,
    max_models: Option<usize>,
    maximal: bool,
) -> Eval<Vec<Interpretation>> {
    let groups = d.groups();
    let threads = threads.max(1).min(groups.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<Eval<Vec<Interpretation>>>>> =
        groups.iter().map(|_| std::sync::Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let slots = &slots;
            scope.spawn(move |_| loop {
                let gi = next.fetch_add(1, Ordering::Relaxed);
                if gi >= groups.len() {
                    return;
                }
                let sub = view.restrict(&groups[gi]);
                let r = match enumerate_assumption_free_propagating_budgeted(
                    &sub,
                    view.gp.n_atoms,
                    budget,
                    None,
                ) {
                    Eval::Complete(ms) if maximal => Eval::Complete(maximal_only(ms)),
                    Eval::Interrupted(Interrupted { reason, partial }) if maximal => {
                        Eval::Interrupted(Interrupted {
                            reason,
                            partial: maximal_if_cheap(partial),
                        })
                    }
                    r => r,
                };
                *slots[gi].lock().expect("slot") = Some(r);
            });
        }
    })
    .expect("scope");

    let mut per_group: Vec<Vec<Interpretation>> = Vec::with_capacity(groups.len());
    let mut first_reason = None;
    for slot in slots {
        match slot
            .into_inner()
            .expect("slot")
            .expect("worker filled slot")
        {
            Eval::Complete(ms) => per_group.push(ms),
            Eval::Interrupted(Interrupted { reason, partial }) => {
                first_reason.get_or_insert(reason);
                per_group.push(partial);
            }
        }
    }
    combine(
        &per_group,
        first_reason,
        max_models.unwrap_or(usize::MAX),
        budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::stable_models_naive;
    use crate::stable_solver::enumerate_assumption_free_propagating;
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

    /// Two disjoint copies of the paper's Fig. 2 (mutual defeat) plus an
    /// independent chain: three groups.
    const TWO_FIG2: &str = "module c3 { rich(mimmo). -poor(X) :- rich(X).
            wealthy(anna). -broke(X) :- wealthy(X). }
         module c2 { poor(mimmo). -rich(X) :- poor(X).
            broke(anna). -wealthy(X) :- broke(X). }
         module c1 < c2, c3 { free_ticket(X) :- poor(X).
            charity(X) :- broke(X).
            happy(bob). smiling(X) :- happy(X). }";

    #[test]
    fn groups_split_disjoint_subprograms() {
        let (_, g) = ground(TWO_FIG2);
        let v = View::new(&g, CompId(2)); // c1
        let d = Decomposition::new(&v);
        // Grounding instantiates every rule for every constant, so each
        // of the three relation cliques (rich/poor/free_ticket,
        // wealthy/broke/charity, happy/smiling) splits further into one
        // group per individual (mimmo, anna, bob): 9 in total.
        assert_eq!(d.groups().len(), 9);
        let total: usize = d.groups().iter().map(Vec::len).sum();
        assert_eq!(total, v.len(), "groups partition the rules");
    }

    #[test]
    fn attackers_share_their_victims_group() {
        // `View::restrict` relies on it: a group's sub-view gives each
        // of its rules the attack lists the full view gives them.
        let (_, g) = ground(TWO_FIG2);
        let v = View::new(&g, CompId(2));
        let d = Decomposition::new(&v);
        let mut group_of: FxHashMap<u32, usize> = FxHashMap::default();
        for (gi, rules) in d.groups().iter().enumerate() {
            for &r in rules {
                group_of.insert(r, gi);
            }
        }
        for (li, _) in v.rules() {
            for &a in v.overrulers(li).iter().chain(v.defeaters(li)) {
                assert_eq!(group_of[&v.global_index(a)], group_of[&v.global_index(li)]);
            }
        }
    }

    #[test]
    fn decomposed_af_set_equals_monolithic() {
        let (w, g) = ground(TWO_FIG2);
        for c in 0..g.order.len() {
            let v = View::new(&g, CompId(c as u32));
            assert_eq!(
                renders(&w, &enumerate_assumption_free_decomposed(&v, g.n_atoms)),
                renders(&w, &enumerate_assumption_free_propagating(&v, g.n_atoms)),
                "component {c}"
            );
        }
    }

    #[test]
    fn decomposed_stable_product_of_example5_clones() {
        // Two independent copies of Example 5 (2 stable models each):
        // the decomposed stable set must be the 4-model product.
        let (w, g) = ground(
            "module c2 { a. b. c. x. y. z. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                              -x :- y, z. -y :- x. -y :- -y. }",
        );
        let v = View::new(&g, CompId(1));
        let d = Decomposition::new(&v);
        assert_eq!(d.groups().len(), 2);
        let dec = stable_models_decomposed(&v, g.n_atoms);
        assert_eq!(dec.len(), 4);
        assert_eq!(
            renders(&w, &dec),
            renders(&w, &stable_models_naive(&v, g.n_atoms))
        );
    }

    #[test]
    fn parallel_groups_agree_with_sequential() {
        // TWO_FIG2 plus two Example 5 clones: groups with several AF
        // models of which only some are maximal, so the parallel stable
        // path must filter each group before the product.
        for (src, comp) in [
            (TWO_FIG2, CompId(2)),
            (
                "module c2 { a. b. c. x. y. z. }
                 module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                                  -x :- y, z. -y :- x. -y :- -y. }",
                CompId(1),
            ),
        ] {
            let (w, g) = ground(src);
            let v = View::new(&g, comp);
            let d = Decomposition::new(&v);
            assert!(d.groups().len() > 1);
            let stable = renders(&w, &stable_models_decomposed(&v, g.n_atoms));
            for threads in [1, 2, 4] {
                let par = enumerate_af_groups_parallel(
                    &v,
                    &d,
                    threads,
                    &Budget::unlimited(),
                    None,
                    false,
                )
                .into_value();
                assert_eq!(
                    renders(&w, &par),
                    renders(&w, &enumerate_assumption_free_decomposed(&v, g.n_atoms)),
                    "threads {threads}"
                );
                let par_stable = crate::stable_models_parallel_budgeted(
                    &v,
                    g.n_atoms,
                    threads,
                    &Budget::unlimited(),
                    None,
                )
                .into_value();
                assert_eq!(renders(&w, &par_stable), stable, "threads {threads}");
            }
            assert_eq!(stable, renders(&w, &stable_models_naive(&v, g.n_atoms)));
        }
    }

    #[test]
    fn decomposed_enumeration_partials_are_sound() {
        // Every entry of any budget-tripped partial result must be a
        // member of the unbudgeted enumeration (complete tuples only).
        let (w, g) = ground(TWO_FIG2);
        let v = View::new(&g, CompId(2));
        let full = renders(&w, &enumerate_assumption_free_decomposed(&v, g.n_atoms));
        for steps in [1u64, 8, 64, 256, 1024, 4096] {
            let b = Budget::with_steps(steps);
            let got = match enumerate_assumption_free_decomposed_budgeted(&v, g.n_atoms, &b, None) {
                Eval::Complete(ms) => ms,
                Eval::Interrupted(Interrupted { partial, .. }) => partial,
            };
            for m in renders(&w, &got) {
                assert!(full.contains(&m), "steps={steps}: {m} not in full set");
            }
        }
    }

    #[test]
    fn cached_stable_enumeration_matches_and_reuses() {
        let (w, g) = ground(
            "module c2 { a. b. c. x. y. z. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                              -x :- y, z. -y :- x. -y :- -y. }",
        );
        let v = View::new(&g, CompId(1));
        let mut cache = FxHashMap::default();
        let first =
            stable_models_decomposed_cached(&v, g.n_atoms, &Budget::unlimited(), None, &mut cache)
                .into_value();
        assert_eq!(
            renders(&w, &first),
            renders(&w, &stable_models_decomposed(&v, g.n_atoms))
        );
        assert_eq!(cache.len(), 2, "one entry per group");
        // Second run must be answered from cache alone: 64 steps is one
        // ticker batch — enough for the final product only. Uncached,
        // the two per-group enumerations each pre-pay a batch and the
        // run trips with an empty result; with cache hits both are
        // skipped and the full set comes back Complete.
        let budget = Budget::with_steps(64);
        let again = stable_models_decomposed_cached(&v, g.n_atoms, &budget, None, &mut cache)
            .expect_complete("cache hits answer within one ticker batch");
        assert_eq!(renders(&w, &again), renders(&w, &first));
        let mut empty_cache = FxHashMap::default();
        let uncached = stable_models_decomposed_cached(
            &v,
            g.n_atoms,
            &Budget::with_steps(64),
            None,
            &mut empty_cache,
        );
        assert!(uncached.is_partial(), "64 steps cannot re-enumerate");
    }

    #[test]
    fn model_cap_truncates_product() {
        let (_, g) = ground(
            "module c2 { a. b. c. x. y. z. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                              -x :- y, z. -y :- x. -y :- -y. }",
        );
        let v = View::new(&g, CompId(1));
        match stable_models_decomposed_budgeted(&v, g.n_atoms, &Budget::unlimited(), Some(2)) {
            Eval::Interrupted(Interrupted { reason, partial }) => {
                assert_eq!(reason, InterruptReason::ModelCap);
                assert_eq!(partial.len(), 2);
            }
            Eval::Complete(ms) => panic!("cap of 2 must interrupt, got {} models", ms.len()),
        }
    }
}
