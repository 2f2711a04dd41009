//! The ordered immediate transformation `V_{P,C}` and its least
//! fixpoint (Definition 4, Lemma 1, Proposition 1, Theorem 1b).
//!
//! `V_{P,C}(I) = { H(r) | r ∈ ground(C*), B(r) ⊆ I, r neither overruled
//! nor defeated w.r.t. I }`. The transformation is monotone (growing `I`
//! can only satisfy more bodies and *block* more attackers — attacks
//! only ever weaken), so the least fixpoint exists and equals the limit
//! of `V^k(∅)`.
//!
//! Two engines:
//! * [`v_step`] / [`least_model_naive`] — a literal transcription of the
//!   definition: full passes until nothing changes. The oracle every
//!   fast path is differentially tested against.
//! * [`least_model`] — the production engine: the view compiled into
//!   flat arenas ([`crate::flat_eval`]) and evaluated by a semi-naive
//!   worklist stratum by stratum, with per-rule counters of
//!   unsatisfied body literals and of still-active (non-blocked)
//!   overrulers/defeaters. Each rule/literal is touched O(1) times per
//!   edge, so the fixpoint is linear in the size of the ground view.

use crate::view::View;
use olp_core::{Budget, Eval, Interpretation, Interrupted};

/// One application of `V_{P,C}` to `i`.
///
/// Returns the *new* interpretation `V(i)` (not the union — `V` is not
/// inflationary in general, but its iterates from `∅` are increasing).
pub fn v_step(view: &View, i: &Interpretation) -> Interpretation {
    let mut out = Interpretation::new();
    for (li, r) in view.rules() {
        if view.applicable(li, i) && !view.overruled(li, i) && !view.defeated(li, i) {
            out.insert(r.head)
                .expect("V preserves consistency (Lemma 1)");
        }
    }
    out
}

/// Least fixpoint of `V_{P,C}` by naive iteration from `∅`.
pub fn least_model_naive(view: &View) -> Interpretation {
    least_model_naive_budgeted(view, &Budget::unlimited()).into_value()
}

/// [`least_model_naive`] under a [`Budget`].
///
/// On interruption the partial result is the **last completed
/// iterate** `V^k(∅)`. The iterates from `∅` are increasing (Lemma 1),
/// so that iterate is a sound under-approximation of the least model.
pub fn least_model_naive_budgeted(view: &View, budget: &Budget) -> Eval<Interpretation> {
    let mut cur = Interpretation::new();
    let mut ticker = budget.ticker();
    loop {
        let mut out = Interpretation::new();
        for (li, r) in view.rules() {
            if let Err(reason) = ticker.tick() {
                return Eval::Interrupted(Interrupted {
                    reason,
                    partial: cur,
                });
            }
            if view.applicable(li, &cur) && !view.overruled(li, &cur) && !view.defeated(li, &cur) {
                out.insert(r.head)
                    .expect("V preserves consistency (Lemma 1)");
            }
        }
        if out == cur {
            return Eval::Complete(cur);
        }
        cur = out;
    }
}

/// Least fixpoint of `V_{P,C}` by semi-naive worklist iteration.
///
/// By Theorem 1(b) this is the **least model** of the program in the
/// component, the intersection of all models, and is assumption-free.
///
/// Evaluation compiles the view into the **flat arena representation**
/// ([`olp_ground::flat`]) and runs the stratified worklist over dense
/// bitset truth state ([`crate::flat_eval`]) — no hashing in the inner
/// loop. Differentially tested against [`least_model_naive`].
pub fn least_model(view: &View) -> Interpretation {
    crate::flat_eval::least_model_flat(&crate::flat_eval::flatten(view))
}

/// [`least_model`] under a [`Budget`].
///
/// On interruption the partial result is every completed stratum in
/// full plus a monotone prefix of the current one — always a subset of
/// the unbudgeted least model.
pub fn least_model_budgeted(view: &View, budget: &Budget) -> Eval<Interpretation> {
    crate::flat_eval::least_model_flat_budgeted(&crate::flat_eval::flatten(view), budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olp_core::{CompId, World};
    use olp_ground::{ground_exhaustive, GroundConfig, GroundProgram};
    use olp_parser::{parse_ground_literal, parse_program};

    fn ground(src: &str) -> (World, GroundProgram) {
        let mut w = World::new();
        let p = parse_program(&mut w, src).unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        (w, g)
    }

    fn expect_model(w: &mut World, m: &Interpretation, lits: &[&str], n_atoms: usize) {
        let want =
            Interpretation::from_literals(lits.iter().map(|s| parse_ground_literal(w, s).unwrap()))
                .unwrap();
        assert_eq!(
            m.render(w),
            want.render(w),
            "least model mismatch (n_atoms = {n_atoms})"
        );
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
    fn fig1_least_model_in_c1_is_i1() {
        // The penguin does not fly in C1 (overruling); the pigeon does.
        let (mut w, g) = ground(FIG1);
        let v = View::new(&g, CompId(1)); // c1
        let m = least_model(&v);
        expect_model(
            &mut w,
            &m,
            &[
                "bird(penguin)",
                "bird(pigeon)",
                "ground_animal(penguin)",
                "-ground_animal(pigeon)",
                "fly(pigeon)",
                "-fly(penguin)",
            ],
            g.n_atoms,
        );
        assert!(m.is_total(g.n_atoms));
    }

    #[test]
    fn fig1_least_model_in_c2_has_flying_penguin() {
        // From C2's point of view the penguin flies: C1's exception is
        // invisible above.
        let (mut w, g) = ground(FIG1);
        let v = View::new(&g, CompId(0)); // c2
        let m = least_model(&v);
        expect_model(
            &mut w,
            &m,
            &[
                "bird(penguin)",
                "bird(pigeon)",
                "-ground_animal(penguin)",
                "-ground_animal(pigeon)",
                "fly(pigeon)",
                "fly(penguin)",
            ],
            g.n_atoms,
        );
    }

    #[test]
    fn collapsed_fig1_defeats_instead() {
        // P̂1 (Example 3): the least model leaves fly(penguin) and
        // ground_animal(penguin) undefined.
        let (mut w, g) = ground(
            "bird(penguin). bird(pigeon).
             fly(X) :- bird(X).
             -ground_animal(X) :- bird(X).
             ground_animal(penguin).
             -fly(X) :- ground_animal(X).",
        );
        let v = View::new(&g, CompId(0));
        let m = least_model(&v);
        expect_model(
            &mut w,
            &m,
            &[
                "bird(penguin)",
                "bird(pigeon)",
                "-ground_animal(pigeon)",
                "fly(pigeon)",
            ],
            g.n_atoms,
        );
        let fp = parse_ground_literal(&mut w, "fly(penguin)").unwrap();
        assert!(!m.holds(fp) && !m.holds(fp.complement()));
    }

    #[test]
    fn fig2_defeating_gives_empty_model_in_c1() {
        // P2 (Fig. 2): C3 and C2 are incomparable from C1; rich/poor
        // defeat each other, so nothing about mimmo is derivable.
        let (_, g) = ground(
            "module c3 { rich(mimmo). -poor(X) :- rich(X). }
             module c2 { poor(mimmo). -rich(X) :- poor(X). }
             module c1 < c2, c3 { free_ticket(X) :- poor(X). }",
        );
        let c1 = CompId(2);
        let v = View::new(&g, c1);
        let m = least_model(&v);
        assert!(m.is_empty(), "got {:?}", m.len());
    }

    #[test]
    fn fig2_component_views_differ() {
        let (mut w, g) = ground(
            "module c3 { rich(mimmo). -poor(X) :- rich(X). }
             module c2 { poor(mimmo). -rich(X) :- poor(X). }
             module c1 < c2, c3 { free_ticket(X) :- poor(X). }",
        );
        // In C3's own view, mimmo is rich and not poor.
        let m3 = least_model(&View::new(&g, CompId(0)));
        expect_model(&mut w, &m3, &["rich(mimmo)", "-poor(mimmo)"], g.n_atoms);
        // In C2's own view, mimmo is poor and not rich.
        let m2 = least_model(&View::new(&g, CompId(1)));
        expect_model(&mut w, &m2, &["poor(mimmo)", "-rich(mimmo)"], g.n_atoms);
    }

    /// Two disjoint copies of the paper's Fig. 2 (mutual defeat) plus an
    /// independent chain: several strata and rule groups per view.
    const TWO_FIG2: &str = "module c3 { rich(mimmo). -poor(X) :- rich(X).
            wealthy(anna). -broke(X) :- wealthy(X). }
         module c2 { poor(mimmo). -rich(X) :- poor(X).
            broke(anna). -wealthy(X) :- broke(X). }
         module c1 < c2, c3 { free_ticket(X) :- poor(X).
            charity(X) :- broke(X).
            happy(bob). smiling(X) :- happy(X). }";

    #[test]
    fn naive_and_incremental_agree_on_examples() {
        for src in [
            FIG1,
            TWO_FIG2,
            "module c3 { rich(mimmo). -poor(X) :- rich(X). }
             module c2 { poor(mimmo). -rich(X) :- poor(X). }
             module c1 < c2, c3 { free_ticket(X) :- poor(X). }",
            "a :- b. -a :- b. b.",
            "p. -p.",
            "module c2 { a. b. c. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }",
            "p :- q. q :- p. r :- p.",
        ] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let v = View::new(&g, CompId(c as u32));
                assert_eq!(
                    least_model(&v),
                    least_model_naive(&v),
                    "engines disagree on {src} in component {c}"
                );
            }
        }
    }

    #[test]
    fn tripped_budget_yields_prefix_of_least_model() {
        // Under any step budget both engines' partial results are
        // subsets of the oracle's least model.
        let (_, g) = ground(TWO_FIG2);
        let v = View::new(&g, CompId(2));
        let full = least_model_naive(&v);
        for steps in [1u64, 2, 4, 8, 16, 32, 64] {
            for eval in [
                least_model_budgeted(&v, &Budget::with_steps(steps)),
                least_model_naive_budgeted(&v, &Budget::with_steps(steps)),
            ] {
                match eval {
                    Eval::Complete(m) => assert_eq!(m, full),
                    Eval::Interrupted(Interrupted { partial, .. }) => {
                        assert!(partial.is_subset(&full), "steps={steps}");
                    }
                }
            }
        }
    }

    #[test]
    fn eternal_attacker_blocks_derivation() {
        // `a.` in upper component, `-a :- b.` in lower with b never
        // derivable: `a` must NOT be in the least model of the lower
        // component (the non-blocked lower rule overrules it), but IS in
        // the upper component's own view.
        let (mut w, g) = ground(
            "module c2 { a. }
             module c1 < c2 { -a :- b. }",
        );
        let a = parse_ground_literal(&mut w, "a").unwrap();
        let m_upper = least_model(&View::new(&g, CompId(0)));
        assert!(m_upper.holds(a));
        let m_lower = least_model(&View::new(&g, CompId(1)));
        assert!(!m_lower.holds(a));
        assert!(m_lower.is_empty());
    }

    #[test]
    fn loan_program_scenarios() {
        // Fig. 3 with the three §1 scenarios.
        let base = "module expert2 { take_loan :- inflation(X), X > 11. }
             module expert4 { -take_loan :- loan_rate(X), X > 14. }
             module expert3 < expert4 {
                take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
             }
             module myself < expert2, expert3 { %FACTS% }";

        let check = |facts: &str| -> (World, Option<bool>) {
            let src = base.replace("%FACTS%", facts);
            let (mut w, g) = ground(&src);
            let myself = CompId(3);
            let m = least_model(&View::new(&g, myself));
            let tl = parse_ground_literal(&mut w, "take_loan").unwrap();
            let val = if m.holds(tl) {
                Some(true)
            } else if m.holds(tl.complement()) {
                Some(false)
            } else {
                None
            };
            (w, val)
        };

        // Scenario 0: no facts — nothing derivable.
        assert_eq!(check("").1, None);
        // Scenario 1: inflation(12) — expert2 fires, take_loan true.
        assert_eq!(check("inflation(12).").1, Some(true));
        // Scenario 2: inflation(12), loan_rate(16) — expert2 vs expert4
        // defeat each other; undefined.
        assert_eq!(check("inflation(12). loan_rate(16).").1, None);
        // Scenario 3: inflation(19), loan_rate(16) — expert3 overrules
        // expert4; take_loan true.
        assert_eq!(check("inflation(19). loan_rate(16).").1, Some(true));
    }

    #[test]
    fn p3_least_model_is_empty() {
        // Example 3 tail: { a :- b.  -a :- b. } has least model ∅.
        let (_, g) = ground("a :- b. -a :- b.");
        let m = least_model(&View::new(&g, CompId(0)));
        assert!(m.is_empty());
    }

    #[test]
    fn example4_two_components_cwa() {
        // P4 extended (Example 4): adding a component C2 above with
        // facts -a., -b. makes {-a, -b} the least (assumption-free)
        // model of C1's view.
        let (mut w, g) = ground(
            "module c2 { -a. -b. }
             module c1 < c2 { a :- b. }",
        );
        let m = least_model(&View::new(&g, CompId(1)));
        expect_model(&mut w, &m, &["-a", "-b"], g.n_atoms);
    }

    #[test]
    fn self_defeating_fact_pair() {
        // p. and -p. in one component: mutual defeat, nothing derived.
        let (_, g) = ground("p. -p.");
        let m = least_model(&View::new(&g, CompId(0)));
        assert!(m.is_empty());
    }

    #[test]
    fn lower_fact_beats_upper_fact() {
        let (mut w, g) = ground("module low < high { p. } module high { -p. }");
        let low = CompId(0);
        let m = least_model(&View::new(&g, low));
        let p = parse_ground_literal(&mut w, "p").unwrap();
        assert!(m.holds(p));
        assert!(!m.holds(p.complement()));
    }
}
