//! Fault-injection tests for the resource governor: random workloads
//! are interrupted at random points (step budgets, expired deadlines,
//! cancellation) and every partial result must uphold its documented
//! anytime guarantee:
//!
//! * no panic anywhere in the engine;
//! * a partial fixpoint is a **subset** of the unbudgeted least model
//!   (sound under-approximation);
//! * partial model enumerations (assumption-free, sequential and
//!   parallel; stable) are **subsets of the unbudgeted assumption-free
//!   enumeration** — every member is a genuine model, only coverage is
//!   lost (for interrupted stable lists maximality is relative to the
//!   explored portion, so the reference is the AF enumeration, not the
//!   stable list);
//! * a partial `prove` never answers `true` wrongly;
//! * least-model-first reads (guided `KbSnapshot`/`Kb` stable,
//!   skeptical and credulous queries) interrupted in the least model
//!   return no stable models or credulous literals and a prefix of the
//!   least model as skeptical set; interrupted in the residual search,
//!   their stable models are genuine AF models and their credulous
//!   literals are witnessed by some;
//! * an interrupted **incremental mutation** is not applied: the KB
//!   stays queryable and exactly consistent with its pre-mutation
//!   state;
//! * unlimited budgets always complete with the exact answers.

use olp_workload::{random_ordered, RandomCfg};
use ordered_logic::core::{Budget, Eval, GLit, InterruptReason, World};
use ordered_logic::ground::{ground_exhaustive, GroundConfig, GroundError, GroundProgram};
use ordered_logic::kb::{GroundStrategy, KbBuilder, QueryOptions};
use ordered_logic::semantics::{
    credulous_consequences_budgeted, enumerate_assumption_free_budgeted,
    enumerate_assumption_free_parallel_budgeted, enumerate_assumption_free_propagating,
    enumerate_assumption_free_propagating_budgeted, explain_budgeted, is_model, least_model,
    least_model_budgeted, least_model_naive, least_model_naive_budgeted, prove_budgeted,
    skeptical_consequences_budgeted, stable_models_budgeted, View, Why,
};
use proptest::prelude::*;

fn workload(seed: u64) -> (World, GroundProgram) {
    let mut w = World::new();
    let cfg = RandomCfg {
        n_atoms: 6,
        n_rules: 12,
        max_body: 3,
        neg_head_prob: 0.35,
        neg_body_prob: 0.4,
        n_components: 3,
        edge_prob: 0.5,
    };
    let prog = random_ordered(&mut w, &cfg, seed);
    let g = ground_exhaustive(&mut w, &prog, &GroundConfig::default())
        .expect("propositional programs always ground");
    (w, g)
}

/// Canonical form for set-membership checks across enumerations.
fn lits_of(m: &ordered_logic::core::Interpretation) -> Vec<ordered_logic::core::GLit> {
    let mut v: Vec<_> = m.literals().collect();
    v.sort_unstable();
    v
}

proptest! {
    #[test]
    fn partial_fixpoints_under_approximate(seed in 0u64..40, steps in 0u64..3000) {
        let (_, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = View::new(&g, ordered_logic::core::CompId(ci as u32));
            let full = least_model(&view);
            for eval in [
                least_model_budgeted(&view, &Budget::with_steps(steps)),
                least_model_naive_budgeted(&view, &Budget::with_steps(steps)),
            ] {
                match eval {
                    Eval::Complete(m) => prop_assert_eq!(&m, &full),
                    Eval::Interrupted(i) => {
                        prop_assert_eq!(i.reason, InterruptReason::Steps);
                        prop_assert!(
                            i.partial.is_subset(&full),
                            "partial fixpoint must under-approximate (seed {})",
                            seed
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partial_enumerations_are_subsets(seed in 0u64..25, steps in 0u64..4000) {
        let (_, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = View::new(&g, ordered_logic::core::CompId(ci as u32));
            let full: Vec<Vec<_>> = enumerate_assumption_free_propagating(&view, g.n_atoms)
                .iter()
                .map(lits_of)
                .collect();
            let budgeted = [
                enumerate_assumption_free_budgeted(
                    &view, g.n_atoms, &Budget::with_steps(steps), None),
                enumerate_assumption_free_propagating_budgeted(
                    &view, g.n_atoms, &Budget::with_steps(steps), None),
                enumerate_assumption_free_parallel_budgeted(
                    &view, g.n_atoms, 2, &Budget::with_steps(steps), None),
                stable_models_budgeted(
                    &view, g.n_atoms, &Budget::with_steps(steps), None),
            ];
            for eval in budgeted {
                for m in eval.value() {
                    prop_assert!(
                        full.contains(&lits_of(m)),
                        "every (partial) member must be a genuine AF model (seed {})",
                        seed
                    );
                }
            }
        }
    }

    #[test]
    fn partial_prove_never_lies(seed in 0u64..40, steps in 0u64..800) {
        let (mut w, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = View::new(&g, ordered_logic::core::CompId(ci as u32));
            let full = least_model(&view);
            for atom_i in 0..3u32 {
                let q = ordered_logic::parser::parse_ground_literal(
                    &mut w, &format!("p{atom_i}")).expect("atom parses");
                match prove_budgeted(&view, q, &Budget::with_steps(steps)) {
                    Eval::Complete(ans) => prop_assert_eq!(ans, full.holds(q)),
                    Eval::Interrupted(i) => {
                        if i.partial {
                            prop_assert!(full.holds(q), "partial `true` must be final");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partial_explanations_are_genuine_proofs(seed in 0u64..30, steps in 0u64..1500) {
        let (mut w, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = View::new(&g, ordered_logic::core::CompId(ci as u32));
            let full = least_model(&view);
            let q = ordered_logic::parser::parse_ground_literal(&mut w, "p0")
                .expect("atom parses");
            if let Eval::Interrupted(i) =
                explain_budgeted(&view, q, &Budget::with_steps(steps))
            {
                if let Why::Proved(proof) = i.partial {
                    // A proof built on a partial model is valid in the
                    // full least model too.
                    prop_assert!(full.holds(proof.lit));
                }
            }
        }
    }

    #[test]
    fn model_cap_is_respected(seed in 0u64..25, cap in 1usize..4) {
        let (_, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = View::new(&g, ordered_logic::core::CompId(ci as u32));
            let full_count =
                enumerate_assumption_free_propagating(&view, g.n_atoms).len();
            let eval = enumerate_assumption_free_propagating_budgeted(
                &view, g.n_atoms, &Budget::unlimited(), Some(cap));
            match eval {
                Eval::Complete(ms) => prop_assert!(ms.len() <= cap && full_count <= cap),
                Eval::Interrupted(i) => {
                    prop_assert_eq!(i.reason, InterruptReason::ModelCap);
                    prop_assert!(i.partial.len() >= cap.min(full_count));
                }
            }
        }
    }

    #[test]
    fn consequence_partials_do_not_panic(seed in 0u64..25, steps in 0u64..2000) {
        let (_, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = View::new(&g, ordered_logic::core::CompId(ci as u32));
            // Credulous partials under-approximate: every literal is
            // witnessed by a genuine AF model.
            let full_af = enumerate_assumption_free_propagating(&view, g.n_atoms);
            let cred = credulous_consequences_budgeted(
                &view, g.n_atoms, &Budget::with_steps(steps));
            for &l in cred.value() {
                prop_assert!(full_af.iter().any(|m| m.holds(l)));
            }
            // Skeptical partials are documented over-approximations;
            // here we only require no panic and a consistent result.
            let _ = skeptical_consequences_budgeted(
                &view, g.n_atoms, &Budget::with_steps(steps));
        }
    }

    #[test]
    fn grounding_budget_interrupts_cleanly(seed in 0u64..20, steps in 1u64..200) {
        let mut w = World::new();
        let prog = olp_workload::taxonomy_chain(&mut w, 8, 2);
        let cfg = GroundConfig {
            budget: Budget::with_steps(steps),
            ..GroundConfig::default()
        };
        match ground_exhaustive(&mut w, &prog, &cfg) {
            Ok(_) => {}
            Err(GroundError::Interrupted(r)) => {
                prop_assert_eq!(r, InterruptReason::Steps);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
        // Unused but keeps the strategy exercised across seeds.
        let _ = seed;
    }
}

#[test]
fn expired_deadline_interrupts_immediately() {
    let (_, g) = workload(7);
    let view = View::new(&g, ordered_logic::core::CompId(0));
    let budget = Budget::limited(None, Some(std::time::Instant::now()));
    // Deadlines are probed, not checked every tick, so a small prefix of
    // work may complete; the result must still be sound.
    let full = least_model(&view);
    match least_model_budgeted(&view, &budget) {
        Eval::Complete(m) => assert_eq!(m, full),
        Eval::Interrupted(i) => {
            assert_eq!(i.reason, InterruptReason::Deadline);
            assert!(i.partial.is_subset(&full));
        }
    }
}

#[test]
fn cancellation_stops_parallel_grounding_promptly() {
    // A cancelled budget must stop every grounding worker at the next
    // spend-pool flush: the call returns `Cancelled` without grounding
    // the whole (deliberately large) workload, and well within a bound
    // that full grounding of a hung worker would blow through.
    use olp_workload::GraphShape;
    let mut w = World::new();
    let prog = olp_workload::ancestor(
        &mut w,
        GraphShape::Random {
            edges: 900,
            seed: 5,
        },
        300,
    );
    let budget = Budget::cancellable();
    budget.cancel();
    let cfg = GroundConfig {
        budget: budget.clone(),
        threads: 8,
        ..GroundConfig::default()
    };
    let start = std::time::Instant::now();
    let res = ordered_logic::ground::ground_smart(&mut w, &prog, &cfg);
    assert!(
        matches!(
            res,
            Err(GroundError::Interrupted(InterruptReason::Cancelled))
        ),
        "pre-cancelled budget must interrupt parallel grounding, got {res:?}"
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "workers did not observe cancellation promptly"
    );
}

#[test]
fn cancellation_stops_the_prover() {
    // The goal-directed prover shares its budget between the relevance
    // cone and the cone's fixpoint: a cancelled budget stops it with a
    // `false` that means "not proven", and a `true` from any step
    // budget — complete or partial — holds in the oracle's least model.
    let (_, g) = workload(11);
    for ci in 0..g.order.len() {
        let view = View::new(&g, ordered_logic::core::CompId(ci as u32));
        let full = least_model_naive(&view);
        for a in 0..g.n_atoms as u32 {
            for q in [
                GLit::pos(ordered_logic::core::AtomId(a)),
                GLit::neg(ordered_logic::core::AtomId(a)),
            ] {
                let budget = Budget::cancellable();
                budget.cancel();
                match prove_budgeted(&view, q, &budget) {
                    Eval::Complete(ans) => assert_eq!(ans, full.holds(q)),
                    Eval::Interrupted(i) => {
                        assert_eq!(i.reason, InterruptReason::Cancelled);
                        assert!(!i.partial, "nothing is proven before the fixpoint runs");
                    }
                }
                for steps in 0..64 {
                    match prove_budgeted(&view, q, &Budget::with_steps(steps)) {
                        Eval::Complete(ans) => assert_eq!(ans, full.holds(q)),
                        Eval::Interrupted(i) => {
                            assert!(!i.partial || full.holds(q), "partial `true` must be final");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn cancellation_stops_the_parallel_enumerator() {
    let (_, g) = workload(3);
    let view = View::new(&g, ordered_logic::core::CompId(g.order.len() as u32 - 1));
    let budget = Budget::cancellable();
    budget.cancel();
    let eval = enumerate_assumption_free_parallel_budgeted(&view, g.n_atoms, 2, &budget, None);
    match eval {
        // Tiny searches may finish inside the first probe interval.
        Eval::Complete(_) => {}
        Eval::Interrupted(i) => assert_eq!(i.reason, InterruptReason::Cancelled),
    }
}

proptest! {
    /// A budget that trips mid-incremental-update must leave the KB
    /// queryable and **exactly** consistent with its pre-mutation
    /// state: interrupted mutations are not applied (no torn ground
    /// programs, no half-invalidated caches), and the same KB keeps
    /// accepting unbudgeted mutations afterwards.
    #[test]
    fn interrupted_incremental_mutation_keeps_kb_consistent(
        seed in 0u64..40,
        steps in 0u64..400,
        is_assert in any::<bool>(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let mut world = World::new();
        let cfg = RandomCfg {
            n_atoms: 6,
            n_rules: 12,
            max_body: 3,
            neg_head_prob: 0.35,
            neg_body_prob: 0.4,
            n_components: 3,
            edge_prob: 0.5,
        };
        let prog = random_ordered(&mut world, &cfg, seed);
        // `threads` exercises budget atomicity on both the sequential
        // and the parallel (BSP) delta-grounding paths: a tripped
        // mutation must be all-or-nothing regardless of how many
        // workers were in flight when the budget ran out.
        let gcfg = GroundConfig {
            threads,
            ..GroundConfig::default()
        };
        let mut kb = KbBuilder::from_parts(world, prog)
            .build_with(GroundStrategy::Smart, &gcfg)
            .expect("propositional programs always ground");
        kb.set_threads(threads);
        let objects = ["c0", "c1", "c2"];
        let before: Vec<String> = objects
            .iter()
            .map(|o| {
                let m = kb.model(o).expect("known object").clone();
                kb.render(&m)
            })
            .collect();
        let epoch_before = kb.epoch();
        let opts = QueryOptions::new().max_steps(steps).threads(threads);
        let ev = if is_assert {
            kb.assert_rule_with("c0", "p0 :- p1, -p2.", &opts)
                .expect("no hard error")
                .map(|()| true)
        } else {
            kb.retract_rule_with("c0", "p0 :- p1, -p2.", &opts)
                .expect("no hard error")
        };
        if ev.is_partial() {
            prop_assert_eq!(kb.epoch(), epoch_before, "interrupted mutation must not commit");
            for (o, expected) in objects.iter().zip(&before) {
                let m = kb.model(o).expect("still queryable").clone();
                prop_assert_eq!(
                    &kb.render(&m), expected,
                    "KB diverged from pre-mutation state after interrupted mutation"
                );
            }
        }
        // Interrupted or not, the KB remains fully usable: an
        // unbudgeted mutation applies and is immediately visible (the
        // probe atom is outside the generator's vocabulary, so nothing
        // in the random program can overrule or defeat it).
        kb.assert_rule("c1", "probe_alive.").expect("unbudgeted assert succeeds");
        prop_assert!(kb.ask("c1", "probe_alive").expect("queryable"));
        // …and a budgeted revalidation of the now-stale caches yields a
        // sound under-approximation of the new least model.
        let ev = kb
            .model_with("c0", &QueryOptions::new().max_steps(steps).threads(threads))
            .expect("queryable");
        let partial = ev.into_value();
        let full = kb.model("c0").expect("queryable");
        prop_assert!(partial.is_subset(full), "partial revalidation must under-approximate");
    }
}

#[test]
fn unlimited_budget_is_always_complete() {
    for seed in 0..10 {
        let (_, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = View::new(&g, ordered_logic::core::CompId(ci as u32));
            assert!(least_model_budgeted(&view, &Budget::unlimited()).is_complete());
            assert!(
                stable_models_budgeted(&view, g.n_atoms, &Budget::unlimited(), None).is_complete()
            );
        }
    }
}

/// A KB whose `judge` object has 2^k stable models: k species with
/// `pa` and `pb` facts in `evidence` defeating each other in `judge`,
/// below an uncontested taxonomy the least model decides. Guided
/// snapshot reads of `judge` answer least model first.
fn contested_kb(k: usize, guided: bool, warm_models: bool) -> ordered_logic::kb::Kb {
    let mut b = KbBuilder::new();
    b.rules(
        "bird",
        "bird(penguin). bird(pigeon). fly(X) :- bird(X). -ground_animal(X) :- bird(X).",
    )
    .expect("parses");
    let facts: String = (0..k).map(|i| format!("pa(s{i}). pb(s{i}). ")).collect();
    b.rules("evidence", &facts).expect("parses");
    b.isa("judge", "bird");
    b.isa("judge", "evidence");
    b.rules("judge", "-pa(X) :- pb(X). -pb(X) :- pa(X).")
        .expect("parses");
    let mut kb = b.build(GroundStrategy::Smart).expect("grounds");
    kb.set_profile_guided(guided);
    kb.warm_profiles();
    if warm_models {
        kb.model("judge").expect("known object");
    }
    kb
}

/// `judge`'s view and least model in `kb`'s current grounding.
fn judge_oracle(
    kb: &mut ordered_logic::kb::Kb,
) -> (
    GroundProgram,
    ordered_logic::core::CompId,
    ordered_logic::core::Interpretation,
) {
    let lm = kb.model("judge").expect("known object").clone();
    let w = kb.world();
    let c = kb
        .program()
        .component_by_name(w.syms.get("judge").expect("interned"))
        .expect("an object");
    (kb.ground_program().clone(), c, lm)
}

#[test]
fn least_model_first_deadline_in_the_least_model() {
    // Nothing is cached, so an expired deadline trips while the least
    // model is computed: stable and credulous report no answers, and
    // skeptical a prefix of the least model (an under-approximation).
    let mut kb = contested_kb(4, true, false);
    let snap = kb.snapshot();
    let (_, _, lm) = judge_oracle(&mut kb);
    for threads in [1, 4] {
        let expired = QueryOptions {
            deadline: Some(std::time::Instant::now()),
            ..QueryOptions::new().threads(threads)
        };
        let stable = snap.stable_with("judge", &expired).expect("known object");
        assert_eq!(stable.reason(), Some(InterruptReason::Deadline));
        assert!(stable.value().is_empty());
        let credulous = snap
            .credulous_with("judge", &expired)
            .expect("known object");
        assert_eq!(credulous.reason(), Some(InterruptReason::Deadline));
        assert!(credulous.value().is_empty());
        let skeptical = snap
            .skeptical_with("judge", &expired)
            .expect("known object");
        assert_eq!(skeptical.reason(), Some(InterruptReason::Deadline));
        assert!(skeptical.value().is_subset(&lm));
    }
}

#[test]
fn least_model_first_deadline_in_the_residual_search() {
    // The least model is cached and the union-find pass is tiny, so a
    // 20 ms deadline trips inside the residual search (2^24 stable
    // models). Every partial stable model is a genuine AF model of the
    // whole view; skeptical keeps the least model; every credulous
    // literal is witnessed by a genuine AF model.
    use ordered_logic::semantics::{is_assumption_free, Decomposition};
    let mut kb = contested_kb(24, true, true);
    let snap = kb.snapshot();
    let (g, c, lm) = judge_oracle(&mut kb);
    let view = View::new(&g, c);
    // Literals of some AF model of the view: the groups are
    // independent, so any group's AF model extends to one of the view.
    let mut af_literals = std::collections::HashSet::new();
    for rules in Decomposition::new(&view).groups() {
        for m in enumerate_assumption_free_propagating(&view.restrict(rules), g.n_atoms) {
            af_literals.extend(m.literals());
        }
    }
    for threads in [1, 4] {
        // A fresh 20 ms deadline per read.
        let opts = || {
            QueryOptions::new()
                .threads(threads)
                .timeout(std::time::Duration::from_millis(20))
        };
        let stable = snap.stable_with("judge", &opts()).expect("known object");
        assert_eq!(stable.reason(), Some(InterruptReason::Deadline));
        assert!(
            !stable.value().is_empty(),
            "the trip comes after the first models"
        );
        for m in stable.value().iter().take(64) {
            assert!(lm.is_subset(m));
            assert!(is_model(&view, m, g.n_atoms) && is_assumption_free(&view, m));
        }
        let skeptical = snap.skeptical_with("judge", &opts()).expect("known object");
        assert_eq!(skeptical.reason(), Some(InterruptReason::Deadline));
        assert!(lm.is_subset(skeptical.value()));
        let credulous = snap.credulous_with("judge", &opts()).expect("known object");
        assert_eq!(credulous.reason(), Some(InterruptReason::Deadline));
        for l in credulous.value() {
            assert!(
                af_literals.contains(l),
                "credulous literal without an AF model"
            );
        }
    }
}

#[test]
fn least_model_first_model_cap_keeps_one_genuine_model() {
    // `max_models = 1` on a view with 16 stable models: the guided read
    // stops with one genuine stable model, as the general engine does.
    let mut guided = contested_kb(4, true, true);
    let mut general = contested_kb(4, false, true);
    let all: Vec<_> = general.stable("judge").expect("known object");
    assert_eq!(all.len(), 16);
    for threads in [1, 4] {
        let capped = QueryOptions::new().threads(threads).max_models(1);
        let snap_evals = [
            guided
                .snapshot()
                .stable_with("judge", &capped)
                .expect("known object"),
            general
                .snapshot()
                .stable_with("judge", &capped)
                .expect("known object"),
        ];
        let kb_evals = [
            guided.stable_with("judge", &capped).expect("known object"),
            general.stable_with("judge", &capped).expect("known object"),
        ];
        for eval in snap_evals.into_iter().chain(kb_evals) {
            assert_eq!(eval.reason(), Some(InterruptReason::ModelCap));
            assert_eq!(eval.value().len(), 1);
            assert!(all.contains(&eval.value()[0]), "a genuine stable model");
        }
    }
}

/// The random ancestor program of the cold-load benchmark (N=220,
/// E=660): its full grounding takes far longer than 20 ms.
fn ancestor_parts() -> (World, ordered_logic::core::OrderedProgram) {
    let mut w = World::new();
    let prog = olp_workload::ancestor(
        &mut w,
        olp_workload::GraphShape::Random {
            edges: 660,
            seed: 42,
        },
        220,
    );
    (w, prog)
}

/// A budgeted first write on `kb` (no incremental grounder built yet)
/// stops within its 20 ms deadline, every time, and changes nothing;
/// an unlimited write afterwards applies and equals a full refresh.
fn first_write_respects_its_budget(mut kb: ordered_logic::kb::Kb) {
    const FACT: &str = "parent(n0, n219).";
    let before = {
        let m = kb.model("main").expect("known object").clone();
        kb.render(&m)
    };
    let epoch = kb.epoch();
    let deadline = std::time::Duration::from_millis(20);
    for _ in 0..3 {
        let start = std::time::Instant::now();
        let ev = kb
            .assert_rule_with("main", FACT, &QueryOptions::new().timeout(deadline))
            .expect("no hard error");
        let took = start.elapsed();
        assert_eq!(ev.reason(), Some(InterruptReason::Deadline));
        // Deadlines are probed, not checked per step: allow a bounded
        // overshoot, far below the cost of a full grounding.
        assert!(
            took < deadline + std::time::Duration::from_millis(250),
            "budgeted first write took {took:?}"
        );
        assert_eq!(kb.epoch(), epoch, "an interrupted write must not commit");
        let m = kb.model("main").expect("still queryable").clone();
        assert_eq!(kb.render(&m), before, "answers changed");
    }
    let mut full = {
        let (w, prog) = ancestor_parts();
        KbBuilder::from_parts(w, prog)
            .build(GroundStrategy::Smart)
            .expect("ancestor grounds")
    };
    full.set_incremental(false);
    kb.assert_rule("main", FACT)
        .expect("unlimited assert applies");
    full.assert_rule("main", FACT)
        .expect("full refresh applies");
    let inc = kb.model("main").expect("known object").clone();
    let reference = full.model("main").expect("known object").clone();
    assert_eq!(kb.render(&inc), full.render(&reference));
}

#[test]
fn budgeted_first_write_on_a_loaded_kb_stops_in_budget() {
    let (w, prog) = ancestor_parts();
    let kb = KbBuilder::from_parts(w, prog)
        .build(GroundStrategy::Smart)
        .expect("ancestor grounds");
    first_write_respects_its_budget(kb);
}

#[test]
fn budgeted_first_write_on_a_recovered_kb_stops_in_budget() {
    let (mut w, prog) = ancestor_parts();
    let ground = ordered_logic::ground::ground_smart(&mut w, &prog, &GroundConfig::default())
        .expect("ancestor grounds");
    first_write_respects_its_budget(ordered_logic::kb::Kb::from_ground_parts(w, prog, ground));
}

#[test]
fn warm_incremental_spares_the_first_write_a_full_grounding() {
    // Steps one full grounding of the program charges.
    let small = || {
        let mut w = World::new();
        let prog = olp_workload::ancestor(
            &mut w,
            olp_workload::GraphShape::Random {
                edges: 120,
                seed: 3,
            },
            40,
        );
        (w, prog)
    };
    let (mut w, prog) = small();
    let meter = Budget::with_steps(u64::MAX);
    let cfg = GroundConfig {
        budget: meter.clone(),
        ..GroundConfig::default()
    };
    ordered_logic::ground::ground_smart(&mut w, &prog, &cfg).expect("grounds");
    let reground = meter.steps_used();
    let budget = QueryOptions::new().max_steps(reground / 2);
    let build = || {
        let (w, prog) = small();
        KbBuilder::from_parts(w, prog)
            .build(GroundStrategy::Smart)
            .expect("grounds")
    };
    // Cold, the first write must ground the whole program and trips.
    let mut cold = build();
    let ev = cold
        .assert_rule_with("main", "parent(n0, n39).", &budget)
        .expect("no hard error");
    assert_eq!(ev.reason(), Some(InterruptReason::Steps));
    // Warmed, it pays only its delta.
    let mut warm = build();
    warm.warm_incremental().expect("grounds");
    let ev = warm
        .assert_rule_with("main", "parent(n0, n39).", &budget)
        .expect("no hard error");
    assert!(ev.is_complete(), "warmed first write interrupted: {ev:?}");
    assert!(warm.ask("main", "parent(n0, n39)").expect("queryable"));
}
