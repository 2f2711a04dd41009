//! Differential property tests for the parallel evaluation pipeline:
//!
//! * the batch-synchronous grounder emits a **byte-identical** ground
//!   program at every thread count (same `rules` vector, same render);
//! * the flat-arena least model (plain, definite and delta) agrees
//!   with the `v_step` oracle, and a budget trip leaves a sound prefix;
//! * the parallel assumption-free / stable enumerators agree with the
//!   sequential engines;
//! * the selectivity-driven join planner changes join *order* only —
//!   with it disabled the instance set, and hence every model, is
//!   identical;
//! * incremental mutations through a parallel delta grounder match a
//!   sequential KB mutation-for-mutation.
//!
//! No `with_cases` override here: the default (256 cases) is the
//! acceptance bar, and `PROPTEST_CASES` can scale it.

use olp_workload::{random_datalog, random_ordered, DatalogCfg, RandomCfg};
use ordered_logic::ground::GroundDelta;
use ordered_logic::prelude::*;
use ordered_logic::semantics::{
    enumerate_assumption_free, enumerate_assumption_free_parallel, flatten, least_model_delta_flat,
    least_model_flat, least_model_flat_budgeted, least_model_flat_definite, least_model_naive,
    stable_models_parallel,
};
use proptest::prelude::*;

fn datalog_cfg() -> DatalogCfg {
    DatalogCfg {
        n_consts: 5,
        n_unary: 3,
        n_binary: 2,
        n_facts: 10,
        n_rules: 8,
        neg_head_prob: 0.25,
        neg_body_prob: 0.3,
        n_components: 2,
    }
}

/// Grounds the seeded workload in a **fresh world** (interning order
/// must be reproduced by the run under test, not inherited).
fn ground_at(seed: u64, threads: usize, plan: bool) -> (World, GroundProgram) {
    let mut w = World::new();
    let p = random_datalog(&mut w, &datalog_cfg(), seed);
    let cfg = GroundConfig {
        threads,
        plan,
        ..GroundConfig::default()
    };
    let g = ground_smart(&mut w, &p, &cfg).expect("bounded workloads ground");
    (w, g)
}

/// Renders a model set for order-insensitive comparison.
fn renders(w: &World, ms: &[Interpretation]) -> Vec<String> {
    let mut v: Vec<String> = ms.iter().map(|m| m.render(w)).collect();
    v.sort();
    v
}

proptest! {
    /// The ground program is bit-identical across thread counts: the
    /// BSP closure freezes its inputs per batch and commits in item
    /// order, so neither batch composition nor interning order can
    /// depend on scheduling.
    #[test]
    fn thread_count_is_invisible_in_the_ground_program(seed in 0u64..20_000) {
        let (w1, g1) = ground_at(seed, 1, true);
        for threads in [2usize, 8] {
            let (wt, gt) = ground_at(seed, threads, true);
            prop_assert!(
                g1.rules == gt.rules,
                "rule vectors differ at {} threads (seed {})", threads, seed
            );
            prop_assert_eq!(
                g1.render(&w1), gt.render(&wt),
                "rendered programs differ at {} threads (seed {})", threads, seed
            );
        }
    }

    /// Disabling the join planner (textual join order, unfiltered
    /// candidate scans) yields the same instance set and the same
    /// least model per component.
    #[test]
    fn planner_changes_join_order_not_results(seed in 0u64..20_000) {
        let (wp, gp) = ground_at(seed, 1, true);
        let (wn, gn) = ground_at(seed, 1, false);
        let lines = |w: &World, g: &GroundProgram| {
            let mut v: Vec<String> = g.render(w).lines().map(str::to_owned).collect();
            v.sort();
            v
        };
        prop_assert_eq!(
            lines(&wp, &gp), lines(&wn, &gn),
            "planned and unplanned instance sets differ (seed {})", seed
        );
        for ci in 0..gp.order.len() {
            let c = CompId(ci as u32);
            prop_assert_eq!(
                least_model(&View::new(&gp, c)).render(&wp),
                least_model(&View::new(&gn, c)).render(&wn),
                "least models differ with planner off in component {} (seed {})", ci, seed
            );
        }
    }

    /// Parallel AF/stable enumerations agree with the sequential
    /// engines at 2 and 8 threads, per component.
    #[test]
    fn parallel_engines_agree_with_sequential(seed in 0u64..20_000) {
        let cfg = RandomCfg {
            n_atoms: 6,
            n_rules: 12,
            max_body: 3,
            neg_head_prob: 0.35,
            neg_body_prob: 0.4,
            n_components: 3,
            edge_prob: 0.5,
        };
        let mut w = World::new();
        let p = random_ordered(&mut w, &cfg, seed);
        let g = ground_smart(&mut w, &p, &GroundConfig::default()).unwrap();
        for ci in 0..p.components.len() {
            let c = CompId(ci as u32);
            let view = View::new(&g, c);
            let af_seq = renders(&w, &enumerate_assumption_free(&view, g.n_atoms));
            let st_seq = renders(&w, &stable_models(&view, g.n_atoms));
            for threads in [2usize, 8] {
                prop_assert_eq!(
                    renders(&w, &enumerate_assumption_free_parallel(&view, g.n_atoms, threads)),
                    af_seq.clone(),
                    "parallel AF set differs at {} threads (seed {})", threads, seed
                );
                prop_assert_eq!(
                    renders(&w, &stable_models_parallel(&view, g.n_atoms, threads)),
                    st_seq.clone(),
                    "parallel stable set differs at {} threads (seed {})", threads, seed
                );
            }
        }
    }

    /// A KB whose grounding, delta maintenance, and queries all run at
    /// 8 threads answers every query identically to a `--threads 1` KB
    /// across a mutation script (parallel delta grounding is
    /// bit-deterministic too).
    #[test]
    fn parallel_kb_mutations_match_sequential(seed in 0u64..5_000) {
        use ordered_logic::kb::GroundStrategy;
        let build = |threads: usize| {
            let mut w = World::new();
            let p = random_datalog(&mut w, &datalog_cfg(), seed);
            let cfg = GroundConfig { threads, ..GroundConfig::default() };
            let mut kb = ordered_logic::kb::KbBuilder::from_parts(w, p)
                .build_with(GroundStrategy::Smart, &cfg)
                .expect("bounded workloads ground");
            kb.set_threads(threads);
            kb
        };
        let mut seq = build(1);
        let mut par = build(8);
        let script: &[(&str, bool)] = &[
            ("u0(k0).", true),
            ("b0(k0, k1).", true),
            ("u1(X) :- u0(X), b0(X, Y).", true),
            ("u0(k0).", false),
            ("u2(k9).", true),
        ];
        for &(rule, is_assert) in script {
            if is_assert {
                seq.assert_rule("c0", rule).unwrap();
                par.assert_rule("c0", rule).unwrap();
            } else {
                prop_assert_eq!(
                    seq.retract_rule("c0", rule).unwrap(),
                    par.retract_rule("c0", rule).unwrap()
                );
            }
            prop_assert_eq!(
                seq.ground_program().render(seq.world()),
                par.ground_program().render(par.world()),
                "ground programs diverged after `{}` (seed {})", rule, seed
            );
            let ms = seq.model("c0").unwrap().clone();
            let mp = par.model("c0").unwrap().clone();
            prop_assert_eq!(
                seq.render(&ms), par.render(&mp),
                "least models diverged after `{}` (seed {})", rule, seed
            );
        }
    }

    /// The flat arena engines are identical to the `v_step` oracle on
    /// random *ordered* programs (overruling + defeat), per component:
    /// the plain engine on every view, the definite engine on every
    /// negation-free view (a second, negation-free program per seed
    /// guarantees some), and delta revalidation after the program's
    /// last rule is asserted.
    #[test]
    fn flat_engines_match_naive(seed in 0u64..20_000) {
        let ordered = RandomCfg {
            n_atoms: 6,
            n_rules: 12,
            max_body: 3,
            neg_head_prob: 0.35,
            neg_body_prob: 0.4,
            n_components: 3,
            edge_prob: 0.5,
        };
        let definite = RandomCfg { neg_head_prob: 0.0, neg_body_prob: 0.0, ..ordered.clone() };
        for cfg in [ordered, definite] {
            let mut w = World::new();
            let mut p = random_ordered(&mut w, &cfg, seed);
            let g = ground_smart(&mut w, &p, &GroundConfig::default()).unwrap();
            // The same program minus its last rule, grounded in the
            // same world: the delta engine revalidates its models.
            let last = p.components.iter().rposition(|c| !c.rules.is_empty());
            if let Some(ci) = last {
                p.components[ci].rules.pop();
            }
            let g_old = ground_smart(&mut w, &p, &GroundConfig::default()).unwrap();
            let touched = GroundDelta::between(&g_old, &g).touched_atoms(&g_old, &g);
            for ci in 0..p.components.len() {
                let c = CompId(ci as u32);
                let view = View::new(&g, c);
                let reference = least_model_naive(&view);
                let fv = flatten(&view);
                prop_assert_eq!(
                    least_model_flat(&fv).render(&w), reference.render(&w),
                    "flat engine differs from the oracle in component {} (seed {})", ci, seed
                );
                let negation_free = view
                    .rules()
                    .all(|(_, r)| r.head.is_pos() && r.body.iter().all(|b| b.is_pos()));
                if negation_free {
                    let ev = least_model_flat_definite(&fv, &Budget::unlimited());
                    prop_assert_eq!(
                        ev.value().render(&w), reference.render(&w),
                        "definite engine differs from the oracle in component {} (seed {})",
                        ci, seed
                    );
                }
                let old = least_model_naive(&View::new(&g_old, c));
                let ev = least_model_delta_flat(&fv, &old, &touched, &Budget::unlimited());
                prop_assert_eq!(
                    ev.value().render(&w), reference.render(&w),
                    "delta engine differs from the oracle in component {} (seed {})", ci, seed
                );
            }
        }
    }

    /// Cancellation: a step budget that trips mid-run leaves a **sound
    /// monotone prefix** — every literal in the partial result also
    /// holds in the oracle's least model — and never a crash, hang, or
    /// over-claimed literal.
    #[test]
    fn flat_cancellation_leaves_sound_prefix(seed in 0u64..5_000, max_steps in 1u64..40) {
        let cfg = RandomCfg {
            n_atoms: 6,
            n_rules: 12,
            max_body: 3,
            neg_head_prob: 0.35,
            neg_body_prob: 0.4,
            n_components: 3,
            edge_prob: 0.5,
        };
        let mut w = World::new();
        let p = random_ordered(&mut w, &cfg, seed);
        let g = ground_smart(&mut w, &p, &GroundConfig::default()).unwrap();
        for ci in 0..p.components.len() {
            let c = CompId(ci as u32);
            let view = View::new(&g, c);
            let full = least_model_naive(&view);
            let budget = Budget::limited(Some(max_steps), None);
            let ev = least_model_flat_budgeted(&flatten(&view), &budget);
            let partial = ev.value();
            for lit in partial.literals() {
                prop_assert!(
                    full.holds(lit),
                    "interrupted run over-claimed {} (seed {}, steps {})",
                    w.glit_str(lit), seed, max_steps
                );
            }
            if ev.reason().is_none() {
                prop_assert_eq!(
                    partial.render(&w), full.render(&w),
                    "uninterrupted run differs from full model (seed {})", seed
                );
            }
        }
    }
}
