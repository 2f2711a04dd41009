//! Parallel-regression smoke test for CI: the scaled ancestor workload
//! with grounding at 1 and 2 threads, asserting that going wide is
//! never a cliff.
//!
//! An earlier parallel least-model engine made `--threads 8` 1.6x
//! *slower* than `--threads 1` and nobody noticed until the numbers
//! were published. This binary is the tripwire for what threads drive
//! on this workload today, the parallel grounder: it runs end-to-end
//! (parallel ground + the sequential flat least model) at 1 and 2
//! threads and **fails (exit 1) if the 2-thread run exceeds 1.15x the
//! 1-thread time** — parallel grounding may win or tie, it must not
//! regress. The differential model check runs in both configurations
//! either way.
//!
//! On hosts with fewer than 2 physical cores the timing assertion is
//! reported as SKIP and the exit code stays 0 (a 1-core box cannot
//! measure parallel overhead honestly), mirroring the BENCH_parallel
//! gate convention. Set `OLP_PERF_SMOKE_FORCE=1` to assert anyway.
//!
//! A second, single-threaded case guards the **mutation path**: a
//! mutation stream replayed with a model read after every step, with
//! arenas maintained in place (`FlatView::apply_delta` + flat delta
//! revalidation) vs the pre-patching behaviour of dropping the arena
//! cache on every commit and reflattening from scratch. The patched
//! path must not be slower than clear+reflatten (small tolerance for
//! timer noise); it needs no second core, so it is asserted on every
//! host.
//!
//! A third case guards the **analysis-guided fast path** (experiment
//! B13): on the stratified taxonomy workload the semantic profile
//! proves the view single-model, so `stable` must collapse to the
//! least model and beat the general enumeration by ≥1.3x — with
//! byte-identical results. If the analyzer stops proving the workload
//! single-model, that is reported as FAIL too (lost fast-path
//! coverage is a perf regression, not a skip).
//!
//! A fourth case guards the **load path**: `KbBuilder::build_with`
//! (Smart) on the ancestor workload at 1 thread must cost at most 1.10x
//! the `ground_smart` run it wraps. A load pays for the batch grounding
//! closure only; the incremental grounder's state is built by the first
//! write. Single-threaded, so it is asserted on every host.

use olp_core::{CompId, OrderedProgram, World};
use olp_ground::{ground_smart, GroundConfig, GroundProgram};
use olp_kb::{GroundStrategy, Kb, KbBuilder};
use olp_parser::parse_program;
use olp_semantics::{least_model, View};
use olp_workload::{ancestor, mutation_stream, taxonomy_chain, GraphShape, Mutation, MutationCfg};
use std::time::{Duration, Instant};

const N: usize = 220;
const EDGES: usize = 660;
/// Allowed 2-thread (parallel grounding) overhead over the 1-thread run.
const MAX_RATIO: f64 = 1.15;
/// Base chain length for the mutation-path case.
const MUT_N_BASE: usize = 128;
/// Allowed patched-arena overhead over clear+reflatten: patching may
/// win big or tie, it must never regress the mutation path.
const MAX_MUT_RATIO: f64 = 1.10;
/// Taxonomy size for the analysis fast-path case (experiment B13).
const TAX_SPECIES: usize = 512;
const TAX_LAYERS: usize = 4;
/// Required speedup of profile-guided `stable` over the general
/// engine on the provably single-model taxonomy view (B13 gate;
/// measured ~5x, gated loosely against timer noise).
const MIN_ANALYSIS_SPEEDUP: f64 = 1.3;
/// Allowed load (`build_with`) overhead over the batch grounding it
/// runs.
const MAX_LOAD_RATIO: f64 = 1.10;

fn ancestor_parts() -> (World, OrderedProgram) {
    let mut w = World::new();
    let p = ancestor(
        &mut w,
        GraphShape::Random {
            edges: EDGES,
            seed: 42,
        },
        N,
    );
    (w, p)
}

fn build(threads: usize) -> (World, GroundProgram) {
    let (mut w, p) = ancestor_parts();
    let cfg = GroundConfig {
        threads,
        ..GroundConfig::default()
    };
    let g = ground_smart(&mut w, &p, &cfg).expect("ancestor grounds");
    (w, g)
}

fn end_to_end(threads: usize) -> (Duration, String) {
    let mut best = Duration::MAX;
    let mut model = String::new();
    for _ in 0..3 {
        let t = Instant::now();
        let (w, g) = build(threads);
        let m = least_model(&View::new(&g, CompId(0)));
        best = best.min(t.elapsed());
        model = m.render(&w);
    }
    (best, model)
}

/// Best-of-3 times of a KB load (`build_with`, Smart) and of the bare
/// `ground_smart` run on the ancestor workload at 1 thread, plus both
/// instance counts.
fn load_vs_ground() -> (Duration, Duration, usize, usize) {
    let cfg = GroundConfig {
        threads: 1,
        ..GroundConfig::default()
    };
    let (mut t_load, mut t_ground) = (Duration::MAX, Duration::MAX);
    let (mut n_load, mut n_ground) = (0, 0);
    // One untimed warm-up round, then the best of 3 timed rounds.
    for round in 0..4 {
        let (mut w, p) = ancestor_parts();
        let t = Instant::now();
        let g = ground_smart(&mut w, &p, &cfg).expect("ancestor grounds");
        if round > 0 {
            t_ground = t_ground.min(t.elapsed());
        }
        n_ground = g.len();
        // Freed before the load is timed, so both runs start from the
        // same heap.
        drop((w, g));
        let (w, p) = ancestor_parts();
        let t = Instant::now();
        let kb = KbBuilder::from_parts(w, p)
            .build_with(GroundStrategy::Smart, &cfg)
            .expect("ancestor grounds");
        if round > 0 {
            t_load = t_load.min(t.elapsed());
        }
        n_load = kb.ground_program().len();
    }
    (t_load, t_ground, n_load, n_ground)
}

/// A warm single-object KB over the mutation-stream base chain.
fn build_mut_kb() -> Kb {
    let (base, _) = mutation_stream(
        &MutationCfg {
            n_base: MUT_N_BASE,
            ..MutationCfg::default()
        },
        7,
    );
    let mut w = World::new();
    let prog = parse_program(&mut w, &base).expect("generated program parses");
    let mut kb = KbBuilder::from_parts(w, prog)
        .build_with(GroundStrategy::Smart, &GroundConfig::default())
        .expect("chain programs ground");
    kb.set_threads(1);
    kb.warm_incremental().expect("chain programs ground");
    let _ = kb.model("main").expect("main exists");
    kb
}

/// Replays the stream with a model read per step; `reflatten` drops
/// the compiled-arena cache before every mutation (the pre-patching
/// commit behaviour). Returns best-of-3 time and the final model.
fn mutation_path(reflatten: bool) -> (Duration, String) {
    let (_, muts) = mutation_stream(
        &MutationCfg {
            n_base: MUT_N_BASE,
            ..MutationCfg::default()
        },
        7,
    );
    let mut best = Duration::MAX;
    let mut model = String::new();
    for _ in 0..3 {
        let mut kb = build_mut_kb();
        let t = Instant::now();
        for m in &muts {
            if reflatten {
                kb.clear_flat_cache();
            }
            match m {
                Mutation::Assert { object, rule } => {
                    kb.assert_rule(object, rule).expect("assert grounds");
                }
                Mutation::Retract { object, rule } => {
                    kb.retract_rule(object, rule).expect("retract grounds");
                }
            }
            let _ = kb.model(m.object()).expect("object exists");
        }
        best = best.min(t.elapsed());
        let m = kb.model("main").expect("main exists").clone();
        model = kb.render(&m);
    }
    (best, model)
}

/// Best-of-3 `stable("layer0")` on the taxonomy workload, with the
/// analysis-guided fast paths on or off. Fresh KB per run so neither
/// configuration benefits from the other's caches.
fn analysis_stable(guided: bool) -> (Duration, Vec<String>) {
    let mut best = Duration::MAX;
    let mut rendered = Vec::new();
    for _ in 0..3 {
        let mut w = World::new();
        let prog = taxonomy_chain(&mut w, TAX_SPECIES, TAX_LAYERS);
        let mut kb = KbBuilder::from_parts(w, prog)
            .build_with(GroundStrategy::Smart, &GroundConfig::default())
            .expect("taxonomy grounds");
        kb.set_profile_guided(guided);
        kb.set_threads(1);
        let t = Instant::now();
        let models = kb.stable("layer0").expect("layer0 exists");
        best = best.min(t.elapsed());
        rendered = models.iter().map(|m| kb.render(m)).collect();
        rendered.sort();
    }
    (best, rendered)
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (t1, m1) = end_to_end(1);
    let (t2, m2) = end_to_end(2);
    assert_eq!(
        m1, m2,
        "least model differs between 1- and 2-thread grounding"
    );
    let ratio = t2.as_secs_f64() / t1.as_secs_f64().max(1e-9);
    println!(
        "perf-smoke ancestor N={N} E={EDGES}: ground + least model with 1-thread grounding \
         {t1:?}, 2-thread grounding {t2:?} ({ratio:.2}x), models identical"
    );

    // Mutation path: patched arenas vs clear+reflatten. Differential
    // and timing checks are both host-independent (single-threaded).
    let (t_patched, m_patched) = mutation_path(false);
    let (t_reflat, m_reflat) = mutation_path(true);
    assert_eq!(
        m_patched, m_reflat,
        "final model differs between patched and reflattened arenas"
    );
    let mut_ratio = t_patched.as_secs_f64() / t_reflat.as_secs_f64().max(1e-9);
    println!(
        "perf-smoke mutation n_base={MUT_N_BASE}: patched {t_patched:?} vs \
         clear+reflatten {t_reflat:?} ({mut_ratio:.2}x), models identical"
    );
    if mut_ratio > MAX_MUT_RATIO {
        eprintln!(
            "perf-smoke: FAIL — patched-arena revalidation took {mut_ratio:.2}x the \
             clear+reflatten time (limit {MAX_MUT_RATIO}); the mutation path has regressed"
        );
        std::process::exit(1);
    }
    println!("perf-smoke: mutation-path ratio {mut_ratio:.2} within {MAX_MUT_RATIO}");

    // Analysis fast path (B13): profile-guided stable must match the
    // general engine and beat it. Single-threaded, asserted everywhere.
    let (t_guided, m_guided) = analysis_stable(true);
    let (t_general, m_general) = analysis_stable(false);
    assert_eq!(
        m_guided, m_general,
        "guided stable set differs from the general engine"
    );
    let speedup = t_general.as_secs_f64() / t_guided.as_secs_f64().max(1e-9);
    println!(
        "perf-smoke analysis taxonomy S={TAX_SPECIES} L={TAX_LAYERS}: guided {t_guided:?} vs \
         general {t_general:?} ({speedup:.2}x), stable sets identical"
    );
    if speedup < MIN_ANALYSIS_SPEEDUP {
        eprintln!(
            "perf-smoke: FAIL — profile-guided stable is only {speedup:.2}x the general \
             engine (need ≥{MIN_ANALYSIS_SPEEDUP}x); the analysis fast path has regressed"
        );
        std::process::exit(1);
    }
    println!("perf-smoke: analysis fast-path speedup {speedup:.2}x meets ≥{MIN_ANALYSIS_SPEEDUP}x");

    // Load path: a load pays for the batch grounding closure only.
    // Single-threaded, asserted everywhere.
    let (t_load, t_ground, n_load, n_ground) = load_vs_ground();
    assert_eq!(
        n_load, n_ground,
        "a load grounds differently from ground_smart"
    );
    let load_ratio = t_load.as_secs_f64() / t_ground.as_secs_f64().max(1e-9);
    println!(
        "perf-smoke load ancestor N={N} E={EDGES}: build_with {t_load:?} vs \
         ground_smart {t_ground:?} ({load_ratio:.2}x), {n_load} instances each"
    );
    if load_ratio > MAX_LOAD_RATIO {
        eprintln!(
            "perf-smoke: FAIL — a KB load took {load_ratio:.2}x its ground_smart run \
             (limit {MAX_LOAD_RATIO}); loads pay for more than the batch grounding"
        );
        std::process::exit(1);
    }
    println!("perf-smoke: load ratio {load_ratio:.2} within {MAX_LOAD_RATIO}");

    let force = std::env::var("OLP_PERF_SMOKE_FORCE").is_ok_and(|v| v == "1");
    if host_cores < 2 && !force {
        println!(
            "perf-smoke: SKIP timing assertion — host has {host_cores} core(s); \
             2-thread grounding overhead is unmeasurable here"
        );
        return;
    }
    if ratio > MAX_RATIO {
        eprintln!(
            "perf-smoke: FAIL — 2 threads took {ratio:.2}x the 1-thread time \
             (limit {MAX_RATIO}); parallel grounding has regressed"
        );
        std::process::exit(1);
    }
    println!("perf-smoke: PASS — 2t/1t grounding ratio {ratio:.2} within {MAX_RATIO}");
}
