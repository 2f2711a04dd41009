//! Experiment B10 — the parallel grounding pipeline: multi-threaded
//! grounding and the selectivity-driven join planner.
//!
//! Workload: [`olp_workload::ancestor`] over a random edge relation —
//! one big recursive component whose semi-naive frontier batches are
//! wide enough to shard. Two groups:
//!
//! * `ground` — `ground_smart` at 1/2/4/8 threads (the BSP closure is
//!   bit-deterministic, so every thread count produces the identical
//!   program; only wall-clock changes);
//! * `planner` — grounding with the join planner on vs off at a single
//!   thread, isolating the literal-reordering / positional-index win
//!   from the parallelism win.
//!
//! The acceptance gates (≥2.5x grounding at 8 threads on the scaled
//! ancestor, ≥1.3x planner-alone at 1 thread) are checked by the
//! `experiments` binary; this bench is the fine-grained Criterion view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olp_core::World;
use olp_ground::{ground_smart, GroundConfig, GroundProgram};
use olp_workload::{ancestor, GraphShape};
use std::hint::black_box;
use std::time::Duration;

const ANCESTOR_NODES: usize = 120;
const ANCESTOR_EDGES: usize = 360;

fn ancestor_ground(threads: usize, plan: bool) -> (World, GroundProgram) {
    let mut world = World::new();
    let prog = ancestor(
        &mut world,
        GraphShape::Random {
            edges: ANCESTOR_EDGES,
            seed: 42,
        },
        ANCESTOR_NODES,
    );
    let cfg = GroundConfig {
        threads,
        plan,
        ..GroundConfig::default()
    };
    let g = ground_smart(&mut world, &prog, &cfg).expect("ancestor grounds");
    (world, g)
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("ground/ancestor", threads),
            &threads,
            |b, &threads| b.iter(|| black_box(ancestor_ground(threads, true))),
        );
    }

    // Planner ablation at one thread: textual join order + full scans
    // vs selectivity-greedy order + positional indexes.
    group.bench_function(BenchmarkId::new("planner/ancestor", "on"), |b| {
        b.iter(|| black_box(ancestor_ground(1, true)))
    });
    group.bench_function(BenchmarkId::new("planner/ancestor", "off"), |b| {
        b.iter(|| black_box(ancestor_ground(1, false)))
    });

    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
