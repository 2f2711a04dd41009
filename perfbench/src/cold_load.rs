//! `cold_load`: load a fresh KB from source text and answer its first
//! questions. Random-graph ancestor (N=220, E=660); a run cycles
//! through `GRAPHS` graphs drawn from its seed. Nothing is cached
//! between loads: each one starts from a new `World`.

use crate::gen::{ancestor_input, resolve, AncestorInput};
use crate::{Args, Checks, Outcome, Phase, SETUP_REPS};
use olp_core::Truth;
use olp_core::World;
use olp_ground::{ground_smart, DeltaGrounder, GroundConfig};
use olp_kb::{GroundStrategy, Kb, KbBuilder};
use olp_parser::parse_program;
use olp_server::json::Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 220;
const EDGES: usize = 660;
const TRUTHS: usize = 32;
/// Distinct graphs per run; loads cycle through them so one run's
/// median does not hang on a single graph's shape.
const GRAPHS: usize = 4;

pub fn run(args: &Args, checks: &mut Checks) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    let mut warm = Phase::new(false, 0.0);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = (0..GRAPHS)
            .map(|g| ancestor_input(NODES, EDGES, TRUTHS, args.seed * 1000 + g as u64))
            .collect();
        // One untimed load warms the allocator and page cache, so the
        // first measured load is not the process's first.
        load(&inputs[0], 0, &mut warm, checks)?;
        setups.push(t.elapsed());
    }
    // Check every `anc` answer of each graph once against reachability.
    for inp in &inputs {
        let mut kb = build(&inp.src)?;
        let got = kb.query("main", "anc(X, Y)").map_err(|e| e.to_string())?;
        let want = inp.graph.anc_bindings();
        checks.check(got == want, || {
            format!(
                "anc/2 model has {} answers, reachability {}",
                got.len(),
                want.len()
            )
        });
    }
    let (main_secs, traced) = if args.trace {
        (args.seconds / 2.0, true)
    } else {
        (args.seconds, false)
    };
    let mut main = Phase::new(false, main_secs);
    let mut i = 0;
    while !main.done() {
        load(&inputs[i % GRAPHS], (i % GRAPHS) as u32, &mut main, checks)?;
        i += 1;
    }
    let traced = if traced {
        let mut ph = Phase::new(true, args.seconds / 2.0);
        let mut i = 0;
        while !ph.done() {
            load(&inputs[i % GRAPHS], (i % GRAPHS) as u32, &mut ph, checks)?;
            i += 1;
        }
        for inp in &inputs {
            reference(inp, &mut ph)?;
        }
        Some(ph)
    } else {
        None
    };
    let mut layer = BTreeMap::new();
    let kb = build(&inputs[0].src)?;
    layer.insert("ground.rules", kb.ground_program().len() as f64);
    layer.insert("ground.atoms", kb.ground_program().n_atoms as f64);
    Ok(Outcome {
        setups,
        main,
        traced,
        op: "load",
        layer,
        info: vec![
            ("nodes", Json::Int(NODES as i64)),
            ("edges", Json::Int(EDGES as i64)),
            ("graphs_per_run", Json::Int(GRAPHS as i64)),
            ("truths_per_load", Json::Int(TRUTHS as i64)),
        ],
    })
}

fn build(src: &str) -> Result<Kb, String> {
    let mut world = World::new();
    let prog = parse_program(&mut world, src).map_err(|e| e.to_string())?;
    KbBuilder::from_parts(world, prog)
        .build_with(GroundStrategy::Smart, &GroundConfig::default())
        .map_err(|e| e.to_string())
}

/// One cold load of graph `g` plus its first questions, timed into
/// `ph`. In a traced phase each composite call is split into its public
/// parts.
fn load(inp: &AncestorInput, g: u32, ph: &mut Phase, checks: &mut Checks) -> Result<(), String> {
    let cfg = GroundConfig::default();
    let t = Instant::now();
    let req = ph.tr.open_req("req.load");
    let mut world = World::new();
    let prog = ph
        .tr
        .time("parser.parse", || parse_program(&mut world, &inp.src))
        .map_err(|e| e.to_string())?;
    let mut delta = None;
    let mut kb = if ph.tr.on() {
        let b = ph.tr.open("kb.build");
        let (d, gp) = ph
            .tr
            .time("ground.delta_new", || {
                DeltaGrounder::new(&mut world, &prog, &cfg)
            })
            .map_err(|e| e.to_string())?;
        delta = Some(d);
        let kb = Kb::from_ground_parts(world, prog, gp);
        ph.tr.close(b);
        kb
    } else {
        KbBuilder::from_parts(world, prog)
            .build_with(GroundStrategy::Smart, &cfg)
            .map_err(|e| e.to_string())?
    };
    black_box(ph.tr.time("analyze.lints", || kb.analyze()));
    ph.tr.time("analyze.profile", || kb.warm_profiles());
    if ph.tr.on() {
        black_box(
            ph.tr
                .time("ground.flat", || kb.flat_view("main"))
                .map_err(|e| e.to_string())?,
        );
    }
    ph.tr
        .time("kb.model", || kb.model("main").map(|_| ()))
        .map_err(|e| e.to_string())?;
    ph.tr.close(req);
    ph.record("load", g, t.elapsed());

    for (a, b, reach) in &inp.truths {
        let q = format!("anc({a}, {b})");
        let t = Instant::now();
        let req = ph.tr.open_req("req.read");
        let got = ph.tr.time("kb.truth", || kb.truth("main", &q));
        ph.tr.close(req);
        ph.record("read", 0, t.elapsed());
        let want = if *reach {
            Truth::True
        } else {
            Truth::Undefined
        };
        let got = got.map_err(|e| e.to_string())?;
        checks.check(got == want, || {
            format!("cold_load truth {q}: {got} != {want}")
        });
    }

    let (a, b, reach) = &inp.why;
    let q = format!("anc({a}, {b})");
    let t = Instant::now();
    let req = ph.tr.open_req("req.semantic");
    let text = if ph.tr.on() {
        let w = ph.tr.open("kb.why");
        let c = kb
            .program()
            .component_by_name(kb.world().syms.get("main").expect("main is interned"))
            .expect("main exists");
        let lit = resolve(kb.world(), &q).ok_or("why literal not materialised")?;
        let m = kb.model("main").map_err(|e| e.to_string())?.clone();
        let view = ph.tr.time("semantics.view", || {
            olp_semantics::View::new(kb.ground_program(), c)
        });
        let text = ph.tr.time("semantics.explain", || {
            let why = olp_semantics::explain_in(&view, &m, lit);
            olp_semantics::render_why(kb.world(), &view, &why)
        });
        drop(view);
        ph.tr.close(w);
        text
    } else {
        kb.explain("main", &q).map_err(|e| e.to_string())?
    };
    ph.tr.close(req);
    ph.record("semantic", g, t.elapsed());
    checks.check(*reach && proved(&text), || {
        format!("cold_load why {q}: {text}")
    });
    drop(delta);
    Ok(())
}

/// Reference spans, outside any request and after the traced loads:
/// the batch grounder on the same program, and the sequential flat
/// least model on the load's compiled view (at the default thread count
/// `Kb::model` may run another engine).
fn reference(inp: &AncestorInput, ph: &mut Phase) -> Result<(), String> {
    let tr = &mut ph.tr;
    let mut w = World::new();
    let p = parse_program(&mut w, &inp.src).map_err(|e| e.to_string())?;
    black_box(tr.time("ground.smart", || {
        ground_smart(&mut w, &p, &GroundConfig::default())
    }))
    .map_err(|e| e.to_string())?;
    let mut kb = build(&inp.src)?;
    let fv = kb.flat_view("main").map_err(|e| e.to_string())?;
    black_box(tr.time("semantics.lfp", || olp_semantics::least_model_flat(&fv)));
    Ok(())
}

/// Whether an explanation is a proof (not a list of failed rules).
pub fn proved(text: &str) -> bool {
    !text.is_empty() && !text.starts_with("not derivable") && text.contains(" — by ")
}
