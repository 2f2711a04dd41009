//! `warm_reads`: one caller reading a single warm `KbSnapshot` at a
//! fixed epoch. The contested taxonomy (`taxonomy_chain(2048, 4)` plus
//! a `judge` with 2^K stable models). Each round makes `POINT_READS`
//! point reads and then one semantic read, cycling stable, skeptical,
//! credulous and why; the semantic queries repeat exactly within the
//! epoch.

use crate::cold_load::proved;
use crate::gen::{resolve, Taxonomy};
use crate::util::Rng;
use crate::{Args, Checks, Outcome, Phase, SETUP_REPS};
use olp_core::{CompId, GLit, Interpretation, Truth, World};
use olp_ground::GroundConfig;
use olp_kb::{GroundStrategy, Kb, KbBuilder, KbSnapshot, QueryOptions};
use olp_semantics::View;
use olp_server::json::Json;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

const SPECIES: usize = 2048;
const LAYERS: usize = 4;
const CONTESTED: usize = 4;
const POINT_READS: usize = 64;

struct State {
    tax: Taxonomy,
    objects: Vec<String>,
    snap: Arc<KbSnapshot>,
    opts: QueryOptions,
    judge: CompId,
    /// `(pa, -pa, pb, -pb)` of each contested species.
    contested: Vec<[GLit; 4]>,
    /// Two uncontested species' fly verdict literals in `judge`.
    verdicts: Vec<GLit>,
}

fn load(tax: &Taxonomy) -> Result<Kb, String> {
    let mut world = World::new();
    let prog = olp_workload::taxonomy_chain(&mut world, tax.n_species, tax.n_layers);
    let mut b = KbBuilder::from_parts(world, prog);
    let e = |e: olp_kb::KbError| e.to_string();
    b.rules("evidence", &tax.evidence_src()).map_err(e)?;
    b.isa("judge", "layer0");
    b.isa("judge", "evidence");
    b.rules("judge", Taxonomy::JUDGE_SRC).map_err(e)?;
    let mut kb = b
        .build_with(GroundStrategy::Smart, &GroundConfig::default())
        .map_err(e)?;
    kb.warm_profiles();
    for o in tax.objects() {
        kb.model(&o).map_err(e)?;
    }
    Ok(kb)
}

fn setup(seed: u64, main: &mut Phase) -> Result<State, String> {
    let tax = Taxonomy::new(SPECIES, LAYERS, CONTESTED, seed);
    let t = Instant::now();
    let kb = load(&tax)?;
    main.record("load", 0, t.elapsed());
    let snap = kb.snapshot();
    let w = snap.world();
    let lit = |s: &str| resolve(w, s).ok_or(format!("{s} is not materialised"));
    let mut contested = Vec::new();
    for s in &tax.contested {
        contested.push([
            lit(&format!("pa(s{s})"))?,
            lit(&format!("-pa(s{s})"))?,
            lit(&format!("pb(s{s})"))?,
            lit(&format!("-pb(s{s})"))?,
        ]);
    }
    let mut verdicts = Vec::new();
    let mut rng = Rng::new(seed ^ 0xF1);
    while verdicts.len() < 2 {
        let s = rng.below(SPECIES);
        if tax.contested.contains(&s) {
            continue;
        }
        let sign = if tax.expected_fly("judge", s) {
            ""
        } else {
            "-"
        };
        verdicts.push(lit(&format!("{sign}fly(s{s})"))?);
    }
    let judge = kb
        .program()
        .component_by_name(w.syms.get("judge").ok_or("judge is not interned")?)
        .ok_or("judge is not an object")?;
    let opts = snap.default_opts();
    Ok(State {
        objects: tax.objects(),
        tax,
        snap,
        opts,
        judge,
        contested,
        verdicts,
    })
}

pub fn run(args: &Args, checks: &mut Checks) -> Result<Outcome, String> {
    let main_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut main = Phase::new(false, main_secs);
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let st = setup(args.seed, &mut main)?;
        // Warm-up: one of each semantic read, so lazy set-up inside the
        // snapshot is done before timing.
        let mut scratch = Phase::new(false, 0.0);
        for k in 0..4 {
            semantic(&st, &mut scratch, checks, k, &mut Rng::new(k as u64))?;
        }
        setups.push(t.elapsed());
        state = Some(st);
    }
    let st = state.expect("at least one set-up");
    main.restart();
    measure(&st, &mut main, checks, args.seed)?;
    let traced = if args.trace {
        let mut ph = Phase::new(true, args.seconds / 2.0);
        measure(&st, &mut ph, checks, args.seed)?;
        Some(ph)
    } else {
        None
    };
    let mut layer = BTreeMap::new();
    let gp = st.snap.ground_program();
    layer.insert("ground.rules", gp.len() as f64);
    layer.insert("ground.atoms", gp.n_atoms as f64);
    layer.insert("semantics.models", (1u64 << CONTESTED) as f64);
    Ok(Outcome {
        setups,
        main,
        traced,
        op: "semantic",
        layer,
        info: vec![
            ("species", Json::Int(SPECIES as i64)),
            ("layers", Json::Int(LAYERS as i64)),
            ("contested", Json::Int(CONTESTED as i64)),
            ("point_reads_per_semantic", Json::Int(POINT_READS as i64)),
        ],
    })
}

fn measure(st: &State, ph: &mut Phase, checks: &mut Checks, seed: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed ^ 0x5EED);
    let mut round = 0usize;
    while !ph.done() {
        for _ in 0..POINT_READS {
            point(st, ph, checks, &mut rng)?;
        }
        semantic(st, ph, checks, round % 4, &mut rng)?;
        round += 1;
    }
    Ok(())
}

fn point(st: &State, ph: &mut Phase, checks: &mut Checks, rng: &mut Rng) -> Result<(), String> {
    let obj = &st.objects[rng.below(st.objects.len())];
    let s = rng.below(SPECIES);
    let flies = st.tax.expected_fly(obj, s);
    let e = |e: olp_kb::KbError| e.to_string();
    let kind = rng.below(10);
    let t = Instant::now();
    let req = ph.tr.open_req("req.read");
    if kind < 6 {
        let q = format!("fly(s{s})");
        let got = ph
            .tr
            .time("kb.truth", || st.snap.truth_with(obj, &q, &st.opts));
        ph.tr.close(req);
        ph.record("read", 0, t.elapsed());
        let got = got.map_err(e)?.into_value();
        let want = if flies { Truth::True } else { Truth::False };
        checks.check(got == want, || format!("truth {obj} {q}: {got} != {want}"));
    } else if kind < 9 {
        let neg = rng.chance(0.5);
        let q = format!("{}fly(s{s})", if neg { "-" } else { "" });
        let got = ph
            .tr
            .time("kb.query", || st.snap.query_with(obj, &q, &st.opts));
        ph.tr.close(req);
        ph.record("read", 1, t.elapsed());
        let got = got.map_err(e)?.into_value();
        let holds = flies != neg;
        checks.check(got.len() == usize::from(holds), || {
            format!("query {obj} {q}: {got:?}")
        });
    } else {
        // A contested literal: undefined in judge's least model, a fact
        // in evidence.
        let c = st.tax.contested[rng.below(CONTESTED)];
        let obj = if rng.chance(0.5) { "judge" } else { "evidence" };
        let q = format!("pa(s{c})");
        let got = ph
            .tr
            .time("kb.truth", || st.snap.truth_with(obj, &q, &st.opts));
        ph.tr.close(req);
        ph.record("read", 2, t.elapsed());
        let got = got.map_err(e)?.into_value();
        let want = if obj == "judge" {
            Truth::Undefined
        } else {
            Truth::True
        };
        checks.check(got == want, || format!("truth {obj} {q}: {got} != {want}"));
    }
    Ok(())
}

/// What one semantic read returned, for the oracle.
enum Answer {
    Models(Vec<Interpretation>),
    Skeptical(Interpretation),
    Credulous(Vec<GLit>),
    Why(String),
}

fn semantic(
    st: &State,
    ph: &mut Phase,
    checks: &mut Checks,
    kind: usize,
    rng: &mut Rng,
) -> Result<(), String> {
    let e = |e: olp_kb::KbError| e.to_string();
    let snap = &st.snap;
    let gp = snap.ground_program();
    let opts = &st.opts;
    let why_obj = &st.objects[rng.below(st.objects.len())];
    let why_s = rng.below(SPECIES);
    let why_q = format!("fly(s{why_s})");
    let t = Instant::now();
    let tr = &mut ph.tr;
    let req = tr.open_req("req.semantic");
    let answer = if !tr.on() {
        match kind {
            0 => Answer::Models(snap.stable_with("judge", opts).map_err(e)?.into_value()),
            1 => Answer::Skeptical(snap.skeptical_with("judge", opts).map_err(e)?.into_value()),
            2 => Answer::Credulous(snap.credulous_with("judge", opts).map_err(e)?.into_value()),
            _ => Answer::Why(
                snap.explain_with(why_obj, &why_q, opts)
                    .map_err(e)?
                    .into_value(),
            ),
        }
    } else {
        // The same reads split into `View::new` and the engine, called
        // on the same inputs and with the same engine choice as the
        // snapshot makes at its default options.
        let budget = opts.budget();
        match kind {
            0 => {
                let s = tr.open("kb.stable");
                let view = tr.time("semantics.view", || View::new(gp, st.judge));
                let ms = tr.time("semantics.search", || {
                    if opts.threads > 1 {
                        olp_semantics::stable_models_parallel_budgeted(
                            &view,
                            gp.n_atoms,
                            opts.threads,
                            &budget,
                            opts.max_models,
                        )
                    } else {
                        olp_semantics::stable_models_decomposed_budgeted(
                            &view,
                            gp.n_atoms,
                            &budget,
                            opts.max_models,
                        )
                    }
                });
                drop(view);
                tr.close(s);
                Answer::Models(ms.into_value())
            }
            1 => {
                let s = tr.open("kb.skeptical");
                let view = tr.time("semantics.view", || View::new(gp, st.judge));
                let m = tr.time("semantics.search", || {
                    olp_semantics::skeptical_consequences_budgeted(&view, gp.n_atoms, &budget)
                });
                drop(view);
                tr.close(s);
                Answer::Skeptical(m.into_value())
            }
            2 => {
                let s = tr.open("kb.credulous");
                let view = tr.time("semantics.view", || View::new(gp, st.judge));
                let m = tr.time("semantics.search", || {
                    olp_semantics::credulous_consequences_budgeted(&view, gp.n_atoms, &budget)
                });
                drop(view);
                tr.close(s);
                Answer::Credulous(m.into_value())
            }
            _ => {
                let s = tr.open("kb.why");
                let w = snap.world();
                let c = snap_comp(snap, why_obj)?;
                let lit = resolve(w, &why_q);
                let m = snap.model_with(why_obj, opts).map_err(e)?.into_value();
                let text = match lit {
                    None => String::new(),
                    Some(lit) => {
                        let view = tr.time("semantics.view", || View::new(gp, c));
                        let text = tr.time("semantics.explain", || {
                            let why = olp_semantics::explain_in(&view, &m, lit);
                            olp_semantics::render_why(w, &view, &why)
                        });
                        drop(view);
                        text
                    }
                };
                tr.close(s);
                Answer::Why(text)
            }
        }
    };
    tr.close(req);
    ph.record("semantic", kind as u32, t.elapsed());
    check_semantic(st, checks, answer, why_obj, why_s);
    Ok(())
}

/// The component of `object` in the snapshot's program.
fn snap_comp(snap: &KbSnapshot, object: &str) -> Result<CompId, String> {
    let sym = snap
        .world()
        .syms
        .get(object)
        .ok_or(format!("{object} is not interned"))?;
    // Objects are registered in order, so the snapshot's object list
    // gives the component index.
    snap.objects()
        .iter()
        .position(|o| snap.world().syms.get(o) == Some(sym))
        .map(|i| CompId(i as u32))
        .ok_or(format!("{object} is not an object"))
}

fn check_semantic(st: &State, checks: &mut Checks, answer: Answer, why_obj: &str, why_s: usize) {
    match answer {
        Answer::Models(ms) => {
            // Exactly 2^K models; in each, every contested species takes
            // one side ({pa, -pb} or {pb, -pa}); all sides differ; the
            // uncontested verdicts hold everywhere.
            let mut sides = HashSet::new();
            let mut ok = ms.len() == 1 << CONTESTED;
            for m in &ms {
                let mut key = 0u32;
                for (i, [pa, npa, pb, npb]) in st.contested.iter().enumerate() {
                    let a = m.holds(*pa) && m.holds(*npb) && !m.holds(*pb) && !m.holds(*npa);
                    let b = m.holds(*pb) && m.holds(*npa) && !m.holds(*pa) && !m.holds(*npb);
                    ok &= a != b;
                    if a {
                        key |= 1 << i;
                    }
                }
                ok &= st.verdicts.iter().all(|v| m.holds(*v));
                sides.insert(key);
            }
            ok &= sides.len() == ms.len();
            checks.check(ok, || format!("stable(judge): {} models", ms.len()));
        }
        Answer::Skeptical(m) => {
            let ok = st.contested.iter().flatten().all(|l| !m.holds(*l))
                && st.verdicts.iter().all(|v| m.holds(*v));
            checks.check(ok, || "skeptical(judge) membership".into());
        }
        Answer::Credulous(lits) => {
            let set: HashSet<GLit> = lits.into_iter().collect();
            let ok = st.contested.iter().flatten().all(|l| set.contains(l))
                && st
                    .verdicts
                    .iter()
                    .all(|v| set.contains(v) && !set.contains(&v.complement()));
            checks.check(ok, || "credulous(judge) membership".into());
        }
        Answer::Why(text) => {
            let want = st.tax.expected_fly(why_obj, why_s);
            checks.check(proved(&text) == want, || {
                format!("why {why_obj} fly(s{why_s}): {text}")
            });
        }
    }
}
