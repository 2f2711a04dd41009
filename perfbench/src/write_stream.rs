//! `write_stream`: the server's writer sequence, in process, over
//! `mutation_stream` (n_base=192, retract_prob 0.25) with a `DurableKb`
//! at `Durability::OnCommit`. Per op: assert or retract, revalidate,
//! warm profiles, publish a snapshot (the previous one stays held),
//! then one truth read on the new snapshot. `DurableKb::save` runs
//! every `SAVE_EVERY` ops. The run
//! goes in cycles of `CYCLE` ops from a fresh store, each ending with
//! `RECOVERS` reopenings whose model must equal the live one.

use crate::gen::{chain_graph, parent_edge, Graph};
use crate::serve_mixed::served_layer;
use crate::util::{file_len, Rng, ScratchDir};
use crate::{Args, Checks, Outcome, Phase, SETUP_REPS};
use olp_core::Truth;
use olp_kb::{Durability, DurableKb, Kb, KbBuilder, KbSnapshot, QueryOptions};
use olp_server::json::Json;
use olp_store::{Db, WalOp, WalOpKind, SNAPSHOT_FILE, WAL_FILE};
use olp_workload::{mutation_stream, Mutation, MutationCfg};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const N_BASE: usize = 192;
pub const RETRACT_PROB: f64 = 0.25;
const CYCLE: usize = 200;
const SAVE_EVERY: usize = 64;
const RECOVERS: usize = 3;

pub fn stream_cfg(n_mutations: usize) -> MutationCfg {
    MutationCfg {
        n_base: N_BASE,
        n_mutations,
        retract_prob: RETRACT_PROB,
        ..MutationCfg::default()
    }
}

/// Loads the base chain program into a KB with `main`'s model warm.
pub fn load_base(base: &str) -> Result<Kb, String> {
    let mut b = KbBuilder::new();
    b.rules("main", base).map_err(|e| e.to_string())?;
    let mut kb = b
        .build_with(
            olp_kb::GroundStrategy::Smart,
            &olp_ground::GroundConfig::default(),
        )
        .map_err(|e| e.to_string())?;
    kb.warm_profiles();
    kb.model("main").map_err(|e| e.to_string())?;
    Ok(kb)
}

/// The store a cycle writes through: one `DurableKb`, or (traced) the
/// `Kb` and the `Db` it is made of, called in the order `DurableKb`
/// calls them.
pub enum Store {
    Whole(Box<DurableKb>),
    Split(Box<Kb>, Db),
}

impl Store {
    pub fn kb_mut(&mut self) -> &mut Kb {
        match self {
            Store::Whole(d) => d.kb_mut(),
            Store::Split(kb, _) => kb,
        }
    }
}

pub fn run(args: &Args, checks: &mut Checks) -> Result<Outcome, String> {
    // Traced runs split the time in three: untraced, traced in process,
    // and a traced serve phase for the server layer.
    let main_secs = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let mut main = Phase::new(false, main_secs);
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (base, _) = mutation_stream(&stream_cfg(CYCLE), args.seed);
        let tl = Instant::now();
        let kb = load_base(&base)?;
        main.record("load", 0, tl.elapsed());
        let dir = ScratchDir::new(&format!("ws-setup{rep}"));
        let d =
            DurableKb::create(dir.path(), kb, Durability::OnCommit).map_err(|e| e.to_string())?;
        drop(d);
        setups.push(t.elapsed());
    }
    let mut layer = BTreeMap::new();
    main.restart();
    let mut cycle = 0u64;
    while !main.done() {
        run_cycle(args.seed, cycle, &mut main, checks, &mut layer)?;
        cycle += 1;
    }
    let traced = if args.trace {
        let mut ph = Phase::new(true, main_secs);
        let mut cycle = 0u64;
        while !ph.done() {
            run_cycle(args.seed, cycle, &mut ph, checks, &mut layer)?;
            cycle += 1;
        }
        // The server layer: the same writer sequence served over TCP
        // to an open-loop client (see `serve_mixed`).
        let (served, server_layer) = served_layer(args.seed, main_secs, false, checks)?;
        ph.tr.absorb(served.tr);
        layer.extend(server_layer);
        Some(ph)
    } else {
        None
    };
    Ok(Outcome {
        setups,
        main,
        traced,
        op: "write",
        layer,
        info: vec![
            ("n_base", Json::Int(N_BASE as i64)),
            ("retract_prob", Json::Float(RETRACT_PROB)),
            ("ops_per_cycle", Json::Int(CYCLE as i64)),
            ("save_every", Json::Int(SAVE_EVERY as i64)),
            ("durability", Json::Str("OnCommit".into())),
        ],
    })
}

/// One cycle: a fresh store, up to `CYCLE` ops (fewer if the phase ends),
/// then recovery. The set-up of the cycle is not timed.
fn run_cycle(
    seed: u64,
    cycle: u64,
    ph: &mut Phase,
    checks: &mut Checks,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let e = |e: olp_kb::KbError| e.to_string();
    let (base, muts) = mutation_stream(&stream_cfg(CYCLE), seed.wrapping_mul(7919) + cycle);
    let dir = ScratchDir::new(&format!(
        "ws-{}-{cycle}",
        if ph.tr.on() { "t" } else { "u" }
    ));
    let t = Instant::now();
    let kb = load_base(&base)?;
    ph.record("load", 0, t.elapsed());
    let mut store = if ph.tr.on() {
        let db = Db::create(
            dir.path(),
            kb.world(),
            kb.program(),
            kb.ground_program(),
            Durability::OnCommit,
        )
        .map_err(|e| e.to_string())?;
        Store::Split(Box::new(kb), db)
    } else {
        Store::Whole(Box::new(
            DurableKb::create(dir.path(), kb, Durability::OnCommit).map_err(e)?,
        ))
    };
    let mut held: Arc<KbSnapshot> = store.kb_mut().snapshot();
    let opts = QueryOptions::new();
    let mut graph = chain_graph(N_BASE);
    let mut rng = Rng::new(seed ^ cycle.wrapping_mul(0x51));
    let wal = dir.path().join(WAL_FILE);
    for (k, m) in muts.iter().enumerate() {
        if ph.done() {
            break;
        }
        let (a, b) = parent_edge(m.rule());
        let retract = matches!(m, Mutation::Retract { .. });
        let save = (k + 1) % SAVE_EVERY == 0;
        if save {
            // The log now holds the SAVE_EVERY - 1 ops since the last save.
            layer.insert(
                "store.wal_bytes_per_op",
                file_len(&wal) as f64 / (SAVE_EVERY - 1) as f64,
            );
        }
        let t = Instant::now();
        let req = ph.tr.open_req("req.write");
        let removed = apply(&mut store, &mut ph.tr, m, &opts)?;
        if save {
            compact(&mut store, &mut ph.tr)?;
        }
        let kb = store.kb_mut();
        ph.tr
            .time("kb.revalidate", || kb.revalidate_cached_models());
        ph.tr.time("analyze.profile", || kb.warm_profiles());
        let snap = ph.tr.time("kb.snapshot", || kb.snapshot());
        ph.tr.close(req);
        let took = t.elapsed();
        ph.record("write", 0, took);
        if retract {
            ph.record("retract", 0, took);
        }
        // The previous snapshot was held until the new one was
        // published, as a server's readers hold theirs.
        held = snap;
        if save {
            layer.insert(
                "store.snapshot_bytes",
                file_len(&dir.path().join(SNAPSHOT_FILE)) as f64,
            );
        }
        if retract {
            checks.check(removed, || format!("retract {} removed nothing", m.rule()));
            graph.remove(&a, &b);
        } else {
            graph.add(&a, &b);
        }

        // First read after publish: anc(u, b) for u the edge's source
        // or a random base node.
        let u = if rng.chance(0.5) {
            a.clone()
        } else {
            format!("a{}", rng.below(N_BASE))
        };
        let q = format!("anc({u}, {b})");
        let t = Instant::now();
        let req = ph.tr.open_req("req.read");
        let got = ph
            .tr
            .time("kb.truth", || held.truth_with("main", &q, &opts));
        ph.tr.close(req);
        let reach = graph.reach(&u).contains(b.as_str());
        ph.record("read", u32::from(reach), t.elapsed());
        let got = got.map_err(e)?.into_value();
        let want = if reach { Truth::True } else { Truth::Undefined };
        checks.check(got == want, || {
            format!("after op {k}: {q} = {got}, want {want}")
        });
    }
    drop(held);
    // The live model, checked against reachability, then the store is
    // closed and reopened.
    let live = store.kb_mut().query("main", "anc(X, Y)").map_err(e)?;
    checks.check(live == graph.anc_bindings(), || {
        format!("live anc/2 has {} answers", live.len())
    });
    drop(store);
    for _ in 0..RECOVERS {
        let t = Instant::now();
        let req = ph.tr.open_req("req.recover");
        let mut kb = recover(dir.path(), &mut ph.tr)?;
        ph.tr.close(req);
        ph.record("recover", 0, t.elapsed());
        let back = kb.query("main", "anc(X, Y)").map_err(e)?;
        checks.check(back == live, || {
            format!(
                "reopened anc/2 has {} answers, live {}",
                back.len(),
                live.len()
            )
        });
    }
    Ok(())
}

/// Applies one mutation; returns whether a retract removed a rule.
pub fn apply(
    store: &mut Store,
    tr: &mut crate::trace::Tracer,
    m: &Mutation,
    opts: &QueryOptions,
) -> Result<bool, String> {
    let e = |e: olp_kb::KbError| e.to_string();
    let (obj, rule) = (m.object(), m.rule());
    let retract = matches!(m, Mutation::Retract { .. });
    match store {
        Store::Whole(d) => Ok(if retract {
            d.retract_rule_with(obj, rule, opts)
                .map_err(e)?
                .into_value()
        } else {
            d.assert_rule_with(obj, rule, opts).map_err(e)?.into_value();
            true
        }),
        Store::Split(kb, db) => {
            let removed = if retract {
                tr.time("kb.apply_retract", || kb.retract_rule_with(obj, rule, opts))
                    .map_err(e)?
                    .into_value()
            } else {
                tr.time("kb.apply_assert", || kb.assert_rule_with(obj, rule, opts))
                    .map_err(e)?
                    .into_value();
                true
            };
            if !removed {
                return Ok(false);
            }
            let kind = if retract {
                WalOpKind::Retract
            } else {
                WalOpKind::Assert
            };
            let op = WalOp {
                kind,
                object: obj.to_string(),
                rule: rule.to_string(),
            };
            tr.time("store.wal_log", || db.log(op))
                .map_err(|e| e.to_string())?;
            // `DurableKb` folds the log at this threshold; a cycle never
            // reaches it, but the split path mirrors it.
            if db.ops_since_snapshot() >= olp_kb::durable::DEFAULT_COMPACT_EVERY {
                compact(store, tr)?;
            }
            Ok(true)
        }
    }
}

/// `DurableKb::save`: a fresh snapshot, and the log reset.
pub fn compact(store: &mut Store, tr: &mut crate::trace::Tracer) -> Result<(), String> {
    match store {
        Store::Whole(d) => d.save().map_err(|e| e.to_string()),
        Store::Split(kb, db) => tr
            .time("store.compact", || {
                db.compact(kb.world(), kb.program(), kb.ground_program())
            })
            .map_err(|e| e.to_string()),
    }
}

/// `DurableKb::open`, or (traced) `Db::open` then the replay
/// `DurableKb::open` performs, through the public `Kb` mutation path.
pub fn recover(dir: &Path, tr: &mut crate::trace::Tracer) -> Result<Kb, String> {
    if !tr.on() {
        let (d, _) = DurableKb::open(dir, Durability::OnCommit).map_err(|e| e.to_string())?;
        return Ok(d.into_kb());
    }
    let opened = tr
        .time("store.open", || Db::open(dir, Durability::OnCommit))
        .map_err(|e| e.to_string())?;
    let s = tr.open("kb.replay");
    let snap = opened.snapshot;
    let mut kb = Kb::from_ground_parts(snap.world, snap.prog, snap.ground);
    for rec in &opened.replay {
        match rec.op.kind {
            WalOpKind::Assert => kb.assert_rule(&rec.op.object, &rec.op.rule).map(|()| true),
            WalOpKind::Retract => kb.retract_rule(&rec.op.object, &rec.op.rule),
        }
        .map_err(|e| e.to_string())?;
    }
    tr.close(s);
    Ok(kb)
}

/// The graph after applying `muts` to the base chain.
pub fn graph_after(muts: &[Mutation]) -> Graph {
    let mut g = chain_graph(N_BASE);
    for m in muts {
        let (a, b) = parent_edge(m.rule());
        match m {
            Mutation::Assert { .. } => g.add(&a, &b),
            Mutation::Retract { .. } => g.remove(&a, &b),
        }
    }
    g
}
