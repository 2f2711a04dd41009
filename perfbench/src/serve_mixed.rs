//! `serve_mixed`: `olp serve` in process (`Server::bind` on
//! `127.0.0.1:0`, durable at OnCommit, `max_conns` = 2) over the
//! n_base=192 chain, driven by the open-loop generator at a fixed rate
//! over 2 connections: a writer client and a reader client. Every
//! `WRITE_EVERY`-th request is a write, replaying the `write_stream`
//! mutation sequence in order on the writer connection; the others are
//! truth and pattern queries on the base chain, on the reader
//! connection.

use crate::openloop::{self, Req};
use crate::trace::Tracer;
use crate::util::{Rng, Samples, ScratchDir};
use crate::write_stream::{apply, graph_after, load_base, recover, stream_cfg, Store, N_BASE};
use crate::{Args, Checks, Outcome, Phase, SETUP_REPS, WINDOWS};
use olp_kb::{Durability, DurableKb, QueryOptions};
use olp_server::json::Json;
use olp_server::{ServeKb, Server, ServerConfig};
use olp_store::Db;
use olp_workload::{mutation_stream, Mutation};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered load, requests per second over both connections.
pub const RATE: f64 = 100.0;
const CONNS: usize = 2;
/// One request in this many is a write (20%).
const WRITE_EVERY: usize = 5;
const WRITER: usize = 0;
const READER: usize = 1;
/// Of the reads: pattern queries; the rest are truths.
const QUERY_SHARE: f64 = 0.35;
/// The log is never folded during a phase, so a reopening replays every
/// write of the phase; once is enough.
const RECOVERS: usize = 1;
/// A run whose generator sent more than this share of requests late
/// (see `openloop::LATE_LIMIT`) is invalid: its latencies would describe
/// the generator, not the server.
const MAX_LATE_SHARE: f64 = 0.01;

struct Running {
    handle: JoinHandle<std::io::Result<()>>,
    streams: Vec<TcpStream>,
    dir: ScratchDir,
    base: String,
    muts: Vec<Mutation>,
}

fn send(stream: &mut TcpStream, line: &str) -> Result<Json, String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut resp = String::new();
    BufReader::new(&*stream)
        .read_line(&mut resp)
        .map_err(|e| e.to_string())?;
    Json::parse(resp.trim_end()).map_err(|e| format!("bad reply {resp:?}: {e}"))
}

fn start(seed: u64, tag: &str, n_muts: usize, s: &mut Samples) -> Result<Running, String> {
    let (base, muts) = mutation_stream(&stream_cfg(n_muts), seed);
    let t = Instant::now();
    let kb = load_base(&base)?;
    s.push_since("load", t);
    let dir = ScratchDir::new(tag);
    let d = DurableKb::create(dir.path(), kb, Durability::OnCommit).map_err(|e| e.to_string())?;
    let cfg = ServerConfig {
        listen: "127.0.0.1:0".into(),
        max_conns: CONNS,
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg, ServeKb::Durable(Box::new(d))).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = std::thread::spawn(move || server.run());
    let mut streams = Vec::new();
    for _ in 0..CONNS {
        let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let pong = send(&mut s, r#"{"cmd":"ping"}"#)?;
        if pong.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("ping refused: {}", pong.render()));
        }
        streams.push(s);
    }
    Ok(Running {
        handle,
        streams,
        dir,
        base,
        muts,
    })
}

/// Shuts the server down and waits for it; returns the store directory.
fn stop(mut r: Running) -> Result<ScratchDir, String> {
    send(&mut r.streams[0], r#"{"cmd":"shutdown"}"#)?;
    drop(r.streams);
    r.handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    Ok(r.dir)
}

#[derive(Clone)]
enum Expect {
    Truth(String),
    Answers(Vec<String>),
    Write { retract: bool },
}

struct Sent {
    expect: Expect,
    kind: &'static str,
    /// Index into the mutation stream for writes.
    mutation: Option<usize>,
    /// The query text, for the in-process replay.
    query: String,
}

/// Builds the schedule's `i`-th request.
struct Schedule<'a> {
    rng: Rng,
    muts: &'a [Mutation],
    next_mut: usize,
    sent: Vec<Sent>,
}

impl Schedule<'_> {
    fn next(&mut self, i: usize) -> Req {
        let tag = self.sent.len();
        if i % WRITE_EVERY == WRITE_EVERY - 1 && self.next_mut < self.muts.len() {
            let m = &self.muts[self.next_mut];
            let retract = matches!(m, Mutation::Retract { .. });
            let cmd = if retract { "retract" } else { "assert" };
            let line = format!(
                r#"{{"cmd":"{cmd}","object":"{}","rule":"{}"}}"#,
                m.object(),
                m.rule()
            );
            self.sent.push(Sent {
                expect: Expect::Write { retract },
                kind: "write",
                mutation: Some(self.next_mut),
                query: String::new(),
            });
            self.next_mut += 1;
            return Req {
                conn: WRITER,
                line,
                tag,
            };
        }
        let (cmd, field, query, expect) = if self.rng.chance(QUERY_SHARE) {
            let j = 1 + self.rng.below(12);
            let mut want: Vec<String> = (0..j).map(|x| format!("X=a{x}")).collect();
            want.sort();
            let q = format!("anc(X, a{j})");
            ("query", "pattern", q, Expect::Answers(want))
        } else {
            let (x, y) = (self.rng.below(N_BASE), self.rng.below(N_BASE));
            let want = if x < y { "true" } else { "undefined" };
            let q = format!("anc(a{x}, a{y})");
            ("truth", "query", q, Expect::Truth(want.into()))
        };
        let line = format!(r#"{{"cmd":"{cmd}","object":"main","{field}":"{query}"}}"#);
        self.sent.push(Sent {
            expect,
            kind: "read",
            mutation: None,
            query,
        });
        Req {
            conn: READER,
            line,
            tag,
        }
    }
}

/// What one serve phase measured.
struct Served {
    sent: Vec<Sent>,
    /// `(tag, due)` per reply, in arrival order.
    times: Vec<(usize, Instant)>,
    applied: usize,
    ops: f64,
    busy: f64,
    late_p99_us: f64,
    late_max_us: f64,
    late_share: f64,
}

fn serve(
    r: &mut Running,
    seconds: f64,
    seed: u64,
    ph: &mut Phase,
    checks: &mut Checks,
) -> Result<Served, String> {
    let n = (RATE * seconds) as usize;
    let mut sched = Schedule {
        rng: Rng::new(seed ^ 0x5E7E),
        muts: &r.muts,
        next_mut: 0,
        sent: Vec::new(),
    };
    let streams = std::mem::take(&mut r.streams);
    let (report, streams) =
        openloop::run(streams, RATE, n, |i| sched.next(i), Duration::from_secs(30))
            .map_err(|e| e.to_string())?;
    r.streams = streams;
    checks.check(report.unanswered == 0, || {
        format!("{} requests got no reply", report.unanswered)
    });
    let sent = sched.sent;
    let applied = sched.next_mut;
    let mut last_epoch = [0u64; CONNS];
    let mut times = Vec::new();
    let first_due = report.done.iter().map(|d| d.due).min();
    for d in &report.done {
        let s = &sent[d.tag];
        let lat = d.recv.duration_since(d.due);
        let since = first_due.map_or(0.0, |t0| d.due.duration_since(t0).as_secs_f64());
        // Windows of the phase, as `Phase::record` takes them.
        let window = ((since / seconds * f64::from(WINDOWS)) as u32).min(WINDOWS - 1);
        ph.s.push_at(s.kind, 0, window, lat);
        if let Expect::Write { retract: true } = s.expect {
            ph.s.push_at("retract", 0, window, lat);
        }
        ph.tr
            .record_req("req.serve", d.due, "server.request", d.sent, d.recv);
        times.push((d.tag, d.due));
        let resp = match Json::parse(&d.resp) {
            Ok(j) => j,
            Err(e) => {
                checks.check(false, || format!("bad reply {:?}: {e}", d.resp));
                continue;
            }
        };
        let epoch = resp.get("epoch").and_then(Json::as_u64);
        checks.check(epoch.is_some_and(|e| e >= last_epoch[d.conn]), || {
            format!("epoch went backwards on connection {}: {}", d.conn, d.resp)
        });
        last_epoch[d.conn] = last_epoch[d.conn].max(epoch.unwrap_or(0));
        let ok = resp.get("ok").and_then(Json::as_bool) == Some(true)
            && match &s.expect {
                Expect::Truth(want) => resp.get("truth").and_then(Json::as_str) == Some(want),
                Expect::Answers(want) => match resp.get("answers") {
                    Some(Json::Arr(a)) => a
                        .iter()
                        .filter_map(Json::as_str)
                        .eq(want.iter().map(String::as_str)),
                    _ => false,
                },
                Expect::Write { retract } => {
                    !retract || resp.get("removed").and_then(Json::as_bool) == Some(true)
                }
            };
        checks.check(ok, || format!("{} -> {}", s.query, d.resp));
    }
    let stats = send(&mut r.streams[0], r#"{"cmd":"stats"}"#)?;
    let num = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    Ok(Served {
        sent,
        times,
        applied,
        ops: num("queries") + num("writes"),
        busy: num("busy"),
        late_p99_us: report.late_p99_us,
        late_max_us: report.late_max_us,
        late_share: report.late_share,
    })
}

/// Reopens the store `RECOVERS` times; each model must equal the base
/// chain plus the applied writes.
fn reopen(
    dir: &ScratchDir,
    muts: &[Mutation],
    ph: &mut Phase,
    checks: &mut Checks,
) -> Result<(), String> {
    let want = graph_after(muts).anc_bindings();
    for _ in 0..RECOVERS {
        let t = Instant::now();
        let req = ph.tr.open_req("req.recover");
        let mut kb = recover(dir.path(), &mut ph.tr)?;
        ph.tr.close(req);
        ph.s.push_since("recover", t);
        let got = kb.query("main", "anc(X, Y)").map_err(|e| e.to_string())?;
        checks.check(got == want, || {
            format!(
                "reopened anc/2 has {} answers, want {}",
                got.len(),
                want.len()
            )
        });
    }
    Ok(())
}

pub fn run(args: &Args, checks: &mut Checks) -> Result<Outcome, String> {
    let phase_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Enough mutations that writes never run out during a phase.
    let n_muts = (RATE * phase_secs) as usize / WRITE_EVERY + 64;
    let mut main = Phase::new(false, phase_secs);
    let mut setups = Vec::new();
    let mut running = None;
    for rep in 0..SETUP_REPS {
        if let Some(r) = running.take() {
            stop(r)?;
        }
        let t = Instant::now();
        running = Some(start(
            args.seed,
            &format!("sm-setup{rep}"),
            n_muts,
            &mut main.s,
        )?);
        setups.push(t.elapsed());
    }
    let mut r = running.expect("at least one set-up");
    let served = serve(&mut r, phase_secs, args.seed, &mut main, checks)?;
    if served.late_share > MAX_LATE_SHARE {
        return Err(format!(
            "invalid run: the generator sent {:.2}% of requests more than {:?} late (p99 {:.0} us)",
            100.0 * served.late_share,
            openloop::LATE_LIMIT,
            served.late_p99_us
        ));
    }
    let muts = r.muts.clone();
    let dir = stop(r)?;
    reopen(&dir, &muts[..served.applied], &mut main, checks)?;
    drop(dir);
    let info = vec![
        ("n_base", Json::Int(N_BASE as i64)),
        ("rate_per_s", Json::Float(RATE)),
        ("conns", Json::Int(CONNS as i64)),
        ("write_every", Json::Int(WRITE_EVERY as i64)),
        ("durability", Json::Str("OnCommit".into())),
        ("loop", Json::Str("open".into())),
        ("gen_late_p99_us", Json::Float(served.late_p99_us)),
        ("gen_late_max_us", Json::Float(served.late_max_us)),
        ("gen_late_share", Json::Float(served.late_share)),
    ];
    let (traced, layer) = if args.trace {
        let (ph, layer) = served_layer(args.seed, phase_secs, true, checks)?;
        (Some(ph), layer)
    } else {
        (None, BTreeMap::new())
    };
    Ok(Outcome {
        setups,
        main,
        traced,
        op: "write",
        layer,
        info,
    })
}

/// A traced serve phase on a fresh server, for the server layer's
/// metrics: request spans, `stats` counters, and the waits — served p50
/// minus the in-process service p50 of the same requests, replayed in
/// order after the phase. With `replay_spans` the replay's layer spans
/// join the phase's; otherwise only its times are kept. A generator that
/// fell behind does not fail the phase here: its lateness is reported.
pub fn served_layer(
    seed: u64,
    seconds: f64,
    replay_spans: bool,
    checks: &mut Checks,
) -> Result<(Phase, BTreeMap<&'static str, f64>), String> {
    let mut ph = Phase::new(true, seconds);
    let n_muts = (RATE * seconds) as usize / WRITE_EVERY + 64;
    let mut r = start(seed, "sm-layer", n_muts, &mut Samples::default())?;
    let served = serve(&mut r, seconds, seed, &mut ph, checks)?;
    let muts = r.muts.clone();
    let base = r.base.clone();
    let dir = stop(r)?;
    reopen(&dir, &muts[..served.applied], &mut ph, checks)?;
    drop(dir);
    let mut off = Tracer::new(false);
    let tr = if replay_spans { &mut ph.tr } else { &mut off };
    let service = replay(&base, &muts, &served, tr, checks)?;
    let wait = |kind: &str| ph.s.q(kind, 0.5) - service.q(kind, 0.5);
    let mut layer = BTreeMap::new();
    layer.insert("server.write_wait_ms", wait("write") * 1e-6);
    layer.insert("server.read_wait_us", wait("read") * 1e-3);
    layer.insert("server.ops", served.ops);
    layer.insert("server.busy", served.busy);
    layer.insert("server.gen_late_pct", 100.0 * served.late_share);
    Ok((ph, layer))
}

/// Replays a served phase's requests in process, in the order they were
/// due, on a fresh `Kb` + `Db` from the same base: writes through the
/// split write path, reads on the snapshot current at that point.
/// Returns the in-process service times.
fn replay(
    base: &str,
    muts: &[Mutation],
    served: &Served,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<Samples, String> {
    let mut service = Samples::default();
    let dir = ScratchDir::new("sm-replay");
    let kb = load_base(base)?;
    let db = Db::create(
        dir.path(),
        kb.world(),
        kb.program(),
        kb.ground_program(),
        Durability::OnCommit,
    )
    .map_err(|e| e.to_string())?;
    let mut store = Store::Split(Box::new(kb), db);
    let mut snap = store.kb_mut().snapshot();
    let opts = QueryOptions::new();
    let mut order = served.times.clone();
    order.sort_by_key(|&(_, due)| due);
    for (tag, _) in order {
        let s = &served.sent[tag];
        let t = Instant::now();
        if let Some(mi) = s.mutation {
            let m = &muts[mi];
            let req = tr.open_req("req.write");
            let removed = apply(&mut store, tr, m, &opts)?;
            let kb = store.kb_mut();
            tr.time("kb.revalidate", || kb.revalidate_cached_models());
            tr.time("analyze.profile", || kb.warm_profiles());
            snap = tr.time("kb.snapshot", || kb.snapshot());
            tr.close(req);
            service.push_since("write", t);
            let retract = matches!(m, Mutation::Retract { .. });
            checks.check(!retract || removed, || {
                format!("replayed retract {} removed nothing", m.rule())
            });
            continue;
        }
        let e = |e: olp_kb::KbError| e.to_string();
        let req = tr.open_req("req.read");
        match &s.expect {
            Expect::Answers(want) => {
                let got = tr
                    .time("kb.query", || snap.query_with("main", &s.query, &opts))
                    .map_err(e)?
                    .into_value();
                tr.close(req);
                service.push_since("read", t);
                checks.check(*want == got, || {
                    format!("replayed query {}: {got:?}", s.query)
                });
            }
            want => {
                let got = tr
                    .time("kb.truth", || snap.truth_with("main", &s.query, &opts))
                    .map_err(e)?
                    .into_value();
                tr.close(req);
                service.push_since("read", t);
                checks.check(
                    matches!(want, Expect::Truth(w) if *w == got.to_string()),
                    || format!("replayed truth {}: {got}", s.query),
                );
            }
        }
    }
    Ok(service)
}
