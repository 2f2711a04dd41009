//! `olp` — command-line front end for ordered logic programs.
//!
//! ```text
//! olp check  FILE                          parse, lint (W01–W11/E01), ground, print stats
//!        --deny warnings                   exit 1 if any warning fires (CI gate)
//!        --format json                     emit diagnostics as a JSON array
//!        --explain                         print each component's program profile
//!                                          (stratification class, order-relevance,
//!                                          conflict counts, cardinality bounds)
//! olp models FILE [COMPONENT] [FLAGS]      print models per component
//!        --least (default) | --stable | --af | --skeptical | --all-semantics
//! olp query  FILE COMPONENT PATTERN        answer a query (ground or with variables)
//!        --explain                         print a proof / refutation for ground queries
//! olp repl FILE | olp --interactive FILE   live session over a knowledge base:
//!        assert <rule> / retract <rule>    incremental re-grounding with timing output
//!        --db DIR                          durable session: open the database at DIR
//!                                          (crash recovery included) or create it from
//!                                          FILE; every mutation is WAL-logged
//!        --durability off|commit|batched   fsync policy for --db (default commit)
//!        save [DIR] / load DIR             snapshot now / switch to another database
//! olp serve [FILE] [FLAGS]                 multi-client TCP server (see SERVER.md):
//!        --listen ADDR                     bind address (default 127.0.0.1:7171; :0 = any port)
//!        --max-conns N / --max-queries N   admission control (connections / queries in flight)
//!        --db DIR / --durability MODE      serve a durable database (crash recovery included)
//! common flags:
//!        --exhaustive                      use the reference grounder (default: smart)
//!        --threads N                       worker threads (grounding + stable search)
//!        --timeout SECS                    wall-clock limit; partial results, exit 124
//!        --max-steps N                     engine work-unit limit; same degradation
//!        --max-models N                    stop model enumeration after N models
//! ```
//!
//! When a limit is hit the command prints whatever was computed so far,
//! marks it with a `PARTIAL` banner, and exits with code **124** (the
//! `timeout(1)` convention). An unknown `--flag` is a usage error
//! (exit 2).

use ordered_logic::analyze::{analyze, Severity};
use ordered_logic::ground::{FlatView, ProgramStats};
use ordered_logic::kb::{default_threads, DurableKb, KbError, RecoveryReport};
use ordered_logic::prelude::*;
use ordered_logic::semantics::{
    credulous_consequences_budgeted, enumerate_assumption_free_decomposed_budgeted,
    enumerate_assumption_free_parallel_budgeted, explain_in, least_model_budgeted, render_why,
    skeptical_consequences_budgeted, stable_models_budgeted, stable_models_parallel_budgeted,
};
use ordered_logic::store::Db;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  olp check  FILE [--deny warnings] [--format json|text] [--explain] [--exhaustive]
             runs the order-aware lints (W01–W11, E01; see docs/ANALYSIS.md)
             and prints positioned diagnostics before the structure report
             (per-component evaluation plan + join-planner statistics);
             --explain adds each component's program profile (stratification
             class, order-relevance, conflict counts, cardinality bounds);
             errors always exit 1, warnings only under --deny warnings
  olp models FILE [COMPONENT] [--least|--stable|--af|--skeptical|--credulous|--all-semantics] [--exhaustive]
  olp query  FILE COMPONENT PATTERN [--explain] [--exhaustive]
  olp repl   [FILE] [--db DIR] [--durability off|commit|batched] [--exhaustive]
             live session: use <component> | models | stable | explain <literal> |
             stats (evaluation plan + statistics) | assert <rule> |
             retract <rule> (incremental re-grounding, timed) |
             save [DIR] | load DIR | <query> | quit    (also: olp --interactive FILE)
  olp serve  [FILE] [--listen ADDR] [--max-conns N] [--max-queries N]
             [--db DIR] [--durability MODE] [--timeout SECS]
             multi-client TCP server speaking one JSON object per line
             (commands: query | truth | why | assert | retract | save |
             stats | set | ping | shutdown — see SERVER.md); reads are
             snapshot-isolated, writes serialise through one writer,
             every response carries the epoch it was evaluated at;
             SIGTERM drains in-flight requests and fsyncs the WAL
persistence (see docs/DURABILITY.md):
  --db DIR           durable session: open the database at DIR — snapshot
                     decoded and WAL replayed, torn tails truncated — or,
                     when DIR does not exist yet, create it from FILE;
                     every committed assert/retract is logged
  --durability MODE  off (no fsync) | commit (fsync per op, default) |
                     batched (fsync every 64 ops)
evaluation:
  --threads N        worker threads for grounding and stable enumeration
                     (default: the OLP_THREADS env var, else all cores;
                     1 = sequential; results are identical at every value)
resource limits (any command):
  --timeout SECS     wall-clock limit (fractions allowed); exits 124 when hit
  --max-steps N      cap on engine work units; exits 124 when hit
  --max-models N     cap on enumerated models (models/stable/af)"
    );
    ExitCode::from(2)
}

/// Resource limits and engine choices parsed from the command line.
#[derive(Debug, Clone)]
struct Limits {
    timeout: Option<Duration>,
    max_steps: Option<u64>,
    max_models: Option<usize>,
    /// Worker threads (`--threads N`, default [`default_threads`]).
    threads: usize,
    /// `check --deny warnings`: warnings become fatal (exit 1).
    deny_warnings: bool,
    /// `check --format json`: emit diagnostics as a JSON array.
    json: bool,
    /// `repl --db DIR`: durable session backed by this database.
    db: Option<String>,
    /// `--durability MODE`: fsync policy for the database.
    durability: Durability,
    /// `serve --listen ADDR`: bind address for the server.
    listen: String,
    /// `serve --max-conns N`: concurrent-connection cap.
    max_conns: usize,
    /// `serve --max-queries N`: in-flight evaluation cap.
    max_queries: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            timeout: None,
            max_steps: None,
            max_models: None,
            threads: default_threads(),
            deny_warnings: false,
            json: false,
            db: None,
            durability: Durability::OnCommit,
            listen: "127.0.0.1:7171".to_string(),
            max_conns: 64,
            max_queries: 16,
        }
    }
}

impl Limits {
    fn set(&mut self, name: &str, val: &str) -> Result<(), String> {
        match name {
            "timeout" => {
                let secs: f64 = val
                    .parse()
                    .map_err(|_| format!("--timeout: `{val}` is not a number of seconds"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!("--timeout: `{val}` must be a non-negative number"));
                }
                self.timeout = Some(Duration::from_secs_f64(secs));
            }
            "max-steps" => {
                self.max_steps =
                    Some(val.parse().map_err(|_| {
                        format!("--max-steps: `{val}` is not a non-negative integer")
                    })?);
            }
            "max-models" => {
                self.max_models =
                    Some(val.parse().map_err(|_| {
                        format!("--max-models: `{val}` is not a non-negative integer")
                    })?);
            }
            "threads" => {
                let n: usize = val
                    .parse()
                    .map_err(|_| format!("--threads: `{val}` is not a positive integer"))?;
                if n == 0 {
                    return Err(format!("--threads: `{val}` must be at least 1"));
                }
                self.threads = n;
            }
            "deny" => match val {
                "warnings" => self.deny_warnings = true,
                _ => return Err(format!("--deny: `{val}` unsupported (only `warnings`)")),
            },
            "format" => match val {
                "text" => self.json = false,
                "json" => self.json = true,
                _ => return Err(format!("--format: `{val}` unsupported (text or json)")),
            },
            "db" => self.db = Some(val.to_string()),
            "listen" => self.listen = val.to_string(),
            "max-conns" => {
                let n: usize = val
                    .parse()
                    .map_err(|_| format!("--max-conns: `{val}` is not a positive integer"))?;
                if n == 0 {
                    return Err(format!("--max-conns: `{val}` must be at least 1"));
                }
                self.max_conns = n;
            }
            "max-queries" => {
                let n: usize = val
                    .parse()
                    .map_err(|_| format!("--max-queries: `{val}` is not a positive integer"))?;
                if n == 0 {
                    return Err(format!("--max-queries: `{val}` must be at least 1"));
                }
                self.max_queries = n;
            }
            "durability" => {
                self.durability = match val {
                    "off" => Durability::Off,
                    "commit" => Durability::OnCommit,
                    "batched" => Durability::Batched,
                    _ => {
                        return Err(format!(
                            "--durability: `{val}` unsupported (off, commit, or batched)"
                        ))
                    }
                }
            }
            _ => return Err(format!("unknown limit flag --{name}")),
        }
        Ok(())
    }

    /// A fresh budget whose deadline starts now.
    fn budget(&self) -> Budget {
        Budget::limited(self.max_steps, self.timeout.map(|t| Instant::now() + t))
    }

    /// Stable models under these limits (parallel or decomposed).
    fn stable(&self, view: &View, n_atoms: usize, budget: &Budget) -> Eval<Vec<Interpretation>> {
        if self.threads > 1 {
            stable_models_parallel_budgeted(view, n_atoms, self.threads, budget, self.max_models)
        } else {
            stable_models_budgeted(view, n_atoms, budget, self.max_models)
        }
    }

    /// Assumption-free models under these limits (parallel or
    /// decomposed).
    fn af(&self, view: &View, n_atoms: usize, budget: &Budget) -> Eval<Vec<Interpretation>> {
        if self.threads > 1 {
            enumerate_assumption_free_parallel_budgeted(
                view,
                n_atoms,
                self.threads,
                budget,
                self.max_models,
            )
        } else {
            enumerate_assumption_free_decomposed_budgeted(view, n_atoms, budget, self.max_models)
        }
    }
}

/// How a command failed: an ordinary error (exit 1) or resource
/// exhaustion before any partial result could be shown (exit 124).
enum CliFail {
    Msg(String),
    Exhausted(String),
}

impl From<String> for CliFail {
    fn from(e: String) -> Self {
        CliFail::Msg(e)
    }
}

/// `Ok(true)` means the command finished but produced partial results
/// (exit 124 after printing).
type CmdResult = Result<bool, CliFail>;

struct Loaded {
    world: World,
    prog: OrderedProgram,
    ground: GroundProgram,
}

fn load(path: &str, exhaustive: bool, budget: &Budget, threads: usize) -> Result<Loaded, CliFail> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliFail::Msg(format!("cannot read {path}: {e}")))?;
    let mut world = World::new();
    let prog = parse_program(&mut world, &src).map_err(|e| CliFail::Msg(e.to_string()))?;
    prog.order().map_err(|e| CliFail::Msg(e.to_string()))?;
    let cfg = GroundConfig {
        budget: budget.clone(),
        threads,
        ..GroundConfig::default()
    };
    let ground = if exhaustive {
        ground_exhaustive(&mut world, &prog, &cfg)
    } else {
        ground_smart(&mut world, &prog, &cfg)
    }
    .map_err(|e| match e {
        ordered_logic::ground::GroundError::Interrupted(r) => {
            CliFail::Exhausted(format!("grounding interrupted: {r}"))
        }
        other => CliFail::Msg(other.to_string()),
    })?;
    Ok(Loaded {
        world,
        prog,
        ground,
    })
}

fn find_component(l: &Loaded, name: &str) -> Result<CompId, String> {
    l.world
        .syms
        .get(name)
        .and_then(|s| l.prog.component_by_name(s))
        .ok_or_else(|| {
            let names: Vec<&str> = l
                .prog
                .components
                .iter()
                .map(|c| l.world.syms.name(c.name))
                .collect();
            format!("unknown component `{name}` (have: {})", names.join(", "))
        })
}

/// The `PARTIAL` banner printed when a limit interrupts a computation.
fn partial_banner(what: &str, reason: InterruptReason) -> String {
    format!("  PARTIAL {what} ({reason}): showing results computed so far")
}

fn cmd_check(path: &str, exhaustive: bool, explain: bool, limits: &Limits) -> CmdResult {
    // Analyze the *parsed* program first: lint findings (including E01
    // order errors) come out as positioned diagnostics before any
    // grounding work happens.
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliFail::Msg(format!("cannot read {path}: {e}")))?;
    let mut world = World::new();
    let prog = match parse_program(&mut world, &src) {
        Ok(p) => p,
        Err(e) if limits.json => {
            // Machine-readable mode promises a JSON array on stdout no
            // matter what; a parse failure becomes an E02 diagnostic
            // (escaped exactly once by the JSON renderer) instead of a
            // bare text line.
            use ordered_logic::analyze::{Code, Diagnostic};
            let d = Diagnostic::new(Code::ParseError, e.msg.clone()).at(Some(
                ordered_logic::core::Pos {
                    line: e.pos.line,
                    col: e.pos.col,
                },
            ));
            println!("{}", ordered_logic::analyze::to_json_array(&[d], path));
            return Err(CliFail::Msg(format!("{path}: 1 error found")));
        }
        Err(e) => return Err(CliFail::Msg(e.to_string())),
    };
    let diags = analyze(&world, &prog);
    if limits.json {
        println!("{}", ordered_logic::analyze::to_json_array(&diags, path));
    } else {
        for d in &diags {
            println!("{}", d.render(path));
        }
    }
    let n_errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let n_warns = diags
        .iter()
        .filter(|d| d.severity == Severity::Warn)
        .count();
    if n_errors > 0 {
        return Err(CliFail::Msg(format!(
            "{path}: {n_errors} error{} found",
            if n_errors == 1 { "" } else { "s" }
        )));
    }
    if limits.deny_warnings && n_warns > 0 {
        return Err(CliFail::Msg(format!(
            "{path}: {n_warns} warning{} denied (--deny warnings)",
            if n_warns == 1 { "" } else { "s" }
        )));
    }
    if limits.json {
        // Machine-readable mode: the diagnostics array is the whole
        // output; skip the human-oriented structure report.
        return Ok(false);
    }
    let budget = limits.budget();
    let l = load(path, exhaustive, &budget, limits.threads)?;
    println!(
        "{path}: OK — {} components, {} rules, {} ground instances, {} atoms",
        l.prog.components.len(),
        l.prog.rule_count(),
        l.ground.len(),
        l.ground.n_atoms
    );
    let order = l.prog.order().map_err(|e| CliFail::Msg(e.to_string()))?;
    for (ci, c) in l.prog.components.iter().enumerate() {
        let id = CompId(ci as u32);
        let above: Vec<&str> = order
            .upset(id)
            .filter(|&j| j != id)
            .map(|j| l.world.syms.name(l.prog.components[j.index()].name))
            .collect();
        let view = View::new(&l.ground, id);
        let stats = view.stats();
        let conflicts = view.mutual_defeats();
        println!(
            "  {} — {} rules, sees {} ground instances ({} overrule / {} defeat edges){}",
            l.world.syms.name(c.name),
            c.rules.len(),
            stats.rules,
            stats.overrule_edges,
            stats.defeat_edges,
            if above.is_empty() {
                String::new()
            } else {
                format!(", inherits from {}", above.join(" < "))
            }
        );
        for (h, r1, r2) in conflicts.iter().take(5) {
            println!(
                "    conflict: {} contested by unranked rules {} / {}",
                l.world.glit_str(*h),
                l.ground.rule_str(&l.world, view.global_index(*r1)),
                l.ground.rule_str(&l.world, view.global_index(*r2)),
            );
        }
        if conflicts.len() > 5 {
            println!("    … and {} more conflicts", conflicts.len() - 5);
        }
        // The evaluation plan this component would run under: flat
        // strata/levels and the statistics that drive the join planner.
        // `--explain`: the semantic profile the analysis pass proved
        // for this component — what the engine's fast-path selection
        // keys on (see docs/ANALYSIS.md, "Program profiles").
        if explain {
            let p = ordered_logic::analyze::component_profile(&l.prog, &order, id);
            println!("    profile: {}", p.summary());
            for bnd in &p.pred_bounds {
                let info = l.world.preds.info(bnd.pred);
                println!(
                    "      bound {}{}/{}: {} ground fact{} ({})",
                    if bnd.sign == ordered_logic::core::Sign::Pos {
                        ""
                    } else {
                        "-"
                    },
                    l.world.syms.name(info.name),
                    info.arity,
                    bnd.facts,
                    if bnd.facts == 1 { "" } else { "s" },
                    if bnd.exact {
                        "exact"
                    } else {
                        "lower bound; derived heads open"
                    },
                );
            }
        }
        let fv = FlatView::new(&l.ground, id);
        println!(
            "    plan: {} strata over {} levels",
            fv.n_strata(),
            fv.n_levels(),
        );
        let stats = ProgramStats::collect(&l.world, &l.ground, id);
        for line in stats.render(&l.world).lines() {
            println!("    {line}");
        }
    }
    Ok(false)
}

fn cmd_models(
    path: &str,
    component: Option<&str>,
    mode: &str,
    exhaustive: bool,
    limits: &Limits,
) -> CmdResult {
    let budget = limits.budget();
    let l = load(path, exhaustive, &budget, limits.threads)?;
    let comps: Vec<CompId> = match component {
        Some(name) => vec![find_component(&l, name)?],
        None => (0..l.prog.components.len() as u32).map(CompId).collect(),
    };
    let mut partial = false;
    for c in comps {
        let name = l.world.syms.name(l.prog.components[c.index()].name);
        println!("component `{name}`:");
        let view = View::new(&l.ground, c);
        let show_least = matches!(mode, "least" | "all");
        let show_stable = matches!(mode, "stable" | "all");
        let show_af = matches!(mode, "af" | "all");
        let show_sk = matches!(mode, "skeptical" | "all");
        let show_cred = matches!(mode, "credulous" | "all");
        if show_least {
            let ev = least_model_budgeted(&view, &budget);
            if let Some(reason) = ev.reason() {
                println!("{}", partial_banner("least model", reason));
                partial = true;
            }
            println!("  least model: {}", ev.value().render(&l.world));
        }
        if show_af {
            let ev = limits.af(&view, l.ground.n_atoms, &budget);
            if let Some(reason) = ev.reason() {
                println!("{}", partial_banner("enumeration", reason));
                partial = true;
            }
            for m in ev.value() {
                println!("  assumption-free: {}", m.render(&l.world));
            }
        }
        if show_stable {
            // W11: the profile proves exactly one stable model here, so
            // `--stable` pays for enumeration machinery that `--least`
            // answers outright. Advisory only — printed to stderr so
            // scripted consumers of the model lines are unaffected.
            if let Ok(order) = l.prog.order() {
                let p = ordered_logic::analyze::component_profile(&l.prog, &order, c);
                if p.single_model {
                    let d = ordered_logic::analyze::Diagnostic::new(
                        ordered_logic::analyze::Code::SingleModelStable,
                        format!(
                            "component `{name}` provably has exactly one stable model \
                             ({}); `--least` computes it without enumeration",
                            p.summary()
                        ),
                    )
                    .in_comp(c);
                    eprintln!("{}", d.render(path));
                }
            }
            let ev = limits.stable(&view, l.ground.n_atoms, &budget);
            if let Some(reason) = ev.reason() {
                println!("{}", partial_banner("enumeration", reason));
                partial = true;
            }
            for m in ev.value() {
                let total = if m.is_total(l.ground.n_atoms) {
                    " (total)"
                } else {
                    ""
                };
                println!("  stable: {}{total}", m.render(&l.world));
            }
        }
        if show_sk {
            let ev = skeptical_consequences_budgeted(&view, l.ground.n_atoms, &budget);
            if let Some(reason) = ev.reason() {
                println!("{}", partial_banner("skeptical set", reason));
                partial = true;
            }
            println!("  skeptical: {}", ev.value().render(&l.world));
        }
        if show_cred {
            let ev = credulous_consequences_budgeted(&view, l.ground.n_atoms, &budget);
            if let Some(reason) = ev.reason() {
                println!("{}", partial_banner("credulous set", reason));
                partial = true;
            }
            let lits: Vec<String> = ev
                .value()
                .iter()
                .map(|&lit| l.world.glit_str(lit))
                .collect();
            println!("  credulous: {{{}}}", lits.join(", "));
        }
    }
    Ok(partial)
}

fn cmd_query(
    path: &str,
    component: &str,
    pattern: &str,
    explain: bool,
    exhaustive: bool,
    limits: &Limits,
) -> CmdResult {
    let budget = limits.budget();
    let mut l = load(path, exhaustive, &budget, limits.threads)?;
    let c = find_component(&l, component)?;
    cmd_query_loaded(&mut l, c, pattern, explain, &budget).map_err(CliFail::Msg)
}

/// [`QueryOptions`] matching the command-line limits (fresh deadline
/// per command).
fn repl_opts(limits: &Limits) -> QueryOptions {
    let mut o = QueryOptions::new();
    if let Some(t) = limits.timeout {
        o = o.timeout(t);
    }
    if let Some(s) = limits.max_steps {
        o = o.max_steps(s);
    }
    if let Some(m) = limits.max_models {
        o = o.max_models(m);
    }
    o.threads(limits.threads)
}

/// The REPL's knowledge base: plain in-memory, or backed by an
/// `olp-store` database (`--db DIR`) in which case every committed
/// mutation is WAL-logged.
enum SessionKb {
    Plain(Kb),
    Durable(DurableKb),
}

impl SessionKb {
    /// The wrapped KB, for queries (which never need logging).
    fn kb(&mut self) -> &mut Kb {
        match self {
            SessionKb::Plain(kb) => kb,
            SessionKb::Durable(d) => d.kb_mut(),
        }
    }
}

/// Opens the database at `path`, mapping failures (missing, corrupt,
/// unreadable) to a readable `error:` line and exit 1.
fn open_db(path: &str, limits: &Limits) -> Result<(DurableKb, RecoveryReport), CliFail> {
    DurableKb::open(std::path::Path::new(path), limits.durability)
        .map_err(|e| CliFail::Msg(format!("cannot open database {path}: {e}")))
}

/// One line summarising what [`DurableKb::open`] recovered.
fn recovery_line(path: &str, d: &DurableKb, report: &RecoveryReport) -> String {
    let mut s = format!(
        "opened database {path}: seq {}, {} op{} replayed",
        d.seq(),
        report.replayed,
        if report.replayed == 1 { "" } else { "s" },
    );
    if report.wal_dropped_bytes > 0 {
        s.push_str(&format!(
            " ({} byte{} of torn WAL tail dropped)",
            report.wal_dropped_bytes,
            if report.wal_dropped_bytes == 1 {
                ""
            } else {
                "s"
            },
        ));
    }
    s
}

/// Applies one live mutation with timing and instance-count output.
/// The budget governs the (incremental) re-grounding; on interruption
/// the mutation is not applied and the KB stays queryable as before.
/// In a durable session the committed mutation is WAL-logged before
/// this returns (per the `--durability` policy).
fn repl_mutate(session: &mut SessionKb, object: &str, rule: &str, assert: bool, limits: &Limits) {
    if rule.is_empty() {
        println!(
            "usage: {} <rule>.",
            if assert { "assert" } else { "retract" }
        );
        return;
    }
    let before = session.kb().ground_program().len();
    let start = Instant::now();
    let opts = repl_opts(limits);
    let res = match (&mut *session, assert) {
        (SessionKb::Plain(kb), true) => kb
            .assert_rule_with(object, rule, &opts)
            .map(|ev| ev.map(|()| true)),
        (SessionKb::Plain(kb), false) => kb.retract_rule_with(object, rule, &opts),
        (SessionKb::Durable(d), true) => d
            .assert_rule_with(object, rule, &opts)
            .map(|ev| ev.map(|()| true)),
        (SessionKb::Durable(d), false) => d.retract_rule_with(object, rule, &opts),
    };
    let elapsed = start.elapsed();
    match res {
        Ok(ev) => {
            if let Some(reason) = ev.reason() {
                println!("{}", partial_banner("mutation", reason));
                println!("  mutation not applied; knowledge base unchanged");
                return;
            }
            if !ev.into_value() {
                println!("no rule matching `{rule}` in `{object}` (nothing retracted)");
                return;
            }
            let kb = session.kb();
            let after = kb.ground_program().len() as i64;
            let delta = after - before as i64;
            let epoch = kb.epoch();
            println!(
                "{} `{object}` in {elapsed:.2?}: {after} ground instances ({}{delta}), epoch {epoch}{}",
                if assert {
                    "asserted into"
                } else {
                    "retracted from"
                },
                if delta >= 0 { "+" } else { "" },
                match session {
                    SessionKb::Plain(_) => String::new(),
                    SessionKb::Durable(d) => format!(", logged seq {}", d.seq()),
                }
            );
        }
        Err(e) => println!("error: {e}"),
    }
}

/// Builds the REPL's in-memory KB from a program file (the
/// non-durable path, and the creation path for a fresh `--db`).
fn load_repl_kb(path: &str, exhaustive: bool, limits: &Limits) -> Result<Kb, CliFail> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliFail::Msg(format!("cannot read {path}: {e}")))?;
    let mut world = World::new();
    let prog = parse_program(&mut world, &src).map_err(|e| CliFail::Msg(e.to_string()))?;
    let cfg = GroundConfig {
        budget: limits.budget(),
        threads: limits.threads,
        ..GroundConfig::default()
    };
    let strategy = if exhaustive {
        GroundStrategy::Exhaustive
    } else {
        GroundStrategy::Smart
    };
    // The REPL holds a `Kb` so that assert/retract go through
    // incremental maintenance (delta grounding + stratum-local cache
    // revalidation) and limits apply per command, not per session.
    KbBuilder::from_parts(world, prog)
        .build_with(strategy, &cfg)
        .map_err(|e| CliFail::Msg(e.to_string()))
}

/// Builds the incremental grounder's state before the first command, so
/// that no write pays a full grounding (see [`Kb::warm_incremental`]).
fn warm_incremental(kb: &mut Kb) -> Result<(), CliFail> {
    kb.warm_incremental()
        .map_err(|e| CliFail::Msg(format!("cannot prepare incremental grounding: {e}")))
}

fn cmd_repl(path: Option<&str>, exhaustive: bool, limits: &Limits) -> CmdResult {
    use std::io::{BufRead, Write};
    let mut session = match (&limits.db, path) {
        (Some(db), _) if Db::exists(std::path::Path::new(db)) => {
            let (d, report) = open_db(db, limits)?;
            println!("{}", recovery_line(db, &d, &report));
            if let Some(p) = path {
                println!("note: database {db} already exists; {p} not re-read");
            }
            SessionKb::Durable(d)
        }
        (Some(db), Some(p)) => {
            let kb = load_repl_kb(p, exhaustive, limits)?;
            let d = DurableKb::create(std::path::Path::new(db), kb, limits.durability)
                .map_err(|e| CliFail::Msg(format!("cannot create database {db}: {e}")))?;
            println!("created database {db} from {p}");
            SessionKb::Durable(d)
        }
        (Some(db), None) => {
            return Err(CliFail::Msg(format!(
                "cannot open database {db}: no database there and no FILE to create one from"
            )))
        }
        (None, Some(p)) => SessionKb::Plain(load_repl_kb(p, exhaustive, limits)?),
        (None, None) => return Err(CliFail::Msg("repl: FILE or --db DIR required".to_string())),
    };
    session.kb().set_threads(limits.threads);
    warm_incremental(session.kb())?;
    let origin = path
        .map(str::to_string)
        .or_else(|| limits.db.clone())
        .unwrap_or_default();
    let mut current = match session.kb().objects().first() {
        Some(first) => first.to_string(),
        None => return Err(CliFail::Msg(format!("{origin}: program has no components"))),
    };
    println!(
        "loaded {origin}: {} components. Commands: use <component> | models | stable | \
         explain <literal> | stats | assert <rule> | retract <rule> | save [DIR] | load DIR | \
         <query> | quit",
        session.kb().objects().len()
    );
    let stdin = std::io::stdin();
    loop {
        print!("olp:{current}> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            return Ok(false);
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (cmd, rest) = match line.split_once(' ') {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "quit" | "exit" | ":q" => return Ok(false),
            "use" => {
                if session.kb().objects().contains(&rest) {
                    current = rest.to_string();
                } else {
                    println!(
                        "error: unknown component `{rest}` (have: {})",
                        session.kb().objects().join(", ")
                    );
                }
            }
            "models" => {
                let kb = session.kb();
                match kb.model_with(&current, &repl_opts(limits)) {
                    Ok(ev) => {
                        if let Some(reason) = ev.reason() {
                            println!("{}", partial_banner("least model", reason));
                        }
                        println!("least model: {}", kb.render(ev.value()));
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "stable" => {
                let kb = session.kb();
                match kb.stable_with(&current, &repl_opts(limits)) {
                    Ok(ev) => {
                        if let Some(reason) = ev.reason() {
                            println!("{}", partial_banner("enumeration", reason));
                        }
                        for m in ev.value() {
                            println!("stable: {}", kb.render(m));
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "explain" => match session.kb().explain(&current, rest) {
                Ok(text) => print!("{text}"),
                Err(e) => println!("error: {e}"),
            },
            "stats" => {
                // The evaluation plan for the current component (or an
                // explicit one): flat strata/levels and the statistics the join planner orders bodies by.
                let target = if rest.is_empty() { &current } else { rest };
                match session.kb().plan_report(target) {
                    Ok(text) => print!("{text}"),
                    Err(e) => println!("error: {e}"),
                }
            }
            "assert" => repl_mutate(&mut session, &current, rest, true, limits),
            "retract" => repl_mutate(&mut session, &current, rest, false, limits),
            "save" => {
                // `save` compacts the attached database; `save DIR`
                // writes a standalone snapshot-only copy at DIR.
                let res = match (&mut session, rest) {
                    (SessionKb::Durable(d), "") => d.save().map(|()| {
                        format!("snapshot written to {} (WAL reset)", d.db().dir().display())
                    }),
                    (SessionKb::Plain(_), "") => {
                        println!(
                            "error: no database attached (start with --db DIR, or `save DIR`)"
                        );
                        continue;
                    }
                    (SessionKb::Durable(d), dir) => d
                        .save_to(std::path::Path::new(dir), limits.durability)
                        .map(|()| format!("database written to {dir}")),
                    (SessionKb::Plain(kb), dir) => Db::create(
                        std::path::Path::new(dir),
                        kb.world(),
                        kb.program(),
                        kb.ground_program(),
                        limits.durability,
                    )
                    .map(|_| format!("database written to {dir}"))
                    .map_err(KbError::from),
                };
                match res {
                    Ok(msg) => println!("{msg}"),
                    Err(e) => println!("error: {e}"),
                }
            }
            "load" => {
                if rest.is_empty() {
                    println!("usage: load DIR");
                    continue;
                }
                match open_db(rest, limits) {
                    Ok((mut d, report)) => {
                        println!("{}", recovery_line(rest, &d, &report));
                        d.kb_mut().set_threads(limits.threads);
                        if let Err(CliFail::Msg(e) | CliFail::Exhausted(e)) =
                            warm_incremental(d.kb_mut())
                        {
                            println!("error: {e}");
                            continue;
                        }
                        current = match d.kb_mut().objects().first() {
                            Some(first) => first.to_string(),
                            None => {
                                println!("error: {rest}: database has no components");
                                continue;
                            }
                        };
                        session = SessionKb::Durable(d);
                    }
                    Err(CliFail::Msg(e) | CliFail::Exhausted(e)) => println!("error: {e}"),
                }
            }
            _ => {
                // Treat the whole line as a query: ground literals get a
                // verdict, patterns enumerate bindings.
                let kb = session.kb();
                match kb.truth_with(&current, line, &repl_opts(limits)) {
                    Ok(ev) => {
                        let suffix = match ev.reason() {
                            Some(reason) => {
                                println!("{}", partial_banner("least model", reason));
                                " (partial)"
                            }
                            None => "",
                        };
                        println!("{line} in `{current}`: {}{suffix}", ev.value());
                    }
                    Err(KbError::NonGroundQuery(_)) => {
                        match kb.query_with(&current, line, &repl_opts(limits)) {
                            Ok(ev) => {
                                let suffix = match ev.reason() {
                                    Some(reason) => {
                                        println!("{}", partial_banner("least model", reason));
                                        " (partial)"
                                    }
                                    None => "",
                                };
                                let bindings = ev.value();
                                for b in bindings {
                                    println!("{b}");
                                }
                                println!("({} answers){suffix}", bindings.len());
                            }
                            Err(e) => println!("error: {e}"),
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
        }
    }
}

/// `olp serve`: wraps the KB (plain from FILE, or durable from `--db`)
/// in an [`olp_server::Server`] and blocks until SIGTERM or a client's
/// `shutdown` command. Prints one `listening on ADDR` line once bound
/// so callers using `--listen 127.0.0.1:0` can learn the chosen port.
fn cmd_serve(path: Option<&str>, exhaustive: bool, limits: &Limits) -> CmdResult {
    use ordered_logic::server::{ServeKb, Server, ServerConfig};
    use std::io::Write;
    let kb = match (&limits.db, path) {
        (Some(db), _) if Db::exists(std::path::Path::new(db)) => {
            let (mut d, report) = open_db(db, limits)?;
            println!("{}", recovery_line(db, &d, &report));
            if let Some(p) = path {
                println!("note: database {db} already exists; {p} not re-read");
            }
            d.kb_mut().set_threads(limits.threads);
            warm_incremental(d.kb_mut())?;
            ServeKb::Durable(Box::new(d))
        }
        (Some(db), Some(p)) => {
            let kb = load_repl_kb(p, exhaustive, limits)?;
            let mut d = DurableKb::create(std::path::Path::new(db), kb, limits.durability)
                .map_err(|e| CliFail::Msg(format!("cannot create database {db}: {e}")))?;
            println!("created database {db} from {p}");
            warm_incremental(d.kb_mut())?;
            ServeKb::Durable(Box::new(d))
        }
        (Some(db), None) => {
            return Err(CliFail::Msg(format!(
                "cannot open database {db}: no database there and no FILE to create one from"
            )))
        }
        (None, Some(p)) => {
            let mut kb = load_repl_kb(p, exhaustive, limits)?;
            kb.set_threads(limits.threads);
            warm_incremental(&mut kb)?;
            ServeKb::Plain(Box::new(kb))
        }
        (None, None) => return Err(CliFail::Msg("serve: FILE or --db DIR required".to_string())),
    };
    let cfg = ServerConfig {
        listen: limits.listen.clone(),
        max_conns: limits.max_conns,
        max_queries: limits.max_queries,
        default_timeout: limits.timeout,
    };
    let server = Server::bind(cfg, kb)
        .map_err(|e| CliFail::Msg(format!("cannot bind {}: {e}", limits.listen)))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliFail::Msg(format!("cannot resolve bound address: {e}")))?;
    println!("listening on {addr}");
    std::io::stdout().flush().ok();
    server
        .run()
        .map_err(|e| CliFail::Msg(format!("server failed: {e}")))?;
    println!("server stopped");
    Ok(false)
}

/// Hidden subcommand driving the crash-injection harness:
/// `olp crash-worker DIR SEED N_OPS` opens (or creates) the database at
/// DIR and applies the deterministic [`olp_workload::mutation_stream`]
/// workload, one durably-logged op at a time, printing `applied K`
/// after each commit so the harness can `kill -9` it mid-stream. On
/// restart it recovers the database and resumes from the logged
/// sequence number; `done seq=N` marks completion. Every stream op
/// commits exactly one WAL record, so `seq` equals the number of
/// stream ops applied.
fn cmd_crash_worker(dir: &str, seed: u64, n_ops: usize) -> CmdResult {
    use std::io::Write;
    let fail = |stage: &str, e: &dyn std::fmt::Display| {
        CliFail::Msg(format!("crash-worker: {stage}: {e}"))
    };
    let cfg = olp_workload::MutationCfg {
        n_mutations: n_ops,
        ..olp_workload::MutationCfg::default()
    };
    let (base, ops) = olp_workload::mutation_stream(&cfg, seed);
    let dirp = std::path::Path::new(dir);
    let mut d = if Db::exists(dirp) {
        let (d, report) =
            DurableKb::open(dirp, Durability::OnCommit).map_err(|e| fail("recover", &e))?;
        println!(
            "recovered seq={} replayed={} dropped={}",
            d.seq(),
            report.replayed,
            report.wal_dropped_bytes
        );
        d
    } else {
        let mut b = KbBuilder::new();
        b.rules("main", &base)
            .map_err(|e| fail("base program", &e))?;
        let kb = b
            .build(GroundStrategy::Smart)
            .map_err(|e| fail("base program", &e))?;
        DurableKb::create(dirp, kb, Durability::OnCommit).map_err(|e| fail("create", &e))?
    };
    // Compact aggressively so kills also land inside the snapshot +
    // WAL-reset windows, not just between appends.
    d.set_compact_every(16);
    let start = d.seq() as usize;
    if start > ops.len() {
        return Err(fail(
            "resume",
            &format!(
                "database is ahead of the stream (seq {start} > {})",
                ops.len()
            ),
        ));
    }
    for (k, op) in ops.iter().enumerate().skip(start) {
        let committed = match op {
            olp_workload::Mutation::Assert { object, rule } => d
                .assert_rule(object, rule)
                .map(|()| true)
                .map_err(|e| fail(&format!("op {k} assert"), &e))?,
            olp_workload::Mutation::Retract { object, rule } => d
                .retract_rule(object, rule)
                .map_err(|e| fail(&format!("op {k} retract"), &e))?,
        };
        if !committed {
            return Err(fail(
                &format!("op {k}"),
                &"retract matched nothing; stream out of sync with database",
            ));
        }
        println!("applied {k}");
        std::io::stdout().flush().ok();
    }
    println!("done seq={}", d.seq());
    Ok(false)
}

/// Query against an already-loaded program (shared by `query` and the
/// REPL). `Ok(true)` means the model computation was interrupted: the
/// verdict is printed with a `(partial)` suffix and the command exits
/// 124.
fn cmd_query_loaded(
    l: &mut Loaded,
    c: CompId,
    pattern: &str,
    explain: bool,
    budget: &Budget,
) -> Result<bool, String> {
    let view = View::new(&l.ground, c);
    let ev = least_model_budgeted(&view, budget);
    let suffix = match ev.reason() {
        Some(reason) => {
            println!("{}", partial_banner("least model", reason));
            " (partial)"
        }
        None => "",
    };
    let m = ev.value();
    let lit =
        ordered_logic::parser::parse_literal(&mut l.world, pattern).map_err(|e| e.to_string())?;
    if lit.is_ground() {
        let q = parse_ground_literal(&mut l.world, pattern).map_err(|e| e.to_string())?;
        let verdict = if m.holds(q) {
            "true"
        } else if m.holds(q.complement()) {
            "false"
        } else {
            "undefined"
        };
        let comp_name = l
            .world
            .syms
            .name(l.prog.components[c.index()].name)
            .to_string();
        println!("{pattern} in `{comp_name}`: {verdict}{suffix}");
        if explain {
            let why = explain_in(&view, m, q);
            print!("{}", render_why(&l.world, &view, &why));
        }
    } else {
        let mut vars = Vec::new();
        lit.collect_vars(&mut vars);
        let mut hits = 0usize;
        let candidates: Vec<_> = l.world.atoms.of_pred(lit.pred).to_vec();
        for atom in candidates {
            if !m.holds(ordered_logic::core::GLit::new(lit.sign, atom)) {
                continue;
            }
            let args = l.world.atoms.get(atom).args.clone();
            let mut b = ordered_logic::core::term::Bindings::default();
            if lit
                .args
                .iter()
                .zip(args.iter())
                .all(|(p, &g)| p.match_ground(g, &l.world.terms, &mut b))
            {
                let binding: Vec<String> = vars
                    .iter()
                    .map(|v| format!("{} = {}", l.world.syms.name(*v), l.world.term_str(b[v])))
                    .collect();
                println!("{}", binding.join(", "));
                hits += 1;
            }
        }
        println!("({hits} answers){suffix}");
    }
    Ok(!suffix.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: Vec<String> = Vec::new();
    let mut pos: Vec<String> = Vec::new();
    let mut limits = Limits::default();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(body) = a.strip_prefix("--") {
            let (name, inline_val) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (body, None),
            };
            if matches!(
                name,
                "timeout"
                    | "max-steps"
                    | "max-models"
                    | "threads"
                    | "deny"
                    | "format"
                    | "db"
                    | "durability"
                    | "listen"
                    | "max-conns"
                    | "max-queries"
            ) {
                let val = match inline_val {
                    Some(v) => v,
                    None => {
                        i += 1;
                        match args.get(i) {
                            Some(v) => v.clone(),
                            None => {
                                eprintln!("error: --{name} requires a value");
                                return ExitCode::from(2);
                            }
                        }
                    }
                };
                if let Err(e) = limits.set(name, &val) {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            } else if matches!(
                name,
                "exhaustive"
                    | "explain"
                    | "least"
                    | "stable"
                    | "af"
                    | "skeptical"
                    | "credulous"
                    | "all-semantics"
                    | "interactive"
            ) {
                flags.push(format!("--{name}"));
            } else {
                eprintln!("error: unknown flag --{name}");
                return usage();
            }
        } else {
            pos.push(a.clone());
        }
        i += 1;
    }
    let flags: Vec<&str> = flags.iter().map(String::as_str).collect();
    let pos: Vec<&str> = pos.iter().map(String::as_str).collect();
    let exhaustive = flags.contains(&"--exhaustive");

    let result = match pos.as_slice() {
        ["check", file] => cmd_check(file, exhaustive, flags.contains(&"--explain"), &limits),
        ["models", file, rest @ ..] => {
            let mode = if flags.contains(&"--stable") {
                "stable"
            } else if flags.contains(&"--af") {
                "af"
            } else if flags.contains(&"--skeptical") {
                "skeptical"
            } else if flags.contains(&"--credulous") {
                "credulous"
            } else if flags.contains(&"--all-semantics") {
                "all"
            } else {
                "least"
            };
            cmd_models(file, rest.first().copied(), mode, exhaustive, &limits)
        }
        ["query", file, component, pattern] => cmd_query(
            file,
            component,
            pattern,
            flags.contains(&"--explain"),
            exhaustive,
            &limits,
        ),
        ["repl", file] => cmd_repl(Some(file), exhaustive, &limits),
        ["repl"] => cmd_repl(None, exhaustive, &limits),
        ["serve", file] => cmd_serve(Some(file), exhaustive, &limits),
        ["serve"] => cmd_serve(None, exhaustive, &limits),
        [file] if flags.contains(&"--interactive") => cmd_repl(Some(file), exhaustive, &limits),
        // Internal: driven by the crash-injection harness
        // (tests/durability.rs); deliberately absent from usage().
        ["crash-worker", dir, seed, n_ops] => {
            let seed: u64 = match seed.parse() {
                Ok(s) => s,
                Err(_) => {
                    eprintln!("error: crash-worker: SEED must be an integer");
                    return ExitCode::from(2);
                }
            };
            let n_ops: usize = match n_ops.parse() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("error: crash-worker: N_OPS must be an integer");
                    return ExitCode::from(2);
                }
            };
            cmd_crash_worker(dir, seed, n_ops)
        }
        _ => return usage(),
    };
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(124),
        Err(CliFail::Exhausted(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(124)
        }
        Err(CliFail::Msg(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
