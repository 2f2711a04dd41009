//! The knowledge base: objects, isa-inheritance, queries.
//!
//! This is the paper's §1/§5 pitch made concrete: modules are
//! **objects**; the `<` order is an **isa** hierarchy providing rule
//! inheritance; local rules *overrule* inherited ones (defaults and
//! exceptions); a more specific object can be read as a new **version**
//! of a more general one. [`KbBuilder`] assembles objects, rules and
//! extensional relations; [`Kb`] grounds once and answers truth queries
//! per object against cached least models, with stable-model queries
//! for the choice-style programs.

use crate::relation::Relation;
use olp_analyze::{analyze, ComponentProfile, Diagnostic, Severity, StratClass};
use olp_core::{
    Budget, CompId, Eval, FxHashMap, FxHashSet, Interpretation, Interrupted, Literal, Rule, Term,
    Truth, World,
};
use olp_ground::{
    ground_exhaustive, ground_smart, DeltaGrounder, DeltaRuleId, FlatPatch, FlatView, GroundConfig,
    GroundDelta, GroundError, GroundProgram, GroundRule, ProgramStats,
};
use olp_parser::{parse_ground_literal, parse_program, parse_rule, ParseError};
use olp_semantics::{
    least_model_delta_flat, least_model_first, least_model_flat_budgeted,
    least_model_flat_definite, stable_models_decomposed_cached, stable_models_parallel_budgeted,
    GroupMemo, LeastFirst, View,
};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads to use when none are configured explicitly: the
/// `OLP_THREADS` environment variable when set to a positive integer,
/// else the machine's available parallelism. Every engine produces the
/// same answers at any thread count (see `olp_semantics` /
/// `olp_ground`); this only picks how wide evaluation runs by default.
pub fn default_threads() -> usize {
    std::env::var("OLP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Per-object cap on memoised stable-model group entries; exceeding it
/// clears that object's cache (simple, bounded, and mutation-friendly:
/// keys are group rule sets, so entries for unchanged groups re-fill on
/// the next query).
const STABLE_CACHE_CAP: usize = 256;

/// Which grounder [`KbBuilder::build`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroundStrategy {
    /// Join-based, relevance-restricted (default; right for KB-scale
    /// data).
    #[default]
    Smart,
    /// Full instantiation (reference; small programs).
    Exhaustive,
}

/// Errors from building or querying a knowledge base.
#[derive(Debug)]
pub enum KbError {
    /// Rule or query text failed to parse.
    Parse(ParseError),
    /// Grounding failed (resource bound or invalid order).
    Ground(GroundError),
    /// An object name was used before being declared.
    UnknownObject(String),
    /// The query literal was not ground.
    NonGroundQuery(String),
    /// Static analysis rejected the program or mutation (the
    /// [`QueryOptions::deny_warnings`] knob, or
    /// [`KbBuilder::build_checked`]). Carries the offending findings;
    /// for mutations, only findings *introduced* by the mutation.
    Rejected(Vec<Diagnostic>),
    /// Durable storage failed (opening, logging, or compacting a
    /// database; see [`crate::DurableKb`]). The underlying
    /// [`olp_store::StoreError`] is available via
    /// [`std::error::Error::source`].
    Store(olp_store::StoreError),
}

impl fmt::Display for KbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbError::Parse(e) => write!(f, "{e}"),
            KbError::Ground(e) => write!(f, "{e}"),
            KbError::UnknownObject(n) => write!(f, "unknown object `{n}`"),
            KbError::NonGroundQuery(q) => write!(f, "query `{q}` is not ground"),
            KbError::Rejected(diags) => {
                write!(
                    f,
                    "rejected by static analysis ({} finding{}):",
                    diags.len(),
                    if diags.len() == 1 { "" } else { "s" }
                )?;
                for d in diags {
                    write!(f, " [{}] {};", d.code, d.message)?;
                }
                Ok(())
            }
            KbError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for KbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KbError::Parse(e) => Some(e),
            KbError::Ground(e) => Some(e),
            KbError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<olp_store::StoreError> for KbError {
    fn from(e: olp_store::StoreError) -> Self {
        KbError::Store(e)
    }
}

impl From<ParseError> for KbError {
    fn from(e: ParseError) -> Self {
        KbError::Parse(e)
    }
}

impl From<GroundError> for KbError {
    fn from(e: GroundError) -> Self {
        KbError::Ground(e)
    }
}

/// Resource limits for a single query. The default is unlimited.
///
/// Budgeted query methods (`model_with`, `truth_with`, `query_with`,
/// `skeptical_with`, `stable_with`) return an [`Eval`]: `Complete` when
/// the computation finished within the limits, `Interrupted` with an
/// *anytime* partial result otherwise (see each method for what the
/// partial result guarantees).
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Absolute wall-clock deadline for the call.
    pub deadline: Option<Instant>,
    /// Cap on engine work units (rule firings / search nodes / ticks).
    pub max_steps: Option<u64>,
    /// Cap on the number of stable models enumerated (stable/skeptical
    /// queries only).
    pub max_models: Option<usize>,
    /// Worker threads for stable-model search. Threads drive grounding
    /// (through [`GroundConfig::threads`]) and stable search only; the
    /// least model is always sequential. Defaults to
    /// [`default_threads`]; `1` takes the sequential code paths
    /// exactly. Results are identical at every value.
    pub threads: usize,
    /// Reject mutations that *introduce* new static-analysis findings
    /// ([`Kb::assert_rule_with`] / [`Kb::retract_rule_with`] return
    /// [`KbError::Rejected`] and leave the KB unchanged). Off by
    /// default: the lint pass only runs when this is set.
    pub deny_warnings: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            deadline: None,
            max_steps: None,
            max_models: None,
            threads: default_threads(),
            deny_warnings: false,
        }
    }
}

impl QueryOptions {
    /// Unlimited options (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the deadline to `timeout` from now.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Sets the step cap.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Sets the model cap.
    pub fn max_models(mut self, max_models: usize) -> Self {
        self.max_models = Some(max_models);
        self
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Makes mutations reject programs that would introduce new
    /// static-analysis findings (see [`QueryOptions::deny_warnings`]).
    pub fn deny_warnings(mut self) -> Self {
        self.deny_warnings = true;
        self
    }

    /// The [`Budget`] these options describe (a fresh one per call —
    /// step counts do not carry over between queries).
    pub fn budget(&self) -> Budget {
        Budget::limited(self.max_steps, self.deadline)
    }
}

/// Builder for a knowledge base.
#[derive(Debug, Default)]
pub struct KbBuilder {
    world: World,
    prog: olp_core::OrderedProgram,
}

impl KbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares (or reopens) an object.
    pub fn object(&mut self, name: &str) -> CompId {
        let sym = self.world.syms.intern(name);
        self.prog
            .component_by_name(sym)
            .unwrap_or_else(|| self.prog.add_component(sym))
    }

    /// Declares `child isa parent` (child inherits parent's rules and
    /// may overrule them). Creates either object on demand.
    pub fn isa(&mut self, child: &str, parent: &str) -> &mut Self {
        let c = self.object(child);
        let p = self.object(parent);
        self.prog.add_edge(c, p);
        self
    }

    /// Declares `name` as a new **version** of `base`: same isa
    /// machinery, different reading — local redefinitions shadow the
    /// base object's rules (§5).
    pub fn version_of(&mut self, name: &str, base: &str) -> &mut Self {
        self.isa(name, base)
    }

    /// Adds one rule (surface syntax, e.g. `"fly(X) :- bird(X)."`) to
    /// an object.
    pub fn rule(&mut self, object: &str, src: &str) -> Result<&mut Self, KbError> {
        let c = self.object(object);
        let r = parse_rule(&mut self.world, src)?;
        self.prog.add_rule(c, r);
        Ok(self)
    }

    /// Adds a block of rules (surface syntax, plain `.`-separated
    /// rules) to an object.
    pub fn rules(&mut self, object: &str, src: &str) -> Result<&mut Self, KbError> {
        let c = self.object(object);
        let parsed = parse_program(&mut self.world, src)?;
        for comp in parsed.components {
            for r in comp.rules {
                self.prog.add_rule(c, r.clone());
            }
        }
        Ok(self)
    }

    /// Loads every tuple of `rel` into `object` as facts
    /// `rel.name(t1,…,tn).`.
    pub fn load_relation(&mut self, object: &str, rel: &Relation) -> &mut Self {
        let c = self.object(object);
        let pred = self.world.pred(&rel.name, rel.arity);
        for tuple in rel.scan() {
            // Facts over already-interned ground terms: wrap each id in
            // a constant-like Term by rendering is wasteful; instead we
            // keep the ground id via a synthetic rule built directly.
            let args: Vec<Term> = tuple
                .iter()
                .map(|&t| ground_term_to_term(&self.world, t))
                .collect();
            self.prog.add_rule(c, Rule::fact(Literal::pos(pred, args)));
        }
        self
    }

    /// Direct access to the world (e.g. to intern relation terms).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Grounds the program and returns a queryable [`Kb`].
    pub fn build(self, strategy: GroundStrategy) -> Result<Kb, KbError> {
        self.build_with(strategy, &GroundConfig::default())
    }

    /// Wraps an already-parsed world + program (e.g. a file parsed with
    /// [`olp_parser::parse_program`]) so it can be built into a [`Kb`].
    pub fn from_parts(world: World, prog: olp_core::OrderedProgram) -> Self {
        Self { world, prog }
    }

    /// [`KbBuilder::build`], but runs the `olp_analyze` lint pass first
    /// and refuses ([`KbError::Rejected`]) if *any* finding fires —
    /// warnings included. The strict entry point for loading programs
    /// that are expected to be lint-clean.
    pub fn build_checked(self, strategy: GroundStrategy) -> Result<Kb, KbError> {
        // Info-severity findings (profile notes like W09/W10) never
        // gate: only warnings and errors reject the build.
        let diags: Vec<Diagnostic> = analyze(&self.world, &self.prog)
            .into_iter()
            .filter(|d| d.severity >= Severity::Warn)
            .collect();
        if !diags.is_empty() {
            return Err(KbError::Rejected(diags));
        }
        self.build(strategy)
    }

    /// [`KbBuilder::build`] with explicit grounding bounds.
    pub fn build_with(
        mut self,
        strategy: GroundStrategy,
        cfg: &GroundConfig,
    ) -> Result<Kb, KbError> {
        // A load pays for the batch closure only: the incremental
        // grounder's state is built by the first assert or retract
        // (`Kb::ensure_delta`), as for a recovered KB.
        let ground = match strategy {
            GroundStrategy::Smart => ground_smart(&mut self.world, &self.prog, cfg)?,
            GroundStrategy::Exhaustive => ground_exhaustive(&mut self.world, &self.prog, cfg)?,
        };
        let n_comps = self.prog.components.len();
        Ok(Kb {
            world: Arc::new(self.world),
            prog: Arc::new(self.prog),
            ground: Arc::new(ground),
            least_cache: FxHashMap::default(),
            flat_cache: FxHashMap::default(),
            stable_cache: FxHashMap::default(),
            stable_results: FxHashMap::default(),
            strategy,
            cfg: cfg.clone(),
            delta: None,
            delta_ids: Vec::new(),
            incremental: strategy == GroundStrategy::Smart,
            epoch: 0,
            touched_log: Vec::new(),
            view_version: vec![0; n_comps],
            ast_version: vec![0; n_comps],
            threads: default_threads(),
            profiles: FxHashMap::default(),
            profile_guided: true,
        })
    }
}

/// The findings in `after` that are not already in `before`, as a
/// multiset difference keyed on `(code, message)` — rule indices shift
/// under mutation, but the rendered message pins down the finding.
fn findings_introduced(after: Vec<Diagnostic>, before: &[Diagnostic]) -> Vec<Diagnostic> {
    let mut seen: FxHashMap<(olp_analyze::Code, String), usize> = FxHashMap::default();
    for d in before {
        *seen.entry((d.code, d.message.clone())).or_insert(0) += 1;
    }
    after
        .into_iter()
        // Info-severity findings (profile notes) never gate mutations.
        .filter(|d| d.severity >= Severity::Warn)
        .filter(|d| match seen.get_mut(&(d.code, d.message.clone())) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        })
        .collect()
}

/// The delta-grounder ids of a freshly built grounder: registration
/// follows `prog.rules()` order, so ids are sequential per component.
fn sequential_ids(prog: &olp_core::OrderedProgram) -> Vec<Vec<DeltaRuleId>> {
    let mut ids: Vec<Vec<DeltaRuleId>> = vec![Vec::new(); prog.components.len()];
    for (next, (c, _)) in (0..).zip(prog.rules()) {
        ids[c.index()].push(next);
    }
    ids
}

/// Converts an interned ground term back to a syntax [`Term`] (used
/// when loading relations as facts).
fn ground_term_to_term(world: &World, t: olp_core::GTermId) -> Term {
    use olp_core::GTerm;
    match world.terms.get(t) {
        GTerm::Const(s) => Term::Const(*s),
        GTerm::Int(i) => Term::Int(*i),
        GTerm::Func(f, args) => Term::App(
            *f,
            args.iter()
                .map(|&a| ground_term_to_term(world, a))
                .collect(),
        ),
    }
}

/// A least model cached at the knowledge-base epoch it was computed in.
/// A stale entry (older epoch) is never served directly; it is first
/// revalidated. Revalidation is O(1) when no mutation since the entry
/// was cached changed a rule visible from the component (the per-view
/// version counter did not move — a view's least model depends only on
/// the view's rules); otherwise [`least_model_delta_flat`] recomputes
/// only the strata downstream of the atoms touched since. The model is
/// held behind an [`Arc`] so publishing it into a [`crate::KbSnapshot`]
/// is free.
#[derive(Debug)]
struct CachedModel {
    model: Arc<Interpretation>,
    epoch: u64,
    /// The component's view version this model was computed against
    /// (see [`Kb::view_version`]).
    view_version: u64,
}

/// A ground, queryable knowledge base.
///
/// Mutations ([`Kb::assert_rule`] / [`Kb::retract_rule`]) are
/// **incremental** by default under [`GroundStrategy::Smart`]: a
/// [`DeltaGrounder`] (built by the first mutation, or by
/// [`Kb::warm_incremental`]) re-grounds only the affected instantiations, model
/// caches are kept and revalidated per stratum instead of being thrown
/// away, and stable-model results for untouched independent rule groups
/// are reused from a per-object memo. [`Kb::set_incremental`] toggles
/// the behaviour (off = the original full re-ground on every mutation,
/// also the differential baseline the fuzz suite compares against).
#[derive(Debug)]
pub struct Kb {
    /// Interners, ordered program, and its grounding are shared
    /// copy-on-write: [`Kb::snapshot`] hands the same `Arc`s to a frozen
    /// [`crate::KbSnapshot`] in O(1), and a later mutation clones only
    /// while a snapshot is still alive ([`Arc::make_mut`]). Library use
    /// without snapshots never pays a clone.
    world: Arc<World>,
    prog: Arc<olp_core::OrderedProgram>,
    ground: Arc<GroundProgram>,
    least_cache: FxHashMap<CompId, CachedModel>,
    /// Compiled flat arenas per component, maintained **across
    /// mutations**: [`Kb::commit`] diffs the old and new ground
    /// programs ([`GroundDelta`]) and, per cached component, keeps the
    /// arena untouched (no visible change), splices the changed rules
    /// in place ([`FlatView::apply_delta`]), or drops the entry for a
    /// lazy rebuild when the patch would change the SCC condensation.
    /// Rebuilding the arena from scratch was the dominant cost of the
    /// mutation path (ROADMAP 3c); patching keeps it linear in the
    /// component's rules rather than in Tarjan + rank-sort work.
    flat_cache: FxHashMap<CompId, Arc<FlatView>>,
    /// Per object: memoised stable enumerations keyed by independent
    /// rule-group contents (see [`stable_models_decomposed_cached`]).
    stable_cache: FxHashMap<CompId, GroupMemo>,
    /// Per object: the last **complete, uncapped** stable enumeration,
    /// keyed by the view version it was computed at. Serves repeat
    /// `stable()` calls in O(1) when no visible rule changed (the group
    /// memo above still softens recomputation when one did).
    stable_results: FxHashMap<CompId, (u64, Vec<Interpretation>)>,
    strategy: GroundStrategy,
    cfg: GroundConfig,
    /// Persistent incremental grounder (Smart strategy only). `None`
    /// after a load or recovery, a full refresh or an incremental
    /// failure; built by the next incremental mutation (or
    /// [`Kb::warm_incremental`]).
    delta: Option<DeltaGrounder>,
    /// `delta_ids[c][i]` is the grounder id of `prog.components[c].rules[i]`
    /// (kept aligned with `prog`; empty while `delta` is `None`).
    delta_ids: Vec<Vec<DeltaRuleId>>,
    incremental: bool,
    /// Bumped once per applied mutation; cache entries carry the epoch
    /// they were computed in.
    epoch: u64,
    /// `touched_log[e]` = dense atom indices touched by the mutation
    /// that advanced epoch `e` to `e+1` (heads and bodies of all ground
    /// instances added or removed).
    touched_log: Vec<Vec<usize>>,
    /// `view_version[c]` counts the mutations that changed a ground
    /// instance **visible from** component `c` (bumped by
    /// [`Kb::commit`] using the exact rule diff). A cache entry tagged
    /// with the current version is exact regardless of the global
    /// epoch, which is what makes revalidation O(1) for bystander
    /// components.
    view_version: Vec<u64>,
    /// `ast_version[c]` counts the **rule-text** mutations visible from
    /// component `c`'s view: every successful assert/retract on a
    /// component `d` bumps the version of each `c` with `order.leq(c,
    /// d)`. This is deliberately coarser than `view_version` (which
    /// tracks the *ground* diff): an asserted rule that grounds to
    /// nothing still changes the AST view, and the semantic profile is
    /// a function of the AST view — keying the profile cache on the
    /// ground version would leave it stale exactly there.
    ast_version: Vec<u64>,
    /// Default worker threads for stable-model search, handed to
    /// snapshots ([`crate::KbSnapshot::default_opts`]); budgeted calls
    /// take [`QueryOptions::threads`]. Initialised to
    /// [`default_threads`]; results are identical at every value.
    threads: usize,
    /// Per-component semantic profiles ([`olp_analyze::profile`]),
    /// keyed by the **AST version** they were computed at. The profile
    /// depends only on the component's AST view and the order, and
    /// every successful rule mutation bumps `ast_version` for each
    /// component whose view contains the mutated one
    /// ([`Kb::note_ast_mutation`]) — so a cached entry whose version
    /// matches is exact, and a bumped one is recomputed from the
    /// current program on next use.
    profiles: FxHashMap<CompId, (u64, Arc<ComponentProfile>)>,
    /// Consult profiles to pick fast evaluation paths (stable/skeptical
    /// collapse to the least model on provably single-model views,
    /// negation-free views skip attack bookkeeping). On by default;
    /// [`Kb::set_profile_guided`] turns it off — the differential
    /// baseline the fast-path proptests compare against.
    profile_guided: bool,
}

impl Kb {
    fn comp(&self, object: &str) -> Result<CompId, KbError> {
        let sym = self
            .world
            .syms
            .get(object)
            .ok_or_else(|| KbError::UnknownObject(object.to_string()))?;
        self.prog
            .component_by_name(sym)
            .ok_or_else(|| KbError::UnknownObject(object.to_string()))
    }

    /// The union of atoms touched by every mutation since epoch
    /// `since`, as sorted dense indices.
    fn touched_since(&self, since: u64) -> Vec<usize> {
        let mut set: FxHashSet<usize> = FxHashSet::default();
        for v in &self.touched_log[since as usize..] {
            set.extend(v.iter().copied());
        }
        let mut out: Vec<usize> = set.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// The compiled flat arena for component `c` at the current epoch,
    /// built at most once per epoch (ROADMAP 3c: flatten construction
    /// dominated evaluation, so rebuilding per recompute was the
    /// per-request cost a server cannot afford). [`Kb::commit`] keeps
    /// the cache warm across mutations — untouched components keep
    /// their arena, touched ones get a spliced patch, and only an
    /// SCC-reshaping change falls back to this lazy rebuild; snapshots
    /// receive the same `Arc`s for free.
    fn flat(&mut self, c: CompId) -> Arc<FlatView> {
        if let Some(fv) = self.flat_cache.get(&c) {
            return fv.clone();
        }
        let fv = Arc::new(FlatView::new(&self.ground, c));
        self.flat_cache.insert(c, fv.clone());
        fv
    }

    /// The current view version of component `c` (see the field doc).
    /// Versions start at 0 for components unknown to the log.
    fn view_version(&self, c: CompId) -> u64 {
        self.view_version.get(c.index()).copied().unwrap_or(0)
    }

    /// The current AST version of component `c` (see the field doc).
    fn ast_version(&self, c: CompId) -> u64 {
        self.ast_version.get(c.index()).copied().unwrap_or(0)
    }

    /// Records a successful rule mutation on `target`: bumps the AST
    /// version of every component whose view contains `target` (i.e.
    /// each `c` with `order.leq(c, target)`), invalidating exactly the
    /// cached profiles the mutation can change. If the order is invalid
    /// (no well-defined views) every version is bumped — profiles are
    /// `None` in that state anyway, so over-invalidation is free.
    fn note_ast_mutation(&mut self, target: CompId) {
        let n = self.prog.components.len();
        if self.ast_version.len() < n {
            self.ast_version.resize(n, 0);
        }
        match self.prog.order() {
            Ok(order) => {
                for ci in 0..n {
                    if order.leq(CompId(ci as u32), target) {
                        self.ast_version[ci] += 1;
                    }
                }
            }
            Err(_) => {
                for v in &mut self.ast_version {
                    *v += 1;
                }
            }
        }
    }

    /// The least model of component `c`, charged to `budget`, cached
    /// across queries **and mutations** — the one least-model path
    /// behind every read. A current entry is served as is; a stale
    /// entry whose view version did not move is re-tagged in O(1) (its
    /// view's rules are unchanged, so its model is still exact); a
    /// stale entry whose view changed is revalidated with
    /// [`least_model_delta_flat`] over the maintained arena —
    /// recomputing only the strata downstream of atoms touched since it
    /// was cached. With no entry, the arena is evaluated from scratch:
    /// [`least_model_flat_definite`] when the profile proves the view
    /// negation-free, else [`least_model_flat_budgeted`].
    ///
    /// Only a `Complete` model is cached. An `Interrupted` result
    /// carries a **sound under-approximation** of the least model; a
    /// stale entry whose revalidation is interrupted is kept (never
    /// served).
    fn model_eval(&mut self, c: CompId, budget: &Budget) -> Eval<Arc<Interpretation>> {
        let vv = self.view_version(c);
        let epoch = self.epoch;
        let stale = match self.least_cache.get_mut(&c) {
            Some(e) if e.epoch == epoch => return Eval::Complete(e.model.clone()),
            Some(e) if e.view_version == vv => {
                e.epoch = epoch;
                return Eval::Complete(e.model.clone());
            }
            Some(e) => Some(e.epoch),
            None => None,
        };
        let fv = self.flat(c);
        let eval = match stale {
            Some(since) => {
                let touched = self.touched_since(since);
                least_model_delta_flat(&fv, &self.least_cache[&c].model, &touched, budget)
            }
            None if self.proved_definite(c) => least_model_flat_definite(&fv, budget),
            None => least_model_flat_budgeted(&fv, budget),
        };
        match eval {
            Eval::Complete(m) => {
                let model = Arc::new(m);
                self.least_cache.insert(
                    c,
                    CachedModel {
                        model: model.clone(),
                        epoch,
                        view_version: vv,
                    },
                );
                Eval::Complete(model)
            }
            Eval::Interrupted(i) => Eval::Interrupted(Interrupted {
                reason: i.reason,
                partial: Arc::new(i.partial),
            }),
        }
    }

    /// [`Kb::model_eval`] without limits.
    fn least(&mut self, c: CompId) -> Arc<Interpretation> {
        self.model_eval(c, &Budget::unlimited())
            .expect_complete("unlimited evaluation always completes")
    }

    /// The least model of the program *in* `object`, cached across
    /// queries **and mutations** (stale entries are delta-revalidated,
    /// not recomputed).
    pub fn model(&mut self, object: &str) -> Result<&Interpretation, KbError> {
        let c = self.comp(object)?;
        self.least(c);
        Ok(self.least_cache[&c].model.as_ref())
    }

    /// [`Kb::model`] under [`QueryOptions`] limits. Only a `Complete`
    /// model is cached; an `Interrupted` result carries the partial
    /// interpretation computed so far, which is a **sound
    /// under-approximation** of the least model (every literal in it is
    /// genuinely derivable). A stale cached model (the KB mutated since
    /// it was computed) is revalidated by stratum-local recomputation
    /// under the same budget; if that is interrupted, the stale entry is
    /// kept (never served) and the partial revalidation is returned.
    pub fn model_with(
        &mut self,
        object: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Arc<Interpretation>>, KbError> {
        let c = self.comp(object)?;
        Ok(self.model_eval(c, &opts.budget()))
    }

    /// Truth of a ground literal (e.g. `"fly(penguin)"` or
    /// `"-fly(penguin)"`) from `object`'s point of view, under the
    /// least (assumption-free) model. A negative query returns `True`
    /// when the negative literal is derivable.
    pub fn truth(&mut self, object: &str, query: &str) -> Result<Truth, KbError> {
        let lit = parse_ground_literal(Arc::make_mut(&mut self.world), query)
            .map_err(|_| KbError::NonGroundQuery(query.to_string()))?;
        let m = self.model(object)?;
        Ok(if m.holds(lit) {
            Truth::True
        } else if m.holds(lit.complement()) {
            Truth::False
        } else {
            Truth::Undefined
        })
    }

    /// [`Kb::truth`] under [`QueryOptions`] limits.
    ///
    /// On a partial result, `True` and `False` verdicts are final (the
    /// partial model only contains genuinely derivable literals);
    /// `Undefined` is provisional — an uninterrupted run might still
    /// decide the query.
    pub fn truth_with(
        &mut self,
        object: &str,
        query: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Truth>, KbError> {
        let lit = parse_ground_literal(Arc::make_mut(&mut self.world), query)
            .map_err(|_| KbError::NonGroundQuery(query.to_string()))?;
        Ok(self.model_with(object, opts)?.map(|m| {
            if m.holds(lit) {
                Truth::True
            } else if m.holds(lit.complement()) {
                Truth::False
            } else {
                Truth::Undefined
            }
        }))
    }

    /// Whether the query literal is derivably true in `object`.
    pub fn ask(&mut self, object: &str, query: &str) -> Result<bool, KbError> {
        Ok(self.truth(object, query)? == Truth::True)
    }

    /// All true atoms of predicate `name/arity` in `object`'s least
    /// model, rendered.
    pub fn query_pred(
        &mut self,
        object: &str,
        name: &str,
        arity: u32,
    ) -> Result<Vec<String>, KbError> {
        let pred = match self
            .world
            .syms
            .get(name)
            .and_then(|s| self.world.preds.get(s, arity))
        {
            Some(p) => p,
            None => return Ok(Vec::new()),
        };
        let c = self.comp(object)?;
        let m = self.least(c);
        let mut out: Vec<String> = self
            .world
            .atoms
            .of_pred(pred)
            .iter()
            .filter(|&&a| m.holds(olp_core::GLit::pos(a)))
            .map(|&a| self.world.atom_str(a))
            .collect();
        out.sort();
        Ok(out)
    }

    /// Answers a (possibly non-ground) query pattern, e.g. `"fly(X)"`
    /// or `"-fly(X)"`: every binding of the pattern's variables whose
    /// instance is **true** in `object`'s least model, rendered as
    /// `var=term` pairs in first-occurrence order. A ground pattern
    /// returns one empty binding when it holds and nothing otherwise.
    pub fn query(&mut self, object: &str, pattern: &str) -> Result<Vec<String>, KbError> {
        let lit = olp_parser::parse_literal(Arc::make_mut(&mut self.world), pattern)
            .map_err(KbError::Parse)?;
        let c = self.comp(object)?;
        let m = self.least(c);
        Ok(self.enumerate_bindings(&lit, &m))
    }

    /// [`Kb::query`] under [`QueryOptions`] limits. On a partial
    /// result, every returned binding is genuinely true (the partial
    /// model under-approximates), but further bindings may be missing.
    pub fn query_with(
        &mut self,
        object: &str,
        pattern: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Vec<String>>, KbError> {
        let lit = olp_parser::parse_literal(Arc::make_mut(&mut self.world), pattern)
            .map_err(KbError::Parse)?;
        let eval = self.model_with(object, opts)?;
        Ok(eval.map(|m| self.enumerate_bindings(&lit, &m)))
    }

    /// Every binding of `lit`'s variables whose instance is true in
    /// `m`, rendered `var=term` and sorted.
    fn enumerate_bindings(&self, lit: &Literal, m: &Interpretation) -> Vec<String> {
        let mut vars = Vec::new();
        lit.collect_vars(&mut vars);
        let mut out = Vec::new();
        for &atom in self.world.atoms.of_pred(lit.pred) {
            if !m.holds(olp_core::GLit::new(lit.sign, atom)) {
                continue;
            }
            let args = &self.world.atoms.get(atom).args;
            let mut b = olp_core::term::Bindings::default();
            let matched = lit
                .args
                .iter()
                .zip(args.iter())
                .all(|(pat, &g)| pat.match_ground(g, &self.world.terms, &mut b));
            if matched {
                let binding: Vec<String> = vars
                    .iter()
                    .map(|v| format!("{}={}", self.world.syms.name(*v), self.world.term_str(b[v])))
                    .collect();
                out.push(binding.join(", "));
            }
        }
        out.sort();
        out
    }

    /// Explains why `query` holds (a proof tree) or does not (the fate
    /// of every candidate rule), rendered as indented text.
    pub fn explain(&mut self, object: &str, query: &str) -> Result<String, KbError> {
        let lit = parse_ground_literal(Arc::make_mut(&mut self.world), query)
            .map_err(|_| KbError::NonGroundQuery(query.to_string()))?;
        let c = self.comp(object)?;
        let m = self.least(c);
        let view = View::new(&self.ground, c);
        let why = olp_semantics::explain_in(&view, &m, lit);
        Ok(olp_semantics::render_why(&self.world, &view, &why))
    }

    /// Goal-directed proof: is `query` in `object`'s least model?
    /// Avoids materialising the full model (useful for large KBs with
    /// small relevance cones).
    pub fn prove(&mut self, object: &str, query: &str) -> Result<bool, KbError> {
        let lit = parse_ground_literal(Arc::make_mut(&mut self.world), query)
            .map_err(|_| KbError::NonGroundQuery(query.to_string()))?;
        let c = self.comp(object)?;
        Ok(olp_semantics::prove(&View::new(&self.ground, c), lit))
    }

    /// Whether mutations go through the delta grounder + stratum-local
    /// cache revalidation (Smart strategy only; on by default).
    pub fn is_incremental(&self) -> bool {
        self.incremental && self.strategy == GroundStrategy::Smart
    }

    /// Toggles incremental maintenance. Turning it off makes every
    /// mutation a full re-ground (the differential baseline); turning
    /// it back on rebuilds the delta grounder lazily on the next
    /// mutation.
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
        if !on {
            self.delta = None;
            self.delta_ids.clear();
        }
    }

    /// The mutation epoch: bumped once per applied assert/retract.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Default worker threads for stable-model search in the snapshots
    /// this KB publishes ([`crate::KbSnapshot::default_opts`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the default worker-thread count for stable-model search in
    /// published snapshots (clamped to at least 1). `1` takes the
    /// sequential code paths exactly; any value yields identical
    /// answers.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The semantic profile of `object`'s view — stratification class,
    /// conflict-freedom, order-relevance, and per-predicate cardinality
    /// bounds ([`olp_analyze::component_profile`]). Cached per AST
    /// version: recomputed only after a mutation asserted or retracted
    /// a rule visible from the component. `None` when the declared
    /// order is invalid
    /// (no well-defined view to profile).
    pub fn component_profile(
        &mut self,
        object: &str,
    ) -> Result<Option<Arc<ComponentProfile>>, KbError> {
        let c = self.comp(object)?;
        Ok(self.profile_of(c))
    }

    fn profile_of(&mut self, c: CompId) -> Option<Arc<ComponentProfile>> {
        let av = self.ast_version(c);
        if let Some((v, p)) = self.profiles.get(&c) {
            if *v == av {
                return Some(p.clone());
            }
        }
        let order = self.prog.order().ok()?;
        let p = Arc::new(olp_analyze::component_profile(&self.prog, &order, c));
        self.profiles.insert(c, (av, p.clone()));
        Some(p)
    }

    /// Whether analysis-guided fast paths are enabled (they are by
    /// default).
    pub fn profile_guided(&self) -> bool {
        self.profile_guided
    }

    /// Enables or disables analysis-guided fast paths. With them off,
    /// every query runs the general engine unconditionally — the
    /// differential baseline the `profile_fastpath_matches_general`
    /// proptest compares byte-for-byte against.
    pub fn set_profile_guided(&mut self, on: bool) {
        self.profile_guided = on;
    }

    /// Profile-proved: `c`'s view is negation-free, so evaluation may
    /// skip all blockedness/attack bookkeeping.
    fn proved_definite(&mut self, c: CompId) -> bool {
        self.profile_guided
            && self
                .profile_of(c)
                .is_some_and(|p| p.strat == StratClass::NegationFree)
    }

    /// Profile-proved: `c`'s view has exactly one stable model — the
    /// least model (conflict-free, or every attack stratified away).
    fn proved_single_model(&mut self, c: CompId) -> bool {
        self.profile_guided && self.profile_of(c).is_some_and(|p| p.single_model)
    }

    /// Installs `new_ground` as the current ground program. The exact
    /// rule-level diff ([`GroundDelta::between`] — a linear sorted
    /// merge, both programs being canonically ordered) drives all
    /// cache maintenance:
    ///
    /// * the touched-atom log (heads and bodies of changed instances)
    ///   feeding stratum-local model revalidation;
    /// * per-component view versions: a component whose view contains
    ///   no changed instance keeps its version, so its cached model
    ///   revalidates in O(1) and its compiled arena survives by
    ///   pointer;
    /// * compiled arenas of affected components are **patched in
    ///   place** ([`FlatView::apply_delta`]) when the change is
    ///   stratum-local, and dropped for a lazy rebuild when the patch
    ///   honestly reports [`FlatPatch::Rebuild`] (the SCC condensation
    ///   moved under the view).
    fn commit(&mut self, new_ground: GroundProgram) {
        let delta = GroundDelta::between(&self.ground, &new_ground);
        self.touched_log
            .push(delta.touched_atoms(&self.ground, &new_ground));
        self.epoch += 1;
        if self.view_version.len() < self.prog.components.len() {
            self.view_version.resize(self.prog.components.len(), 0);
        }
        for ci in 0..self.view_version.len() {
            if delta.affects_view(&self.ground, &new_ground, CompId(ci as u32)) {
                self.view_version[ci] += 1;
            }
        }
        let cached: Vec<CompId> = self.flat_cache.keys().copied().collect();
        for c in cached {
            let (added, removed) = delta.for_view(&self.ground, &new_ground, c);
            if added.is_empty() && removed.is_empty() {
                // Nothing visible from `c` changed: the arena is still
                // exact (its rules are the view's rules), atom growth
                // included — truth queries on it only involve atoms it
                // indexes.
                continue;
            }
            let fv = &self.flat_cache[&c];
            let removed_rules: Vec<&GroundRule> = removed
                .iter()
                .map(|&i| &self.ground.rules[i as usize])
                .collect();
            let patched = fv.locate(&removed_rules).and_then(|flat_removed| {
                match fv.apply_delta(&new_ground, &added, &flat_removed) {
                    FlatPatch::Patched(nv) => Some(nv),
                    FlatPatch::Rebuild => None,
                }
            });
            match patched {
                Some(nv) => {
                    self.flat_cache.insert(c, Arc::new(nv));
                }
                None => {
                    self.flat_cache.remove(&c);
                }
            }
        }
        self.ground = Arc::new(new_ground);
    }

    /// Builds the delta grounder from the current program if there is
    /// none (a fresh load or recovery, a full refresh, an incremental
    /// failure, or `set_incremental(true)`): one run of the grounding
    /// closure, under the request's governor `gov`. Interrupted, it
    /// leaves the KB as it was. Then checks `gov` once more, so a write
    /// whose budget the build used up stops *before* its delta step and
    /// keeps the grounder: a retry pays only the delta.
    fn ensure_delta(&mut self, gov: &Budget) -> Result<Eval<()>, KbError> {
        let interrupted = |reason| {
            Ok(Eval::Interrupted(Interrupted {
                reason,
                partial: (),
            }))
        };
        if self.delta.is_none() {
            let cfg = GroundConfig {
                budget: gov.clone(),
                ..self.cfg.clone()
            };
            match DeltaGrounder::new(Arc::make_mut(&mut self.world), &self.prog, &cfg) {
                Ok((delta, gp)) => {
                    // Same program, same deterministic grounding as the
                    // one installed: no epoch bump, caches stay valid.
                    debug_assert_eq!(gp.rules, self.ground.rules);
                    self.delta_ids = sequential_ids(&self.prog);
                    self.delta = Some(delta);
                }
                Err(GroundError::Interrupted(reason)) => return interrupted(reason),
                Err(e) => return Err(e.into()),
            }
        }
        match gov.check() {
            Ok(()) => Ok(Eval::Complete(())),
            Err(reason) => interrupted(reason),
        }
    }

    /// Full re-ground under `gov` (the non-incremental mutation path).
    /// The caller has already mutated `prog`; on interruption or error
    /// the caller rolls that back.
    fn refresh_with(&mut self, gov: &Budget) -> Result<Eval<()>, KbError> {
        self.delta = None;
        self.delta_ids.clear();
        let mut cfg = self.cfg.clone();
        cfg.budget = gov.clone();
        let res = match self.strategy {
            GroundStrategy::Smart => ground_smart(Arc::make_mut(&mut self.world), &self.prog, &cfg),
            GroundStrategy::Exhaustive => {
                ground_exhaustive(Arc::make_mut(&mut self.world), &self.prog, &cfg)
            }
        };
        match res {
            Ok(gp) => {
                self.commit(gp);
                Ok(Eval::Complete(()))
            }
            Err(GroundError::Interrupted(reason)) => Ok(Eval::Interrupted(Interrupted {
                reason,
                partial: (),
            })),
            Err(e) => Err(e.into()),
        }
    }

    /// Runs the `olp_analyze` lint pass over the current program,
    /// returning its findings (sorted, deterministic). Programs
    /// assembled through the builder API carry no spans, so these
    /// diagnostics have `pos: None` but keep component/rule indices.
    pub fn analyze(&self) -> Vec<Diagnostic> {
        analyze(&self.world, &self.prog)
    }

    /// Asserts a new rule (or fact) into `object`. Under incremental
    /// maintenance (Smart strategy, the default) only the new rule's
    /// instantiations and their consequences are grounded, and cached
    /// models stay valid up to stratum-local revalidation.
    pub fn assert_rule(&mut self, object: &str, src: &str) -> Result<(), KbError> {
        self.assert_rule_with(object, src, &QueryOptions::new())
            .map(|ev| ev.expect_complete("unlimited assert cannot be interrupted"))
    }

    /// [`Kb::assert_rule`] under [`QueryOptions`] limits (the budget
    /// governs the grounding work; model recomputation stays lazy).
    ///
    /// On `Interrupted` the mutation is **not applied**: the KB still
    /// answers queries exactly as before the call. An incremental
    /// attempt that trips in its delta step also drops the delta
    /// grounder; the next mutation rebuilds it from the unchanged
    /// program. One that trips building the grounder (the first write
    /// after a load) keeps nothing; one that trips right after keeps
    /// the grounder built.
    pub fn assert_rule_with(
        &mut self,
        object: &str,
        src: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<()>, KbError> {
        let c = self.comp(object)?;
        let r = parse_rule(Arc::make_mut(&mut self.world), src)?;
        if opts.deny_warnings {
            // Tentative AST-only application: analyze, then roll back
            // before any grounding. `add_rule` records no span, so
            // `pop_rule` restores the table exactly.
            let before = analyze(&self.world, &self.prog);
            Arc::make_mut(&mut self.prog).add_rule(c, r.clone());
            let after = analyze(&self.world, &self.prog);
            Arc::make_mut(&mut self.prog).pop_rule(c);
            let new = findings_introduced(after, &before);
            if !new.is_empty() {
                return Err(KbError::Rejected(new));
            }
            // (`findings_introduced` already drops Info-severity notes —
            // a mutation that merely changes a profile note must not be
            // rejected under `deny_warnings`.)
        }
        let gov = opts.budget();
        if self.is_incremental() {
            if let Eval::Interrupted(i) = self.ensure_delta(&gov)? {
                return Ok(Eval::Interrupted(i));
            }
            let mut delta = self.delta.take().expect("ensure_delta installed one");
            match delta.assert_rule(Arc::make_mut(&mut self.world), c, &r, &gov) {
                Ok((id, gp)) => {
                    Arc::make_mut(&mut self.prog).add_rule(c, r);
                    self.delta_ids[c.index()].push(id);
                    self.delta = Some(delta);
                    self.commit(gp);
                    self.note_ast_mutation(c);
                    return Ok(Eval::Complete(()));
                }
                // Grounder state is unspecified after an error: leave
                // `delta` as None and keep the pre-mutation KB intact.
                Err(GroundError::Interrupted(reason)) => {
                    return Ok(Eval::Interrupted(Interrupted {
                        reason,
                        partial: (),
                    }))
                }
                Err(e) => return Err(e.into()),
            }
        }
        Arc::make_mut(&mut self.prog).add_rule(c, r);
        let res = self.refresh_with(&gov);
        if matches!(res, Ok(Eval::Complete(()))) {
            self.note_ast_mutation(c);
        } else {
            Arc::make_mut(&mut self.prog).pop_rule(c);
        }
        res
    }

    /// Retracts the first rule of `object` equal to `src` after parsing
    /// — up to **renaming of variables** (`p(X) :- q(X).` retracts
    /// `p(Y) :- q(Y).`); returns whether one was removed.
    pub fn retract_rule(&mut self, object: &str, src: &str) -> Result<bool, KbError> {
        self.retract_rule_with(object, src, &QueryOptions::new())
            .map(|ev| ev.expect_complete("unlimited retract cannot be interrupted"))
    }

    /// [`Kb::retract_rule`] under [`QueryOptions`] limits.
    ///
    /// On `Interrupted` the mutation is **not applied** (the partial
    /// payload is `false`): the matched rule is still present and the
    /// KB answers queries exactly as before the call.
    pub fn retract_rule_with(
        &mut self,
        object: &str,
        src: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<bool>, KbError> {
        let c = self.comp(object)?;
        let r = parse_rule(Arc::make_mut(&mut self.world), src)?;
        let pos = self.prog.components[c.index()]
            .rules
            .iter()
            .position(|existing| *existing == r || existing.alpha_eq(&r));
        let Some(i) = pos else {
            return Ok(Eval::Complete(false));
        };
        if opts.deny_warnings {
            // Retraction can also introduce findings (e.g. removing the
            // last definition of a predicate others depend on makes
            // their rules W02). Tentative removal + rollback, with the
            // removed rule's span saved and restored.
            let before = analyze(&self.world, &self.prog);
            let saved_span = self.prog.spans.rule(c.index(), i).cloned();
            let removed = Arc::make_mut(&mut self.prog).remove_rule(c, i);
            let after = analyze(&self.world, &self.prog);
            Arc::make_mut(&mut self.prog).insert_rule(c, i, removed);
            if let Some(span) = saved_span {
                Arc::make_mut(&mut self.prog)
                    .spans
                    .set_rule(c.index(), i, span);
            }
            let new = findings_introduced(after, &before);
            if !new.is_empty() {
                return Err(KbError::Rejected(new));
            }
        }
        let gov = opts.budget();
        if self.is_incremental() {
            if let Eval::Interrupted(i) = self.ensure_delta(&gov)? {
                return Ok(Eval::Interrupted(Interrupted {
                    reason: i.reason,
                    partial: false,
                }));
            }
            let mut delta = self.delta.take().expect("ensure_delta installed one");
            let id = self.delta_ids[c.index()][i];
            match delta.retract_rule(Arc::make_mut(&mut self.world), id, &gov) {
                Ok(gp) => {
                    Arc::make_mut(&mut self.prog).remove_rule(c, i);
                    self.delta_ids[c.index()].remove(i);
                    self.delta = Some(delta);
                    self.commit(gp);
                    self.note_ast_mutation(c);
                    return Ok(Eval::Complete(true));
                }
                Err(GroundError::Interrupted(reason)) => {
                    return Ok(Eval::Interrupted(Interrupted {
                        reason,
                        partial: false,
                    }))
                }
                Err(e) => return Err(e.into()),
            }
        }
        let saved_span = self.prog.spans.rule(c.index(), i).cloned();
        let removed = Arc::make_mut(&mut self.prog).remove_rule(c, i);
        let res = self.refresh_with(&gov);
        if matches!(res, Ok(Eval::Complete(()))) {
            self.note_ast_mutation(c);
        } else {
            Arc::make_mut(&mut self.prog).insert_rule(c, i, removed);
            if let Some(span) = saved_span {
                Arc::make_mut(&mut self.prog)
                    .spans
                    .set_rule(c.index(), i, span);
            }
        }
        match res {
            Ok(Eval::Complete(())) => Ok(Eval::Complete(true)),
            Ok(Eval::Interrupted(i)) => Ok(Eval::Interrupted(Interrupted {
                reason: i.reason,
                partial: false,
            })),
            Err(e) => Err(e),
        }
    }

    /// Query options for the unbudgeted [`Kb::stable`] /
    /// [`Kb::skeptical`]: one thread, so the search runs through the
    /// per-group memo.
    fn unbudgeted_opts() -> QueryOptions {
        QueryOptions {
            threads: 1,
            ..QueryOptions::default()
        }
    }

    /// The skeptical consequences in `object`: literals true in every
    /// stable model (exponential in the contested part). Engine choice
    /// as in [`Kb::skeptical_with`], on one thread.
    pub fn skeptical(&mut self, object: &str) -> Result<Interpretation, KbError> {
        Ok(self
            .skeptical_with(object, &Self::unbudgeted_opts())?
            .expect_complete("unlimited skeptical reasoning cannot be interrupted"))
    }

    /// [`Kb::skeptical`] under [`QueryOptions`] limits.
    ///
    /// Engine choice, on a profile-guided KB (the default): a view the
    /// profile proves single-model answers with its least model; any
    /// other view answers least model first ([`least_model_first`]) —
    /// the least model joined with the intersection of the stable
    /// models of the contested residual, the only part searched. With
    /// [`Kb::set_profile_guided`]`(false)`, the general engine searches
    /// the whole view.
    ///
    /// **Caveat:** a partial skeptical set that intersects some but not
    /// all stable models may *over*-approximate (contain literals a
    /// complete run would drop). Treat it as "consequences of the
    /// explored models", not safe conclusions. Exception: when the least
    /// model itself was interrupted, or on a profile-proved single-model
    /// view, or when the residual search found no model yet, the partial
    /// result is (a prefix of) the least model and therefore
    /// *under*-approximates, like [`Kb::model_with`].
    pub fn skeptical_with(
        &mut self,
        object: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Interpretation>, KbError> {
        let c = self.comp(object)?;
        if self.proved_single_model(c) {
            return Ok(self.model_eval(c, &opts.budget()).map(Arc::unwrap_or_clone));
        }
        if self.profile_guided {
            return Ok(self.least_first(c, opts, &opts.budget()).skeptical());
        }
        Ok(olp_semantics::skeptical_consequences_budgeted(
            &View::new(&self.ground, c),
            self.ground.n_atoms,
            &opts.budget(),
        ))
    }

    /// The stable models of the program in `object` (Definition 9).
    /// Exponential in the contested part; use for choice-style KBs.
    /// Engine choice as in [`Kb::stable_with`], on one thread: the
    /// independent rule groups searched are memoised per object, so
    /// after a mutation, groups whose rule instances did not change
    /// answer from the cache.
    pub fn stable(&mut self, object: &str) -> Result<Vec<Interpretation>, KbError> {
        Ok(self
            .stable_with(object, &Self::unbudgeted_opts())?
            .expect_complete("unlimited stable enumeration cannot be interrupted"))
    }

    /// [`Kb::stable`] under [`QueryOptions`] limits (including
    /// `max_models`).
    ///
    /// Engine choice, on a profile-guided KB (the default):
    /// * a view the profile proves single-model answers with its least
    ///   model — one fixpoint instead of assumption-set enumeration plus
    ///   maximality filtering (unless `max_models` is below 2, which
    ///   keeps the general truncation semantics);
    /// * any other view answers least model first
    ///   ([`least_model_first`]): only the rule groups the least model
    ///   leaves contested are compiled and searched — sequentially
    ///   through the per-group memo at one thread, in parallel on more —
    ///   and each residual stable model is joined with the least model.
    ///
    /// With [`Kb::set_profile_guided`]`(false)`, the general engine
    /// searches the whole view: the differential baseline the fast-path
    /// proptests compare against.
    ///
    /// Every model in a partial result is a genuine assumption-free
    /// model, maximal among those explored; models the search had not
    /// reached are missing. An interrupted least model yields no
    /// models.
    pub fn stable_with(
        &mut self,
        object: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Vec<Interpretation>>, KbError> {
        let c = self.comp(object)?;
        if opts.max_models.is_none_or(|cap| cap >= 2) && self.proved_single_model(c) {
            return Ok(match self.model_eval(c, &opts.budget()) {
                Eval::Complete(m) => Eval::Complete(vec![Arc::unwrap_or_clone(m)]),
                // A partial least model is not a stable model: report
                // the interruption with no models, like a search that
                // tripped before its first complete model.
                Eval::Interrupted(i) => Eval::Interrupted(Interrupted {
                    reason: i.reason,
                    partial: Vec::new(),
                }),
            });
        }
        Ok(if opts.threads > 1 && !self.profile_guided {
            // Parallel enumeration explores independent rule groups (or
            // propagated search prefixes) on worker threads and yields
            // the same stable set as the sequential engine. This path
            // skips the memos.
            stable_models_parallel_budgeted(
                &View::new(&self.ground, c),
                self.ground.n_atoms,
                opts.threads,
                &opts.budget(),
                opts.max_models,
            )
        } else {
            self.stable_cached(c, opts)
        })
    }

    /// Decomposed stable enumeration through two layers of memoisation:
    /// a whole-result memo keyed by view version (O(1) when no visible
    /// rule changed since the last complete, uncapped enumeration) and,
    /// on one thread, the per-group memo (bounded by
    /// [`STABLE_CACHE_CAP`]) that reuses unchanged independent rule
    /// groups when one did. A guided KB searches the contested residual
    /// only ([`Kb::least_first`]); its groups are whole view groups, so
    /// the memo keys are the same.
    fn stable_cached(&mut self, c: CompId, opts: &QueryOptions) -> Eval<Vec<Interpretation>> {
        let vv = self.view_version(c);
        if opts.max_models.is_none() {
            if let Some((v, models)) = self.stable_results.get(&c) {
                if *v == vv {
                    return Eval::Complete(models.clone());
                }
            }
        }
        let budget = opts.budget();
        let eval = if self.profile_guided {
            self.least_first(c, opts, &budget).stable()
        } else {
            let cache = self.stable_cache.entry(c).or_default();
            let view = View::new(&self.ground, c);
            let eval = stable_models_decomposed_cached(
                &view,
                self.ground.n_atoms,
                &budget,
                opts.max_models,
                cache,
            );
            if cache.len() > STABLE_CACHE_CAP {
                cache.clear();
            }
            eval
        };
        if opts.max_models.is_none() {
            if let Eval::Complete(models) = &eval {
                self.stable_results.insert(c, (vv, models.clone()));
            }
        }
        eval
    }

    /// The least-model-first reading of `c` under `opts`
    /// ([`least_model_first`]): the cached least model, then a search of
    /// the contested residual only — through the per-group memo at one
    /// thread — all charged to `budget`.
    fn least_first(&mut self, c: CompId, opts: &QueryOptions, budget: &Budget) -> LeastFirst {
        let least = self.model_eval(c, budget).map(Arc::unwrap_or_clone);
        let cache = self.stable_cache.entry(c).or_default();
        let lf = least_model_first(
            &self.ground,
            c,
            least,
            opts.threads,
            Some(cache),
            budget,
            opts.max_models,
        );
        if cache.len() > STABLE_CACHE_CAP {
            cache.clear();
        }
        lf
    }

    /// Differences between two objects' least models: the literals on
    /// which their verdicts disagree, rendered as
    /// `atom: <truth in a> -> <truth in b>`, sorted. The versioning
    /// use-case (§5): `kb.diff("v2", "v3")` is the semantic changelog.
    pub fn diff(&mut self, a: &str, b: &str) -> Result<Vec<String>, KbError> {
        // Materialise both models (cached).
        self.model(a)?;
        self.model(b)?;
        let ca = self.comp(a)?;
        let cb = self.comp(b)?;
        let ma = self.least_cache[&ca].model.clone();
        let mb = &self.least_cache[&cb].model;
        let mut out = Vec::new();
        for i in 0..self.ground.n_atoms {
            let atom = olp_core::AtomId(i as u32);
            let va = ma.value(atom);
            let vb = mb.value(atom);
            if va != vb {
                out.push(format!("{}: {} -> {}", self.world.atom_str(atom), va, vb));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Renders an interpretation against this KB's symbol table.
    pub fn render(&self, i: &Interpretation) -> String {
        i.render(&self.world)
    }

    /// Renders the evaluation plan for one object: the flat ground
    /// representation (rules, strata, levels) followed by the
    /// per-predicate cardinality/distinct statistics that drive
    /// the join planner's body ordering. Purely diagnostic — computing
    /// the report never evaluates a model.
    pub fn plan_report(&self, object: &str) -> Result<String, KbError> {
        let c = self.comp(object)?;
        let fv = FlatView::new(&self.ground, c);
        let mut out = format!(
            "plan for `{object}`: {} ground rules in {} strata over {} levels\n",
            fv.len(),
            fv.n_strata(),
            fv.n_levels(),
        );
        out.push_str(&ProgramStats::collect(&self.world, &self.ground, c).render(&self.world));
        Ok(out)
    }

    /// The names of all objects in the knowledge base, in declaration
    /// order.
    pub fn objects(&self) -> Vec<&str> {
        self.prog
            .components
            .iter()
            .map(|c| self.world.syms.name(c.name))
            .collect()
    }

    /// Read-only world access.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The underlying ground program (for diagnostics and benches).
    pub fn ground_program(&self) -> &GroundProgram {
        &self.ground
    }

    /// Read-only access to the ordered program (components, rules,
    /// order edges, spans) — what a snapshot serialises.
    pub fn program(&self) -> &olp_core::OrderedProgram {
        &self.prog
    }

    /// Publishes an immutable, thread-safe view of the KB frozen at the
    /// current epoch ([`crate::KbSnapshot`]).
    ///
    /// This is O(components): the world, program, and grounding are
    /// shared by `Arc` (copy-on-write — a later mutation on `self`
    /// clones them only while a snapshot is alive), and every
    /// current-epoch cached model and compiled flat arena is handed to
    /// the snapshot for free. Readers evaluate against the snapshot
    /// concurrently (`&self` everywhere, `Send + Sync`) while this KB
    /// keeps mutating; no reader ever observes a half-applied mutation.
    pub fn snapshot(&self) -> Arc<crate::KbSnapshot> {
        let mut models: FxHashMap<CompId, Arc<Interpretation>> = FxHashMap::default();
        for (c, e) in &self.least_cache {
            if e.epoch == self.epoch {
                models.insert(*c, e.model.clone());
            }
        }
        // Hand over the current-version profiles (the writer warms them
        // with `warm_profiles`); snapshots never recompute analysis.
        let mut profiles: FxHashMap<CompId, Arc<ComponentProfile>> = FxHashMap::default();
        if self.profile_guided {
            for (c, (av, p)) in &self.profiles {
                if *av == self.ast_version(*c) {
                    profiles.insert(*c, p.clone());
                }
            }
        }
        Arc::new(crate::KbSnapshot::from_parts(
            self.world.clone(),
            self.prog.clone(),
            self.ground.clone(),
            self.epoch,
            self.threads,
            self.profile_guided,
            self.flat_cache.clone(),
            models,
            profiles,
        ))
    }

    /// Computes (or revalidates) the semantic profile of every
    /// component, so the next [`Kb::snapshot`] publishes them all — the
    /// server calls this alongside [`Kb::revalidate_cached_models`]
    /// before each publish.
    pub fn warm_profiles(&mut self) {
        for ci in 0..self.prog.components.len() {
            self.profile_of(CompId(ci as u32));
        }
    }

    /// Builds the incremental grounder's state now (one run of the
    /// grounding closure, unbudgeted), so that the first assert or
    /// retract pays only its delta. `olp serve` calls this before it
    /// binds. A no-op when the state exists or mutations are not
    /// incremental.
    pub fn warm_incremental(&mut self) -> Result<(), KbError> {
        if self.is_incremental() {
            self.ensure_delta(&Budget::unlimited())?
                .expect_complete("unlimited grounding cannot be interrupted");
        }
        Ok(())
    }

    /// Brings every *previously cached* least model up to the current
    /// epoch via stratum-local delta revalidation. A writer that calls
    /// this between applying a mutation and publishing a
    /// [`Kb::snapshot`] hands readers warm models, keeping the
    /// incremental-maintenance advantage server-side; objects nobody
    /// has queried stay lazy.
    pub fn revalidate_cached_models(&mut self) {
        let comps: Vec<CompId> = self.least_cache.keys().copied().collect();
        for c in comps {
            self.least(c);
        }
    }

    /// Bench/diagnostic hook: drops every compiled flat arena, forcing
    /// the next evaluation of each component to reflatten from scratch.
    /// Calling this after every mutation reproduces the pre-patching
    /// mutation path (commit used to clear the cache wholesale) — the
    /// differential baseline for the arena-maintenance benchmarks.
    /// Models, epochs, and view versions are untouched.
    #[doc(hidden)]
    pub fn clear_flat_cache(&mut self) {
        self.flat_cache.clear();
    }

    /// Test/diagnostic hook: the compiled flat arena for `object` at
    /// the current epoch (building and caching it if absent). Two calls
    /// within one epoch return the same `Arc`; a mutation that changes
    /// a rule visible from `object` replaces the arena (patched in
    /// place or rebuilt), while mutations confined to unrelated
    /// components leave the `Arc` untouched.
    #[doc(hidden)]
    pub fn flat_view(&mut self, object: &str) -> Result<Arc<FlatView>, KbError> {
        let c = self.comp(object)?;
        Ok(self.flat(c))
    }

    /// Reassembles a KB from already-grounded parts — a decoded
    /// snapshot (`olp-store`). **No re-parse and no re-ground happens
    /// here**: the ground program is installed as-is; the incremental
    /// delta grounder is rebuilt lazily by the first mutation. The
    /// caller guarantees `ground` is the deterministic grounding of
    /// `prog` in `world` (true for any snapshot this code base wrote —
    /// decoding validates checksums and id ranges).
    pub fn from_ground_parts(
        world: World,
        prog: olp_core::OrderedProgram,
        ground: GroundProgram,
    ) -> Kb {
        let n_comps = prog.components.len();
        Kb {
            world: Arc::new(world),
            prog: Arc::new(prog),
            ground: Arc::new(ground),
            least_cache: FxHashMap::default(),
            flat_cache: FxHashMap::default(),
            stable_cache: FxHashMap::default(),
            stable_results: FxHashMap::default(),
            strategy: GroundStrategy::Smart,
            cfg: GroundConfig::default(),
            delta: None,
            delta_ids: Vec::new(),
            incremental: true,
            epoch: 0,
            touched_log: Vec::new(),
            view_version: vec![0; n_comps],
            ast_version: vec![0; n_comps],
            threads: default_threads(),
            profiles: FxHashMap::default(),
            profile_guided: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn penguin_kb(strategy: GroundStrategy) -> Kb {
        let mut b = KbBuilder::new();
        b.rules(
            "bird",
            "bird(penguin). bird(pigeon).
             fly(X) :- bird(X).
             -ground_animal(X) :- bird(X).",
        )
        .unwrap();
        b.isa("penguin_view", "bird");
        b.rules(
            "penguin_view",
            "ground_animal(penguin).
             -fly(X) :- ground_animal(X).",
        )
        .unwrap();
        b.build(strategy).unwrap()
    }

    #[test]
    fn inheritance_with_exceptions_both_strategies() {
        for strategy in [GroundStrategy::Exhaustive, GroundStrategy::Smart] {
            let mut kb = penguin_kb(strategy);
            assert_eq!(
                kb.truth("penguin_view", "fly(penguin)").unwrap(),
                Truth::False
            );
            assert_eq!(
                kb.truth("penguin_view", "fly(pigeon)").unwrap(),
                Truth::True
            );
            assert_eq!(kb.truth("bird", "fly(penguin)").unwrap(), Truth::True);
            assert!(kb.ask("penguin_view", "-fly(penguin)").unwrap());
        }
    }

    #[test]
    fn relations_feed_recursive_rules() {
        let mut b = KbBuilder::new();
        let mut parent = Relation::new("parent", 2);
        for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
            parent.insert_consts(b.world_mut(), &[x, y]).unwrap();
        }
        b.load_relation("genealogy", &parent);
        b.rules(
            "genealogy",
            "anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        )
        .unwrap();
        let mut kb = b.build(GroundStrategy::Smart).unwrap();
        assert!(kb.ask("genealogy", "anc(a,d)").unwrap());
        assert_eq!(kb.truth("genealogy", "anc(d,a)").unwrap(), Truth::Undefined);
        let ancs = kb.query_pred("genealogy", "anc", 2).unwrap();
        assert_eq!(ancs.len(), 6); // 3 + 2 + 1 pairs on a 4-chain
    }

    #[test]
    fn versioning_shadows_base() {
        let mut b = KbBuilder::new();
        b.rule("pricing_v1", "price(42).").unwrap();
        b.version_of("pricing_v2", "pricing_v1");
        b.rules("pricing_v2", "-price(42). price(45).").unwrap();
        let mut kb = b.build(GroundStrategy::Exhaustive).unwrap();
        assert_eq!(kb.truth("pricing_v1", "price(42)").unwrap(), Truth::True);
        assert_eq!(kb.truth("pricing_v2", "price(42)").unwrap(), Truth::False);
        assert_eq!(kb.truth("pricing_v2", "price(45)").unwrap(), Truth::True);
    }

    #[test]
    fn unknown_object_and_nonground_query_error() {
        let mut kb = penguin_kb(GroundStrategy::Exhaustive);
        assert!(matches!(
            kb.truth("nobody", "fly(pigeon)"),
            Err(KbError::UnknownObject(_))
        ));
        assert!(matches!(
            kb.truth("bird", "fly(X)"),
            Err(KbError::NonGroundQuery(_))
        ));
    }

    #[test]
    fn stable_models_for_defeating_kb() {
        // Mutually defeating experts under an empty child: empty stable
        // set contains only the empty model.
        let mut b = KbBuilder::new();
        b.rule("expert_a", "hire(candidate).").unwrap();
        b.rule("expert_b", "-hire(candidate).").unwrap();
        b.isa("committee", "expert_a");
        b.isa("committee", "expert_b");
        let mut kb = b.build(GroundStrategy::Exhaustive).unwrap();
        assert_eq!(
            kb.truth("committee", "hire(candidate)").unwrap(),
            Truth::Undefined
        );
        let stable = kb.stable("committee").unwrap();
        assert_eq!(stable.len(), 1);
        assert!(stable[0].is_empty());
    }

    #[test]
    fn nonground_queries_enumerate_bindings() {
        let mut kb = penguin_kb(GroundStrategy::Smart);
        let flyers = kb.query("penguin_view", "fly(X)").unwrap();
        assert_eq!(flyers, vec!["X=pigeon"]);
        let grounded = kb.query("penguin_view", "-fly(X)").unwrap();
        assert_eq!(grounded, vec!["X=penguin"]);
        // Ground pattern: one empty binding iff it holds.
        assert_eq!(kb.query("penguin_view", "fly(pigeon)").unwrap(), vec![""]);
        assert!(kb.query("penguin_view", "fly(penguin)").unwrap().is_empty());
        // Multi-variable patterns.
        let mut b = KbBuilder::new();
        b.rules(
            "g",
            "parent(a,b). parent(b,c). anc(X,Y) :- parent(X,Y).
                      anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        )
        .unwrap();
        let mut kb2 = b.build(GroundStrategy::Smart).unwrap();
        let ancs = kb2.query("g", "anc(X, Y)").unwrap();
        assert_eq!(ancs, vec!["X=a, Y=b", "X=a, Y=c", "X=b, Y=c"]);
    }

    #[test]
    fn explain_and_prove_round_trip() {
        let mut kb = penguin_kb(GroundStrategy::Exhaustive);
        let text = kb.explain("penguin_view", "-fly(penguin)").unwrap();
        assert!(text.contains("ground_animal(penguin)"));
        let text2 = kb.explain("penguin_view", "fly(penguin)").unwrap();
        assert!(text2.contains("overruled"));
        assert!(kb.prove("penguin_view", "-fly(penguin)").unwrap());
        assert!(!kb.prove("penguin_view", "fly(penguin)").unwrap());
        assert!(kb.prove("bird", "fly(penguin)").unwrap());
    }

    #[test]
    fn assert_and_retract_reground() {
        let mut kb = penguin_kb(GroundStrategy::Smart);
        // A new bird inherits the default.
        kb.assert_rule("bird", "bird(sparrow).").unwrap();
        assert_eq!(
            kb.truth("penguin_view", "fly(sparrow)").unwrap(),
            Truth::True
        );
        // Make it an exception.
        kb.assert_rule("penguin_view", "ground_animal(sparrow).")
            .unwrap();
        assert_eq!(
            kb.truth("penguin_view", "fly(sparrow)").unwrap(),
            Truth::False
        );
        // Retract the exception fact: back to flying.
        assert!(kb
            .retract_rule("penguin_view", "ground_animal(sparrow).")
            .unwrap());
        assert_eq!(
            kb.truth("penguin_view", "fly(sparrow)").unwrap(),
            Truth::True
        );
        // Retracting something absent reports false and changes nothing.
        assert!(!kb
            .retract_rule("penguin_view", "ground_animal(dodo).")
            .unwrap());
    }

    #[test]
    fn skeptical_surface() {
        let mut b = KbBuilder::new();
        b.rules("opts", "a. b.").unwrap();
        b.isa("chooser", "opts");
        b.rules("chooser", "-a :- b. -b :- a. r :- a. r :- b.")
            .unwrap();
        let mut kb = b.build(GroundStrategy::Exhaustive).unwrap();
        let sk = kb.skeptical("chooser").unwrap();
        let rendered = kb.render(&sk);
        assert_eq!(rendered, "{r}");
        assert_eq!(
            kb.truth("chooser", "r").unwrap(),
            Truth::Undefined,
            "the least model cannot do case analysis; skeptical can"
        );
    }

    #[test]
    fn objects_listed_in_declaration_order() {
        let kb = penguin_kb(GroundStrategy::Smart);
        assert_eq!(kb.objects(), vec!["bird", "penguin_view"]);
    }

    #[test]
    fn diff_between_versions() {
        let mut b = KbBuilder::new();
        b.rule("v1", "price(42).").unwrap();
        b.version_of("v2", "v1");
        b.rules("v2", "-price(42). price(45).").unwrap();
        let mut kb = b.build(GroundStrategy::Exhaustive).unwrap();
        let d = kb.diff("v1", "v2").unwrap();
        assert_eq!(
            d,
            vec![
                "price(42): true -> false".to_string(),
                "price(45): undefined -> true".to_string(),
            ]
        );
        assert!(kb.diff("v1", "v1").unwrap().is_empty());
    }

    #[test]
    fn budgeted_queries_complete_with_headroom() {
        let mut kb = penguin_kb(GroundStrategy::Smart);
        let opts = QueryOptions::new().max_steps(1_000_000);
        let ev = kb
            .truth_with("penguin_view", "fly(penguin)", &opts)
            .unwrap();
        assert!(ev.is_complete());
        assert_eq!(*ev.value(), Truth::False);
        let q = kb.query_with("penguin_view", "fly(X)", &opts).unwrap();
        assert_eq!(q.into_value(), vec!["X=pigeon"]);
        let st = kb.stable_with("penguin_view", &opts).unwrap();
        assert!(st.is_complete());
    }

    #[test]
    fn exhausted_budget_yields_partial_not_panic() {
        let mut kb = penguin_kb(GroundStrategy::Smart);
        let opts = QueryOptions::new().max_steps(1);
        let ev = kb.model_with("penguin_view", &opts).unwrap();
        assert!(ev.is_partial());
        // The partial model under-approximates: re-run unbudgeted and
        // check containment.
        let partial = ev.into_value();
        let full = kb.model("penguin_view").unwrap();
        assert!(partial.is_subset(full));
        // A complete model was never cached by the failed attempt, but
        // the unbudgeted call above cached one; now the budgeted call
        // hits the cache and completes even with max_steps(1).
        let ev2 = kb.model_with("penguin_view", &opts).unwrap();
        assert!(ev2.is_complete());
    }

    #[test]
    fn model_cap_truncates_stable_enumeration() {
        let mut b = KbBuilder::new();
        b.rules("opts", "a. b.").unwrap();
        b.isa("chooser", "opts");
        b.rules("chooser", "-a :- b. -b :- a.").unwrap();
        let mut kb = b.build(GroundStrategy::Exhaustive).unwrap();
        let all = kb.stable("chooser").unwrap();
        assert_eq!(all.len(), 2);
        let capped = kb
            .stable_with("chooser", &QueryOptions::new().max_models(1))
            .unwrap();
        assert!(capped.is_partial());
        for m in capped.value() {
            // Every partial member is a genuine assumption-free model.
            assert!(all.iter().any(|full| m.is_subset(full)));
        }
    }

    #[test]
    fn default_engines_match_the_oracle() {
        let mut kb = penguin_kb(GroundStrategy::Smart);
        let c = kb.comp("penguin_view").unwrap();
        let view = View::new(kb.ground_program(), c);
        let naive = olp_semantics::least_model_naive(&view);
        let mut naive_stable = olp_semantics::stable_models_naive(&view, kb.ground.n_atoms);
        let m = kb.model_with("penguin_view", &QueryOptions::new()).unwrap();
        assert!(m.is_complete());
        assert_eq!(m.value().as_ref(), &naive);
        let mut st = kb
            .stable_with("penguin_view", &QueryOptions::new())
            .unwrap()
            .into_value();
        let key = |m: &Interpretation| m.render(&kb.world);
        st.sort_by_key(key);
        naive_stable.sort_by_key(key);
        assert_eq!(st, naive_stable);
    }

    #[test]
    fn retract_matches_up_to_variable_renaming() {
        // Regression: retraction used plain syntactic equality, so a
        // renamed copy of a rule could not be retracted.
        let mut kb = penguin_kb(GroundStrategy::Smart);
        assert_eq!(
            kb.truth("penguin_view", "fly(penguin)").unwrap(),
            Truth::False
        );
        assert!(kb
            .retract_rule("penguin_view", "-fly(Z) :- ground_animal(Z).")
            .unwrap());
        assert_eq!(
            kb.truth("penguin_view", "fly(penguin)").unwrap(),
            Truth::True
        );
        // Distinct variable *patterns* still do not match.
        let mut b = KbBuilder::new();
        b.rule("g", "p(X,Y) :- q(X), q(Y).").unwrap();
        b.rule("g", "q(a).").unwrap();
        let mut kb2 = b.build(GroundStrategy::Smart).unwrap();
        assert!(!kb2.retract_rule("g", "p(X,X) :- q(X), q(X).").unwrap());
        assert!(kb2.retract_rule("g", "p(U,V) :- q(U), q(V).").unwrap());
        assert_eq!(kb2.truth("g", "p(a,a)").unwrap(), Truth::Undefined);
    }

    #[test]
    fn incremental_mutations_match_full_refresh() {
        let mut inc = penguin_kb(GroundStrategy::Smart);
        let mut full = penguin_kb(GroundStrategy::Smart);
        full.set_incremental(false);
        assert!(inc.is_incremental());
        assert!(!full.is_incremental());
        let script: &[(&str, &str, bool)] = &[
            ("bird", "bird(sparrow).", true),
            ("penguin_view", "ground_animal(sparrow).", true),
            ("bird", "swims(X) :- ground_animal(X).", true),
            ("penguin_view", "ground_animal(sparrow).", false),
            ("bird", "fly(X) :- bird(X).", false),
        ];
        for &(obj, src, is_assert) in script {
            if is_assert {
                inc.assert_rule(obj, src).unwrap();
                full.assert_rule(obj, src).unwrap();
            } else {
                assert_eq!(
                    inc.retract_rule(obj, src).unwrap(),
                    full.retract_rule(obj, src).unwrap()
                );
            }
            for obj in ["bird", "penguin_view"] {
                let mi = inc.model(obj).unwrap().clone();
                let mf = full.model(obj).unwrap().clone();
                assert_eq!(inc.render(&mi), full.render(&mf), "after mutating {obj}");
                let si: Vec<String> = inc
                    .stable(obj)
                    .unwrap()
                    .iter()
                    .map(|m| inc.render(m))
                    .collect();
                let sf: Vec<String> = full
                    .stable(obj)
                    .unwrap()
                    .iter()
                    .map(|m| full.render(m))
                    .collect();
                assert_eq!(si, sf);
            }
        }
        assert_eq!(inc.epoch(), 5);
    }

    #[test]
    fn stale_model_cache_revalidates_by_stratum() {
        let mut kb = penguin_kb(GroundStrategy::Smart);
        // Populate the cache, mutate, then query again: the cached
        // entry is delta-revalidated, not recomputed from scratch.
        let m = kb.model("penguin_view").unwrap().clone();
        let before = kb.render(&m);
        kb.assert_rule("bird", "bird(sparrow).").unwrap();
        assert_eq!(kb.epoch(), 1);
        let m = kb.model("penguin_view").unwrap().clone();
        let after = kb.render(&m);
        assert_ne!(before, after);
        assert!(after.contains("fly(sparrow)"));
        // A fresh KB with the same rules agrees exactly.
        let mut fresh = penguin_kb(GroundStrategy::Smart);
        fresh.assert_rule("bird", "bird(sparrow).").unwrap();
        let m = fresh.model("penguin_view").unwrap().clone();
        let reference = fresh.render(&m);
        assert_eq!(after, reference);
        // Budgeted revalidation of a stale entry is a sound partial.
        kb.assert_rule("bird", "bird(robin).").unwrap();
        let ev = kb
            .model_with("penguin_view", &QueryOptions::new().max_steps(1))
            .unwrap();
        if ev.is_partial() {
            let full = kb.model("penguin_view").unwrap();
            assert!(ev.value().is_subset(full));
        }
    }

    #[test]
    fn interrupted_assert_leaves_kb_unchanged() {
        let mut kb = penguin_kb(GroundStrategy::Smart);
        let m = kb.model("penguin_view").unwrap().clone();
        let before = kb.render(&m);
        let ev = kb
            .assert_rule_with("bird", "bird(sparrow).", &QueryOptions::new().max_steps(0))
            .unwrap();
        assert!(ev.is_partial(), "zero budget must interrupt the mutation");
        assert_eq!(kb.epoch(), 0);
        let m = kb.model("penguin_view").unwrap().clone();
        assert_eq!(
            kb.render(&m),
            before,
            "an interrupted mutation must not change the KB"
        );
        assert_eq!(
            kb.truth("penguin_view", "fly(sparrow)").unwrap(),
            Truth::Undefined
        );
        // The same mutation succeeds unbudgeted afterwards.
        kb.assert_rule("bird", "bird(sparrow).").unwrap();
        assert_eq!(
            kb.truth("penguin_view", "fly(sparrow)").unwrap(),
            Truth::True
        );
        // Interrupted retract reports "not removed" and changes nothing.
        let ev = kb
            .retract_rule_with("bird", "bird(sparrow).", &QueryOptions::new().max_steps(0))
            .unwrap();
        assert!(ev.is_partial());
        assert!(!ev.value());
        assert_eq!(
            kb.truth("penguin_view", "fly(sparrow)").unwrap(),
            Truth::True
        );
    }

    #[test]
    fn flat_view_cached_per_epoch_and_invalidated_by_mutation() {
        let mut kb = penguin_kb(GroundStrategy::Smart);
        // Within one epoch the compiled arena is built once and reused.
        let fv1 = kb.flat_view("penguin_view").unwrap();
        let fv2 = kb.flat_view("penguin_view").unwrap();
        assert!(Arc::ptr_eq(&fv1, &fv2), "same epoch must reuse the arena");
        // Model computation goes through the same cache.
        kb.model("penguin_view").unwrap();
        let fv3 = kb.flat_view("penguin_view").unwrap();
        assert!(Arc::ptr_eq(&fv1, &fv3));
        // Distinct objects get distinct arenas.
        let fv_bird = kb.flat_view("bird").unwrap();
        assert!(!Arc::ptr_eq(&fv1, &fv_bird));
        // A mutation bumps the epoch and invalidates: the next access
        // compiles a fresh arena against the new ground program.
        kb.assert_rule("bird", "bird(sparrow).").unwrap();
        assert_eq!(kb.epoch(), 1);
        let fv4 = kb.flat_view("penguin_view").unwrap();
        assert!(
            !Arc::ptr_eq(&fv1, &fv4),
            "mutation must invalidate the cached arena"
        );
        // And answers stay correct against the fresh arena.
        assert_eq!(
            kb.truth("penguin_view", "fly(sparrow)").unwrap(),
            Truth::True
        );
    }

    /// Two objects with no isa relation and disjoint predicates: a
    /// mutation to one is invisible from the other.
    fn two_island_kb() -> Kb {
        let mut b = KbBuilder::new();
        b.rules("left", "p(a). q(X) :- p(X).").unwrap();
        b.rules("right", "r(z). s(X) :- r(X).").unwrap();
        b.build(GroundStrategy::Smart).unwrap()
    }

    #[test]
    fn untouched_component_keeps_arena_and_model_across_mutation() {
        // Regression for the over-broad invalidation in the mutation
        // path: `commit` used to clear the whole flat cache, so a write
        // to any object forced every reader-side component to recompile
        // its arena and recompute its model from scratch.
        let mut kb = two_island_kb();
        let left = kb.comp("left").unwrap();
        let right = kb.comp("right").unwrap();
        let left_fv = kb.flat_view("left").unwrap();
        let right_fv = kb.flat_view("right").unwrap();
        kb.model("left").unwrap();
        kb.model("right").unwrap();
        let left_model = kb.least_cache[&left].model.clone();

        kb.assert_rule("right", "r(w).").unwrap();
        assert_eq!(kb.epoch(), 1);

        // The untouched component's compiled arena survives by pointer…
        let left_fv2 = kb.flat_view("left").unwrap();
        assert!(
            Arc::ptr_eq(&left_fv, &left_fv2),
            "mutation to `right` must not invalidate `left`'s arena"
        );
        // …and so does its cached model (O(1) re-tag, no recompute).
        kb.model("left").unwrap();
        assert!(
            Arc::ptr_eq(&left_model, &kb.least_cache[&left].model),
            "mutation to `right` must not recompute `left`'s model"
        );
        // The touched component was patched eagerly (the entry is
        // present without an intervening query) and not served stale.
        assert!(kb.flat_cache.contains_key(&right));
        let right_fv2 = kb.flat_view("right").unwrap();
        assert!(!Arc::ptr_eq(&right_fv, &right_fv2));
        // Answers stay exact on both sides.
        assert_eq!(kb.truth("right", "s(w)").unwrap(), Truth::True);
        assert_eq!(kb.truth("right", "s(z)").unwrap(), Truth::True);
        assert_eq!(kb.truth("left", "q(a)").unwrap(), Truth::True);
    }

    #[test]
    fn stable_results_memo_hits_for_unaffected_views() {
        let mut kb = two_island_kb();
        // The islands are definite, so the profile-guided fast path
        // would answer `stable` from the least model without ever
        // touching the memo under test; disable it here.
        kb.set_profile_guided(false);
        let s1 = kb.stable("left").unwrap();
        // A write to `right` leaves `left`'s view version alone, so the
        // whole-result memo answers; a write to `left` moves it.
        kb.assert_rule("right", "r(w).").unwrap();
        let left = kb.comp("left").unwrap();
        assert_eq!(kb.stable_results[&left].0, kb.view_version(left));
        let s2 = kb.stable("left").unwrap();
        assert_eq!(s1, s2);
        kb.assert_rule("left", "p(b).").unwrap();
        assert_ne!(kb.stable_results[&left].0, kb.view_version(left));
        let s3 = kb.stable("left").unwrap();
        assert!(s3.len() == 1 && s3[0].literals().count() == 4);
    }

    #[test]
    fn profile_fast_paths_match_general_and_cache_revalidates() {
        let mut kb = penguin_kb(GroundStrategy::Smart);
        // penguin_view is stratified and order-relevant: the profile
        // proves exactly one stable model, so `stable` answers from
        // the least model without enumerating.
        let p = kb
            .component_profile("penguin_view")
            .unwrap()
            .expect("order is valid");
        assert!(p.single_model, "{}", p.summary());
        assert!(p.order_relevant, "{}", p.summary());
        let fast = kb.stable("penguin_view").unwrap();
        kb.set_profile_guided(false);
        let slow = kb.stable("penguin_view").unwrap();
        assert_eq!(fast, slow, "fast path must be byte-identical");
        kb.set_profile_guided(true);

        // Repeat lookups hit the cache (same Arc, no recompute)…
        let p_again = kb.component_profile("penguin_view").unwrap().unwrap();
        assert!(Arc::ptr_eq(&p, &p_again));

        // …until a mutation bumps the view version, after which the
        // recomputed profile agrees with a from-scratch analysis.
        kb.assert_rule("bird", "bird(ostrich).").unwrap();
        let p2 = kb.component_profile("penguin_view").unwrap().unwrap();
        assert!(!Arc::ptr_eq(&p, &p2), "stale profile must be dropped");
        let c = kb.comp("penguin_view").unwrap();
        let order = kb.prog.order().expect("order stays valid");
        let fresh = olp_analyze::component_profile(&kb.prog, &order, c);
        assert_eq!(*p2, fresh, "revalidated profile == scratch analysis");
        assert_eq!(
            kb.truth("penguin_view", "fly(ostrich)").unwrap(),
            Truth::True
        );
    }

    #[test]
    fn model_caching_is_per_object() {
        let mut kb = penguin_kb(GroundStrategy::Exhaustive);
        let m1 = kb.model("bird").unwrap().clone();
        let m2 = kb.model("penguin_view").unwrap().clone();
        assert_ne!(m1, m2);
        // Second access hits the cache (same result).
        assert_eq!(kb.model("bird").unwrap(), &m1);
    }
}
