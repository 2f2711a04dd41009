//! Frozen, thread-safe KB views for snapshot-isolated reads.
//!
//! [`KbSnapshot`] is what a server hands its readers: the world,
//! ordered program, and grounding of a [`crate::Kb`] frozen at one
//! epoch, shared by `Arc` (publishing is O(components), see
//! [`crate::Kb::snapshot`]). Every query method takes `&self` and the
//! type is `Send + Sync`, so any number of threads evaluate
//! concurrently against one snapshot while a single writer mutates the
//! live KB and publishes the next epoch — readers never block on a
//! writer and never observe a half-applied mutation.
//!
//! ## Read-only query resolution
//!
//! The parser interns as it goes, which is why [`crate::Kb`] queries
//! take `&mut self`. A snapshot instead parses query text into a
//! private scratch [`World`] and *translates* the result into the
//! frozen world through read-only lookups ([`SymbolTable::get`],
//! [`TermStore::lookup`], [`AtomStore::get_id`]). A ground query whose
//! atom was never materialised at this epoch resolves to `Undefined` —
//! exactly what the mutable path answers after interning a fresh,
//! never-derivable atom — so snapshot answers are byte-identical to a
//! sequential [`crate::Kb`] evaluated at the same epoch.
//!
//! [`SymbolTable::get`]: olp_core::SymbolTable::get
//! [`TermStore::lookup`]: olp_core::TermStore::lookup
//! [`AtomStore::get_id`]: olp_core::AtomStore::get_id

use crate::kb::{KbError, QueryOptions};
use olp_analyze::{ComponentProfile, StratClass};
use olp_core::{
    Budget, CompId, Eval, FxHashMap, GLit, GTerm, GTermId, Interpretation, Interrupted, Literal,
    Sym, Term, Truth, World,
};
use olp_ground::{FlatView, GroundProgram};
use olp_parser::{parse_ground_literal, parse_literal};
use olp_semantics::{
    credulous_consequences_budgeted, least_model_first, least_model_flat_budgeted,
    least_model_flat_definite, skeptical_consequences_budgeted, stable_models_decomposed_budgeted,
    stable_models_parallel_budgeted, LeastFirst, View,
};
use std::sync::{Arc, Mutex};

/// An immutable view of a knowledge base frozen at one epoch.
///
/// Created by [`crate::Kb::snapshot`]. All query methods take `&self`;
/// internal caches (compiled flat arenas, memoised least models) sit
/// behind mutexes that are held only for map probes and inserts, never
/// across evaluation, so concurrent readers do not serialise on each
/// other.
#[derive(Debug)]
pub struct KbSnapshot {
    world: Arc<World>,
    prog: Arc<olp_core::OrderedProgram>,
    ground: Arc<GroundProgram>,
    epoch: u64,
    threads: usize,
    /// The publishing KB's [`crate::Kb::profile_guided`] bit: whether
    /// stable, skeptical and credulous reads answer least model first.
    profile_guided: bool,
    /// Compiled flat arenas, seeded from the publishing KB's
    /// current-epoch cache and extended on demand.
    flat: Mutex<FxHashMap<CompId, Arc<FlatView>>>,
    /// Memoised least models, seeded from the publishing KB's
    /// current-epoch cache and extended on first read.
    models: Mutex<FxHashMap<CompId, Arc<Interpretation>>>,
    /// Per-component semantic profiles frozen at this epoch (only the
    /// ones the publishing KB had warm — see [`crate::Kb::warm_profiles`]).
    /// Never recomputed snapshot-side; an absent entry just means no
    /// fast path and no `stats` profile line for that component.
    profiles: FxHashMap<CompId, Arc<ComponentProfile>>,
}

impl KbSnapshot {
    /// Assembles a snapshot from a KB's shared parts (crate-internal;
    /// use [`crate::Kb::snapshot`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        world: Arc<World>,
        prog: Arc<olp_core::OrderedProgram>,
        ground: Arc<GroundProgram>,
        epoch: u64,
        threads: usize,
        profile_guided: bool,
        flat: FxHashMap<CompId, Arc<FlatView>>,
        models: FxHashMap<CompId, Arc<Interpretation>>,
        profiles: FxHashMap<CompId, Arc<ComponentProfile>>,
    ) -> Self {
        Self {
            world,
            prog,
            ground,
            epoch,
            threads,
            profile_guided,
            flat: Mutex::new(flat),
            models: Mutex::new(models),
            profiles,
        }
    }

    /// The frozen semantic profile of `object`'s component, when the
    /// publishing KB had one warm at this epoch.
    pub fn profile(&self, object: &str) -> Result<Option<&ComponentProfile>, KbError> {
        let c = self.comp(object)?;
        Ok(self.profiles.get(&c).map(Arc::as_ref))
    }

    /// Every frozen profile, `(object name, profile)` in declaration
    /// order — what the server's `stats` response renders.
    pub fn profiles(&self) -> Vec<(&str, &ComponentProfile)> {
        let mut out: Vec<(CompId, &Arc<ComponentProfile>)> =
            self.profiles.iter().map(|(c, p)| (*c, p)).collect();
        out.sort_unstable_by_key(|(c, _)| c.0);
        out.into_iter()
            .map(|(c, p)| {
                (
                    self.world.syms.name(self.prog.components[c.index()].name),
                    p.as_ref(),
                )
            })
            .collect()
    }

    /// The mutation epoch this snapshot was frozen at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Query options with this snapshot's default thread count
    /// (inherited from the publishing KB).
    pub fn default_opts(&self) -> QueryOptions {
        QueryOptions::new().threads(self.threads)
    }

    /// The names of all objects, in declaration order.
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

    /// Total number of source rules across all objects.
    pub fn n_rules(&self) -> usize {
        self.prog.components.iter().map(|c| c.rules.len()).sum()
    }

    /// The underlying ground program.
    pub fn ground_program(&self) -> &GroundProgram {
        &self.ground
    }

    /// Renders an interpretation against this snapshot's symbol table.
    pub fn render(&self, i: &Interpretation) -> String {
        i.render(&self.world)
    }

    /// Renders a packed ground literal.
    pub fn render_glit(&self, l: GLit) -> String {
        self.world.glit_str(l)
    }

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

    /// The compiled flat arena for `c`, built at most once per snapshot
    /// (racing readers may both build; the insert is idempotent because
    /// construction is deterministic).
    fn flat(&self, c: CompId) -> Arc<FlatView> {
        if let Some(fv) = self.flat.lock().expect("flat cache poisoned").get(&c) {
            return fv.clone();
        }
        let fv = Arc::new(FlatView::new(&self.ground, c));
        self.flat
            .lock()
            .expect("flat cache poisoned")
            .entry(c)
            .or_insert(fv)
            .clone()
    }

    /// The least model of component `c`, charged to `budget`, memoised
    /// on completion. Mirrors [`crate::Kb::model_with`]'s
    /// fresh-computation path: [`least_model_flat_definite`] when the
    /// frozen profile proves the view negation-free, else
    /// [`least_model_flat_budgeted`].
    fn model_eval(&self, c: CompId, budget: &Budget) -> Eval<Arc<Interpretation>> {
        if let Some(m) = self.models.lock().expect("model cache poisoned").get(&c) {
            return Eval::Complete(m.clone());
        }
        let fv = self.flat(c);
        let definite = self
            .profiles
            .get(&c)
            .is_some_and(|p| p.strat == StratClass::NegationFree);
        let eval = if definite {
            least_model_flat_definite(&fv, budget)
        } else {
            least_model_flat_budgeted(&fv, budget)
        };
        match eval {
            Eval::Complete(m) => {
                let m = Arc::new(m);
                self.models
                    .lock()
                    .expect("model cache poisoned")
                    .entry(c)
                    .or_insert_with(|| m.clone());
                Eval::Complete(m)
            }
            Eval::Interrupted(i) => Eval::Interrupted(olp_core::Interrupted {
                reason: i.reason,
                partial: Arc::new(i.partial),
            }),
        }
    }

    /// The least model of the program in `object` under `opts`. Partial
    /// results are sound under-approximations, exactly as in
    /// [`crate::Kb::model_with`].
    pub fn model_with(
        &self,
        object: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Arc<Interpretation>>, KbError> {
        let c = self.comp(object)?;
        Ok(self.model_eval(c, &opts.budget()))
    }

    /// Truth of a ground literal in `object`'s least model under
    /// `opts`. Byte-identical to [`crate::Kb::truth_with`] at the same
    /// epoch: an atom unknown to this snapshot's world is `Undefined`,
    /// which is also what the interning path answers for a fresh,
    /// never-derivable atom.
    pub fn truth_with(
        &self,
        object: &str,
        query: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Truth>, KbError> {
        let c = self.comp(object)?;
        let lit = self.resolve_ground(query)?;
        Ok(self.model_eval(c, &opts.budget()).map(|m| match lit {
            None => Truth::Undefined,
            Some(l) => {
                if m.holds(l) {
                    Truth::True
                } else if m.holds(l.complement()) {
                    Truth::False
                } else {
                    Truth::Undefined
                }
            }
        }))
    }

    /// Answers a (possibly non-ground) query pattern against `object`'s
    /// least model under `opts`, rendered `var=term` in first-occurrence
    /// order and sorted — byte-identical to [`crate::Kb::query_with`] at
    /// the same epoch. A ground pattern yields one empty binding when it
    /// holds.
    pub fn query_with(
        &self,
        object: &str,
        pattern: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Vec<String>>, KbError> {
        let mut scratch = World::new();
        let lit = parse_literal(&mut scratch, pattern).map_err(KbError::Parse)?;
        let c = self.comp(object)?;
        Ok(self
            .model_eval(c, &opts.budget())
            .map(|m| self.enumerate_bindings(&scratch, &lit, &m)))
    }

    /// The least-model-first reading of `c` under `opts`
    /// ([`least_model_first`]): the memoised least model, then a search
    /// of the contested residual only, all charged to one budget.
    fn least_first(&self, c: CompId, opts: &QueryOptions) -> LeastFirst {
        let budget = opts.budget();
        let least = self.model_eval(c, &budget).map(|m| m.as_ref().clone());
        least_model_first(
            &self.ground,
            c,
            least,
            opts.threads,
            None,
            &budget,
            opts.max_models,
        )
    }

    /// Whether a read of `c` takes the single-model fast path: its
    /// frozen profile (only a guided KB hands profiles over) proves the
    /// view single-model.
    fn proved_single_model(&self, c: CompId) -> bool {
        self.profiles.get(&c).is_some_and(|p| p.single_model)
    }

    /// The stable models of the program in `object` under `opts`
    /// (including `max_models`). Engine choice mirrors
    /// [`crate::Kb::stable_with`] minus the mutable per-group memo: on a
    /// guided read a view the frozen profile proves single-model answers
    /// from the least model, and any other view searches only its
    /// contested residual ([`least_model_first`]); an unguided KB runs
    /// the general engine on the whole view.
    pub fn stable_with(
        &self,
        object: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Vec<Interpretation>>, KbError> {
        let c = self.comp(object)?;
        if opts.max_models.is_none_or(|cap| cap >= 2) && self.proved_single_model(c) {
            return Ok(match self.model_eval(c, &opts.budget()) {
                Eval::Complete(m) => Eval::Complete(vec![m.as_ref().clone()]),
                Eval::Interrupted(i) => Eval::Interrupted(Interrupted {
                    reason: i.reason,
                    partial: Vec::new(),
                }),
            });
        }
        if self.profile_guided {
            return Ok(self.least_first(c, opts).stable());
        }
        Ok(if opts.threads > 1 {
            stable_models_parallel_budgeted(
                &View::new(&self.ground, c),
                self.ground.n_atoms,
                opts.threads,
                &opts.budget(),
                opts.max_models,
            )
        } else {
            stable_models_decomposed_budgeted(
                &View::new(&self.ground, c),
                self.ground.n_atoms,
                &opts.budget(),
                opts.max_models,
            )
        })
    }

    /// The skeptical consequences in `object` (true in every stable
    /// model) under `opts`. Engine choice and the caveats on partial
    /// results are those of [`crate::Kb::skeptical_with`].
    pub fn skeptical_with(
        &self,
        object: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Interpretation>, KbError> {
        let c = self.comp(object)?;
        if self.proved_single_model(c) {
            // One stable model: the skeptical consequences are the
            // least model (partial results under-approximate here).
            return Ok(self
                .model_eval(c, &opts.budget())
                .map(|m| m.as_ref().clone()));
        }
        if self.profile_guided {
            return Ok(self.least_first(c, opts).skeptical());
        }
        Ok(skeptical_consequences_budgeted(
            &View::new(&self.ground, c),
            self.ground.n_atoms,
            &opts.budget(),
        ))
    }

    /// The credulous consequences in `object` (true in some stable
    /// model) under `opts`, as a sorted literal list. A guided read
    /// searches only the contested residual
    /// ([`LeastFirst::credulous`]; a partial result is empty when the
    /// least model itself was interrupted); otherwise the general
    /// engine ([`credulous_consequences_budgeted`]) runs on the whole
    /// view.
    pub fn credulous_with(
        &self,
        object: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Vec<GLit>>, KbError> {
        let c = self.comp(object)?;
        if self.profile_guided {
            return Ok(self.least_first(c, opts).credulous());
        }
        Ok(credulous_consequences_budgeted(
            &View::new(&self.ground, c),
            self.ground.n_atoms,
            &opts.budget(),
        ))
    }

    /// Explains why `query` holds (a proof tree) or does not (the fate
    /// of every candidate rule) in `object`, under `opts` for the model
    /// computation. An atom never materialised at this epoch gets a
    /// one-line "unknown" explanation instead of a rule-by-rule fate.
    pub fn explain_with(
        &self,
        object: &str,
        query: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<String>, KbError> {
        let c = self.comp(object)?;
        let Some(lit) = self.resolve_ground(query)? else {
            return Ok(Eval::Complete(format!(
                "{query}: unknown at epoch {} (no rule mentions this atom)",
                self.epoch
            )));
        };
        Ok(self.model_eval(c, &opts.budget()).map(|m| {
            let view = View::new(&self.ground, c);
            let why = olp_semantics::explain_in(&view, &m, lit);
            olp_semantics::render_why(&self.world, &view, &why)
        }))
    }

    /// Resolves a ground query literal against the frozen world without
    /// interning: `Ok(None)` means some symbol, term, or the atom itself
    /// was never materialised at this epoch (hence trivially
    /// underivable).
    fn resolve_ground(&self, query: &str) -> Result<Option<GLit>, KbError> {
        let mut scratch = World::new();
        let slit = parse_ground_literal(&mut scratch, query)
            .map_err(|_| KbError::NonGroundQuery(query.to_string()))?;
        let satom = scratch.atoms.get(slit.atom());
        let info = scratch.preds.info(satom.pred);
        let Some(sym) = self.world.syms.get(scratch.syms.name(info.name)) else {
            return Ok(None);
        };
        let Some(pred) = self.world.preds.get(sym, info.arity) else {
            return Ok(None);
        };
        let mut args = Vec::with_capacity(satom.args.len());
        for &a in satom.args.iter() {
            match translate_term(&scratch, &self.world, a) {
                Some(t) => args.push(t),
                None => return Ok(None),
            }
        }
        Ok(self
            .world
            .atoms
            .get_id(pred, &args)
            .map(|atom| GLit::new(slit.sign(), atom)))
    }

    /// Every binding of `lit`'s variables whose instance is true in
    /// `m`, rendered `var=term` and sorted. The pattern lives in
    /// `scratch`; matching compares constants and functors **by name**
    /// against the frozen world, which agrees with
    /// [`crate::Kb`]'s id-based matching because interning is
    /// injective on names.
    fn enumerate_bindings(
        &self,
        scratch: &World,
        lit: &Literal,
        m: &Interpretation,
    ) -> Vec<String> {
        let mut vars = Vec::new();
        lit.collect_vars(&mut vars);
        let info = scratch.preds.info(lit.pred);
        let pred = match self
            .world
            .syms
            .get(scratch.syms.name(info.name))
            .and_then(|s| self.world.preds.get(s, info.arity))
        {
            Some(p) => p,
            // Unknown predicate: no materialised instances, no bindings
            // (the interning path reaches the same conclusion through an
            // empty `of_pred`).
            None => return Vec::new(),
        };
        let mut out = Vec::new();
        for &atom in self.world.atoms.of_pred(pred) {
            if !m.holds(GLit::new(lit.sign, atom)) {
                continue;
            }
            let args = &self.world.atoms.get(atom).args;
            let mut b: Vec<(Sym, GTermId)> = Vec::new();
            let matched = lit
                .args
                .iter()
                .zip(args.iter())
                .all(|(pat, &g)| match_pat(scratch, &self.world, pat, g, &mut b));
            if matched {
                let binding: Vec<String> = vars
                    .iter()
                    .map(|v| {
                        let g = b
                            .iter()
                            .find(|(s, _)| s == v)
                            .expect("collected var is bound by a full match")
                            .1;
                        format!("{}={}", scratch.syms.name(*v), self.world.term_str(g))
                    })
                    .collect();
                out.push(binding.join(", "));
            }
        }
        out.sort();
        out
    }
}

/// Translates a ground term interned in `scratch` into `real`'s term
/// store by structural read-only lookup; `None` if any sub-term was
/// never materialised there.
fn translate_term(scratch: &World, real: &World, t: GTermId) -> Option<GTermId> {
    match scratch.terms.get(t) {
        GTerm::Const(s) => {
            let rs = real.syms.get(scratch.syms.name(*s))?;
            real.terms.lookup(&GTerm::Const(rs))
        }
        GTerm::Int(i) => real.terms.lookup(&GTerm::Int(*i)),
        GTerm::Func(f, args) => {
            let rf = real.syms.get(scratch.syms.name(*f))?;
            let rargs: Option<Vec<GTermId>> = args
                .iter()
                .map(|&a| translate_term(scratch, real, a))
                .collect();
            real.terms.lookup(&GTerm::Func(rf, rargs?.into()))
        }
    }
}

/// Matches a (scratch-world) pattern term against a (frozen-world)
/// ground term, threading variable bindings; name-based comparison for
/// constants and functors.
fn match_pat(
    scratch: &World,
    real: &World,
    pat: &Term,
    g: GTermId,
    b: &mut Vec<(Sym, GTermId)>,
) -> bool {
    match pat {
        Term::Var(v) => {
            if let Some(&(_, bound)) = b.iter().find(|(s, _)| s == v) {
                bound == g
            } else {
                b.push((*v, g));
                true
            }
        }
        Term::Const(c) => matches!(
            real.terms.get(g),
            GTerm::Const(rc) if real.syms.name(*rc) == scratch.syms.name(*c)
        ),
        Term::Int(i) => matches!(real.terms.get(g), GTerm::Int(ri) if ri == i),
        Term::App(f, pargs) => match real.terms.get(g) {
            GTerm::Func(rf, rargs)
                if real.syms.name(*rf) == scratch.syms.name(*f) && rargs.len() == pargs.len() =>
            {
                pargs
                    .iter()
                    .zip(rargs.iter())
                    .all(|(p, &rg)| match_pat(scratch, real, p, rg, b))
            }
            _ => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use crate::kb::{GroundStrategy, KbBuilder, QueryOptions};
    use olp_core::Truth;

    fn penguin_kb() -> crate::Kb {
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
        b.build(GroundStrategy::Smart).unwrap()
    }

    #[test]
    fn snapshot_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::KbSnapshot>();
    }

    #[test]
    fn snapshot_answers_match_kb() {
        let mut kb = penguin_kb();
        let snap = kb.snapshot();
        let opts = QueryOptions::new().threads(1);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(
            snap.truth_with("penguin_view", "fly(penguin)", &opts)
                .unwrap()
                .into_value(),
            Truth::False
        );
        assert_eq!(
            snap.query_with("penguin_view", "fly(X)", &opts)
                .unwrap()
                .into_value(),
            kb.query("penguin_view", "fly(X)").unwrap()
        );
        // Ground pattern round-trips the empty-binding convention.
        assert_eq!(
            snap.query_with("penguin_view", "fly(pigeon)", &opts)
                .unwrap()
                .into_value(),
            vec![""]
        );
        // Unknown atoms and predicates answer exactly like the
        // interning path.
        assert_eq!(
            snap.truth_with("bird", "fly(dodo)", &opts)
                .unwrap()
                .into_value(),
            Truth::Undefined
        );
        assert!(snap
            .query_with("bird", "swims(X)", &opts)
            .unwrap()
            .into_value()
            .is_empty());

        // A p5-style contested object: K species each with `pa` and `pb`
        // defeating each other below the penguin taxonomy, so `judge` has
        // 2^K stable models. Guided snapshot reads (least model first)
        // must match the live KB and the general engine at 1 and 4
        // threads.
        const K: usize = 3;
        let contested = |guided: bool| {
            let mut b = KbBuilder::new();
            b.rules(
                "bird",
                "bird(penguin). bird(pigeon). fly(X) :- bird(X).
                 -ground_animal(X) :- bird(X).",
            )
            .unwrap();
            let facts: String = (0..K).map(|i| format!("pa(s{i}). pb(s{i}). ")).collect();
            b.rules("evidence", &facts).unwrap();
            b.isa("judge", "bird");
            b.isa("judge", "evidence");
            b.rules("judge", "-pa(X) :- pb(X). -pb(X) :- pa(X).")
                .unwrap();
            let mut kb = b.build(GroundStrategy::Smart).unwrap();
            kb.set_profile_guided(guided);
            kb.warm_profiles();
            kb
        };
        let sorted = |snap: &crate::KbSnapshot, ms: &[olp_core::Interpretation]| {
            let mut v: Vec<String> = ms.iter().map(|m| snap.render(m)).collect();
            v.sort();
            v
        };
        let mut live = contested(true);
        let live_stable = live.stable("judge").unwrap();
        let live_skeptical = live.skeptical("judge").unwrap();
        let (guided, general) = (live.snapshot(), contested(false).snapshot());
        assert_eq!(sorted(&guided, &live_stable).len(), 1 << K);
        for threads in [1, 4] {
            let opts = QueryOptions::new().threads(threads);
            let stable = guided.stable_with("judge", &opts).unwrap().into_value();
            assert_eq!(sorted(&guided, &stable), sorted(&guided, &live_stable));
            assert_eq!(
                sorted(&guided, &stable),
                sorted(
                    &general,
                    &general.stable_with("judge", &opts).unwrap().into_value()
                )
            );
            let skeptical = guided.skeptical_with("judge", &opts).unwrap().into_value();
            assert_eq!(skeptical, live_skeptical);
            assert_eq!(
                guided.render(&skeptical),
                general.render(&general.skeptical_with("judge", &opts).unwrap().into_value())
            );
            let render_lits = |snap: &crate::KbSnapshot, ls: Vec<olp_core::GLit>| {
                ls.into_iter()
                    .map(|l| snap.render_glit(l))
                    .collect::<Vec<_>>()
            };
            let credulous = guided.credulous_with("judge", &opts).unwrap().into_value();
            assert_eq!(
                render_lits(&guided, credulous),
                render_lits(
                    &general,
                    general.credulous_with("judge", &opts).unwrap().into_value()
                )
            );
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutations() {
        let mut kb = penguin_kb();
        let before = kb.snapshot();
        kb.assert_rule("bird", "bird(sparrow).").unwrap();
        let after = kb.snapshot();
        let opts = QueryOptions::new().threads(1);
        assert_eq!(before.epoch(), 0);
        assert_eq!(after.epoch(), 1);
        // The old snapshot still answers at epoch 0: sparrow unknown.
        assert_eq!(
            before
                .truth_with("penguin_view", "fly(sparrow)", &opts)
                .unwrap()
                .into_value(),
            Truth::Undefined
        );
        assert_eq!(
            after
                .truth_with("penguin_view", "fly(sparrow)", &opts)
                .unwrap()
                .into_value(),
            Truth::True
        );
        // And the live KB agrees with the new snapshot.
        assert_eq!(
            kb.truth("penguin_view", "fly(sparrow)").unwrap(),
            Truth::True
        );
    }

    #[test]
    fn concurrent_readers_share_one_snapshot() {
        let kb = penguin_kb();
        let snap = kb.snapshot();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let snap = &snap;
                s.spawn(move || {
                    let opts = QueryOptions::new().threads(1);
                    for _ in 0..25 {
                        assert_eq!(
                            snap.truth_with("penguin_view", "fly(penguin)", &opts)
                                .unwrap()
                                .into_value(),
                            Truth::False
                        );
                        assert_eq!(
                            snap.query_with("bird", "fly(X)", &opts)
                                .unwrap()
                                .into_value(),
                            vec!["X=penguin", "X=pigeon"]
                        );
                    }
                });
            }
        });
    }
}
