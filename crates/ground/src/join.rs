//! Shared join machinery for the smart and delta grounders: compiled
//! body plans, the per-argument-position derivability index, the greedy
//! selectivity-driven join planner, and the batch-parallel frontier
//! phase of the bulk-synchronous grounding loop.
//!
//! ## The bulk-synchronous split
//!
//! The semi-naive closure alternates two kinds of work: *matching* body
//! literals against the derivability index (pure reads of the [`World`]
//! and the index) and *committing* emissions (interning new head atoms,
//! growing `D`, the active domain and the frontier queue — all
//! mutations). Both grounders therefore process the frontier in
//! batches: phase A joins every work item of the batch against a frozen
//! snapshot and records the complete matches; phase B replays the
//! records sequentially in item order and performs the mutations.
//!
//! Phase A touches no mutable state, so it can fan out over worker
//! threads — and because phase B commits in the fixed (item, match)
//! order that a single-threaded phase A produces too, the resulting
//! ground program is **bit-identical for every thread count**: the same
//! instances, interned in the same order, yielding the same atom ids.
//!
//! ## The join planner
//!
//! Body literals are joined in estimated-cost order instead of textual
//! order: at every join step the planner estimates, for each remaining
//! literal, how many matches scanning it would produce — from the real
//! per-(predicate, sign) statistics the [`DIndex`] accumulates during
//! grounding (candidate cardinality, exact filtered-list lengths for
//! bound argument keys, and per-position distinct-value counts as
//! independence-assumption divisors) — and picks the cheapest. Bound
//! positions are served from the per-(predicate, sign, position) term
//! index, which shrinks the candidate list from "every derivable atom
//! of the predicate" to "every derivable atom with this term at this
//! position". Join order never changes the *set* of complete matches —
//! only how many partial bindings are attempted on the way. The same
//! statistics are exported post-grounding as
//! [`crate::flat::ProgramStats`] for `olp check` / REPL inspection.

use crate::universe::GroundError;
use olp_core::term::Bindings;
use olp_core::{AtomId, Budget, FxHashMap, GLit, GTermId, Literal, PredId, Sign, Sym, Term, World};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a body-literal argument can key into the positional index.
#[derive(Debug, Clone)]
pub(crate) enum ArgKey {
    /// Fully ground argument, interned once at rule-compile time.
    Ground(GTermId),
    /// A plain variable: indexable as soon as a join binds it.
    Var(Sym),
    /// Compound pattern containing variables: not indexable.
    Open,
}

/// A body literal compiled for planned joining.
#[derive(Debug)]
pub(crate) struct JLit {
    /// The literal pattern.
    pub lit: Literal,
    /// One [`ArgKey`] per argument position.
    pub keys: Vec<ArgKey>,
    /// The variables occurring in the pattern.
    pub vars: Vec<Sym>,
}

/// The compiled body of one rule (literal patterns only; comparisons
/// stay with the owning grounder, which evaluates them at emission).
#[derive(Debug, Default)]
pub(crate) struct BodyPlan {
    /// Body literals in textual order.
    pub lits: Vec<JLit>,
}

/// Compiles body literals into a [`BodyPlan`], interning the ground
/// arguments so the planner can use them as index keys without
/// touching the (then frozen) world during joins.
pub(crate) fn compile_body(world: &mut World, lits: &[Literal]) -> BodyPlan {
    let empty = Bindings::default();
    let compiled = lits
        .iter()
        .map(|l| {
            let keys = l
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => ArgKey::Var(*v),
                    t if t.is_ground() => ArgKey::Ground(
                        t.intern(&mut world.terms, &empty)
                            .expect("ground argument interning cannot fail"),
                    ),
                    _ => ArgKey::Open,
                })
                .collect();
            let mut vars = Vec::new();
            l.collect_vars(&mut vars);
            JLit {
                lit: l.clone(),
                keys,
                vars,
            }
        })
        .collect();
    BodyPlan { lits: compiled }
}

/// Per-(predicate, sign) slice of the derivability closure.
#[derive(Debug, Default)]
pub(crate) struct PredIndex {
    /// Every derivable atom of the predicate, in derivation order.
    pub atoms: Vec<AtomId>,
    /// Per argument position: term → atoms carrying it there.
    pub pos: Vec<FxHashMap<GTermId, Vec<AtomId>>>,
}

/// The derivability closure `D` as a join index: candidate lists per
/// (predicate, sign) plus per-argument-position term lists for the
/// planner. The owning grounder deduplicates via its `d_set` before
/// calling [`DIndex::add`].
#[derive(Debug, Default)]
pub(crate) struct DIndex {
    by: FxHashMap<(PredId, Sign), PredIndex>,
    /// Static cardinality seeds from the counting abstract domain
    /// (distinct ground-fact heads per (pred, sign), counted over the
    /// AST before grounding). They stand in for measured statistics
    /// while a predicate has no indexed atoms yet: the planner uses
    /// the seed as that position's match estimate, so it prefers
    /// provably-empty predicates (seed 0 ⇒ immediate prune) over ones
    /// whose facts merely have not been committed yet. As soon as the
    /// first atom of a (pred, sign) is indexed, measured statistics
    /// take over and the seed is ignored.
    seeds: FxHashMap<(PredId, Sign), u64>,
}

impl DIndex {
    /// Indexes a (deduplicated) derivable literal.
    pub fn add(&mut self, world: &World, l: GLit) {
        let atom = world.atoms.get(l.atom());
        let e = self.by.entry((atom.pred, l.sign())).or_default();
        if e.pos.len() < atom.args.len() {
            e.pos.resize_with(atom.args.len(), FxHashMap::default);
        }
        for (i, &t) in atom.args.iter().enumerate() {
            e.pos[i].entry(t).or_default().push(l.atom());
        }
        e.atoms.push(l.atom());
    }

    /// The index slice for `(pred, sign)`, if any literal was added.
    pub fn get(&self, pred: PredId, sign: Sign) -> Option<&PredIndex> {
        self.by.get(&(pred, sign))
    }

    /// The plain candidate list for `(pred, sign)` (no positional
    /// filtering) — what the unplanned join iterates.
    pub fn candidates(&self, pred: PredId, sign: Sign) -> &[AtomId] {
        self.get(pred, sign).map_or(&[], |p| p.atoms.as_slice())
    }

    /// Adds `n` to the static cardinality seed of `(pred, sign)`.
    pub fn seed(&mut self, pred: PredId, sign: Sign, n: u64) {
        *self.seeds.entry((pred, sign)).or_insert(0) += n;
    }

    /// The static cardinality seed for `(pred, sign)` (0 if unseeded).
    pub fn seed_bound(&self, pred: PredId, sign: Sign) -> u64 {
        self.seeds.get(&(pred, sign)).copied().unwrap_or(0)
    }

    /// Drops every measured entry (used by the delta grounder's
    /// replay). Seeds are program-text facts, not grounding state, so
    /// they survive: the replayed closure starts from the same priors.
    pub fn clear(&mut self) {
        self.by.clear();
    }
}

/// Shared instantiation meter: the `max_instances` pool as an atomic
/// (so phase-A workers can draw from it concurrently) plus the step
/// governor. Exhaustion of either aborts the grounding.
#[derive(Debug)]
pub(crate) struct SpendPool {
    remaining: AtomicUsize,
    max: usize,
    gov: Budget,
}

impl SpendPool {
    pub fn new(max: usize, gov: Budget) -> Self {
        SpendPool {
            remaining: AtomicUsize::new(max),
            max,
            gov,
        }
    }

    /// Draws `n` attempts from the pool and charges the governor.
    pub fn spend(&self, n: usize) -> Result<(), GroundError> {
        if self
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(n))
            .is_err()
        {
            return Err(GroundError::TooManyInstances(self.max));
        }
        self.gov.charge(n as u64)?;
        Ok(())
    }
}

/// Amortised per-worker front-end to a [`SpendPool`]: counts locally
/// and settles in batches, so concurrent workers do not contend on the
/// shared atomics per candidate. Exhaustion is detected at batch
/// granularity (the attempt count may overshoot by up to one batch).
pub(crate) struct LocalSpend<'a> {
    pool: &'a SpendPool,
    pending: usize,
}

const SPEND_BATCH: usize = 1024;

impl<'a> LocalSpend<'a> {
    pub fn new(pool: &'a SpendPool) -> Self {
        LocalSpend { pool, pending: 0 }
    }

    #[inline]
    pub fn spend(&mut self, n: usize) -> Result<(), GroundError> {
        self.pending += n;
        if self.pending >= SPEND_BATCH {
            self.flush()?;
        }
        Ok(())
    }

    pub fn flush(&mut self) -> Result<(), GroundError> {
        let n = std::mem::take(&mut self.pending);
        if n > 0 {
            self.pool.spend(n)?;
        }
        Ok(())
    }
}

/// A complete body match found in phase A, ready for the sequential
/// commit: the rule, the bindings accumulated by the join, and the
/// matched body literals in textual order.
#[derive(Debug)]
pub(crate) struct Rec {
    pub rule: usize,
    pub b: Bindings,
    pub body: Vec<GLit>,
}

/// One unit of phase-A work.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Item {
    /// Join a freshly derived frontier literal into body position `pos`
    /// of rule `rule` (semi-naive driving).
    Drive { lit: GLit, rule: usize, pos: usize },
    /// Join every body position of `rule` from scratch (facts,
    /// active-domain re-runs, and delta-grounder seed joins).
    Seed { rule: usize },
}

/// Matches a literal pattern against a ground atom, extending `b`.
pub(crate) fn match_lit(world: &World, lit: &Literal, atom: AtomId, b: &mut Bindings) -> bool {
    let args = &world.atoms.get(atom).args;
    debug_assert_eq!(args.len(), lit.args.len());
    lit.args
        .iter()
        .zip(args.iter())
        .all(|(pat, &g)| pat.match_ground(g, &world.terms, b))
}

/// Picks the next body position to join, driven by the real statistics
/// the index accumulated during grounding. For every remaining position
/// the planner estimates its match count: the scanned candidate list is
/// the shortest single-bound-key filtered list (its length is an
/// *exact* match bound for that key), and every further bound key
/// divides the estimate by its position's distinct-value count — the
/// classic independence assumption, computed in `u128` cross products
/// so no floats enter the engine. Smallest estimate wins; ties break by
/// smaller scanned list, then by textual position. Every input is
/// frozen for the batch, so the choice is deterministic. With the
/// planner off: the textually first remaining position over the full
/// candidate list — the pre-planner behaviour, kept as an ablation
/// baseline.
fn choose<'a>(
    plan: &BodyPlan,
    index: &'a DIndex,
    remaining: &[usize],
    b: &Bindings,
    planner: bool,
) -> (usize, &'a [AtomId]) {
    if !planner {
        let (i, &pos) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &p)| p)
            .expect("remaining nonempty");
        let jl = &plan.lits[pos];
        return (i, index.candidates(jl.lit.pred, jl.lit.sign));
    }
    // est = num / den estimated matches; compared as cross products.
    struct Best<'a> {
        num: u128,
        den: u128,
        len: usize,
        pos: usize,
        idx: usize,
        cand: &'a [AtomId],
    }
    let mut best: Option<Best<'_>> = None;
    for (i, &pos) in remaining.iter().enumerate() {
        let jl = &plan.lits[pos];
        let (num, den, cand): (u128, u128, &[AtomId]) = match index.get(jl.lit.pred, jl.lit.sign) {
            // No measured statistics for the predicate yet: fall back
            // to the static cardinality seed. A seed of 0 means the
            // predicate is provably empty — choosing it first prunes
            // the whole subtree immediately; a positive seed defers
            // the position behind cheaper measured ones (the scan is
            // still free either way, since the candidate list is
            // empty until the facts commit).
            None => (
                u128::from(index.seed_bound(jl.lit.pred, jl.lit.sign)),
                1,
                &[],
            ),
            Some(p) => {
                let mut cand: &[AtomId] = &p.atoms;
                let mut scan_ai: Option<usize> = None;
                let mut bound: Vec<(usize, usize)> = Vec::new(); // (ai, distinct)
                for (ai, key) in jl.keys.iter().enumerate() {
                    let t = match key {
                        ArgKey::Ground(t) => Some(*t),
                        ArgKey::Var(v) => b.get(v).copied(),
                        ArgKey::Open => None,
                    };
                    if let Some(t) = t {
                        let list = p
                            .pos
                            .get(ai)
                            .and_then(|m| m.get(&t))
                            .map_or(&[][..], std::vec::Vec::as_slice);
                        if list.len() < cand.len() {
                            cand = list;
                            scan_ai = Some(ai);
                        }
                        let distinct = p.pos.get(ai).map_or(1, FxHashMap::len).max(1);
                        bound.push((ai, distinct));
                    }
                }
                // The scanned key's selectivity is already exact in
                // `cand.len()`; the remaining bound keys contribute
                // their distinct-count divisors.
                let mut den: u128 = 1;
                for &(ai, d) in &bound {
                    if Some(ai) != scan_ai {
                        den = den.saturating_mul(d as u128);
                    }
                }
                (cand.len() as u128, den, cand)
            }
        };
        let better = match &best {
            None => true,
            Some(b) => {
                let (lhs, rhs) = (num.saturating_mul(b.den), b.num.saturating_mul(den));
                lhs < rhs
                    || (lhs == rhs && (cand.len() < b.len || (cand.len() == b.len && pos < b.pos)))
            }
        };
        if better {
            best = Some(Best {
                num,
                den,
                len: cand.len(),
                pos,
                idx: i,
                cand,
            });
        }
    }
    let best = best.expect("remaining nonempty");
    (best.idx, best.cand)
}

/// Recursive planned join over the remaining body positions; pushes a
/// [`Rec`] per complete match. Read-only apart from the caller-owned
/// scratch (`remaining`, `b`, `body`) and the output buffer.
#[allow(clippy::too_many_arguments)]
fn join_rec(
    world: &World,
    plan: &BodyPlan,
    index: &DIndex,
    planner: bool,
    rule: usize,
    remaining: &mut Vec<usize>,
    b: &mut Bindings,
    body: &mut [Option<GLit>],
    spend: &mut LocalSpend<'_>,
    out: &mut Vec<Rec>,
) -> Result<(), GroundError> {
    if remaining.is_empty() {
        out.push(Rec {
            rule,
            b: b.clone(),
            body: body
                .iter()
                .map(|g| g.expect("all positions matched"))
                .collect(),
        });
        return Ok(());
    }
    let (idx, cand) = choose(plan, index, remaining, b, planner);
    let pos = remaining.swap_remove(idx);
    let jl = &plan.lits[pos];
    // Every candidate starts from the same bindings, so the variables
    // this literal binds afresh are the ones to unbind after each.
    let fresh: Vec<Sym> = jl
        .vars
        .iter()
        .copied()
        .filter(|v| !b.contains_key(v))
        .collect();
    for &c in cand {
        spend.spend(1)?;
        if match_lit(world, &jl.lit, c, b) {
            body[pos] = Some(GLit::new(jl.lit.sign, c));
            join_rec(
                world, plan, index, planner, rule, remaining, b, body, spend, out,
            )?;
            body[pos] = None;
        }
        for v in &fresh {
            b.remove(v);
        }
    }
    remaining.push(pos);
    Ok(())
}

/// Runs one work item to completion, returning its matches in
/// deterministic join order.
fn run_item(
    world: &World,
    plans: &[BodyPlan],
    index: &DIndex,
    planner: bool,
    pool: &SpendPool,
    item: &Item,
) -> Result<Vec<Rec>, GroundError> {
    let mut out = Vec::new();
    let mut ls = LocalSpend::new(pool);
    match *item {
        Item::Drive { lit, rule, pos } => {
            let plan = &plans[rule];
            let jl = &plan.lits[pos];
            let mut b = Bindings::default();
            if match_lit(world, &jl.lit, lit.atom(), &mut b) {
                let n = plan.lits.len();
                let mut body: Vec<Option<GLit>> = vec![None; n];
                body[pos] = Some(lit);
                let mut remaining: Vec<usize> = (0..n).filter(|&p| p != pos).collect();
                join_rec(
                    world,
                    plan,
                    index,
                    planner,
                    rule,
                    &mut remaining,
                    &mut b,
                    &mut body,
                    &mut ls,
                    &mut out,
                )?;
            }
        }
        Item::Seed { rule } => {
            let plan = &plans[rule];
            let n = plan.lits.len();
            let mut b = Bindings::default();
            let mut body: Vec<Option<GLit>> = vec![None; n];
            let mut remaining: Vec<usize> = (0..n).collect();
            join_rec(
                world,
                plan,
                index,
                planner,
                rule,
                &mut remaining,
                &mut b,
                &mut body,
                &mut ls,
                &mut out,
            )?;
        }
    }
    ls.flush()?;
    Ok(out)
}

/// Minimum batch size worth fanning out: below this the spawn cost of
/// the scoped workers exceeds the join work.
const PAR_THRESHOLD: usize = 8;

/// Phase A of one frontier batch: joins every item against the frozen
/// index and returns per-item match lists in item order. Fans out over
/// `threads` scoped workers when the batch is large enough; the
/// `threads <= 1` path runs the identical join code inline, so results
/// are bit-for-bit independent of the thread count. A budget trip on
/// any worker stops the whole batch at the next item boundary (workers
/// inside a long item observe it through the shared governor).
pub(crate) fn frontier_join(
    world: &World,
    plans: &[BodyPlan],
    index: &DIndex,
    items: &[Item],
    threads: usize,
    planner: bool,
    pool: &SpendPool,
) -> Result<Vec<Vec<Rec>>, GroundError> {
    if threads <= 1 || items.len() < PAR_THRESHOLD {
        let mut out = Vec::with_capacity(items.len());
        for it in items {
            out.push(run_item(world, plans, index, planner, pool, it)?);
        }
        return Ok(out);
    }
    type ItemSlot = Mutex<Option<Result<Vec<Rec>, GroundError>>>;
    let workers = threads.min(items.len());
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<ItemSlot> = items.iter().map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            let (next, stop, slots) = (&next, &stop, &slots);
            scope.spawn(move |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() || stop.load(Ordering::Relaxed) {
                    return;
                }
                let r = run_item(world, plans, index, planner, pool, &items[i]);
                if r.is_err() {
                    stop.store(true, Ordering::Relaxed);
                }
                *slots[i].lock().expect("slot") = Some(r);
            });
        }
    })
    .expect("scope");
    let results: Vec<Option<Result<Vec<Rec>, GroundError>>> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot"))
        .collect();
    if let Some(e) = results.iter().find_map(|r| match r {
        Some(Err(e)) => Some(e.clone()),
        _ => None,
    }) {
        return Err(e);
    }
    Ok(results
        .into_iter()
        .map(|r| match r {
            Some(Ok(v)) => v,
            _ => unreachable!("item skipped without a recorded error"),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use olp_core::Term;

    #[test]
    fn planner_consults_seeds_before_measured_stats() {
        let mut world = World::new();
        let p = world.pred("p", 1);
        let q = world.pred("q", 1);
        let x = world.syms.intern("X");
        let body = vec![
            Literal::pos(p, vec![Term::Var(x)]),
            Literal::pos(q, vec![Term::Var(x)]),
        ];
        let plan = compile_body(&mut world, &body);
        let mut index = DIndex::default();
        // Three measured q atoms; p has nothing derivable yet.
        for name in ["a", "b", "c"] {
            let s = world.syms.intern(name);
            let t = world.terms.constant(s);
            let atom = world.atoms.intern(q, &[t]);
            index.add(&world, GLit::pos(atom));
        }
        let b = Bindings::default();
        // Unseeded: the p position (no stats ⇒ estimate 0) is chosen
        // first — a free prune of the whole subtree.
        let (_, cand) = choose(&plan, &index, &[0, 1], &b, true);
        assert!(cand.is_empty(), "unseeded empty predicate scans first");
        // Seeded with 100 expected facts, p is deferred behind the
        // cheaper measured q scan until its facts actually commit.
        index.seed(p, Sign::Pos, 100);
        assert_eq!(index.seed_bound(p, Sign::Pos), 100);
        let (idx, cand) = choose(&plan, &index, &[0, 1], &b, true);
        assert_eq!(idx, 1, "measured 3-atom scan beats the 100-fact prior");
        assert_eq!(cand.len(), 3);
        // Measured statistics supersede the seed entirely.
        let s = world.syms.intern("d");
        let t = world.terms.constant(s);
        let atom = world.atoms.intern(p, &[t]);
        index.add(&world, GLit::pos(atom));
        let (idx, cand) = choose(&plan, &index, &[0, 1], &b, true);
        assert_eq!(idx, 0, "one measured p atom beats three q atoms");
        assert_eq!(cand.len(), 1);
    }
}
