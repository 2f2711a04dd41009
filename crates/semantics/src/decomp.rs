//! Dependency condensation: SCC strata and independent rule groups.
//!
//! The evaluators in this crate are exact but monolithic by default: one
//! worklist over every rule, one 3-valued search tree over every
//! derivable atom. This module computes a **condensation** of the view's
//! dependency structure and threads it through both:
//!
//! * [`least_model_stratified`] runs the fixpoint worklist
//!   stratum-by-stratum over the topologically ordered SCC DAG — smaller
//!   counters, better locality, and each stratum is finished (its atoms'
//!   values are final) before the next begins;
//! * [`enumerate_assumption_free_decomposed`] /
//!   [`stable_models_decomposed`] split the view into **weakly connected
//!   rule groups** (atoms never co-occurring in a dependency are
//!   independent), enumerate each group separately and combine the
//!   per-group model sets as a cartesian product — two independent
//!   Fig. 2-style defeating cliques cost `3^a + 3^b` instead of
//!   `3^(a+b)`. This is the splitting-set idea of Lifschitz & Turner
//!   transplanted to the ordered semantics.
//!
//! ## The dependency graph
//!
//! Nodes are **atoms** (an atom and its classical complement are one
//! node — `GLit::atom` drops the sign). Every rule contributes edges
//! `head atom → body atom`. Attack edges need no separate treatment:
//! a potential overruler/defeater of rule `r` has head complementary to
//! `H(r)`, i.e. the *same atom node*, and whether the attacker is
//! blocked depends on its own body atoms — which its own `head → body`
//! edges already reach from that shared node. So "body edges plus
//! attack edges" collapse to the head→body edges of every rule in the
//! view.
//!
//! ## Why the splits are exact
//!
//! *Strata.* Tarjan numbers SCCs in reverse topological order: a rule's
//! body atoms (and its attackers' body atoms) live in SCCs ≤ the SCC of
//! its head atom, and its attackers' heads live in exactly that SCC.
//! Processing strata in increasing SCC order therefore sees every
//! dependency settled; within a stratum the usual monotone worklist
//! runs. The union over strata performs exactly the derivations of the
//! monolithic least-fixpoint engine, so the result is the same least
//! model (Thm. 1b).
//!
//! *Groups.* Two rules are grouped iff their atoms are connected in the
//! undirected dependency graph; distinct groups mention **disjoint**
//! atom sets, and every status of Def. 2, both model conditions of
//! Def. 3, and the enabled-version `T`-fixpoint of Defs. 6–8 evaluate a
//! rule using only atoms of its own group. Hence an interpretation is an
//! assumption-free model of the view iff its restriction to each group
//! is an assumption-free model of that group's sub-view ([`View::restrict`]),
//! and the AF model set is the product of the per-group sets. Maximality
//! distributes over products of disjoint-atom sets, so the stable models
//! (Def. 9) are the product of per-group maximal AF models.
//!
//! Budget/anytime behaviour is preserved: a tripped budget yields the
//! completed-prefix strata (a sound under-approximation of the least
//! model) resp. only complete group tuples (every partial entry is a
//! genuine AF model of the whole view).

use crate::stable::{maximal_if_cheap, maximal_only};
use crate::stable_solver::enumerate_assumption_free_propagating_budgeted;
use crate::view::{LocalIdx, View};
use olp_core::{tarjan_scc, Budget, Eval, FxHashMap, Interpretation, InterruptReason, Interrupted};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

/// The condensation of a view's dependency graph: SCC strata in
/// topological order plus weakly connected rule groups.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// SCC id per atom (reverse topological: an atom's SCC only has
    /// edges into SCCs with smaller ids).
    scc_of: Vec<u32>,
    /// Rules grouped by head-atom SCC; `strata[s]` is evaluated after
    /// every stratum with id `< s`. Many strata are empty (atoms
    /// without rules).
    strata: Vec<Vec<LocalIdx>>,
    /// Per rule (local index): the stratum it belongs to.
    rule_stratum: Vec<u32>,
    /// Weakly connected rule groups, as **global** rule indices suitable
    /// for [`View::restrict`]; group order is first-seen rule order.
    groups: Vec<Vec<u32>>,
}

pub(crate) fn uf_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        // Path halving.
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

pub(crate) fn uf_union(parent: &mut [u32], a: u32, b: u32) {
    let ra = uf_find(parent, a);
    let rb = uf_find(parent, b);
    if ra != rb {
        parent[rb as usize] = ra;
    }
}

impl Decomposition {
    /// Computes the condensation of `view`'s dependency graph.
    /// Linear in atoms + rule-body edges (plus the Tarjan pass).
    pub fn new(view: &View) -> Self {
        let n_atoms = view.gp.n_atoms;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n_atoms];
        let mut parent: Vec<u32> = (0..n_atoms as u32).collect();
        for (_, r) in view.rules() {
            let h = r.head.atom().index();
            for &b in &r.body {
                let ba = b.atom().index() as u32;
                adj[h].push(ba);
                uf_union(&mut parent, h as u32, ba);
            }
        }
        for outs in &mut adj {
            outs.sort_unstable();
            outs.dedup();
        }
        let (scc_of, n_sccs) = tarjan_scc(&adj);

        let mut strata: Vec<Vec<LocalIdx>> = vec![Vec::new(); n_sccs];
        let mut rule_stratum = vec![0u32; view.len()];
        for (li, r) in view.rules() {
            let s = scc_of[r.head.atom().index()];
            rule_stratum[li as usize] = s;
            strata[s as usize].push(li);
        }

        let mut group_of_root: FxHashMap<u32, usize> = FxHashMap::default();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for (li, r) in view.rules() {
            let root = uf_find(&mut parent, r.head.atom().index() as u32);
            let gi = *group_of_root.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(view.global_index(li));
        }

        Decomposition {
            scc_of,
            strata,
            rule_stratum,
            groups,
        }
    }

    /// SCC id of an atom (by dense atom index).
    pub fn scc_of_atom(&self, atom: usize) -> u32 {
        self.scc_of[atom]
    }

    /// Number of strata (= SCCs over the atom universe; most are empty).
    pub fn n_strata(&self) -> usize {
        self.strata.len()
    }

    /// The weakly connected rule groups (global rule indices).
    pub fn groups(&self) -> &[Vec<u32>] {
        &self.groups
    }

    /// The stratum a rule (local index) belongs to.
    pub fn rule_stratum(&self, li: LocalIdx) -> u32 {
        self.rule_stratum[li as usize]
    }
}

// ---- Stratified least fixpoint --------------------------------------

/// [`crate::least_model`] evaluated stratum-by-stratum over a fresh
/// condensation. Same result as the monolithic engine
/// ([`crate::fixpoint::least_model_monolithic`]); differentially tested.
pub fn least_model_stratified(view: &View) -> Interpretation {
    least_model_stratified_budgeted(view, &Budget::unlimited()).into_value()
}

/// [`least_model_stratified`] under a [`Budget`].
///
/// On interruption the partial result is the accumulated interpretation:
/// every completed stratum in full plus a monotone prefix of the current
/// one — always a subset of the unbudgeted least model.
pub fn least_model_stratified_budgeted(view: &View, budget: &Budget) -> Eval<Interpretation> {
    let d = Decomposition::new(view);
    least_model_stratified_with(view, &d, budget)
}

/// [`least_model_stratified_budgeted`] over a precomputed condensation.
pub fn least_model_stratified_with(
    view: &View,
    d: &Decomposition,
    budget: &Budget,
) -> Eval<Interpretation> {
    let n = view.len();
    let mut unsat = vec![0u32; n];
    let mut over = vec![0u32; n];
    let mut defeat = vec![0u32; n];
    let mut blocked = vec![false; n];
    let mut fired = vec![false; n];

    let mut i = Interpretation::new();
    let mut queue: Vec<olp_core::GLit> = Vec::new();
    let mut interrupted = None;
    let mut ticker = budget.ticker();

    // A rule may fire as soon as its body is satisfied and every
    // attacker is blocked; both only ever become true (monotone).
    macro_rules! try_fire {
        ($li:expr) => {{
            let l = $li as usize;
            if unsat[l] == 0 && over[l] == 0 && defeat[l] == 0 && !fired[l] {
                fired[l] = true;
                let head = view.rule($li).head;
                if i.insert(head).expect("V preserves consistency") {
                    queue.push(head);
                }
            }
        }};
    }

    'strata: for (s, stratum) in d.strata.iter().enumerate() {
        if stratum.is_empty() {
            continue;
        }
        let s = s as u32;
        // Initialise the stratum's counters against the accumulated
        // interpretation: all body atoms (own and attackers') live in
        // strata ≤ s, so earlier-strata contributions are final and
        // intra-stratum ones are handled by the worklist below.
        for &li in stratum {
            if let Err(reason) = ticker.tick() {
                interrupted = Some(reason);
                break 'strata;
            }
            let r = view.rule(li);
            let l = li as usize;
            blocked[l] = r.body.iter().any(|&b| i.holds(b.complement()));
            unsat[l] = r.body.iter().filter(|&&b| !i.holds(b)).count() as u32;
        }
        for &li in stratum {
            // Attackers share the victim's head atom, hence its stratum:
            // their `blocked` entries were just initialised above.
            let l = li as usize;
            over[l] = view
                .overrulers(li)
                .iter()
                .filter(|&&a| !blocked[a as usize])
                .count() as u32;
            defeat[l] = view
                .defeaters(li)
                .iter()
                .filter(|&&a| !blocked[a as usize])
                .count() as u32;
        }
        for &li in stratum {
            if let Err(reason) = ticker.tick() {
                interrupted = Some(reason);
                break 'strata;
            }
            try_fire!(li);
        }
        while let Some(lit) = queue.pop() {
            if let Err(reason) = ticker.tick() {
                interrupted = Some(reason);
                break 'strata;
            }
            // Only rules of the current stratum can watch `lit`: a rule
            // in an earlier stratum with `lit` (or its complement) in
            // the body would give `lit`'s SCC a larger id than its own
            // head's, contradicting the topological numbering. Later
            // strata initialise against `i` when their turn comes.
            for &li in view.rules_with_body_lit(lit) {
                if d.rule_stratum[li as usize] != s {
                    continue;
                }
                unsat[li as usize] -= 1;
                try_fire!(li);
            }
            for &li in view.rules_with_body_lit(lit.complement()) {
                if d.rule_stratum[li as usize] != s || blocked[li as usize] {
                    continue;
                }
                blocked[li as usize] = true;
                for &v in view.victims_overrule(li) {
                    over[v as usize] -= 1;
                    try_fire!(v);
                }
                for &v in view.victims_defeat(li) {
                    defeat[v as usize] -= 1;
                    try_fire!(v);
                }
            }
        }
    }
    match interrupted {
        None => Eval::Complete(i),
        Some(reason) => Eval::Interrupted(Interrupted { reason, partial: i }),
    }
}

/// [`least_model_stratified_with`] that recomputes **only the strata
/// downstream of `touched` atoms**, copying every other stratum's
/// literals from a previously computed least model `old` of the
/// pre-mutation view.
///
/// `touched` are the (dense indices of) atoms occurring in rule
/// instances added or removed by the mutation — heads *and* bodies.
/// Dirtiness propagates along reverse dependency edges of the **new**
/// view (body atom → head atom): an atom's value can only change if it
/// transitively depends on a touched atom. Removed derivation chains
/// are covered because any broken chain ends at a removed instance,
/// whose head is touched. SCCs are strongly connected in the reverse
/// graph too, so the dirty set is automatically SCC-closed.
///
/// Soundness of copying: a clean stratum's rules are unchanged (a
/// changed instance would have touched its head atom), its attackers
/// share the stratum (hence are unchanged), and every body atom —
/// living in an earlier stratum — is clean, so by induction over the
/// topological stratum order the stratum computes exactly its old
/// values. See `docs/SEMANTICS.md` §"Incremental maintenance".
///
/// On interruption the partial result is the copied clean strata
/// processed so far plus a monotone prefix of the current dirty
/// stratum — always a subset of the new least model.
pub fn least_model_delta(
    view: &View,
    d: &Decomposition,
    old: &Interpretation,
    touched: &[usize],
    budget: &Budget,
) -> Eval<Interpretation> {
    let n_atoms = view.gp.n_atoms;
    // Reverse dependency edges: body atom → head atom.
    let mut radj: Vec<Vec<u32>> = vec![Vec::new(); n_atoms];
    for (_, r) in view.rules() {
        let h = r.head.atom().index() as u32;
        for &b in &r.body {
            radj[b.atom().index()].push(h);
        }
    }
    let mut dirty_atom = vec![false; n_atoms];
    let mut stack: Vec<usize> = Vec::new();
    for &a in touched {
        if a < n_atoms && !dirty_atom[a] {
            dirty_atom[a] = true;
            stack.push(a);
        }
    }
    while let Some(a) = stack.pop() {
        for &h in &radj[a] {
            if !dirty_atom[h as usize] {
                dirty_atom[h as usize] = true;
                stack.push(h as usize);
            }
        }
    }
    let mut dirty_stratum = vec![false; d.strata.len()];
    for (a, &dirt) in dirty_atom.iter().enumerate() {
        if dirt {
            dirty_stratum[d.scc_of[a] as usize] = true;
        }
    }
    // Bucket the old model's literals by their stratum in the *new*
    // condensation (atom indices are stable across mutations; the new
    // universe is a superset).
    let mut old_by_stratum: Vec<Vec<olp_core::GLit>> = vec![Vec::new(); d.strata.len()];
    for l in old.literals() {
        let a = l.atom().index();
        if a < n_atoms {
            old_by_stratum[d.scc_of[a] as usize].push(l);
        }
    }

    let n = view.len();
    let mut unsat = vec![0u32; n];
    let mut over = vec![0u32; n];
    let mut defeat = vec![0u32; n];
    let mut blocked = vec![false; n];
    let mut fired = vec![false; n];

    let mut i = Interpretation::new();
    let mut queue: Vec<olp_core::GLit> = Vec::new();
    let mut interrupted = None;
    let mut ticker = budget.ticker();

    macro_rules! try_fire {
        ($li:expr) => {{
            let l = $li as usize;
            if unsat[l] == 0 && over[l] == 0 && defeat[l] == 0 && !fired[l] {
                fired[l] = true;
                let head = view.rule($li).head;
                if i.insert(head).expect("V preserves consistency") {
                    queue.push(head);
                }
            }
        }};
    }

    'strata: for (s, stratum) in d.strata.iter().enumerate() {
        if !dirty_stratum[s] {
            // Clean stratum: its old values are its new values.
            for &l in &old_by_stratum[s] {
                if let Err(reason) = ticker.tick() {
                    interrupted = Some(reason);
                    break 'strata;
                }
                i.insert(l).expect("old model is consistent");
            }
            continue;
        }
        if stratum.is_empty() {
            continue;
        }
        let s = s as u32;
        for &li in stratum {
            if let Err(reason) = ticker.tick() {
                interrupted = Some(reason);
                break 'strata;
            }
            let r = view.rule(li);
            let l = li as usize;
            blocked[l] = r.body.iter().any(|&b| i.holds(b.complement()));
            unsat[l] = r.body.iter().filter(|&&b| !i.holds(b)).count() as u32;
        }
        for &li in stratum {
            let l = li as usize;
            over[l] = view
                .overrulers(li)
                .iter()
                .filter(|&&a| !blocked[a as usize])
                .count() as u32;
            defeat[l] = view
                .defeaters(li)
                .iter()
                .filter(|&&a| !blocked[a as usize])
                .count() as u32;
        }
        for &li in stratum {
            if let Err(reason) = ticker.tick() {
                interrupted = Some(reason);
                break 'strata;
            }
            try_fire!(li);
        }
        while let Some(lit) = queue.pop() {
            if let Err(reason) = ticker.tick() {
                interrupted = Some(reason);
                break 'strata;
            }
            for &li in view.rules_with_body_lit(lit) {
                if d.rule_stratum[li as usize] != s {
                    continue;
                }
                unsat[li as usize] -= 1;
                try_fire!(li);
            }
            for &li in view.rules_with_body_lit(lit.complement()) {
                if d.rule_stratum[li as usize] != s || blocked[li as usize] {
                    continue;
                }
                blocked[li as usize] = true;
                for &v in view.victims_overrule(li) {
                    over[v as usize] -= 1;
                    try_fire!(v);
                }
                for &v in view.victims_defeat(li) {
                    defeat[v as usize] -= 1;
                    try_fire!(v);
                }
            }
        }
    }
    match interrupted {
        None => Eval::Complete(i),
        Some(reason) => Eval::Interrupted(Interrupted { reason, partial: i }),
    }
}

// ---- Stratum-wavefront least fixpoint --------------------------------

/// Evaluates one stratum's fixpoint against a frozen `global`
/// interpretation holding the final values of every earlier-level
/// stratum. Pure function of `(stratum, global)`: all scratch state is
/// local, so same-level strata can run on different threads.
///
/// This is exactly the per-stratum body of
/// [`least_model_stratified_with`] with `i` split into `global`
/// (read-only, earlier strata) and `local` (this stratum's derivations;
/// atom-disjoint from `global` since an atom's rules all share its
/// stratum). On a budget trip the monotone local prefix derived so far
/// is returned — a sound under-approximation of the stratum's fixpoint.
fn wavefront_stratum(
    view: &View,
    d: &Decomposition,
    s: usize,
    global: &Interpretation,
    budget: &Budget,
) -> Result<Interpretation, (InterruptReason, Interpretation)> {
    let stratum = &d.strata[s];
    let k = stratum.len();
    let mut pos_of: FxHashMap<LocalIdx, usize> = FxHashMap::default();
    for (p, &li) in stratum.iter().enumerate() {
        pos_of.insert(li, p);
    }
    let mut unsat = vec![0u32; k];
    let mut over = vec![0u32; k];
    let mut defeat = vec![0u32; k];
    let mut blocked = vec![false; k];
    let mut fired = vec![false; k];

    let mut local = Interpretation::new();
    let mut queue: Vec<olp_core::GLit> = Vec::new();
    let mut ticker = budget.ticker();

    macro_rules! try_fire {
        ($p:expr, $li:expr) => {{
            let p = $p;
            if unsat[p] == 0 && over[p] == 0 && defeat[p] == 0 && !fired[p] {
                fired[p] = true;
                let head = view.rule($li).head;
                // The head atom belongs to this stratum, so `global`
                // cannot mention it; consistency is local.
                if local.insert(head).expect("V preserves consistency") {
                    queue.push(head);
                }
            }
        }};
    }

    for (p, &li) in stratum.iter().enumerate() {
        if let Err(reason) = ticker.tick() {
            return Err((reason, local));
        }
        let r = view.rule(li);
        blocked[p] = r.body.iter().any(|&b| global.holds(b.complement()));
        unsat[p] = r.body.iter().filter(|&&b| !global.holds(b)).count() as u32;
    }
    for (p, &li) in stratum.iter().enumerate() {
        // Attackers share the victim's head atom, hence its stratum.
        over[p] = view
            .overrulers(li)
            .iter()
            .filter(|&&a| !blocked[pos_of[&a]])
            .count() as u32;
        defeat[p] = view
            .defeaters(li)
            .iter()
            .filter(|&&a| !blocked[pos_of[&a]])
            .count() as u32;
    }
    for (p, &li) in stratum.iter().enumerate() {
        if let Err(reason) = ticker.tick() {
            return Err((reason, local));
        }
        try_fire!(p, li);
    }
    while let Some(lit) = queue.pop() {
        if let Err(reason) = ticker.tick() {
            return Err((reason, local));
        }
        let s = s as u32;
        for &li in view.rules_with_body_lit(lit) {
            if d.rule_stratum[li as usize] != s {
                continue;
            }
            let p = pos_of[&li];
            unsat[p] -= 1;
            try_fire!(p, li);
        }
        for &li in view.rules_with_body_lit(lit.complement()) {
            if d.rule_stratum[li as usize] != s {
                continue;
            }
            let p = pos_of[&li];
            if blocked[p] {
                continue;
            }
            blocked[p] = true;
            for &v in view.victims_overrule(li) {
                let pv = pos_of[&v];
                over[pv] -= 1;
                try_fire!(pv, v);
            }
            for &v in view.victims_defeat(li) {
                let pv = pos_of[&v];
                defeat[pv] -= 1;
                try_fire!(pv, v);
            }
        }
    }
    Ok(local)
}

/// [`least_model_stratified`] with a **stratum-wavefront scheduler**:
/// strata are bucketed by dependency level (a stratum's level is one
/// more than the deepest level among its rules' out-of-stratum body
/// atoms) and all strata of a level run concurrently on `threads`
/// workers. Same result as the sequential engine for every thread
/// count; `threads <= 1` takes the sequential code path verbatim.
pub fn least_model_wavefront(view: &View, threads: usize, budget: &Budget) -> Eval<Interpretation> {
    let d = Decomposition::new(view);
    least_model_wavefront_with(view, &d, threads, budget)
}

/// [`least_model_wavefront`] over a precomputed condensation.
///
/// **Soundness of levels.** Body atoms of a stratum-`s` rule (its own
/// and — since attackers share their victim's stratum — its attackers')
/// live in SCCs `t <= s`; for `t != s` the level recurrence puts `t`
/// strictly below `s`. So when a level starts, every out-of-stratum
/// input is final, same-level strata touch pairwise disjoint atoms, and
/// each stratum's fixpoint equals its sequential value by induction
/// over levels.
///
/// **Anytime guarantee.** On a budget trip the partial result is the
/// union of all completed strata plus the monotone local prefixes of
/// the strata in flight when the trip happened — always a subset of the
/// least model, the same contract as [`least_model_stratified_budgeted`].
pub fn least_model_wavefront_with(
    view: &View,
    d: &Decomposition,
    threads: usize,
    budget: &Budget,
) -> Eval<Interpretation> {
    let threads = threads.max(1);
    if threads == 1 {
        return least_model_stratified_with(view, d, budget);
    }
    // Dependency level per stratum, ascending over SCC ids (reverse
    // topological: body SCCs have smaller ids, so they are done).
    let n_strata = d.strata.len();
    let mut level = vec![0u32; n_strata];
    let mut max_level = 0u32;
    for s in 0..n_strata {
        let mut lv = 0u32;
        for &li in &d.strata[s] {
            for &b in &view.rule(li).body {
                let t = d.scc_of[b.atom().index()] as usize;
                if t != s {
                    lv = lv.max(level[t] + 1);
                }
            }
        }
        level[s] = lv;
        if !d.strata[s].is_empty() {
            max_level = max_level.max(lv);
        }
    }
    // Flatten the non-empty strata into level-contiguous windows.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_level as usize + 1];
    for (s, stratum) in d.strata.iter().enumerate() {
        if !stratum.is_empty() {
            buckets[level[s] as usize].push(s as u32);
        }
    }
    let mut flat: Vec<u32> = Vec::new();
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    for b in &buckets {
        if b.is_empty() {
            continue;
        }
        let lo = flat.len();
        flat.extend_from_slice(b);
        bounds.push((lo, flat.len()));
    }
    if flat.is_empty() {
        return Eval::Complete(Interpretation::new());
    }

    // Persistent workers; two barriers per level (start, end). Between
    // the end barrier and the next start barrier only the main thread
    // runs, merging the level's results into the global interpretation.
    let barrier = Barrier::new(threads + 1);
    let next = AtomicUsize::new(0);
    let hi = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let global = RwLock::new(Interpretation::new());
    type StratumResult = Result<Interpretation, (InterruptReason, Interpretation)>;
    let slots: Vec<Mutex<Option<StratumResult>>> = flat.iter().map(|_| Mutex::new(None)).collect();
    let mut interrupted: Option<InterruptReason> = None;

    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            let (barrier, next, hi, done, stop) = (&barrier, &next, &hi, &done, &stop);
            let (global, slots, flat) = (&global, &slots, &flat);
            scope.spawn(move |_| loop {
                barrier.wait();
                if done.load(Ordering::Acquire) {
                    return;
                }
                let g = global.read().expect("global interpretation lock");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= hi.load(Ordering::Relaxed) || stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let r = wavefront_stratum(view, d, flat[i] as usize, &g, budget);
                    if r.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    *slots[i].lock().expect("slot") = Some(r);
                }
                drop(g);
                barrier.wait();
            });
        }
        for &(lo, hi_b) in &bounds {
            next.store(lo, Ordering::Relaxed);
            hi.store(hi_b, Ordering::Relaxed);
            barrier.wait(); // release the level
            barrier.wait(); // level finished
            let mut g = global.write().expect("global interpretation lock");
            for slot in &slots[lo..hi_b] {
                // `None` = skipped after a sibling's budget trip set
                // `stop`; the trip itself recorded an `Err` slot.
                match slot.lock().expect("slot").take() {
                    Some(Ok(local)) => {
                        for l in local.literals() {
                            g.insert(l).expect("strata are atom-disjoint");
                        }
                    }
                    Some(Err((reason, partial))) => {
                        interrupted.get_or_insert(reason);
                        for l in partial.literals() {
                            g.insert(l).expect("strata are atom-disjoint");
                        }
                    }
                    None => {}
                }
            }
            drop(g);
            if interrupted.is_some() {
                break;
            }
        }
        done.store(true, Ordering::Release);
        barrier.wait(); // wake the workers so they observe `done`
    })
    .expect("scope");

    let i = global.into_inner().expect("global interpretation lock");
    match interrupted {
        None => Eval::Complete(i),
        Some(reason) => Eval::Interrupted(Interrupted { reason, partial: i }),
    }
}

// ---- Product-form enumeration ---------------------------------------

/// Cartesian product of per-group model sets. Groups have pairwise
/// disjoint atoms, so merging never conflicts; every emitted entry is a
/// **complete** tuple (one model from every group) and therefore a
/// genuine AF model of the whole view. The cap and the budget interrupt
/// with only complete tuples in the partial list.
fn product(
    groups: &[Vec<Interpretation>],
    cap: usize,
    budget: &Budget,
) -> Result<Vec<Interpretation>, Interrupted<Vec<Interpretation>>> {
    if groups.iter().any(std::vec::Vec::is_empty) {
        return Ok(Vec::new());
    }
    let mut idx = vec![0usize; groups.len()];
    let mut out = Vec::new();
    let mut ticker = budget.ticker();
    loop {
        if let Err(reason) = ticker.tick() {
            return Err(Interrupted {
                reason,
                partial: out,
            });
        }
        let mut m = Interpretation::new();
        for (g, &i) in groups.iter().zip(idx.iter()) {
            for l in g[i].literals() {
                m.insert(l).expect("groups have disjoint atoms");
            }
        }
        out.push(m);
        if out.len() >= cap {
            return Err(Interrupted {
                reason: InterruptReason::ModelCap,
                partial: out,
            });
        }
        // Advance the odometer (group 0 varies fastest).
        let mut k = 0;
        loop {
            idx[k] += 1;
            if idx[k] < groups[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
            if k == groups.len() {
                return Ok(out);
            }
        }
    }
}

/// Per-group enumeration results combined as a product.
fn combine(
    per_group: &[Vec<Interpretation>],
    interrupted: Option<InterruptReason>,
    cap: usize,
    budget: &Budget,
) -> Eval<Vec<Interpretation>> {
    match (product(per_group, cap, budget), interrupted) {
        (Ok(ms), None) => Eval::Complete(ms),
        (Ok(ms), Some(reason)) => Eval::Interrupted(Interrupted {
            reason,
            partial: ms,
        }),
        // The product's own interruption (cap or budget) wins only if
        // the group enumeration itself was complete.
        (Err(Interrupted { reason, partial }), earlier) => Eval::Interrupted(Interrupted {
            reason: earlier.unwrap_or(reason),
            partial,
        }),
    }
}

/// Enumerates every assumption-free model by solving each weakly
/// connected rule group separately and combining the per-group model
/// sets as a cartesian product. Set-equal to
/// [`crate::enumerate_assumption_free_propagating`]; exponentially
/// faster when the view splits into independent groups.
pub fn enumerate_assumption_free_decomposed(view: &View, n_atoms: usize) -> Vec<Interpretation> {
    enumerate_assumption_free_decomposed_budgeted(view, n_atoms, &Budget::unlimited(), None)
        .into_value()
}

/// [`enumerate_assumption_free_decomposed`] under a [`Budget`],
/// optionally capped at `max_models` results.
///
/// **Anytime guarantee:** every entry of a partial result is a complete
/// product tuple, hence a genuine AF model of the whole view. A budget
/// trip while a *non-final* group is still enumerating yields an empty
/// partial list (no sound complete tuple exists yet).
pub fn enumerate_assumption_free_decomposed_budgeted(
    view: &View,
    n_atoms: usize,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    let d = Decomposition::new(view);
    if d.groups().len() <= 1 {
        return enumerate_assumption_free_propagating_budgeted(view, n_atoms, budget, max_models);
    }
    let cap = max_models.unwrap_or(usize::MAX);
    let n_groups = d.groups().len();
    let mut per_group: Vec<Vec<Interpretation>> = Vec::with_capacity(n_groups);
    for (gi, rules) in d.groups().iter().enumerate() {
        let sub = view.restrict(rules);
        match enumerate_assumption_free_propagating_budgeted(&sub, n_atoms, budget, None) {
            Eval::Complete(ms) => per_group.push(ms),
            Eval::Interrupted(Interrupted { reason, partial }) => {
                if gi + 1 == n_groups {
                    // Every earlier group is complete: tuples ending in
                    // a verified model of the last group are sound.
                    per_group.push(partial);
                    return combine(&per_group, Some(reason), cap, budget);
                }
                return Eval::Interrupted(Interrupted {
                    reason,
                    partial: Vec::new(),
                });
            }
        }
    }
    combine(&per_group, None, cap, budget)
}

/// Stable models (Def. 9) via per-group enumeration: maximality under
/// set inclusion distributes over products of disjoint-atom model sets,
/// so the product of per-group **maximal** AF models is exactly the
/// stable model set. The quadratic maximality filter runs per group,
/// never on the (possibly exponentially larger) product.
pub fn stable_models_decomposed(view: &View, n_atoms: usize) -> Vec<Interpretation> {
    stable_models_decomposed_budgeted(view, n_atoms, &Budget::unlimited(), None).into_value()
}

/// [`stable_models_decomposed`] under a [`Budget`], optionally capped at
/// `max_models` results. Same anytime caveat as
/// [`crate::stable_models_budgeted`]: entries of a partial result are
/// genuine AF models, but maximality is relative to what was explored.
pub fn stable_models_decomposed_budgeted(
    view: &View,
    n_atoms: usize,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    let d = Decomposition::new(view);
    if d.groups().len() <= 1 {
        return crate::stable::stable_models_monolithic_budgeted(view, n_atoms, budget, max_models);
    }
    let cap = max_models.unwrap_or(usize::MAX);
    let n_groups = d.groups().len();
    let mut per_group: Vec<Vec<Interpretation>> = Vec::with_capacity(n_groups);
    for (gi, rules) in d.groups().iter().enumerate() {
        let sub = view.restrict(rules);
        match enumerate_assumption_free_propagating_budgeted(&sub, n_atoms, budget, None) {
            Eval::Complete(ms) => per_group.push(maximal_only(ms)),
            Eval::Interrupted(Interrupted { reason, partial }) => {
                if gi + 1 == n_groups {
                    per_group.push(maximal_if_cheap(partial));
                    return combine(&per_group, Some(reason), cap, budget);
                }
                return Eval::Interrupted(Interrupted {
                    reason,
                    partial: Vec::new(),
                });
            }
        }
    }
    combine(&per_group, None, cap, budget)
}

/// The per-group memo of [`stable_models_decomposed_cached`]: a group's
/// canonicalised rule multiset to its stable models.
pub type GroupMemo = FxHashMap<Vec<olp_ground::GroundRule>, Vec<Interpretation>>;

/// [`stable_models_decomposed_budgeted`] with a **per-group memo
/// cache**, the stable-model side of incremental maintenance: a
/// mutation that leaves a weakly connected group's rule set unchanged
/// re-uses the group's maximal-AF-model set verbatim instead of
/// re-enumerating its 3-valued search space. The cache key is the
/// group's canonicalised rule multiset (sorted by `(comp, head, body)`
/// — a group's semantics within a fixed view depends on nothing else),
/// so a retract-then-reassert also hits. Only **complete** per-group
/// results are cached; interrupted enumerations are never stored.
///
/// The caller owns `cache` and is responsible for keying it per
/// consumer component (group semantics depends on the view's vantage
/// component through the attack relations) and for bounding its size.
pub fn stable_models_decomposed_cached(
    view: &View,
    n_atoms: usize,
    budget: &Budget,
    max_models: Option<usize>,
    cache: &mut GroupMemo,
) -> Eval<Vec<Interpretation>> {
    let d = Decomposition::new(view);
    if d.groups().len() <= 1 {
        return crate::stable::stable_models_monolithic_budgeted(view, n_atoms, budget, max_models);
    }
    let cap = max_models.unwrap_or(usize::MAX);
    let n_groups = d.groups().len();
    let mut per_group: Vec<Vec<Interpretation>> = Vec::with_capacity(n_groups);
    for (gi, rules) in d.groups().iter().enumerate() {
        let mut key: Vec<olp_ground::GroundRule> = rules
            .iter()
            .map(|&g| view.gp.rules[g as usize].clone())
            .collect();
        key.sort_unstable_by(|a, b| (a.comp, a.head, &a.body).cmp(&(b.comp, b.head, &b.body)));
        if let Some(ms) = cache.get(&key) {
            per_group.push(ms.clone());
            continue;
        }
        let sub = view.restrict(rules);
        match enumerate_assumption_free_propagating_budgeted(&sub, n_atoms, budget, None) {
            Eval::Complete(ms) => {
                let ms = maximal_only(ms);
                cache.insert(key, ms.clone());
                per_group.push(ms);
            }
            Eval::Interrupted(Interrupted { reason, partial }) => {
                if gi + 1 == n_groups {
                    per_group.push(maximal_if_cheap(partial));
                    return combine(&per_group, Some(reason), cap, budget);
                }
                return Eval::Interrupted(Interrupted {
                    reason,
                    partial: Vec::new(),
                });
            }
        }
    }
    combine(&per_group, None, cap, budget)
}

/// Parallel group-level enumeration: whole groups are distributed to the
/// worker threads (each group's sub-view is solved independently), and
/// the per-group sets are combined as a product. Used by
/// [`crate::enumerate_assumption_free_parallel_budgeted`] and, with
/// `maximal` set, by [`crate::stable_models_parallel_budgeted`] when the
/// view splits; the callers fall back to prefix splitting otherwise.
///
/// With `maximal`, each group's models are filtered for maximality on
/// its worker before the product, as in
/// [`stable_models_decomposed_budgeted`]: the product of per-group
/// maximal AF models is the stable model set, and the quadratic filter
/// never sees the product.
///
/// Unlike the sequential path, an interrupted group still contributes
/// its verified partial list — the other groups finished (or were
/// interrupted with their own partials), so every product tuple remains
/// a complete, sound AF model.
pub(crate) fn enumerate_af_groups_parallel(
    view: &View,
    d: &Decomposition,
    threads: usize,
    budget: &Budget,
    max_models: Option<usize>,
    maximal: bool,
) -> Eval<Vec<Interpretation>> {
    let groups = d.groups();
    let threads = threads.max(1).min(groups.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<Eval<Vec<Interpretation>>>>> =
        groups.iter().map(|_| std::sync::Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let slots = &slots;
            scope.spawn(move |_| loop {
                let gi = next.fetch_add(1, Ordering::Relaxed);
                if gi >= groups.len() {
                    return;
                }
                let sub = view.restrict(&groups[gi]);
                let r = match enumerate_assumption_free_propagating_budgeted(
                    &sub,
                    view.gp.n_atoms,
                    budget,
                    None,
                ) {
                    Eval::Complete(ms) if maximal => Eval::Complete(maximal_only(ms)),
                    Eval::Interrupted(Interrupted { reason, partial }) if maximal => {
                        Eval::Interrupted(Interrupted {
                            reason,
                            partial: maximal_if_cheap(partial),
                        })
                    }
                    r => r,
                };
                *slots[gi].lock().expect("slot") = Some(r);
            });
        }
    })
    .expect("scope");

    let mut per_group: Vec<Vec<Interpretation>> = Vec::with_capacity(groups.len());
    let mut first_reason = None;
    for slot in slots {
        match slot
            .into_inner()
            .expect("slot")
            .expect("worker filled slot")
        {
            Eval::Complete(ms) => per_group.push(ms),
            Eval::Interrupted(Interrupted { reason, partial }) => {
                first_reason.get_or_insert(reason);
                per_group.push(partial);
            }
        }
    }
    combine(
        &per_group,
        first_reason,
        max_models.unwrap_or(usize::MAX),
        budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::{least_model_monolithic, least_model_monolithic_budgeted};
    use crate::stable::stable_models_naive;
    use crate::stable_solver::enumerate_assumption_free_propagating;
    use olp_core::{CompId, World};
    use olp_ground::{ground_exhaustive, GroundConfig, GroundProgram};
    use olp_parser::parse_program;

    fn ground(src: &str) -> (World, GroundProgram) {
        let mut w = World::new();
        let p = parse_program(&mut w, src).unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        (w, g)
    }

    fn renders(w: &World, ms: &[Interpretation]) -> Vec<String> {
        let mut v: Vec<String> = ms.iter().map(|m| m.render(w)).collect();
        v.sort();
        v
    }

    /// Two disjoint copies of the paper's Fig. 2 (mutual defeat) plus an
    /// independent chain: three groups.
    const TWO_FIG2: &str = "module c3 { rich(mimmo). -poor(X) :- rich(X).
            wealthy(anna). -broke(X) :- wealthy(X). }
         module c2 { poor(mimmo). -rich(X) :- poor(X).
            broke(anna). -wealthy(X) :- broke(X). }
         module c1 < c2, c3 { free_ticket(X) :- poor(X).
            charity(X) :- broke(X).
            happy(bob). smiling(X) :- happy(X). }";

    #[test]
    fn groups_split_disjoint_subprograms() {
        let (_, g) = ground(TWO_FIG2);
        let v = View::new(&g, CompId(2)); // c1
        let d = Decomposition::new(&v);
        // Grounding instantiates every rule for every constant, so each
        // of the three relation cliques (rich/poor/free_ticket,
        // wealthy/broke/charity, happy/smiling) splits further into one
        // group per individual (mimmo, anna, bob): 9 in total.
        assert_eq!(d.groups().len(), 9);
        let total: usize = d.groups().iter().map(Vec::len).sum();
        assert_eq!(total, v.len(), "groups partition the rules");
    }

    #[test]
    fn attackers_share_their_victims_stratum() {
        let (_, g) = ground(TWO_FIG2);
        let v = View::new(&g, CompId(2));
        let d = Decomposition::new(&v);
        for (li, _) in v.rules() {
            for &a in v.overrulers(li).iter().chain(v.defeaters(li)) {
                assert_eq!(d.rule_stratum(a), d.rule_stratum(li));
            }
        }
    }

    #[test]
    fn stratified_agrees_with_monolithic() {
        for src in [
            TWO_FIG2,
            "module c2 { bird(penguin). bird(pigeon). fly(X) :- bird(X).
                -ground_animal(X) :- bird(X). }
             module c1 < c2 { ground_animal(penguin). -fly(X) :- ground_animal(X). }",
            "a :- b. -a :- b. b.",
            "p. -p.",
            "module c2 { a. b. c. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }",
            "p :- q. q :- p. r :- p.",
        ] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let v = View::new(&g, CompId(c as u32));
                assert_eq!(
                    least_model_stratified(&v),
                    least_model_monolithic(&v),
                    "stratified vs monolithic on {src} in component {c}"
                );
            }
        }
    }

    #[test]
    fn decomposed_af_set_equals_monolithic() {
        let (w, g) = ground(TWO_FIG2);
        for c in 0..g.order.len() {
            let v = View::new(&g, CompId(c as u32));
            assert_eq!(
                renders(&w, &enumerate_assumption_free_decomposed(&v, g.n_atoms)),
                renders(&w, &enumerate_assumption_free_propagating(&v, g.n_atoms)),
                "component {c}"
            );
        }
    }

    #[test]
    fn decomposed_stable_product_of_example5_clones() {
        // Two independent copies of Example 5 (2 stable models each):
        // the decomposed stable set must be the 4-model product.
        let (w, g) = ground(
            "module c2 { a. b. c. x. y. z. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                              -x :- y, z. -y :- x. -y :- -y. }",
        );
        let v = View::new(&g, CompId(1));
        let d = Decomposition::new(&v);
        assert_eq!(d.groups().len(), 2);
        let dec = stable_models_decomposed(&v, g.n_atoms);
        assert_eq!(dec.len(), 4);
        assert_eq!(
            renders(&w, &dec),
            renders(&w, &stable_models_naive(&v, g.n_atoms))
        );
    }

    #[test]
    fn parallel_groups_agree_with_sequential() {
        // TWO_FIG2 plus two Example 5 clones: groups with several AF
        // models of which only some are maximal, so the parallel stable
        // path must filter each group before the product.
        for (src, comp) in [
            (TWO_FIG2, CompId(2)),
            (
                "module c2 { a. b. c. x. y. z. }
                 module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                                  -x :- y, z. -y :- x. -y :- -y. }",
                CompId(1),
            ),
        ] {
            let (w, g) = ground(src);
            let v = View::new(&g, comp);
            let d = Decomposition::new(&v);
            assert!(d.groups().len() > 1);
            let stable = renders(&w, &stable_models_decomposed(&v, g.n_atoms));
            for threads in [1, 2, 4] {
                let par = enumerate_af_groups_parallel(
                    &v,
                    &d,
                    threads,
                    &Budget::unlimited(),
                    None,
                    false,
                )
                .into_value();
                assert_eq!(
                    renders(&w, &par),
                    renders(&w, &enumerate_assumption_free_decomposed(&v, g.n_atoms)),
                    "threads {threads}"
                );
                let par_stable = crate::stable_models_parallel_budgeted(
                    &v,
                    g.n_atoms,
                    threads,
                    &Budget::unlimited(),
                    None,
                )
                .into_value();
                assert_eq!(renders(&w, &par_stable), stable, "threads {threads}");
            }
            assert_eq!(stable, renders(&w, &stable_models_naive(&v, g.n_atoms)));
        }
    }

    #[test]
    fn tripped_budget_yields_prefix_of_least_model() {
        // Under any step budget the stratified partial result must be a
        // subset of the full least model (completed-prefix guarantee).
        let (_, g) = ground(TWO_FIG2);
        let v = View::new(&g, CompId(2));
        let full = least_model_stratified(&v);
        for steps in [1u64, 2, 4, 8, 16, 32, 64] {
            let b = Budget::with_steps(steps);
            match least_model_stratified_with(&v, &Decomposition::new(&v), &b) {
                Eval::Complete(m) => assert_eq!(m, full),
                Eval::Interrupted(Interrupted { partial, .. }) => {
                    assert!(partial.is_subset(&full), "steps={steps}");
                }
            }
            // And the monolithic engine honours the same budget contract.
            match least_model_monolithic_budgeted(&v, &Budget::with_steps(steps)) {
                Eval::Complete(m) => assert_eq!(m, full),
                Eval::Interrupted(Interrupted { partial, .. }) => {
                    assert!(partial.is_subset(&full), "steps={steps}");
                }
            }
        }
    }

    #[test]
    fn wavefront_agrees_with_stratified() {
        for src in [
            TWO_FIG2,
            "module c2 { bird(penguin). bird(pigeon). fly(X) :- bird(X).
                -ground_animal(X) :- bird(X). }
             module c1 < c2 { ground_animal(penguin). -fly(X) :- ground_animal(X). }",
            "a :- b. -a :- b. b.",
            "p. -p.",
            "module c2 { a. b. c. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }",
            "p :- q. q :- p. r :- p.",
        ] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let v = View::new(&g, CompId(c as u32));
                let seq = least_model_stratified(&v);
                for threads in [1, 2, 4] {
                    assert_eq!(
                        least_model_wavefront(&v, threads, &Budget::unlimited())
                            .expect_complete("unlimited budget"),
                        seq,
                        "wavefront({threads}) vs stratified on {src} in component {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn tripped_wavefront_yields_subset_of_least_model() {
        // A budget-tripped wavefront run returns the union of completed
        // strata plus monotone prefixes of in-flight ones — always a
        // subset of the least model, at any thread count.
        let (_, g) = ground(TWO_FIG2);
        let v = View::new(&g, CompId(2));
        let full = least_model_stratified(&v);
        for threads in [2, 4] {
            for steps in [1u64, 2, 4, 8, 16, 32, 64] {
                let b = Budget::with_steps(steps);
                match least_model_wavefront(&v, threads, &b) {
                    Eval::Complete(m) => assert_eq!(m, full),
                    Eval::Interrupted(Interrupted { partial, .. }) => {
                        assert!(partial.is_subset(&full), "threads={threads} steps={steps}");
                    }
                }
            }
        }
    }

    #[test]
    fn decomposed_enumeration_partials_are_sound() {
        // Every entry of any budget-tripped partial result must be a
        // member of the unbudgeted enumeration (complete tuples only).
        let (w, g) = ground(TWO_FIG2);
        let v = View::new(&g, CompId(2));
        let full = renders(&w, &enumerate_assumption_free_decomposed(&v, g.n_atoms));
        for steps in [1u64, 8, 64, 256, 1024, 4096] {
            let b = Budget::with_steps(steps);
            let got = match enumerate_assumption_free_decomposed_budgeted(&v, g.n_atoms, &b, None) {
                Eval::Complete(ms) => ms,
                Eval::Interrupted(Interrupted { partial, .. }) => partial,
            };
            for m in renders(&w, &got) {
                assert!(full.contains(&m), "steps={steps}: {m} not in full set");
            }
        }
    }

    /// Differential harness for [`least_model_delta`]: grounds `before`
    /// and `after`, computes the touched atoms as the symmetric
    /// difference of the instance sets, and checks the delta result
    /// equals a from-scratch stratified run on every component.
    fn check_delta(before: &str, after: &str) {
        let mut w = World::new();
        let p0 = parse_program(&mut w, before).unwrap();
        let g0 = ground_exhaustive(&mut w, &p0, &GroundConfig::default()).unwrap();
        let p1 = parse_program(&mut w, after).unwrap();
        let g1 = ground_exhaustive(&mut w, &p1, &GroundConfig::default()).unwrap();
        let old_set: std::collections::HashSet<_> = g0.rules.iter().cloned().collect();
        let new_set: std::collections::HashSet<_> = g1.rules.iter().cloned().collect();
        let mut touched = Vec::new();
        for r in old_set.symmetric_difference(&new_set) {
            touched.push(r.head.atom().index());
            for &b in &r.body {
                touched.push(b.atom().index());
            }
        }
        for c in 0..g1.order.len() {
            let c = CompId(c as u32);
            let v0 = View::new(&g0, c);
            let old = least_model_stratified(&v0);
            let v1 = View::new(&g1, c);
            let d = Decomposition::new(&v1);
            let got = least_model_delta(&v1, &d, &old, &touched, &Budget::unlimited()).into_value();
            assert_eq!(
                got,
                least_model_stratified(&v1),
                "delta vs scratch: {before:?} -> {after:?} in {c:?}"
            );
        }
    }

    #[test]
    fn delta_recomputation_matches_scratch() {
        // Assert a fact that extends a chain.
        check_delta(
            "parent(a,b). anc(X,Y) :- parent(X,Y). anc(X,Y) :- parent(X,Z), anc(Z,Y).",
            "parent(a,b). anc(X,Y) :- parent(X,Y). anc(X,Y) :- parent(X,Z), anc(Z,Y). parent(b,c).",
        );
        // Retract: a derivation chain collapses.
        check_delta("b. a :- b. c :- a.", "a :- b. c :- a.");
        // Mutation flips an attack outcome in an ordered program.
        check_delta(
            "module c2 { a. }
             module c1 < c2 { b :- a. }",
            "module c2 { a. }
             module c1 < c2 { b :- a. -a. }",
        );
        // Unrelated stratum untouched (the copy path must carry it).
        check_delta("p. q :- p. x. y :- x.", "p. q :- p. x. y :- x. z :- y.");
        // No-op mutation (identical programs): everything clean.
        check_delta("a. b :- a.", "a. b :- a.");
    }

    #[test]
    fn delta_partial_is_subset_under_budget() {
        let mut w = World::new();
        let p = parse_program(&mut w, TWO_FIG2).unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        let v = View::new(&g, CompId(2));
        let full = least_model_stratified(&v);
        let d = Decomposition::new(&v);
        // Everything touched → everything dirty: worst case.
        let touched: Vec<usize> = (0..g.n_atoms).collect();
        for steps in [1u64, 4, 16, 64, 256] {
            match least_model_delta(
                &v,
                &d,
                &Interpretation::new(),
                &touched,
                &Budget::with_steps(steps),
            ) {
                Eval::Complete(m) => assert_eq!(m, full),
                Eval::Interrupted(Interrupted { partial, .. }) => {
                    assert!(partial.is_subset(&full), "steps={steps}");
                }
            }
        }
    }

    #[test]
    fn cached_stable_enumeration_matches_and_reuses() {
        let (w, g) = ground(
            "module c2 { a. b. c. x. y. z. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                              -x :- y, z. -y :- x. -y :- -y. }",
        );
        let v = View::new(&g, CompId(1));
        let mut cache = FxHashMap::default();
        let first =
            stable_models_decomposed_cached(&v, g.n_atoms, &Budget::unlimited(), None, &mut cache)
                .into_value();
        assert_eq!(
            renders(&w, &first),
            renders(&w, &stable_models_decomposed(&v, g.n_atoms))
        );
        assert_eq!(cache.len(), 2, "one entry per group");
        // Second run must be answered from cache alone: 64 steps is one
        // ticker batch — enough for the final product only. Uncached,
        // the two per-group enumerations each pre-pay a batch and the
        // run trips with an empty result; with cache hits both are
        // skipped and the full set comes back Complete.
        let budget = Budget::with_steps(64);
        let again = stable_models_decomposed_cached(&v, g.n_atoms, &budget, None, &mut cache)
            .expect_complete("cache hits answer within one ticker batch");
        assert_eq!(renders(&w, &again), renders(&w, &first));
        let mut empty_cache = FxHashMap::default();
        let uncached = stable_models_decomposed_cached(
            &v,
            g.n_atoms,
            &Budget::with_steps(64),
            None,
            &mut empty_cache,
        );
        assert!(uncached.is_partial(), "64 steps cannot re-enumerate");
    }

    #[test]
    fn model_cap_truncates_product() {
        let (_, g) = ground(
            "module c2 { a. b. c. x. y. z. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                              -x :- y, z. -y :- x. -y :- -y. }",
        );
        let v = View::new(&g, CompId(1));
        match stable_models_decomposed_budgeted(&v, g.n_atoms, &Budget::unlimited(), Some(2)) {
            Eval::Interrupted(Interrupted { reason, partial }) => {
                assert_eq!(reason, InterruptReason::ModelCap);
                assert_eq!(partial.len(), 2);
            }
            Eval::Complete(ms) => panic!("cap of 2 must interrupt, got {} models", ms.len()),
        }
    }
}
