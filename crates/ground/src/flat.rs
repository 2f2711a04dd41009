//! Flat, stratum-sorted arena representation of a component view.
//!
//! The interpretive evaluators walk a [`GroundProgram`] through
//! per-view hash maps (`by_body: FxHashMap<GLit, Vec<LocalIdx>>` and
//! friends): every derived literal pays a hash + probe to find the
//! rules watching it. A [`FlatView`] compiles the same view once into
//! dense contiguous arenas so the semi-naive inner loop is pure index
//! arithmetic:
//!
//! * rules live in **one** flat order, sorted by `(dependency level,
//!   SCC)` of their head atom — every stratum is a contiguous rule
//!   range, every level a contiguous stratum range, and stratum
//!   membership tests collapse to a range check;
//! * rule bodies, watch lists and attack lists are CSR
//!   (offsets + payload) over `u32` ids;
//! * watch lists are indexed by [`GLit::code`] — literals over atoms
//!   `0..n` occupy codes `0..2n`, so "who watches this literal?" is an
//!   array load, and truth state is a [`olp_core::BitSet`] indexed by
//!   the same dense code space (one bit per signed atom).
//!
//! The attack structure (overrulers / defeaters per Definition 2) is
//! recomputed here from head-atom buckets plus [`olp_core::Order`]; the
//! semantics crate differentially tests it against the interpretive
//! `View`'s hash-map construction.

use crate::program::{GroundProgram, GroundRule};
use olp_core::{tarjan_scc_csr, AtomId, CompId, GLit, PredId, Sign, World};

/// Index of a rule within a [`FlatView`] (position in the flat,
/// stratum-sorted rule order — **not** a `GroundProgram` index; see
/// [`FlatView::global_index`]).
pub type FlatIdx = u32;

/// Result of [`FlatView::apply_delta`].
// A `FlatPatch` is destructured immediately at the lone call site, so
// the variant size gap never lives anywhere.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum FlatPatch {
    /// The delta was stratum-local: the spliced view, sharing no
    /// allocation with the original (the original stays valid for
    /// readers of the previous epoch).
    Patched(FlatView),
    /// The change alters the SCC condensation — or introduces a
    /// dependency the surviving stratum order cannot host — and the
    /// caller must rebuild with [`FlatView::from_rules`].
    Rebuild,
}

/// A component view compiled into dense contiguous arenas.
#[derive(Debug, Clone)]
pub struct FlatView {
    /// The component whose view this is.
    pub comp: CompId,
    /// Atom universe size (truth bitsets span codes `0..2 * n_atoms`).
    pub n_atoms: usize,
    /// Head literal per flat rule.
    heads: Vec<GLit>,
    /// Component per flat rule (`C(r)`, for diagnostics).
    comps: Vec<CompId>,
    /// CSR offsets into `body` (length `n_rules + 1`).
    body_off: Vec<u32>,
    /// Concatenated rule bodies.
    body: Vec<GLit>,
    /// CSR offsets into `watch`, indexed by literal code (length
    /// `2 * n_atoms + 1`).
    watch_off: Vec<u32>,
    /// Flat rule indices watching each literal code (a rule appears
    /// once per distinct body literal).
    watch: Vec<u32>,
    /// CSR: potential overrulers per rule (flat indices).
    over_off: Vec<u32>,
    over: Vec<u32>,
    /// CSR: potential defeaters per rule (flat indices).
    defeat_off: Vec<u32>,
    defeat: Vec<u32>,
    /// CSR: overruling victims per rule (transposed `over`).
    vover_off: Vec<u32>,
    vover: Vec<u32>,
    /// CSR: defeating victims per rule (transposed `defeat`).
    vdefeat_off: Vec<u32>,
    vdefeat: Vec<u32>,
    /// Stratum boundaries in the flat rule order (length
    /// `n_strata + 1`): stratum `s` is rules
    /// `stratum_off[s]..stratum_off[s + 1]`.
    stratum_off: Vec<u32>,
    /// Level boundaries in stratum index space (length `n_levels + 1`):
    /// level `l` spans strata `level_off[l]..level_off[l + 1]`.
    level_off: Vec<u32>,
    /// Flat index → global rule index into `GroundProgram::rules`.
    global: Vec<u32>,
}

impl FlatView {
    /// Compiles the flat view of component `comp`.
    pub fn new(gp: &GroundProgram, comp: CompId) -> Self {
        Self::from_rules(gp, comp, gp.view(comp))
    }

    /// Compiles a flat view over an explicit rule subset (global
    /// indices into `gp.rules`). Same closure requirement as the
    /// interpretive view: a rule outside the subset neither fires nor
    /// attacks.
    pub fn from_rules(gp: &GroundProgram, comp: CompId, rules: &[u32]) -> Self {
        let n = rules.len();
        let n_atoms = gp.n_atoms;

        // --- Stratification: SCCs of the head→body atom graph over
        // the atoms the rules mention, numbered locally in first-seen
        // order — a small sub-view of a large program (a prover's
        // relevance cone) then costs its own size, not the atom
        // universe's. CSR built in two counting passes (no sort —
        // Tarjan tolerates duplicate edges).
        let mut local_of = vec![u32::MAX; n_atoms];
        let mut n_local = 0usize;
        for &ri in rules {
            let r = &gp.rules[ri as usize];
            for l in std::iter::once(&r.head).chain(&r.body) {
                let a = l.atom().index();
                if local_of[a] == u32::MAX {
                    local_of[a] = n_local as u32;
                    n_local += 1;
                }
            }
        }
        let local = |l: GLit| local_of[l.atom().index()] as usize;
        let mut adj_off = vec![0u32; n_local + 1];
        for &ri in rules {
            let r = &gp.rules[ri as usize];
            adj_off[local(r.head) + 1] += r.body.len() as u32;
        }
        for v in 0..n_local {
            adj_off[v + 1] += adj_off[v];
        }
        let mut adj_edges = vec![0u32; adj_off[n_local] as usize];
        let mut cursor = adj_off.clone();
        for &ri in rules {
            let r = &gp.rules[ri as usize];
            let h = local(r.head);
            for &b in &r.body {
                adj_edges[cursor[h] as usize] = local(b) as u32;
                cursor[h] += 1;
            }
        }
        let (scc_of, n_sccs) = tarjan_scc_csr(&adj_off, &adj_edges);

        // Dependency level per SCC. Tarjan numbers SCCs
        // reverse-topologically (edges go to smaller ids), so one
        // ascending pass over SCC ids sees every dependency's level
        // final before it is read. The cross-SCC edge list is grouped
        // by source via a counting sort (duplicates are harmless to a
        // max-fold).
        let mut se_off = vec![0u32; n_sccs + 2];
        for &ri in rules {
            let r = &gp.rules[ri as usize];
            let s = scc_of[local(r.head)];
            for &b in &r.body {
                let t = scc_of[local(b)];
                if t != s {
                    debug_assert!(t < s, "Tarjan ids must be reverse-topological");
                    se_off[s as usize + 1] += 1;
                }
            }
        }
        for s in 0..n_sccs.max(1) {
            se_off[s + 1] += se_off[s];
        }
        let mut se_edges = vec![0u32; se_off[n_sccs.max(1)] as usize];
        let mut se_cur = se_off.clone();
        for &ri in rules {
            let r = &gp.rules[ri as usize];
            let s = scc_of[local(r.head)];
            for &b in &r.body {
                let t = scc_of[local(b)];
                if t != s {
                    se_edges[se_cur[s as usize] as usize] = t;
                    se_cur[s as usize] += 1;
                }
            }
        }
        let mut scc_level = vec![0u32; n_sccs.max(1)];
        for s in 0..n_sccs {
            let mut lv = 0u32;
            for &t in &se_edges[se_off[s] as usize..se_off[s + 1] as usize] {
                lv = lv.max(scc_level[t as usize] + 1);
            }
            scc_level[s] = lv;
        }

        // --- Flat rule order: (level, SCC, global index). ------------
        // (level, SCC) sorting is topological — any inter-stratum body
        // dependency crosses to a strictly lower level — and makes both
        // strata and levels contiguous rule ranges. Instead of a
        // comparison sort over rules, rank the (few) SCCs by
        // (level, id) and counting-sort the rules by rank; iterating
        // `rules` in ascending global order makes the counting sort's
        // stability reproduce the global-index tie-break.
        let mut scc_rank = vec![0u32; n_sccs.max(1)];
        {
            let mut by_level: Vec<u32> = (0..n_sccs as u32).collect();
            by_level.sort_unstable_by_key(|&s| (scc_level[s as usize], s));
            for (rank, &s) in by_level.iter().enumerate() {
                scc_rank[s as usize] = rank as u32;
            }
        }
        let rules_asc: std::borrow::Cow<'_, [u32]> = if rules.windows(2).all(|w| w[0] <= w[1]) {
            std::borrow::Cow::Borrowed(rules)
        } else {
            let mut v = rules.to_vec();
            v.sort_unstable();
            std::borrow::Cow::Owned(v)
        };
        let mut rank_cnt = vec![0u32; n_sccs + 2];
        for &ri in rules_asc.iter() {
            let s = scc_of[local(gp.rules[ri as usize].head)];
            rank_cnt[scc_rank[s as usize] as usize + 1] += 1;
        }
        for r in 0..n_sccs.max(1) {
            rank_cnt[r + 1] += rank_cnt[r];
        }
        let mut order_ri = vec![0u32; n];
        let mut rank_cur = rank_cnt;
        for &ri in rules_asc.iter() {
            let s = scc_of[local(gp.rules[ri as usize].head)];
            let r = scc_rank[s as usize] as usize;
            order_ri[rank_cur[r] as usize] = ri;
            rank_cur[r] += 1;
        }

        let mut heads = Vec::with_capacity(n);
        let mut comps = Vec::with_capacity(n);
        let mut global = Vec::with_capacity(n);
        let mut body_off = Vec::with_capacity(n + 1);
        let mut body = Vec::new();
        let mut rule_scc = Vec::with_capacity(n);
        body_off.push(0u32);
        for &ri in &order_ri {
            let r = &gp.rules[ri as usize];
            heads.push(r.head);
            comps.push(r.comp);
            global.push(ri);
            rule_scc.push(scc_of[local(r.head)]);
            body.extend_from_slice(&r.body);
            body_off.push(body.len() as u32);
        }

        // Stratum and level boundaries over the sorted order.
        let mut stratum_off: Vec<u32> = vec![0];
        let mut stratum_scc: Vec<u32> = Vec::new();
        let mut level_off: Vec<u32> = vec![0];
        let mut stratum_level: Vec<u32> = Vec::new();
        for f in 0..n {
            let s = rule_scc[f];
            if f == 0 || s != rule_scc[f - 1] {
                if f != 0 {
                    stratum_off.push(f as u32);
                }
                let lv = scc_level[s as usize];
                if stratum_level.last() != Some(&lv) {
                    if !stratum_level.is_empty() {
                        level_off.push(stratum_scc.len() as u32);
                    }
                    stratum_level.push(lv);
                }
                stratum_scc.push(s);
            }
        }
        stratum_off.push(n as u32);
        level_off.push(stratum_scc.len() as u32);
        if n == 0 {
            stratum_off = vec![0, 0];
            level_off = vec![0, 0];
        }

        // --- Watch lists: CSR over literal codes (two passes). -------
        let codes = 2 * n_atoms;
        let mut watch_off = vec![0u32; codes + 1];
        for &b in &body {
            watch_off[b.code() + 1] += 1;
        }
        for c in 0..codes {
            watch_off[c + 1] += watch_off[c];
        }
        let mut watch = vec![0u32; body.len()];
        let mut cursor = watch_off.clone();
        for f in 0..n {
            for &b in &body[body_off[f] as usize..body_off[f + 1] as usize] {
                let c = b.code();
                watch[cursor[c] as usize] = f as u32;
                cursor[c] += 1;
            }
        }

        // --- Attack lists: head buckets + Order tests (two passes). --
        // Rules bucketed by head literal code; attackers of rule `r`
        // are the bucket of `H(r).complement()` filtered through the
        // component order. Victims are the transpose.
        let mut head_off = vec![0u32; codes + 1];
        for &h in &heads {
            head_off[h.code() + 1] += 1;
        }
        for c in 0..codes {
            head_off[c + 1] += head_off[c];
        }
        let mut head_bucket = vec![0u32; n];
        let mut cursor = head_off.clone();
        for (f, &h) in heads.iter().enumerate() {
            let c = h.code();
            head_bucket[cursor[c] as usize] = f as u32;
            cursor[c] += 1;
        }

        let mut over_off = vec![0u32; n + 1];
        let mut defeat_off = vec![0u32; n + 1];
        let mut vover_off = vec![0u32; n + 1];
        let mut vdefeat_off = vec![0u32; n + 1];
        let attackers = |f: usize| {
            let c = heads[f].complement().code();
            &head_bucket[head_off[c] as usize..head_off[c + 1] as usize]
        };
        for f in 0..n {
            for &a in attackers(f) {
                if gp.order.can_overrule(comps[a as usize], comps[f]) {
                    over_off[f + 1] += 1;
                    vover_off[a as usize + 1] += 1;
                }
                if gp.order.can_defeat(comps[a as usize], comps[f]) {
                    defeat_off[f + 1] += 1;
                    vdefeat_off[a as usize + 1] += 1;
                }
            }
        }
        for f in 0..n {
            over_off[f + 1] += over_off[f];
            defeat_off[f + 1] += defeat_off[f];
            vover_off[f + 1] += vover_off[f];
            vdefeat_off[f + 1] += vdefeat_off[f];
        }
        let mut over = vec![0u32; over_off[n] as usize];
        let mut defeat = vec![0u32; defeat_off[n] as usize];
        let mut vover = vec![0u32; vover_off[n] as usize];
        let mut vdefeat = vec![0u32; vdefeat_off[n] as usize];
        let mut co = over_off.clone();
        let mut cd = defeat_off.clone();
        let mut cvo = vover_off.clone();
        let mut cvd = vdefeat_off.clone();
        for f in 0..n {
            for &a in attackers(f) {
                if gp.order.can_overrule(comps[a as usize], comps[f]) {
                    over[co[f] as usize] = a;
                    co[f] += 1;
                    vover[cvo[a as usize] as usize] = f as u32;
                    cvo[a as usize] += 1;
                }
                if gp.order.can_defeat(comps[a as usize], comps[f]) {
                    defeat[cd[f] as usize] = a;
                    cd[f] += 1;
                    vdefeat[cvd[a as usize] as usize] = f as u32;
                    cvd[a as usize] += 1;
                }
            }
        }

        FlatView {
            comp,
            n_atoms,
            heads,
            comps,
            body_off,
            body,
            watch_off,
            watch,
            over_off,
            over,
            defeat_off,
            defeat,
            vover_off,
            vover,
            vdefeat_off,
            vdefeat,
            stratum_off,
            level_off,
            global,
        }
    }

    /// Flat indices of the given rules, matched by content — `(head,
    /// body, comp)` is unique within a view because [`GroundProgram`]
    /// deduplicates instances. One pass over the arena; `None` if any
    /// rule is absent. The removal half of [`FlatView::apply_delta`]
    /// is addressed this way because a patched view's
    /// [`FlatView::global_index`] entries may be stale (they refer to
    /// the program the view was last *built* from, not the one it was
    /// patched to match).
    pub fn locate(&self, rules: &[&GroundRule]) -> Option<Vec<u32>> {
        let mut out = vec![u32::MAX; rules.len()];
        let mut missing = rules.len();
        if missing == 0 {
            return Some(out);
        }
        for f in 0..self.len() {
            for (k, r) in rules.iter().enumerate() {
                if out[k] == u32::MAX
                    && self.heads[f] == r.head
                    && self.comps[f] == r.comp
                    && self.body(f as u32) == &r.body[..]
                {
                    out[k] = f as u32;
                    missing -= 1;
                    break; // a flat rule matches at most one target
                }
            }
            if missing == 0 {
                return Some(out);
            }
        }
        None
    }

    /// Splices a mutation delta into the arenas. `gp` is the ground
    /// program *after* the mutation, `added` are indices into
    /// `gp.rules` of rules this view gains, and `removed` are flat
    /// indices (into `self`) of rules it loses (see
    /// [`FlatView::locate`]).
    ///
    /// Returns [`FlatPatch::Patched`] when the delta is
    /// **stratum-local**: every added rule either joins the surviving
    /// stratum of its head atom without bending the topological order
    /// (all its defined body atoms live in strata `<=` it), or defines
    /// only fresh head atoms, appended as new *tail* strata
    /// (stratified among themselves by a Tarjan pass over the tail
    /// alone, sharing one new dependency level). Removals are always
    /// stratum-local: the surviving strata keep their slots, possibly
    /// left empty — evaluation skips empty ranges. Otherwise — a back
    /// edge into an earlier stratum, a surviving rule watching a
    /// freshly defined atom, or a change to the SCC condensation —
    /// the honest answer is [`FlatPatch::Rebuild`].
    ///
    /// A patched view evaluates identically to a
    /// [`FlatView::from_rules`] rebuild: its stratum order is
    /// topological (body dependencies never point forward), rules
    /// sharing a head atom share a stratum (the worklist's attacker
    /// bookkeeping relies on this), and watch/attack arenas are
    /// recomputed from the patched rule set. It may be *coarser* —
    /// removals can leave mergeable strata apart, and spliced rules
    /// may add same-level cross-stratum edges, which sequential stratum
    /// order tolerates. Only [`FlatView::global_index`] goes stale.
    pub fn apply_delta(&self, gp: &GroundProgram, added: &[u32], removed: &[u32]) -> FlatPatch {
        let n_old = self.len();
        if n_old == 0 {
            // The empty view's synthetic empty stratum has nothing to
            // splice around; a rebuild costs the same.
            return FlatPatch::Rebuild;
        }
        let n_atoms = gp.n_atoms;
        if n_atoms < self.n_atoms {
            return FlatPatch::Rebuild; // not a successor program
        }

        // --- Removal mask over flat indices. ---------------------
        let mut dead = vec![false; n_old];
        for &f in removed {
            if f as usize >= n_old || dead[f as usize] {
                return FlatPatch::Rebuild; // malformed request
            }
            dead[f as usize] = true;
        }

        // --- Stratum owning each still-defined atom. -------------
        let n_strata_old = self.n_strata();
        let mut stratum_of_atom = vec![u32::MAX; n_atoms];
        for s in 0..n_strata_old {
            let (lo, hi) = self.stratum(s);
            for f in lo..hi {
                if !dead[f as usize] {
                    stratum_of_atom[self.heads[f as usize].atom().index()] = s as u32;
                }
            }
        }

        // --- Classify added rules. Head atom still owned by a
        // surviving stratum → splice there (all rules sharing a head
        // atom must share a stratum). Head atom unowned → a fresh
        // tail stratum appended after everything. ------------------
        let mut tail_slot = vec![u32::MAX; n_atoms];
        let mut tail_atoms: Vec<u32> = Vec::new();
        for &ri in added {
            let Some(r) = gp.rules.get(ri as usize) else {
                return FlatPatch::Rebuild; // malformed request
            };
            let h = r.head.atom().index();
            if stratum_of_atom[h] == u32::MAX && tail_slot[h] == u32::MAX {
                tail_slot[h] = tail_atoms.len() as u32;
                tail_atoms.push(h as u32);
            }
        }
        // A surviving rule watching a freshly defined atom would have
        // to run after the tail; the surviving order cannot host that.
        for &a in &tail_atoms {
            if (a as usize) < self.n_atoms {
                let atom = AtomId(a);
                for l in [GLit::pos(atom), GLit::neg(atom)] {
                    if self.watchers(l).iter().any(|&w| !dead[w as usize]) {
                        return FlatPatch::Rebuild;
                    }
                }
            }
        }
        let mut into_stratum: Vec<Vec<u32>> = vec![Vec::new(); n_strata_old];
        let mut tail_rules: Vec<Vec<u32>> = vec![Vec::new(); tail_atoms.len()];
        let mut tail_edges: Vec<(u32, u32)> = Vec::new();
        for &ri in added {
            let r = &gp.rules[ri as usize];
            let h = r.head.atom().index();
            let hs = stratum_of_atom[h];
            if hs == u32::MAX {
                let slot = tail_slot[h];
                for &b in &r.body {
                    let ba = b.atom().index();
                    if tail_slot[ba] != u32::MAX && ba != h {
                        tail_edges.push((slot, tail_slot[ba]));
                    }
                }
                tail_rules[slot as usize].push(ri);
            } else {
                for &b in &r.body {
                    let ba = b.atom().index();
                    if tail_slot[ba] != u32::MAX {
                        return FlatPatch::Rebuild; // depends on a later stratum
                    }
                    let bs = stratum_of_atom[ba];
                    if bs != u32::MAX && bs > hs {
                        return FlatPatch::Rebuild; // back edge: condensation changed
                    }
                    // bs == MAX: the atom has no defining rule — it
                    // never derives, no ordering constraint.
                }
                into_stratum[hs as usize].push(ri);
            }
        }

        // --- Stratify the tail among itself: a Tarjan pass over the
        // (tiny) fresh-atom graph only. Ascending ids are
        // reverse-topological — dependencies first — exactly the
        // order the tail strata are appended in. -------------------
        let n_tail = tail_atoms.len();
        let (tail_scc_of, n_tail_sccs) = if n_tail == 0 {
            (Vec::new(), 0)
        } else {
            let mut off = vec![0u32; n_tail + 1];
            for &(h, _) in &tail_edges {
                off[h as usize + 1] += 1;
            }
            for v in 0..n_tail {
                off[v + 1] += off[v];
            }
            let mut edges = vec![0u32; tail_edges.len()];
            let mut cur = off.clone();
            for &(h, b) in &tail_edges {
                edges[cur[h as usize] as usize] = b;
                cur[h as usize] += 1;
            }
            tarjan_scc_csr(&off, &edges)
        };
        let mut tail_strata: Vec<Vec<u32>> = vec![Vec::new(); n_tail_sccs];
        for (slot, rules) in tail_rules.iter().enumerate() {
            tail_strata[tail_scc_of[slot] as usize].extend_from_slice(rules);
        }
        for s in &mut tail_strata {
            s.sort_unstable(); // deterministic within the stratum
        }

        // --- Rule arenas in the patched order: surviving strata
        // keep their slots (spliced rules at the end of their
        // stratum), tail strata follow. ---------------------------
        let n_new = n_old - removed.len() + added.len();
        let n_strata_new = n_strata_old + n_tail_sccs;
        let mut heads: Vec<GLit> = Vec::with_capacity(n_new);
        let mut comps: Vec<CompId> = Vec::with_capacity(n_new);
        let mut global: Vec<u32> = Vec::with_capacity(n_new);
        let mut body_off: Vec<u32> = Vec::with_capacity(n_new + 1);
        let mut body: Vec<GLit> = Vec::with_capacity(self.body.len());
        let mut stratum_off: Vec<u32> = Vec::with_capacity(n_strata_new + 1);
        body_off.push(0);
        stratum_off.push(0);
        for (s, spliced) in into_stratum.iter().enumerate() {
            let (lo, hi) = self.stratum(s);
            for f in lo..hi {
                if dead[f as usize] {
                    continue;
                }
                heads.push(self.heads[f as usize]);
                comps.push(self.comps[f as usize]);
                // Stale on patched views — see `global_index`.
                global.push(self.global[f as usize]);
                body.extend_from_slice(self.body(f));
                body_off.push(body.len() as u32);
            }
            for &ri in spliced {
                let r = &gp.rules[ri as usize];
                heads.push(r.head);
                comps.push(r.comp);
                global.push(ri);
                body.extend_from_slice(&r.body);
                body_off.push(body.len() as u32);
            }
            stratum_off.push(heads.len() as u32);
        }
        for rules in &tail_strata {
            for &ri in rules {
                let r = &gp.rules[ri as usize];
                heads.push(r.head);
                comps.push(r.comp);
                global.push(ri);
                body.extend_from_slice(&r.body);
                body_off.push(body.len() as u32);
            }
            stratum_off.push(heads.len() as u32);
        }
        debug_assert_eq!(heads.len(), n_new);
        let mut level_off = self.level_off.clone();
        if n_tail_sccs > 0 {
            // All tail strata share one appended level; ordering
            // among them is the appended stratum order.
            level_off.push(n_strata_new as u32);
        }

        // --- Watch lists, head buckets, attack lists: recomputed
        // from the patched rule set by the same counting passes as
        // `from_rules` (linear; the expensive global stratification
        // is what the splice avoided). ----------------------------
        let codes = 2 * n_atoms;
        let mut watch_off = vec![0u32; codes + 1];
        for &b in &body {
            watch_off[b.code() + 1] += 1;
        }
        for c in 0..codes {
            watch_off[c + 1] += watch_off[c];
        }
        let mut watch = vec![0u32; body.len()];
        let mut cursor = watch_off.clone();
        for f in 0..n_new {
            for &b in &body[body_off[f] as usize..body_off[f + 1] as usize] {
                let c = b.code();
                watch[cursor[c] as usize] = f as u32;
                cursor[c] += 1;
            }
        }

        let mut head_off = vec![0u32; codes + 1];
        for &h in &heads {
            head_off[h.code() + 1] += 1;
        }
        for c in 0..codes {
            head_off[c + 1] += head_off[c];
        }
        let mut head_bucket = vec![0u32; n_new];
        let mut cursor = head_off.clone();
        for (f, &h) in heads.iter().enumerate() {
            let c = h.code();
            head_bucket[cursor[c] as usize] = f as u32;
            cursor[c] += 1;
        }

        let mut over_off = vec![0u32; n_new + 1];
        let mut defeat_off = vec![0u32; n_new + 1];
        let mut vover_off = vec![0u32; n_new + 1];
        let mut vdefeat_off = vec![0u32; n_new + 1];
        let attackers = |f: usize| {
            let c = heads[f].complement().code();
            &head_bucket[head_off[c] as usize..head_off[c + 1] as usize]
        };
        for f in 0..n_new {
            for &a in attackers(f) {
                if gp.order.can_overrule(comps[a as usize], comps[f]) {
                    over_off[f + 1] += 1;
                    vover_off[a as usize + 1] += 1;
                }
                if gp.order.can_defeat(comps[a as usize], comps[f]) {
                    defeat_off[f + 1] += 1;
                    vdefeat_off[a as usize + 1] += 1;
                }
            }
        }
        for f in 0..n_new {
            over_off[f + 1] += over_off[f];
            defeat_off[f + 1] += defeat_off[f];
            vover_off[f + 1] += vover_off[f];
            vdefeat_off[f + 1] += vdefeat_off[f];
        }
        let mut over = vec![0u32; over_off[n_new] as usize];
        let mut defeat = vec![0u32; defeat_off[n_new] as usize];
        let mut vover = vec![0u32; vover_off[n_new] as usize];
        let mut vdefeat = vec![0u32; vdefeat_off[n_new] as usize];
        let mut co = over_off.clone();
        let mut cd = defeat_off.clone();
        let mut cvo = vover_off.clone();
        let mut cvd = vdefeat_off.clone();
        for f in 0..n_new {
            for &a in attackers(f) {
                if gp.order.can_overrule(comps[a as usize], comps[f]) {
                    over[co[f] as usize] = a;
                    co[f] += 1;
                    vover[cvo[a as usize] as usize] = f as u32;
                    cvo[a as usize] += 1;
                }
                if gp.order.can_defeat(comps[a as usize], comps[f]) {
                    defeat[cd[f] as usize] = a;
                    cd[f] += 1;
                    vdefeat[cvd[a as usize] as usize] = f as u32;
                    cvd[a as usize] += 1;
                }
            }
        }

        FlatPatch::Patched(FlatView {
            comp: self.comp,
            n_atoms,
            heads,
            comps,
            body_off,
            body,
            watch_off,
            watch,
            over_off,
            over,
            defeat_off,
            defeat,
            vover_off,
            vover,
            vdefeat_off,
            vdefeat,
            stratum_off,
            level_off,
            global,
        })
    }

    /// Number of rules.
    #[inline]
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the view has no rules.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Head literal of flat rule `f`.
    #[inline]
    pub fn head(&self, f: FlatIdx) -> GLit {
        self.heads[f as usize]
    }

    /// Source component of flat rule `f`.
    #[inline]
    pub fn rule_comp(&self, f: FlatIdx) -> CompId {
        self.comps[f as usize]
    }

    /// Body literals of flat rule `f`.
    #[inline]
    pub fn body(&self, f: FlatIdx) -> &[GLit] {
        let f = f as usize;
        &self.body[self.body_off[f] as usize..self.body_off[f + 1] as usize]
    }

    /// Flat rules with literal `l` in the body.
    #[inline]
    pub fn watchers(&self, l: GLit) -> &[u32] {
        let c = l.code();
        &self.watch[self.watch_off[c] as usize..self.watch_off[c + 1] as usize]
    }

    /// Potential overrulers of flat rule `f`.
    #[inline]
    pub fn overrulers(&self, f: FlatIdx) -> &[u32] {
        let f = f as usize;
        &self.over[self.over_off[f] as usize..self.over_off[f + 1] as usize]
    }

    /// Potential defeaters of flat rule `f`.
    #[inline]
    pub fn defeaters(&self, f: FlatIdx) -> &[u32] {
        let f = f as usize;
        &self.defeat[self.defeat_off[f] as usize..self.defeat_off[f + 1] as usize]
    }

    /// Rules that flat rule `f` can overrule.
    #[inline]
    pub fn victims_overrule(&self, f: FlatIdx) -> &[u32] {
        let f = f as usize;
        &self.vover[self.vover_off[f] as usize..self.vover_off[f + 1] as usize]
    }

    /// Rules that flat rule `f` can defeat.
    #[inline]
    pub fn victims_defeat(&self, f: FlatIdx) -> &[u32] {
        let f = f as usize;
        &self.vdefeat[self.vdefeat_off[f] as usize..self.vdefeat_off[f + 1] as usize]
    }

    /// Number of strata (contiguous rule ranges; all non-empty unless
    /// the view itself is empty).
    #[inline]
    pub fn n_strata(&self) -> usize {
        self.stratum_off.len() - 1
    }

    /// Flat rule range of stratum `s`.
    #[inline]
    pub fn stratum(&self, s: usize) -> (u32, u32) {
        (self.stratum_off[s], self.stratum_off[s + 1])
    }

    /// Number of dependency levels.
    #[inline]
    pub fn n_levels(&self) -> usize {
        self.level_off.len() - 1
    }

    /// Stratum index range of level `l`.
    #[inline]
    pub fn level(&self, l: usize) -> (u32, u32) {
        (self.level_off[l], self.level_off[l + 1])
    }

    /// Global index (into [`GroundProgram::rules`]) of flat rule `f`.
    ///
    /// Diagnostic only: on a view produced by [`FlatView::apply_delta`]
    /// the entries of *retained* rules still refer to the program the
    /// view was last **built** from — splicing does not remap them
    /// (evaluation never reads them; content lookups go through
    /// [`FlatView::locate`]).
    #[inline]
    pub fn global_index(&self, f: FlatIdx) -> u32 {
        self.global[f as usize]
    }
}

/// Per-(predicate, sign) cardinality and distinct-value statistics of a
/// ground program — the grounding-time statistics that drive the join
/// planner, summarised post-hoc for inspection (`olp check`, REPL
/// `stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredStats {
    /// The predicate.
    pub pred: PredId,
    /// The literal sign.
    pub sign: Sign,
    /// Number of distinct ground atoms with this (pred, sign) occurring
    /// in the program (heads or bodies).
    pub cardinality: usize,
    /// Distinct term values per argument position.
    pub distinct: Vec<usize>,
}

/// Program-level statistics: per-(pred, sign) [`PredStats`] plus
/// structural counts.
#[derive(Debug, Clone, Default)]
pub struct ProgramStats {
    /// Per-(pred, sign) statistics, sorted by (pred, sign).
    pub preds: Vec<PredStats>,
    /// Total rules inspected.
    pub rules: usize,
    /// Total body literals.
    pub body_lits: usize,
}

impl ProgramStats {
    /// Collects statistics over the rules of `gp`'s view of `comp`.
    pub fn collect(world: &World, gp: &GroundProgram, comp: CompId) -> Self {
        use olp_core::FxHashMap;
        let mut seen: FxHashMap<(PredId, Sign), Vec<olp_core::AtomId>> = FxHashMap::default();
        let mut body_lits = 0usize;
        let mut rules = 0usize;
        let mut note = |l: GLit| {
            let pred = world.atoms.get(l.atom()).pred;
            seen.entry((pred, l.sign())).or_default().push(l.atom());
        };
        for (_, r) in gp.view_rules(comp) {
            rules += 1;
            note(r.head);
            for &b in &r.body {
                body_lits += 1;
                note(b);
            }
        }
        let mut preds: Vec<PredStats> = seen
            .into_iter()
            .map(|((pred, sign), mut atoms)| {
                atoms.sort_unstable();
                atoms.dedup();
                let arity = world.preds.arity(pred) as usize;
                let mut per_pos: Vec<Vec<olp_core::GTermId>> = vec![Vec::new(); arity];
                for &a in &atoms {
                    for (i, &t) in world.atoms.get(a).args.iter().enumerate() {
                        per_pos[i].push(t);
                    }
                }
                let distinct = per_pos
                    .into_iter()
                    .map(|mut v| {
                        v.sort_unstable();
                        v.dedup();
                        v.len()
                    })
                    .collect();
                PredStats {
                    pred,
                    sign,
                    cardinality: atoms.len(),
                    distinct,
                }
            })
            .collect();
        preds.sort_unstable_by_key(|p| (p.pred, p.sign));
        ProgramStats {
            preds,
            rules,
            body_lits,
        }
    }

    /// Renders the statistics, one `(pred, sign)` per line.
    pub fn render(&self, world: &World) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rules: {}, body literals: {}",
            self.rules, self.body_lits
        );
        for p in &self.preds {
            let info = world.preds.info(p.pred);
            let name = world.syms.name(info.name);
            let sign = if p.sign == Sign::Pos { "" } else { "-" };
            let distinct: Vec<String> = p.distinct.iter().map(usize::to_string).collect();
            let _ = writeln!(
                out,
                "  {}{}/{}: {} atoms, distinct per arg [{}]",
                sign,
                name,
                info.arity,
                p.cardinality,
                distinct.join(", ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::GroundRule;
    use olp_core::{AtomId, Order};

    fn order1() -> Order {
        Order::from_edges(1, &[]).unwrap()
    }

    fn lit(a: u32) -> GLit {
        GLit::pos(AtomId(a))
    }

    /// a :- b.  b :- c.  c.  d :- d.  (chain + self-loop)
    fn chain() -> GroundProgram {
        let rules = vec![
            GroundRule::new(lit(0), vec![lit(1)], CompId(0)),
            GroundRule::new(lit(1), vec![lit(2)], CompId(0)),
            GroundRule::new(lit(2), vec![], CompId(0)),
            GroundRule::new(lit(3), vec![lit(3)], CompId(0)),
        ];
        GroundProgram::new(rules, order1(), 4)
    }

    #[test]
    fn strata_are_topologically_ordered_rule_ranges() {
        let gp = chain();
        let fv = FlatView::new(&gp, CompId(0));
        assert_eq!(fv.len(), 4);
        // Every body atom's defining stratum precedes (or equals) the
        // head's stratum in flat order.
        for s in 0..fv.n_strata() {
            let (lo, hi) = fv.stratum(s);
            for f in lo..hi {
                for &b in fv.body(f) {
                    for &w in fv.watchers(b) {
                        assert!(w >= lo, "watcher {w} before its literal's stratum");
                    }
                }
            }
        }
        // Levels tile the strata.
        let mut strata_seen = 0;
        for l in 0..fv.n_levels() {
            let (lo, hi) = fv.level(l);
            assert_eq!(lo, strata_seen);
            strata_seen = hi;
        }
        assert_eq!(strata_seen as usize, fv.n_strata());
    }

    #[test]
    fn watchers_and_bodies_agree() {
        let gp = chain();
        let fv = FlatView::new(&gp, CompId(0));
        for f in 0..fv.len() as u32 {
            for &b in fv.body(f) {
                assert!(fv.watchers(b).contains(&f));
            }
        }
        // Total watch entries == total body literals.
        let total: usize = (0..fv.len() as u32).map(|f| fv.body(f).len()).sum();
        assert_eq!(fv.watch.len(), total);
    }

    #[test]
    fn attacks_respect_order() {
        // p. and -p. in one component: mutual defeaters, no overruling.
        let rules = vec![
            GroundRule::new(GLit::pos(AtomId(0)), vec![], CompId(0)),
            GroundRule::new(GLit::neg(AtomId(0)), vec![], CompId(0)),
        ];
        let gp = GroundProgram::new(rules, order1(), 1);
        let fv = FlatView::new(&gp, CompId(0));
        for f in 0..2u32 {
            assert_eq!(fv.overrulers(f).len(), 0);
            assert_eq!(fv.defeaters(f).len(), 1);
            assert_eq!(fv.victims_defeat(f).len(), 1);
            assert_ne!(fv.defeaters(f)[0], f);
        }
    }

    #[test]
    fn empty_view_is_well_formed() {
        let gp = GroundProgram::new(Vec::new(), order1(), 0);
        let fv = FlatView::new(&gp, CompId(0));
        assert!(fv.is_empty());
        assert_eq!(fv.n_strata(), 1);
        assert_eq!(fv.stratum(0), (0, 0));
    }

    /// Structural invariants every view — built or patched — must
    /// hold: strata tile the rules, levels tile the strata, rules
    /// sharing a head atom share a stratum, body dependencies never
    /// point forward, watch lists agree
    /// with bodies, and attack lists match a direct recomputation
    /// with exact victim transposes.
    fn check_well_formed(fv: &FlatView, gp: &GroundProgram) {
        let n = fv.len() as u32;
        let mut prev = 0u32;
        for s in 0..fv.n_strata() {
            let (lo, hi) = fv.stratum(s);
            assert_eq!(lo, prev, "strata must tile the rules");
            assert!(hi >= lo);
            prev = hi;
        }
        assert_eq!(prev, n);
        let mut prev = 0u32;
        for l in 0..fv.n_levels() {
            let (lo, hi) = fv.level(l);
            assert_eq!(lo, prev, "levels must tile the strata");
            prev = hi;
        }
        assert_eq!(prev as usize, fv.n_strata());
        let mut stratum_of_atom: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for s in 0..fv.n_strata() {
            let (lo, hi) = fv.stratum(s);
            for f in lo..hi {
                let a = fv.head(f).atom().index();
                let owner = stratum_of_atom.entry(a).or_insert(s);
                assert_eq!(*owner, s, "head atom {a} split across strata");
            }
        }
        for s in 0..fv.n_strata() {
            let (lo, hi) = fv.stratum(s);
            for f in lo..hi {
                for &b in fv.body(f) {
                    if let Some(&t) = stratum_of_atom.get(&b.atom().index()) {
                        assert!(t <= s, "body dependency points forward");
                    }
                }
            }
        }
        for f in 0..n {
            for &b in fv.body(f) {
                assert!(fv.watchers(b).contains(&f));
            }
        }
        let total: usize = (0..n).map(|f| fv.body(f).len()).sum();
        let all_watch: usize = (0..2 * fv.n_atoms)
            .map(|c| fv.watchers(GLit::from_code(c)).len())
            .sum();
        assert_eq!(all_watch, total);
        for f in 0..n {
            let hc = fv.head(f).complement();
            let mut want: Vec<u32> = (0..n)
                .filter(|&a| {
                    fv.head(a) == hc && gp.order.can_overrule(fv.rule_comp(a), fv.rule_comp(f))
                })
                .collect();
            let mut got = fv.overrulers(f).to_vec();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "overrulers of {f}");
            let mut want: Vec<u32> = (0..n)
                .filter(|&a| {
                    fv.head(a) == hc && gp.order.can_defeat(fv.rule_comp(a), fv.rule_comp(f))
                })
                .collect();
            let mut got = fv.defeaters(f).to_vec();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "defeaters of {f}");
            for &a in fv.overrulers(f) {
                assert!(fv.victims_overrule(a).contains(&f));
            }
            for &a in fv.defeaters(f) {
                assert!(fv.victims_defeat(a).contains(&f));
            }
            for &v in fv.victims_overrule(f) {
                assert!(fv.overrulers(v).contains(&f));
            }
            for &v in fv.victims_defeat(f) {
                assert!(fv.defeaters(v).contains(&f));
            }
        }
    }

    /// The view's rule multiset equals the program's view of `c`.
    fn assert_matches_view(fv: &FlatView, gp: &GroundProgram, c: CompId) {
        let mut got: Vec<(GLit, Vec<GLit>, CompId)> = (0..fv.len() as u32)
            .map(|f| (fv.head(f), fv.body(f).to_vec(), fv.rule_comp(f)))
            .collect();
        let mut want: Vec<(GLit, Vec<GLit>, CompId)> = gp
            .view(c)
            .iter()
            .map(|&ri| {
                let r = &gp.rules[ri as usize];
                (r.head, r.body.to_vec(), r.comp)
            })
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "rule set diverges from the program view");
    }

    /// Drives `apply_delta` the way `Kb::commit` does: diff the
    /// programs, restrict to the view, locate removals by content.
    fn patch_via_delta(old: &GroundProgram, new: &GroundProgram, c: CompId) -> FlatPatch {
        let fv = FlatView::new(old, c);
        let d = crate::delta::GroundDelta::between(old, new);
        let (added, removed) = d.for_view(old, new, c);
        let refs: Vec<&GroundRule> = removed.iter().map(|&i| &old.rules[i as usize]).collect();
        let flat_removed = fv.locate(&refs).expect("removed rules are in the view");
        fv.apply_delta(new, &added, &flat_removed)
    }

    #[test]
    fn locate_matches_by_content() {
        let gp = chain();
        let fv = FlatView::new(&gp, CompId(0));
        let refs: Vec<&GroundRule> = gp.rules.iter().collect();
        let flat = fv.locate(&refs).expect("all rules present");
        for (k, r) in gp.rules.iter().enumerate() {
            let f = flat[k];
            assert_eq!(fv.head(f), r.head);
            assert_eq!(fv.body(f), &r.body[..]);
        }
        let absent = GroundRule::new(lit(0), vec![lit(3)], CompId(0));
        assert!(fv.locate(&[&absent]).is_none());
    }

    #[test]
    fn splice_into_existing_stratum_patches() {
        let old = chain();
        let mut rules: Vec<GroundRule> = old.rules.clone();
        // a :- c: head atom 0 already owns a stratum, body atom 2 is
        // defined strictly earlier — stratum-local.
        rules.push(GroundRule::new(lit(0), vec![lit(2)], CompId(0)));
        let new = GroundProgram::new(rules, order1(), 4);
        match patch_via_delta(&old, &new, CompId(0)) {
            FlatPatch::Patched(p) => {
                let fv_old = FlatView::new(&old, CompId(0));
                assert_eq!(p.n_strata(), fv_old.n_strata(), "no new strata needed");
                check_well_formed(&p, &new);
                assert_matches_view(&p, &new, CompId(0));
            }
            FlatPatch::Rebuild => panic!("stratum-local assert must patch"),
        }
    }

    #[test]
    fn fresh_atoms_append_tail_strata() {
        let old = chain();
        let mut rules: Vec<GroundRule> = old.rules.clone();
        // e. and f :- e over fresh atoms: two tail strata in
        // dependency order, one appended level.
        rules.push(GroundRule::new(lit(4), vec![], CompId(0)));
        rules.push(GroundRule::new(lit(5), vec![lit(4)], CompId(0)));
        let new = GroundProgram::new(rules, order1(), 6);
        let fv_old = FlatView::new(&old, CompId(0));
        match patch_via_delta(&old, &new, CompId(0)) {
            FlatPatch::Patched(p) => {
                assert_eq!(p.n_strata(), fv_old.n_strata() + 2);
                assert_eq!(p.n_levels(), fv_old.n_levels() + 1);
                assert_eq!(p.n_atoms, 6);
                check_well_formed(&p, &new);
                assert_matches_view(&p, &new, CompId(0));
            }
            FlatPatch::Rebuild => panic!("fresh-atom assert must patch"),
        }
    }

    #[test]
    fn back_edge_forces_rebuild() {
        let old = chain();
        let mut rules: Vec<GroundRule> = old.rules.clone();
        // c :- a: atom 2's stratum precedes atom 0's — the SCC
        // condensation collapses, the splice must refuse.
        rules.push(GroundRule::new(lit(2), vec![lit(0)], CompId(0)));
        let new = GroundProgram::new(rules, order1(), 4);
        assert!(matches!(
            patch_via_delta(&old, &new, CompId(0)),
            FlatPatch::Rebuild
        ));
    }

    #[test]
    fn retained_watcher_of_fresh_atom_forces_rebuild() {
        // a :- e with e undefined; then e. arrives: the surviving
        // rule would have to run after the tail.
        let old = GroundProgram::new(
            vec![GroundRule::new(lit(0), vec![lit(4)], CompId(0))],
            order1(),
            5,
        );
        let mut rules: Vec<GroundRule> = old.rules.clone();
        rules.push(GroundRule::new(lit(4), vec![], CompId(0)));
        let new = GroundProgram::new(rules, order1(), 5);
        assert!(matches!(
            patch_via_delta(&old, &new, CompId(0)),
            FlatPatch::Rebuild
        ));
    }

    #[test]
    fn removal_leaves_empty_stratum_in_place() {
        let old = chain();
        let rules: Vec<GroundRule> = old
            .rules
            .iter()
            .filter(|r| !(r.head == lit(2) && r.body.is_empty()))
            .cloned()
            .collect();
        let new = GroundProgram::new(rules, order1(), 4);
        let fv_old = FlatView::new(&old, CompId(0));
        match patch_via_delta(&old, &new, CompId(0)) {
            FlatPatch::Patched(p) => {
                assert_eq!(p.len(), fv_old.len() - 1);
                assert_eq!(
                    p.n_strata(),
                    fv_old.n_strata(),
                    "the emptied stratum keeps its slot"
                );
                assert!((0..p.n_strata()).any(|s| {
                    let (lo, hi) = p.stratum(s);
                    lo == hi
                }));
                check_well_formed(&p, &new);
                assert_matches_view(&p, &new, CompId(0));
            }
            FlatPatch::Rebuild => panic!("pure removal must patch"),
        }
    }

    mod patch_props {
        use super::*;
        use olp_core::Order;
        use proptest::prelude::*;

        const N_ATOMS: usize = 5;

        fn order2() -> Order {
            Order::from_edges(2, &[(CompId(0), CompId(1))]).unwrap()
        }

        fn arb_rule() -> impl Strategy<Value = GroundRule> {
            (
                any::<bool>(),
                0..N_ATOMS as u32,
                0..2u32,
                proptest::collection::vec((any::<bool>(), 0..N_ATOMS as u32), 0..3),
            )
                .prop_map(|(hp, ha, comp, body)| {
                    let lit = |p: bool, a: u32| {
                        if p {
                            GLit::pos(AtomId(a))
                        } else {
                            GLit::neg(AtomId(a))
                        }
                    };
                    GroundRule::new(
                        lit(hp, ha),
                        body.into_iter().map(|(p, a)| lit(p, a)).collect(),
                        CompId(comp),
                    )
                })
        }

        proptest! {
            /// A patched view is structurally equivalent to a
            /// from-scratch rebuild: same rule multiset as the new
            /// program's view, and every arena invariant holds —
            /// strata topological, attacks content-exact, watches
            /// consistent. (Byte-identical *models* through the
            /// patched arenas are proven end-to-end by the
            /// differential proptest in `tests/incremental.rs`.)
            #[test]
            fn patch_is_structurally_equivalent_to_rebuild(
                base in proptest::collection::vec(arb_rule(), 1..12),
                adds in proptest::collection::vec(arb_rule(), 0..4),
                remove_mask in any::<u16>(),
            ) {
                let order = order2();
                let old = GroundProgram::new(base, order.clone(), N_ATOMS);
                let mut kept: Vec<GroundRule> = old
                    .rules
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| remove_mask & (1 << (i % 16)) == 0)
                    .map(|(_, r)| r.clone())
                    .collect();
                kept.extend(adds.iter().cloned());
                let new = GroundProgram::new(kept, order, N_ATOMS);
                let delta = crate::delta::GroundDelta::between(&old, &new);
                for c in 0..2u32 {
                    let c = CompId(c);
                    let fv = FlatView::new(&old, c);
                    let (added, removed) = delta.for_view(&old, &new, c);
                    let refs: Vec<&GroundRule> =
                        removed.iter().map(|&i| &old.rules[i as usize]).collect();
                    let flat_removed = fv.locate(&refs);
                    prop_assert!(
                        flat_removed.is_some(),
                        "a view must contain its removed rules"
                    );
                    match fv.apply_delta(&new, &added, &flat_removed.unwrap()) {
                        FlatPatch::Patched(p) => {
                            check_well_formed(&p, &new);
                            assert_matches_view(&p, &new, c);
                        }
                        FlatPatch::Rebuild => {} // honest fallback
                    }
                }
            }
        }
    }
}
