//! Compiled component views and rule statuses (Definition 2).
//!
//! The meaning of an ordered program is always taken *in a component*
//! `C`: only the rules of `ground(C*)` participate. A [`View`] compiles
//! that rule set once — indexing bodies and heads, and precomputing for
//! every rule its potential **overrulers** (complementary-headed rules
//! in strictly lower components) and **defeaters** (complementary-headed
//! rules in the same or an incomparable component) — so the five rule
//! statuses of Def. 2 are cheap to evaluate against any interpretation:
//!
//! * *applicable*: `B(r) ⊆ I`
//! * *applied*: applicable and `H(r) ∈ I`
//! * *blocked*: some body literal's complement is in `I`
//! * *overruled*: some **non-blocked** overruler exists
//! * *defeated*: some **non-blocked** defeater exists

use olp_core::Interpretation;
use olp_core::{CompId, FxHashMap, GLit};
use olp_ground::{GroundProgram, GroundRule};

/// Structural statistics of a compiled view (see [`View::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewStats {
    /// Rules in the view.
    pub rules: usize,
    /// Potential overruling edges (attacker strictly below victim).
    pub overrule_edges: usize,
    /// Potential defeating edges (same or incomparable components).
    pub defeat_edges: usize,
}

/// Index of a rule *within a view* (dense, `0..view.len()`).
pub type LocalIdx = u32;

/// A compiled view `ground(C*)` of a ground program.
#[derive(Debug, Clone)]
pub struct View<'g> {
    /// The underlying ground program.
    pub gp: &'g GroundProgram,
    /// The component whose meaning is being taken.
    pub comp: CompId,
    /// The rules of the view (indices into `gp.rules`).
    rules: Vec<u32>,
    /// Per rule: potential overrulers (local indices).
    overrulers: Vec<Vec<LocalIdx>>,
    /// Per rule: potential defeaters (local indices).
    defeaters: Vec<Vec<LocalIdx>>,
    /// Rules indexed by head literal.
    by_head: FxHashMap<GLit, Vec<LocalIdx>>,
    /// Rules indexed by body literal (each rule listed once per distinct
    /// body literal).
    by_body: FxHashMap<GLit, Vec<LocalIdx>>,
    /// Transposed attack lists: for each rule, the rules it can
    /// overrule / defeat — used by the incremental fixpoint engine.
    victims_overrule: Vec<Vec<LocalIdx>>,
    victims_defeat: Vec<Vec<LocalIdx>>,
}

impl<'g> View<'g> {
    /// Compiles the view of component `comp`.
    pub fn new(gp: &'g GroundProgram, comp: CompId) -> Self {
        Self::from_rules(gp, comp, gp.view(comp).to_vec())
    }

    /// Compiles a view over an **explicit rule subset** (global indices
    /// into `gp.rules`). Head/body indices and attack lists are built
    /// from the subset only: a rule outside `rules` neither fires nor
    /// attacks.
    ///
    /// Used by the decomposition layer ([`crate::decomp`]), whose rule
    /// groups are closed under head-atom sharing — every rule with a
    /// head complementary to an included rule's head is also included —
    /// so the attack structure inside the subset is exactly the attack
    /// structure the full view assigns to those rules; and by the
    /// prover ([`crate::prove::prove`]), whose relevance cone contains every
    /// potential attacker of each of its rules.
    pub fn from_rules(gp: &'g GroundProgram, comp: CompId, rules: Vec<u32>) -> Self {
        let n = rules.len();
        let mut by_head: FxHashMap<GLit, Vec<LocalIdx>> = FxHashMap::default();
        let mut by_body: FxHashMap<GLit, Vec<LocalIdx>> = FxHashMap::default();
        for (li, &ri) in rules.iter().enumerate() {
            let r = &gp.rules[ri as usize];
            by_head.entry(r.head).or_default().push(li as LocalIdx);
            for &b in &r.body {
                by_body.entry(b).or_default().push(li as LocalIdx);
            }
        }
        let mut overrulers = vec![Vec::new(); n];
        let mut defeaters = vec![Vec::new(); n];
        let mut victims_overrule = vec![Vec::new(); n];
        let mut victims_defeat = vec![Vec::new(); n];
        for (li, &ri) in rules.iter().enumerate() {
            let r = &gp.rules[ri as usize];
            if let Some(attackers) = by_head.get(&r.head.complement()) {
                for &ai in attackers {
                    let a = &gp.rules[rules[ai as usize] as usize];
                    if gp.order.can_overrule(a.comp, r.comp) {
                        overrulers[li].push(ai);
                        victims_overrule[ai as usize].push(li as LocalIdx);
                    }
                    if gp.order.can_defeat(a.comp, r.comp) {
                        defeaters[li].push(ai);
                        victims_defeat[ai as usize].push(li as LocalIdx);
                    }
                }
            }
        }
        View {
            gp,
            comp,
            rules,
            overrulers,
            defeaters,
            by_head,
            by_body,
            victims_overrule,
            victims_defeat,
        }
    }

    /// A sub-view over a subset of this view's rules (given as **global**
    /// indices, e.g. collected via [`View::global_index`]). See
    /// [`View::from_rules`] for the closure requirement on the subset.
    #[must_use]
    pub fn restrict(&self, rules: &[u32]) -> View<'g> {
        View::from_rules(self.gp, self.comp, rules.to_vec())
    }

    /// Number of rules in the view.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the view has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rule at local index `li`.
    #[inline]
    pub fn rule(&self, li: LocalIdx) -> &GroundRule {
        &self.gp.rules[self.rules[li as usize] as usize]
    }

    /// The global index (into [`olp_ground::GroundProgram::rules`]) of
    /// the rule at local index `li` — e.g. for rendering via
    /// [`olp_ground::GroundProgram::rule_str`].
    #[inline]
    pub fn global_index(&self, li: LocalIdx) -> u32 {
        self.rules[li as usize]
    }

    /// Iterates over `(local index, rule)`.
    pub fn rules(&self) -> impl Iterator<Item = (LocalIdx, &GroundRule)> {
        self.rules
            .iter()
            .enumerate()
            .map(move |(li, &ri)| (li as LocalIdx, &self.gp.rules[ri as usize]))
    }

    /// Rules with head literal `h`.
    pub fn rules_with_head(&self, h: GLit) -> &[LocalIdx] {
        self.by_head.get(&h).map_or(&[], Vec::as_slice)
    }

    /// Rules with `l` in the body.
    pub fn rules_with_body_lit(&self, l: GLit) -> &[LocalIdx] {
        self.by_body.get(&l).map_or(&[], Vec::as_slice)
    }

    /// Potential overrulers of rule `li`.
    pub fn overrulers(&self, li: LocalIdx) -> &[LocalIdx] {
        &self.overrulers[li as usize]
    }

    /// Potential defeaters of rule `li`.
    pub fn defeaters(&self, li: LocalIdx) -> &[LocalIdx] {
        &self.defeaters[li as usize]
    }

    /// Rules that rule `li` can overrule.
    pub fn victims_overrule(&self, li: LocalIdx) -> &[LocalIdx] {
        &self.victims_overrule[li as usize]
    }

    /// Rules that rule `li` can defeat.
    pub fn victims_defeat(&self, li: LocalIdx) -> &[LocalIdx] {
        &self.victims_defeat[li as usize]
    }

    /// Structural statistics of the view — conflict diagnostics for
    /// tooling (the `olp check` CLI prints these).
    pub fn stats(&self) -> ViewStats {
        ViewStats {
            rules: self.rules.len(),
            overrule_edges: self.overrulers.iter().map(Vec::len).sum(),
            defeat_edges: self.defeaters.iter().map(Vec::len).sum(),
        }
    }

    /// Mutual-defeat pairs: `(head literal, rule, contradictor)` where
    /// each rule is a potential defeater of the other — the situations
    /// that leave atoms undefined under unresolved conflict (Fig. 2).
    /// A KB lint: every pair is a place where the hierarchy fails to
    /// rank two contradictory opinions. Each unordered pair is reported
    /// once, keyed by the positive head.
    pub fn mutual_defeats(&self) -> Vec<(GLit, LocalIdx, LocalIdx)> {
        // Defeat is symmetric (equal/incomparable components both ways,
        // complementary heads both ways), so iterating from the
        // positive-headed side visits every pair exactly once.
        let mut out = Vec::new();
        for (li, r) in self.rules() {
            if !r.head.is_pos() {
                continue;
            }
            for &d in self.defeaters(li) {
                debug_assert!(self.defeaters(d).contains(&li), "defeat is symmetric");
                out.push((r.head, li, d));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    // ---- Definition 2 statuses --------------------------------------

    /// `B(r) ⊆ I`.
    pub fn applicable(&self, li: LocalIdx, i: &Interpretation) -> bool {
        self.rule(li).body.iter().all(|&b| i.holds(b))
    }

    /// Applicable and `H(r) ∈ I`.
    pub fn applied(&self, li: LocalIdx, i: &Interpretation) -> bool {
        i.holds(self.rule(li).head) && self.applicable(li, i)
    }

    /// Some body literal's complement is in `I`.
    pub fn blocked(&self, li: LocalIdx, i: &Interpretation) -> bool {
        self.rule(li).body.iter().any(|&b| i.holds(b.complement()))
    }

    /// Some non-blocked rule in a strictly lower component has the
    /// complementary head.
    pub fn overruled(&self, li: LocalIdx, i: &Interpretation) -> bool {
        self.overrulers[li as usize]
            .iter()
            .any(|&a| !self.blocked(a, i))
    }

    /// Some non-blocked rule in the same or an incomparable component
    /// has the complementary head.
    pub fn defeated(&self, li: LocalIdx, i: &Interpretation) -> bool {
        self.defeaters[li as usize]
            .iter()
            .any(|&a| !self.blocked(a, i))
    }

    /// Def. 3(a)'s stronger overruling: overruled by an **applied**
    /// rule.
    pub fn overruled_by_applied(&self, li: LocalIdx, i: &Interpretation) -> bool {
        self.overrulers[li as usize]
            .iter()
            .any(|&a| self.applied(a, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olp_core::World;
    use olp_ground::{ground_exhaustive, GroundConfig};
    use olp_parser::{parse_ground_literal, parse_program};

    /// Grounds Fig. 1 and returns (world, ground program).
    fn fig1() -> (World, GroundProgram) {
        let mut w = World::new();
        let p = parse_program(
            &mut w,
            "module c2 {
                bird(penguin). bird(pigeon).
                fly(X) :- bird(X).
                -ground_animal(X) :- bird(X).
             }
             module c1 < c2 {
                ground_animal(penguin).
                -fly(X) :- ground_animal(X).
             }",
        )
        .unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        (w, g)
    }

    /// The paper's total interpretation I1 for P1 in C1 (Example 2).
    fn i1(w: &mut World) -> Interpretation {
        Interpretation::from_literals(
            [
                "bird(pigeon)",
                "bird(penguin)",
                "ground_animal(penguin)",
                "-ground_animal(pigeon)",
                "fly(pigeon)",
                "-fly(penguin)",
            ]
            .iter()
            .map(|s| parse_ground_literal(w, s).unwrap()),
        )
        .unwrap()
    }

    fn find_rule(w: &mut World, v: &View, head: &str, body: &[&str]) -> LocalIdx {
        let h = parse_ground_literal(w, head).unwrap();
        let body: Vec<GLit> = body
            .iter()
            .map(|s| parse_ground_literal(w, s).unwrap())
            .collect();
        v.rules()
            .find(|(_, r)| {
                r.head == h && {
                    let mut b: Vec<GLit> = r.body.to_vec();
                    let mut want = body.clone();
                    b.sort_unstable();
                    want.sort_unstable();
                    b == want
                }
            })
            .map_or_else(|| panic!("rule {head} :- {body:?} not found"), |(li, _)| li)
    }

    #[test]
    fn example2_statuses_in_c1() {
        // Example 2 of the paper, checked verbatim.
        let (mut w, g) = fig1();
        let c1 = CompId(1); // parse order: c2 is component 0, c1 is 1
        assert_eq!(g.view(c1).len(), 9);
        let v = View::new(&g, c1);
        let i = i1(&mut w);

        // `fly(penguin) :- bird(penguin)` is applicable but overruled by
        // the applied rule `-fly(penguin) :- ground_animal(penguin)`.
        let fly_peng = find_rule(&mut w, &v, "fly(penguin)", &["bird(penguin)"]);
        assert!(v.applicable(fly_peng, &i));
        assert!(!v.applied(fly_peng, &i));
        assert!(v.overruled(fly_peng, &i));
        assert!(v.overruled_by_applied(fly_peng, &i));
        assert!(!v.defeated(fly_peng, &i));

        let nofly_peng = find_rule(&mut w, &v, "-fly(penguin)", &["ground_animal(penguin)"]);
        assert!(v.applied(nofly_peng, &i));
        assert!(!v.overruled(nofly_peng, &i));

        // `-fly(pigeon) :- ground_animal(pigeon)` is both blocked and
        // non-applicable.
        let nofly_pig = find_rule(&mut w, &v, "-fly(pigeon)", &["ground_animal(pigeon)"]);
        assert!(v.blocked(nofly_pig, &i));
        assert!(!v.applicable(nofly_pig, &i));
    }

    #[test]
    fn example2_defeating_in_collapsed_program() {
        // P̂1: all rules in a single component — overruling becomes
        // mutual defeating.
        let mut w = World::new();
        let p = parse_program(
            &mut w,
            "bird(penguin). bird(pigeon).
             fly(X) :- bird(X).
             -ground_animal(X) :- bird(X).
             ground_animal(penguin).
             -fly(X) :- ground_animal(X).",
        )
        .unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        let v = View::new(&g, CompId(0));
        let i = i1(&mut w);

        let fly_peng = find_rule(&mut w, &v, "fly(penguin)", &["bird(penguin)"]);
        assert!(v.applicable(fly_peng, &i));
        assert!(v.defeated(fly_peng, &i), "defeated by -fly(penguin) rule");
        assert!(!v.overruled(fly_peng, &i), "no strictly lower component");

        // The applied fact ground_animal(penguin) is defeated by the
        // applicable rule -ground_animal(penguin) :- bird(penguin).
        let ga_fact = find_rule(&mut w, &v, "ground_animal(penguin)", &[]);
        assert!(v.applied(ga_fact, &i));
        assert!(v.defeated(ga_fact, &i));
    }

    #[test]
    fn view_of_upper_component_ignores_lower_rules() {
        let (mut w, g) = fig1();
        let c2 = CompId(0);
        let v = View::new(&g, c2);
        assert_eq!(v.len(), 6);
        // In C2's own view there is no -fly rule at all: fly(penguin)
        // has no attackers.
        let fly_peng = find_rule(&mut w, &v, "fly(penguin)", &["bird(penguin)"]);
        assert!(v.overrulers(fly_peng).is_empty());
        assert!(v.defeaters(fly_peng).is_empty());
    }

    #[test]
    fn attack_lists_are_transposed_consistently() {
        let (_, g) = fig1();
        let v = View::new(&g, CompId(1));
        for (li, _) in v.rules() {
            for &a in v.overrulers(li) {
                assert!(v.victims_overrule(a).contains(&li));
            }
            for &a in v.defeaters(li) {
                assert!(v.victims_defeat(a).contains(&li));
            }
        }
    }

    #[test]
    fn mutual_defeats_lint() {
        // Fig. 2: rich/poor facts and rules defeat across incomparable
        // components; Fig. 1's ordered version has no mutual defeats.
        let mut w = World::new();
        let p = parse_program(
            &mut w,
            "module c3 { rich(mimmo). -poor(X) :- rich(X). }
             module c2 { poor(mimmo). -rich(X) :- poor(X). }
             module c1 < c2, c3 { free_ticket(X) :- poor(X). }",
        )
        .unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        let conflicts = View::new(&g, CompId(2)).mutual_defeats();
        // rich(mimmo) and poor(mimmo) are each contested.
        let heads: Vec<String> = conflicts.iter().map(|&(h, _, _)| w.glit_str(h)).collect();
        assert!(heads.contains(&"rich(mimmo)".to_string()), "{heads:?}");
        assert!(heads.contains(&"poor(mimmo)".to_string()));

        let (_, g1) = {
            let mut w1 = World::new();
            let p1 = parse_program(
                &mut w1,
                "module c2 { bird(t). fly(X) :- bird(X). }
                 module c1 < c2 { -fly(X) :- bird(X). }",
            )
            .unwrap();
            let g1 = ground_exhaustive(&mut w1, &p1, &GroundConfig::default()).unwrap();
            (w1, g1)
        };
        assert!(
            View::new(&g1, CompId(1)).mutual_defeats().is_empty(),
            "ordered contradiction is overruling, not mutual defeat"
        );
    }

    #[test]
    fn blocked_requires_complement_not_absence() {
        let (mut w, g) = fig1();
        let v = View::new(&g, CompId(1));
        let empty = Interpretation::new();
        let nofly_pig = find_rule(&mut w, &v, "-fly(pigeon)", &["ground_animal(pigeon)"]);
        // Under the empty interpretation nothing is blocked.
        assert!(!v.blocked(nofly_pig, &empty));
        assert!(!v.applicable(nofly_pig, &empty));
    }
}
