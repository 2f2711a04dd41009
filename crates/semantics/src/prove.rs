//! A goal-directed proof procedure for the least model (§5 mentions the
//! proof procedure of \[LV\]; this is an independent reconstruction).
//!
//! Top-down tabling interacts badly with the attack statuses (a rule's
//! firing depends positively on the derivability of its attackers'
//! *blockers*), so instead of SLD-style resolution the procedure
//! extracts the **relevance cone** of the query and runs the exact
//! worklist fixpoint on that fragment:
//!
//! * a queried literal pulls in every rule with that head;
//! * an included rule pulls in (i) its body literals (their
//!   derivations), (ii) the *complements* of its body literals (their
//!   derivations decide blocking), and (iii) its potential overrulers
//!   and defeaters — recursively.
//!
//! Everything outside the cone provably cannot influence the query:
//! influence propagates only through derivation (head→body), blocking
//! (body complement), and attack (head complement) edges, all of which
//! are closed over. Agreement with the global least model is
//! property-tested in the crate tests and `tests/theorems.rs`.
//!
//! The cone is evaluated as a sub-view ([`View::restrict`]) by the
//! production least-model engine. That is exact because the cone
//! contains every potential overruler and defeater of each of its
//! rules: [`View::from_rules`] builds a rule's attack lists from the
//! rules of the subset that have the complementary head, so each cone
//! rule gets exactly the attackers the full view gives it. A cone rule
//! may itself attack rules outside the cone; those victims never fire
//! in the sub-view, and none of them can change a cone literal.

use crate::fixpoint::least_model_budgeted;
use crate::view::{LocalIdx, View};
use olp_core::{Budget, Eval, FxHashSet, GLit, InterruptReason, Interrupted};

/// The set of view-local rule indices that can influence `query`.
pub fn relevance_cone(view: &View, query: GLit) -> Vec<LocalIdx> {
    relevance_cone_budgeted(view, query, &Budget::unlimited())
        .expect("unlimited budget cannot interrupt")
}

/// [`relevance_cone`] under a [`Budget`]. The cone is all-or-nothing
/// (a truncated cone would not be closed under influence edges), so an
/// interruption yields `Err` rather than a partial cone.
pub fn relevance_cone_budgeted(
    view: &View,
    query: GLit,
    budget: &Budget,
) -> Result<Vec<LocalIdx>, InterruptReason> {
    let mut lits: FxHashSet<GLit> = FxHashSet::default();
    let mut rules: FxHashSet<LocalIdx> = FxHashSet::default();
    let mut lit_stack = vec![query];
    let mut rule_stack: Vec<LocalIdx> = Vec::new();

    while !lit_stack.is_empty() || !rule_stack.is_empty() {
        while let Some(l) = lit_stack.pop() {
            budget.tick()?;
            if !lits.insert(l) {
                continue;
            }
            for &li in view.rules_with_head(l) {
                rule_stack.push(li);
            }
        }
        while let Some(li) = rule_stack.pop() {
            budget.tick()?;
            if !rules.insert(li) {
                continue;
            }
            for &b in &view.rule(li).body {
                lit_stack.push(b);
                lit_stack.push(b.complement());
            }
            for &a in view.overrulers(li) {
                rule_stack.push(a);
            }
            for &a in view.defeaters(li) {
                rule_stack.push(a);
            }
            if !lit_stack.is_empty() {
                break; // drain literals first to keep the sets tight
            }
        }
    }
    let mut out: Vec<LocalIdx> = rules.into_iter().collect();
    out.sort_unstable();
    Ok(out)
}

/// Whether `query` is in the least model of the view, computed
/// goal-directedly over its relevance cone.
pub fn prove(view: &View, query: GLit) -> bool {
    prove_budgeted(view, query, &Budget::unlimited()).into_value()
}

/// [`prove`] under a [`Budget`].
///
/// **Anytime guarantee:** the partial answer is a *sound
/// under-approximation* — a partial `true` means the literal really is
/// in the least model (the cone fixpoint's partial result is a subset
/// of its least fixpoint); a partial `false` means "not proven
/// within budget", never "disproven".
pub fn prove_budgeted(view: &View, query: GLit, budget: &Budget) -> Eval<bool> {
    let cone = match relevance_cone_budgeted(view, query, budget) {
        Ok(cone) => cone,
        // No fixpoint was run, so nothing is proven yet.
        Err(reason) => {
            return Eval::Interrupted(Interrupted {
                reason,
                partial: false,
            })
        }
    };
    let globals: Vec<u32> = cone.iter().map(|&li| view.global_index(li)).collect();
    least_model_budgeted(&view.restrict(&globals), budget).map(|m| m.holds(query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::least_model;
    use olp_core::{AtomId, CompId, Sign, World};
    use olp_ground::{ground_exhaustive, GroundConfig, GroundProgram};
    use olp_parser::{parse_ground_literal, parse_program};

    fn ground(src: &str) -> (World, GroundProgram) {
        let mut w = World::new();
        let p = parse_program(&mut w, src).unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        (w, g)
    }

    #[test]
    fn prove_matches_least_model_on_fig1() {
        let (_, g) = ground(
            "module c2 { bird(penguin). bird(pigeon). fly(X) :- bird(X).
                -ground_animal(X) :- bird(X). }
             module c1 < c2 { ground_animal(penguin). -fly(X) :- ground_animal(X). }",
        );
        for ci in 0..2 {
            let v = View::new(&g, CompId(ci));
            let m = least_model(&v);
            for atom in 0..g.n_atoms as u32 {
                for sign in [Sign::Pos, Sign::Neg] {
                    let q = GLit::new(sign, AtomId(atom));
                    assert_eq!(prove(&v, q), m.holds(q));
                }
            }
        }
    }

    #[test]
    fn cone_is_smaller_than_program() {
        // Two disconnected islands: querying one must not touch the
        // other.
        let (mut w, g) = ground(
            "a :- b. b.
             x :- y. y. -x :- z. z :- y.",
        );
        let v = View::new(&g, CompId(0));
        let a = parse_ground_literal(&mut w, "a").unwrap();
        let cone = relevance_cone(&v, a);
        assert_eq!(cone.len(), 2, "only `a :- b` and `b.`");
        assert!(prove(&v, a));
    }

    #[test]
    fn cone_includes_attackers_and_blockers() {
        // Proving `a` requires knowing that its attacker `-a :- b` is
        // blocked, which requires deriving `-b`, which has its own rule.
        let (mut w, g) = ground(
            "module c2 { a. b :- c. }
             module c1 < c2 { -a :- b. -b. }",
        );
        let c1 = CompId(1);
        let v = View::new(&g, c1);
        let a = parse_ground_literal(&mut w, "a").unwrap();
        let cone = relevance_cone(&v, a);
        // a., -a :- b, -b., b :- c (deriving b decides the attacker's
        // applicability — included via the body complement closure).
        assert_eq!(cone.len(), 4);
        assert!(prove(&v, a), "-b blocks the attacker, a fires");
    }

    #[test]
    fn attack_chains_are_followed() {
        // c2: p. — attacked from c1 by -p :- q; q derivable unless its
        // own attacker fires…
        let (mut w, g) = ground(
            "module c2 { p. q. }
             module c1 < c2 { -p :- q. }",
        );
        let v = View::new(&g, CompId(1));
        let p = parse_ground_literal(&mut w, "p").unwrap();
        // q is derivable, -p :- q is never blocked (no -q rules), so it
        // permanently overrules `p.`.
        assert!(!prove(&v, p));
        assert!(prove(&v, p.complement()), "-p fires via q");
    }

    #[test]
    fn prove_matches_on_random_programs() {
        // Deterministic mini-fuzz without pulling proptest into the
        // unit tests: a few dozen seeds of structured programs.
        use olp_core::{BodyItem, Literal, OrderedProgram, Rule};
        for seed in 0u64..40 {
            let mut w = World::new();
            let mut prog = OrderedProgram::new();
            let c_lo = prog.add_component(w.syms.intern("lo"));
            let c_hi = prog.add_component(w.syms.intern("hi"));
            prog.add_edge(c_lo, c_hi);
            // xorshift-ish deterministic rule soup over 5 atoms.
            let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..10 {
                let head_atom = (next() % 5) as usize;
                let head_sign = if next() % 3 == 0 {
                    Sign::Neg
                } else {
                    Sign::Pos
                };
                let pred = w.pred(&format!("p{head_atom}"), 0);
                let head = Literal {
                    sign: head_sign,
                    pred,
                    args: vec![],
                };
                let mut body = Vec::new();
                for _ in 0..(next() % 3) {
                    let ba = (next() % 5) as usize;
                    let bs = if next() % 2 == 0 {
                        Sign::Pos
                    } else {
                        Sign::Neg
                    };
                    let bp = w.pred(&format!("p{ba}"), 0);
                    body.push(BodyItem::Lit(Literal {
                        sign: bs,
                        pred: bp,
                        args: vec![],
                    }));
                }
                let comp = if next() % 2 == 0 { c_lo } else { c_hi };
                prog.add_rule(comp, Rule::new(head, body));
            }
            let g = ground_exhaustive(&mut w, &prog, &GroundConfig::default()).unwrap();
            for ci in 0..2 {
                let v = View::new(&g, CompId(ci));
                let m = least_model(&v);
                for atom in 0..g.n_atoms as u32 {
                    for sign in [Sign::Pos, Sign::Neg] {
                        let q = GLit::new(sign, AtomId(atom));
                        assert_eq!(
                            prove(&v, q),
                            m.holds(q),
                            "seed {seed}, comp {ci}, query {}",
                            w.glit_str(q)
                        );
                    }
                }
            }
        }
    }
}
