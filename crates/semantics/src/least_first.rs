//! Least model first: stable, skeptical and credulous readings that
//! search only the **contested residual** of a view.
//!
//! Theorem 1b makes the least model `V^∞(∅)` the least assumption-free
//! model, contained in every model — so every stable model (Def. 9)
//! contains it. Split the view into weakly connected rule groups (the
//! [`crate::decomp`] groups: atoms joined along head → body edges). Call
//! a group **contested** when some rule in it has a head atom the least
//! model leaves undefined. An uncontested group has exactly one stable
//! model, the least model restricted to the group:
//!
//! * group locality — every condition of Defs. 2–9 reads only the
//!   group's own atoms, so an assumption-free model of the view
//!   restricts to one of the group, and the least model restricts to
//!   the group's least model;
//! * an atom that heads no rule of the group is in no assumption-free
//!   model of it (a literal with no rule is an assumption);
//! * every head atom of the group is already decided by the least model,
//!   which each assumption-free model contains — so a consistent model
//!   cannot add or flip anything.
//!
//! Since the stable models of a view are the products of per-group
//! stable models, the stable models are `least ∪ R` for each stable
//! model `R` of the residual: the sub-view of every contested group's
//! rules. [`least_model_first`] finds the residual with one union-find
//! pass over the view's rules, compiles only the residual and runs the
//! existing engine on it. The residual's groups are whole groups of the
//! view, so per-group memo keys ([`crate::stable_models_decomposed_cached`])
//! are the same ones a full-view search uses.

use crate::decomp::{stable_models_decomposed_cached, uf_find, uf_union, GroupMemo};
use crate::{
    interp_intersection, stable_models_decomposed_budgeted, stable_models_parallel_budgeted, View,
};
use olp_core::{Budget, CompId, Eval, GLit, Interpretation, InterruptReason, Interrupted};
use olp_ground::GroundProgram;

/// The outcome of [`least_model_first`]: a least model plus the stable
/// models of the contested residual, read off as stable models,
/// skeptical or credulous consequences.
#[derive(Debug, Clone)]
pub struct LeastFirst {
    /// The least model, or the prefix computed before an interruption.
    least: Interpretation,
    /// The residual search; `Err` when the least model was interrupted
    /// (no residual search ran).
    residual: Result<Eval<Vec<Interpretation>>, InterruptReason>,
}

/// Answers a component's stable, skeptical and credulous queries least
/// model first (see the module docs).
///
/// `least` is the component's least model as the caller computed it,
/// possibly interrupted. One union-find pass over the view's rules,
/// ticking `budget` once per rule, finds the contested groups; only
/// their rules are compiled ([`View::from_rules`]) and searched, with
/// [`stable_models_parallel_budgeted`] when `threads > 1`, otherwise with
/// [`stable_models_decomposed_budgeted`] — through `memo` when one is
/// given. `max_models` caps the residual search exactly as it caps the
/// full-view engines. An empty residual has one stable model, the empty
/// one, so the answer is the least model alone.
pub fn least_model_first(
    gp: &GroundProgram,
    comp: CompId,
    least: Eval<Interpretation>,
    threads: usize,
    memo: Option<&mut GroupMemo>,
    budget: &Budget,
    max_models: Option<usize>,
) -> LeastFirst {
    let least = match least {
        Eval::Complete(m) => m,
        Eval::Interrupted(Interrupted { reason, partial }) => {
            return LeastFirst {
                least: partial,
                residual: Err(reason),
            }
        }
    };
    let residual = match contested_rules(gp, comp, &least, budget) {
        Err(reason) => Eval::Interrupted(Interrupted {
            reason,
            partial: Vec::new(),
        }),
        Ok(rules) if rules.is_empty() => match max_models {
            // The cap truncates the one empty model exactly as the
            // engines' governor would.
            Some(0) => Eval::Interrupted(Interrupted {
                reason: InterruptReason::ModelCap,
                partial: Vec::new(),
            }),
            Some(1) => Eval::Interrupted(Interrupted {
                reason: InterruptReason::ModelCap,
                partial: vec![Interpretation::new()],
            }),
            _ => Eval::Complete(vec![Interpretation::new()]),
        },
        Ok(rules) => {
            let view = View::from_rules(gp, comp, rules);
            if threads > 1 {
                stable_models_parallel_budgeted(&view, gp.n_atoms, threads, budget, max_models)
            } else if let Some(memo) = memo {
                stable_models_decomposed_cached(&view, gp.n_atoms, budget, max_models, memo)
            } else {
                stable_models_decomposed_budgeted(&view, gp.n_atoms, budget, max_models)
            }
        }
    };
    LeastFirst {
        least,
        residual: Ok(residual),
    }
}

/// The rules (global indices, in view order) of every weakly connected
/// group of `comp`'s view with a head atom `least` leaves undefined.
fn contested_rules(
    gp: &GroundProgram,
    comp: CompId,
    least: &Interpretation,
    budget: &Budget,
) -> Result<Vec<u32>, InterruptReason> {
    let rules = gp.view(comp);
    let mut parent: Vec<u32> = (0..gp.n_atoms as u32).collect();
    let mut ticker = budget.ticker();
    for &ri in rules {
        ticker.tick()?;
        let r = &gp.rules[ri as usize];
        let h = r.head.atom().index() as u32;
        for &b in &r.body {
            uf_union(&mut parent, h, b.atom().index() as u32);
        }
    }
    let mut contested = vec![false; gp.n_atoms];
    for &ri in rules {
        let h = gp.rules[ri as usize].head.atom();
        if least.undefined(h) {
            contested[uf_find(&mut parent, h.index() as u32) as usize] = true;
        }
    }
    Ok(rules
        .iter()
        .copied()
        .filter(|&ri| {
            let h = gp.rules[ri as usize].head.atom().index() as u32;
            contested[uf_find(&mut parent, h) as usize]
        })
        .collect())
}

impl LeastFirst {
    /// The stable models: the least model joined with each residual
    /// stable model. Partial results follow the residual engine's
    /// anytime contract (every entry a genuine assumption-free model of
    /// the view); an interrupted least model yields no models.
    pub fn stable(self) -> Eval<Vec<Interpretation>> {
        let least = self.least;
        match self.residual {
            Err(reason) => Eval::Interrupted(Interrupted {
                reason,
                partial: Vec::new(),
            }),
            Ok(eval) => eval.map(|ms| ms.iter().map(|r| join(&least, r)).collect()),
        }
    }

    /// The skeptical consequences: the least model joined with the
    /// intersection of the residual stable models.
    ///
    /// A partial result from an interrupted least model (or a residual
    /// search that found nothing) is a prefix of the least model, an
    /// **under**-approximation; one from a residual search that found
    /// some models intersects only those and may **over**-approximate,
    /// as [`crate::skeptical_consequences_budgeted`] does.
    pub fn skeptical(self) -> Eval<Interpretation> {
        let least = self.least;
        match self.residual {
            Err(reason) => Eval::Interrupted(Interrupted {
                reason,
                partial: least,
            }),
            Ok(eval) => eval.map(|ms| join(&least, &interp_intersection(&ms))),
        }
    }

    /// The credulous consequences as a sorted literal list: the least
    /// model's literals plus every residual stable model's literals
    /// (the full models are never built). A partial result is a subset
    /// of the credulous consequences over explored models; an
    /// interrupted least model yields none.
    pub fn credulous(self) -> Eval<Vec<GLit>> {
        let least = self.least;
        match self.residual {
            Err(reason) => Eval::Interrupted(Interrupted {
                reason,
                partial: Vec::new(),
            }),
            Ok(eval) => eval.map(|ms| {
                let mut out: Vec<GLit> = least
                    .literals()
                    .chain(ms.iter().flat_map(Interpretation::literals))
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            }),
        }
    }
}

/// `least ∪ r`: consistent because `r` is an assumption-free model of
/// the residual, hence contains the least model's residual part, and
/// the rest of the least model lives on other atoms.
fn join(least: &Interpretation, r: &Interpretation) -> Interpretation {
    let mut m = least.clone();
    m.union_with(r)
        .expect("a residual model agrees with the least model");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{credulous_consequences, least_model, skeptical_consequences, stable_models};
    use olp_core::World;
    use olp_ground::{ground_exhaustive, GroundConfig};
    use olp_parser::parse_program;

    fn renders(w: &World, ms: &[Interpretation]) -> Vec<String> {
        let mut v: Vec<String> = ms.iter().map(|m| m.render(w)).collect();
        v.sort();
        v
    }

    /// Two Example 5 clones (2 stable models each) beside an
    /// uncontested chain: the residual is the two clones.
    const CLONES: &str = "module c2 { a. b. c. x. y. z. p. }
         module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                          -x :- y, z. -y :- x. -y :- -y.
                          q :- p. -r :- q. }";

    #[test]
    fn residual_is_the_contested_groups_only() {
        let mut w = World::new();
        let p = parse_program(&mut w, CLONES).unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        let c1 = CompId(1);
        let v = View::new(&g, c1);
        let lm = least_model(&v);
        let rules = contested_rules(&g, c1, &lm, &Budget::unlimited()).unwrap();
        // a, b, c and x, y, z with their three c1 rules each.
        assert_eq!(rules.len(), 12);
        for threads in [1, 2] {
            let lf = || {
                least_model_first(
                    &g,
                    c1,
                    Eval::Complete(lm.clone()),
                    threads,
                    None,
                    &Budget::unlimited(),
                    None,
                )
            };
            let st = lf().stable().expect_complete("unlimited");
            assert_eq!(st.len(), 4);
            assert_eq!(renders(&w, &st), renders(&w, &stable_models(&v, g.n_atoms)));
            assert_eq!(
                lf().skeptical().expect_complete("unlimited"),
                skeptical_consequences(&v, g.n_atoms)
            );
            assert_eq!(
                lf().credulous().expect_complete("unlimited"),
                credulous_consequences(&v, g.n_atoms)
            );
        }
    }

    #[test]
    fn empty_residual_is_the_least_model() {
        let mut w = World::new();
        let p = parse_program(&mut w, "a. b :- a. -c :- b.").unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        let lm = least_model(&View::new(&g, CompId(0)));
        let run = |cap| {
            least_model_first(
                &g,
                CompId(0),
                Eval::Complete(lm.clone()),
                1,
                None,
                &Budget::unlimited(),
                cap,
            )
            .stable()
        };
        assert_eq!(run(None).expect_complete("no cap"), vec![lm.clone()]);
        let capped = run(Some(1));
        assert_eq!(capped.reason(), Some(InterruptReason::ModelCap));
        assert_eq!(capped.into_value(), vec![lm]);
    }

    #[test]
    fn interrupted_least_model_contracts() {
        let mut w = World::new();
        let p = parse_program(&mut w, CLONES).unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        let prefix = Interpretation::new();
        let lf = least_model_first(
            &g,
            CompId(1),
            Eval::Interrupted(Interrupted {
                reason: InterruptReason::Deadline,
                partial: prefix.clone(),
            }),
            1,
            None,
            &Budget::unlimited(),
            None,
        );
        assert!(lf.clone().stable().into_value().is_empty());
        assert!(lf.clone().credulous().into_value().is_empty());
        let sk = lf.skeptical();
        assert_eq!(sk.reason(), Some(InterruptReason::Deadline));
        assert_eq!(sk.into_value(), prefix);
    }
}
