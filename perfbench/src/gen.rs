//! Input generators and the oracles that check answers without the
//! engine: graph reachability for `anc`, and the contested taxonomy's
//! analytically known answers.

use crate::util::Rng;
use olp_core::{GLit, GTerm, Sign, World};
use std::collections::{HashMap, HashSet, VecDeque};

/// A directed graph over named nodes, kept as adjacency sets so edges
/// can be added and removed as a mutation stream runs.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    adj: HashMap<String, HashSet<String>>,
}

impl Graph {
    pub fn add(&mut self, a: &str, b: &str) {
        self.adj
            .entry(a.to_string())
            .or_default()
            .insert(b.to_string());
    }

    pub fn remove(&mut self, a: &str, b: &str) {
        if let Some(s) = self.adj.get_mut(a) {
            s.remove(b);
        }
    }

    /// Nodes reachable from `from` by a path of at least one edge.
    pub fn reach(&self, from: &str) -> HashSet<&str> {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            for m in self.adj.get(n).into_iter().flatten() {
                if seen.insert(m.as_str()) {
                    queue.push_back(m.as_str());
                }
            }
        }
        seen
    }

    /// Every `X=x, Y=y` binding of `anc(X,Y)`, sorted — what
    /// `query("main", "anc(X,Y)")` must return.
    pub fn anc_bindings(&self) -> Vec<String> {
        let mut out = Vec::new();
        for a in self.adj.keys() {
            for b in self.reach(a) {
                out.push(format!("X={a}, Y={b}"));
            }
        }
        out.sort();
        out
    }
}

/// Splits `parent(x, y).` into its two arguments.
pub fn parent_edge(rule: &str) -> (String, String) {
    let inner = rule
        .trim()
        .strip_prefix("parent(")
        .and_then(|r| r.strip_suffix(")."))
        .expect("mutation streams only assert parent/2 facts");
    let (a, b) = inner.split_once(',').expect("parent/2 has two arguments");
    (a.trim().to_string(), b.trim().to_string())
}

/// The base chain `a0 -> a1 -> ... -> a{n-1}` of `mutation_stream`.
pub fn chain_graph(n_base: usize) -> Graph {
    let mut g = Graph::default();
    for i in 1..n_base {
        g.add(&format!("a{}", i - 1), &format!("a{i}"));
    }
    g
}

/// A random-graph ancestor program (Example 6) as source text, with
/// the graph for the oracle.
pub struct AncestorInput {
    pub src: String,
    pub graph: Graph,
    /// `(from, to, reachable)` for the truth queries asked after a load.
    pub truths: Vec<(String, String, bool)>,
    /// The (reachable) pair asked `why` about.
    pub why: (String, String, bool),
}

pub fn ancestor_input(n: usize, e: usize, n_truths: usize, seed: u64) -> AncestorInput {
    let mut rng = Rng::new(seed);
    let mut graph = Graph::default();
    let mut src = String::from("module main {\n");
    for _ in 0..e {
        let (a, b) = (format!("n{}", rng.below(n)), format!("n{}", rng.below(n)));
        src.push_str(&format!("  parent({a}, {b}).\n"));
        graph.add(&a, &b);
    }
    src.push_str("  anc(X, Y) :- parent(X, Y).\n  anc(X, Y) :- parent(X, Z), anc(Z, Y).\n}\n");
    let pick = |rng: &mut Rng| {
        let (a, b) = (format!("n{}", rng.below(n)), format!("n{}", rng.below(n)));
        let r = graph.reach(&a).contains(b.as_str());
        (a, b, r)
    };
    let truths = (0..n_truths).map(|_| pick(&mut rng)).collect();
    // `why` asks about a reachable pair, so its atom is materialised.
    let why = loop {
        let p = pick(&mut rng);
        if p.2 {
            break p;
        }
    };
    AncestorInput {
        src,
        graph,
        truths,
        why,
    }
}

/// The contested taxonomy: `taxonomy_chain(n_species, n_layers)` plus
/// an `evidence` object holding `pa(s). pb(s).` for `k` seeded species
/// and a `judge` object below both `layer0` and `evidence` whose rules
/// `-pa(X) :- pb(X).` and `-pb(X) :- pa(X).` defeat each other (the
/// paper's p5 pattern), so `judge` has exactly 2^k stable models.
pub struct Taxonomy {
    pub n_species: usize,
    pub n_layers: usize,
    pub contested: Vec<usize>,
}

impl Taxonomy {
    pub fn new(n_species: usize, n_layers: usize, k: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x7A40);
        let mut contested = Vec::new();
        while contested.len() < k {
            let s = rng.below(n_species);
            if !contested.contains(&s) {
                contested.push(s);
            }
        }
        Taxonomy {
            n_species,
            n_layers,
            contested,
        }
    }

    pub fn evidence_src(&self) -> String {
        self.contested
            .iter()
            .map(|s| format!("pa(s{s}). pb(s{s}).\n"))
            .collect()
    }

    pub const JUDGE_SRC: &'static str = "-pa(X) :- pb(X).\n-pb(X) :- pa(X).\n";

    /// The objects point reads go to: every layer, and `judge`.
    pub fn objects(&self) -> Vec<String> {
        let mut v: Vec<String> = (0..=self.n_layers).map(|i| format!("layer{i}")).collect();
        v.push("judge".into());
        v
    }

    /// Whether species `s` flies in `object`'s view. `layer{i}` sees
    /// the exception layers of depth `1..=n_layers-i`; `judge` sees all.
    pub fn expected_fly(&self, object: &str, s: usize) -> bool {
        let depth = match object.strip_prefix("layer") {
            Some(i) => self.n_layers - i.parse::<usize>().expect("layer index"),
            None => self.n_layers,
        };
        olp_workload::taxonomy_expected_fly(self.n_species, depth, s)
    }
}

/// Resolves a ground literal such as `-pa(s3)` in `world` without
/// interning; `None` if some part was never materialised.
pub fn resolve(world: &World, lit: &str) -> Option<GLit> {
    let (sign, body) = match lit.strip_prefix('-') {
        Some(b) => (Sign::Neg, b),
        None => (Sign::Pos, lit),
    };
    let (name, args) = body.strip_suffix(')')?.split_once('(')?;
    let args: Vec<&str> = args.split(',').map(str::trim).collect();
    let pred = world.preds.get(world.syms.get(name)?, args.len() as u32)?;
    let mut ids = Vec::with_capacity(args.len());
    for a in args {
        ids.push(world.terms.lookup(&GTerm::Const(world.syms.get(a)?))?);
    }
    Some(GLit::new(sign, world.atoms.get_id(pred, &ids)?))
}
