//! The differential harness for the dataflow solver.
//!
//! The correctness contract of [`solve`] is differential: on any
//! problem, its [`Solution`] must be **bit-identical** to that of
//! [`round_robin_solve`], a naive round-robin Kleene iteration that
//! shares none of its code. Union-meet gen/kill systems are monotone
//! over a finite lattice, so both must reach the one least fixpoint, and
//! [`BitSet`] is canonical, so any difference is a bug in one of them.
//! This module provides the pieces the differential tests (in this
//! crate, `polyflow-bench`, and CI) are built from:
//!
//! * [`OwnedProblem`] — a problem that owns its storage, so generators
//!   and test tables can build and pass problems around (the borrowing
//!   [`Problem`] view is for solver calls).
//! * [`check_against_oracle`] — solves with both and reports the first
//!   mismatching node.
//! * [`CfgShape`] / [`random_problem`] — a SplitMix64-driven generator
//!   whose shapes target distinct cycle structures: long chains (no
//!   cycle, the longest propagation paths), diamond ladders (join
//!   nodes), irreducible two-entry loops (cycles entered at two nodes),
//!   giant single strongly connected components (facts circulate through
//!   every node, so the worklist revisits the most), and wide DAGs (one
//!   join with the most inputs).
//! * [`component_of`] — forward ∩ backward reachability, in which the
//!   generator's shape contracts are stated.

use crate::bitset::BitSet;
use crate::reaching::EntryDefs;
use crate::solver::{solve, Direction, GenKill, Problem, Solution};
use polyflow_cfg::Cfg;
use polyflow_isa::rng::SplitMix64;
use polyflow_isa::Program;

/// A gen/kill problem that owns its storage.
#[derive(Debug, Clone)]
pub struct OwnedProblem {
    /// Propagation direction.
    pub direction: Direction,
    /// Lattice domain size.
    pub domain: usize,
    /// Per-node transfer functions.
    pub transfer: Vec<GenKill>,
    /// Per-node successor lists (program order).
    pub succs: Vec<Vec<usize>>,
    /// Boundary nodes.
    pub boundary_nodes: Vec<usize>,
    /// Value injected at boundary nodes.
    pub boundary_value: BitSet,
}

impl OwnedProblem {
    /// The borrowing view solvers take.
    pub fn as_problem(&self) -> Problem<'_> {
        Problem {
            direction: self.direction,
            domain: self.domain,
            transfer: &self.transfer,
            succs: &self.succs,
            boundary_nodes: &self.boundary_nodes,
            boundary_value: self.boundary_value.clone(),
        }
    }
}

/// The backward liveness problem [`crate::LiveSets::compute`] solves for
/// one function — the differential tests pose it to the solver and the
/// reference.
pub fn function_liveness_problem(program: &Program, cfg: &Cfg) -> OwnedProblem {
    crate::liveness::function_liveness_problem(program, cfg)
}

/// The forward reaching-definitions problem
/// [`crate::ReachingDefs::compute_with`] solves for one function.
pub fn function_reaching_problem(program: &Program, cfg: &Cfg, entry: EntryDefs) -> OwnedProblem {
    crate::reaching::function_reaching_problem(program, cfg, entry).0
}

/// Solves `p` with [`solve`] and with [`round_robin_solve`], and reports
/// the first divergence as `Err` (which node, which side, both values).
pub fn check_against_oracle(p: &Problem<'_>) -> Result<(), String> {
    explain_mismatch(&round_robin_solve(p), &solve(p))
}

/// The reference [`check_against_oracle`] holds [`solve`] to: naive
/// round-robin Kleene iteration. Every node starts at ⊥; each pass
/// recomputes every node's meet (the boundary value, if any, joined with
/// the transfer outputs flowing in) and its transfer output, in index
/// order; the iteration stops after a pass in which nothing changed. It
/// has no worklist and orients the edges itself.
///
/// # Panics
///
/// Panics if an edge names a node out of range.
pub fn round_robin_solve(p: &Problem<'_>) -> Solution {
    let n = p.transfer.len();
    // flow_in[v]: the nodes whose transfer outputs join into v's meet.
    let mut flow_in: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, ss) in p.succs.iter().enumerate() {
        for &v in ss {
            match p.direction {
                Direction::Forward => flow_in[v].push(u),
                Direction::Backward => flow_in[u].push(v),
            }
        }
    }
    let mut meet = vec![BitSet::new(p.domain); n];
    let mut out = vec![BitSet::new(p.domain); n];
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            let mut m = BitSet::new(p.domain);
            if p.boundary_nodes.contains(&v) {
                m.union_with(&p.boundary_value);
            }
            for &u in &flow_in[v] {
                m.union_with(&out[u]);
            }
            let mut t = m.clone();
            t.subtract(&p.transfer[v].kill);
            t.union_with(&p.transfer[v].gen);
            if m != meet[v] || t != out[v] {
                meet[v] = m;
                out[v] = t;
                changed = true;
            }
        }
    }
    match p.direction {
        Direction::Forward => Solution {
            entry: meet,
            exit: out,
        },
        Direction::Backward => Solution {
            entry: out,
            exit: meet,
        },
    }
}

/// The strongly connected component of `v` in the graph `succs`: the
/// nodes `v` reaches that also reach `v`, ascending. `v` is always a
/// member, so a component of one node is cyclic only if the node has a
/// self-loop.
pub fn component_of(succs: &[Vec<usize>], v: usize) -> Vec<usize> {
    let n = succs.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, ss) in succs.iter().enumerate() {
        for &w in ss {
            preds[w].push(u);
        }
    }
    let reach = |edges: &[Vec<usize>]| {
        let mut seen = vec![false; n];
        seen[v] = true;
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            for &w in &edges[u] {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        seen
    };
    let (forward, backward) = (reach(succs), reach(&preds));
    (0..n).filter(|&u| forward[u] && backward[u]).collect()
}

/// Pinpoints the first differing node between the reference solution and
/// [`solve`]'s.
fn explain_mismatch(oracle: &Solution, got: &Solution) -> Result<(), String> {
    if oracle == got {
        return Ok(());
    }
    if oracle.entry.len() != got.entry.len() {
        return Err(format!(
            "node count {} vs {}",
            oracle.entry.len(),
            got.entry.len()
        ));
    }
    for i in 0..oracle.entry.len() {
        if oracle.entry[i] != got.entry[i] {
            return Err(format!(
                "entry[{i}]: reference {:?} vs solve {:?}",
                oracle.entry[i].iter().collect::<Vec<_>>(),
                got.entry[i].iter().collect::<Vec<_>>()
            ));
        }
        if oracle.exit[i] != got.exit[i] {
            return Err(format!(
                "exit[{i}]: reference {:?} vs solve {:?}",
                oracle.exit[i].iter().collect::<Vec<_>>(),
                got.exit[i].iter().collect::<Vec<_>>()
            ));
        }
    }
    Err("solutions differ but no node does (impossible)".to_string())
}

/// CFG shapes the fuzzer can target, chosen for the cycle structure they
/// induce (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfgShape {
    /// A straight chain with occasional forward skips: no cycle, and the
    /// longest possible propagation path.
    Chain,
    /// A ladder of if-then-else diamonds: no cycle, with joins.
    Diamond,
    /// Two-entry (irreducible) loops strung in sequence: small cycles
    /// that a dominator-based decomposition would mishandle.
    Irreducible,
    /// One ring through every node plus random chords: the entire graph
    /// is a single strongly connected component, so facts circulate
    /// through every node.
    GiantScc,
    /// A source fanning out to a wide middle layer that reconverges: one
    /// join with the most inputs.
    WideDag,
    /// Arbitrary random edges: an uncontrolled mix of component sizes.
    Mixed,
}

impl CfgShape {
    /// Every shape, in a fixed order (fuzz sweeps iterate this).
    pub const ALL: [CfgShape; 6] = [
        CfgShape::Chain,
        CfgShape::Diamond,
        CfgShape::Irreducible,
        CfgShape::GiantScc,
        CfgShape::WideDag,
        CfgShape::Mixed,
    ];

    /// Stable name, used by the fuzz corpus (`shape:<label>` lines).
    pub fn label(self) -> &'static str {
        match self {
            CfgShape::Chain => "chain",
            CfgShape::Diamond => "diamond",
            CfgShape::Irreducible => "irreducible",
            CfgShape::GiantScc => "giant-scc",
            CfgShape::WideDag => "wide-dag",
            CfgShape::Mixed => "mixed",
        }
    }

    /// Inverse of [`CfgShape::label`].
    pub fn from_label(s: &str) -> Option<CfgShape> {
        CfgShape::ALL.into_iter().find(|sh| sh.label() == s)
    }
}

/// Generates a random problem of the given shape. Deterministic in
/// `(seed, shape)`; direction, domain size (crossing the one-word
/// boundary about half the time), transfer functions, and boundary all
/// vary with the seed.
pub fn random_problem(seed: u64, shape: CfgShape) -> OwnedProblem {
    let mut rng = SplitMix64::new(seed ^ (shape.label().len() as u64) << 32 ^ seed.rotate_left(17));
    let succs = random_edges(&mut rng, shape);
    let n = succs.len();
    let domain = 1 + rng.index(120); // 1..=120: 0-, 1-, and 2-word sets
    let direction = if rng.flip() {
        Direction::Forward
    } else {
        Direction::Backward
    };
    let transfer = (0..n)
        .map(|_| {
            let mut t = GenKill::identity(domain);
            for _ in 0..rng.index(4) {
                t.gen.insert(rng.index(domain));
            }
            for _ in 0..rng.index(4) {
                t.kill.insert(rng.index(domain));
            }
            t
        })
        .collect();
    // Boundary: the natural entry/exit for the direction, plus an
    // occasional random extra; sometimes a non-empty boundary value.
    let mut boundary_nodes = match direction {
        Direction::Forward => vec![0],
        Direction::Backward => {
            let sinks: Vec<usize> = (0..n).filter(|&v| succs[v].is_empty()).collect();
            if sinks.is_empty() {
                vec![n - 1]
            } else {
                sinks
            }
        }
    };
    if n > 1 && rng.index(4) == 0 {
        boundary_nodes.push(rng.index(n));
        boundary_nodes.sort_unstable();
        boundary_nodes.dedup();
    }
    let mut boundary_value = BitSet::new(domain);
    for _ in 0..rng.index(3) {
        boundary_value.insert(rng.index(domain));
    }
    OwnedProblem {
        direction,
        domain,
        transfer,
        succs,
        boundary_nodes,
        boundary_value,
    }
}

/// Builds the successor lists for one shape.
fn random_edges(rng: &mut SplitMix64, shape: CfgShape) -> Vec<Vec<usize>> {
    match shape {
        CfgShape::Chain => {
            let n = 2 + rng.index(60);
            (0..n)
                .map(|i| {
                    let mut ss = Vec::new();
                    if i + 1 < n {
                        ss.push(i + 1);
                    }
                    if i + 2 < n && rng.index(4) == 0 {
                        ss.push(i + 2); // forward skip
                    }
                    ss
                })
                .collect()
        }
        CfgShape::Diamond => {
            // Diamonds a -> {b, c} -> d chained d -> a'.
            let rungs = 1 + rng.index(12);
            let n = rungs * 4;
            let mut succs = vec![Vec::new(); n];
            for r in 0..rungs {
                let a = r * 4;
                succs[a] = vec![a + 1, a + 2];
                succs[a + 1] = vec![a + 3];
                succs[a + 2] = vec![a + 3];
                if a + 4 < n {
                    succs[a + 3] = vec![a + 4];
                }
            }
            succs
        }
        CfgShape::Irreducible => {
            // Repeated (header -> {e1, e2}, e1 <-> e2, e1 -> next) units.
            let units = 1 + rng.index(8);
            let n = units * 4;
            let mut succs = vec![Vec::new(); n];
            for u in 0..units {
                let h = u * 4;
                let (e1, e2, tail) = (h + 1, h + 2, h + 3);
                succs[h] = vec![e1, e2]; // both loop entries reachable
                succs[e1] = vec![e2, tail];
                succs[e2] = vec![e1];
                if h + 4 < n {
                    succs[tail] = vec![h + 4];
                }
            }
            succs
        }
        CfgShape::GiantScc => {
            let n = 3 + rng.index(40);
            let mut succs: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 1) % n]).collect();
            for _ in 0..rng.index(n) + 2 {
                let (u, v) = (rng.index(n), rng.index(n));
                if !succs[u].contains(&v) {
                    succs[u].push(v); // chord; the ring keeps it one component
                }
            }
            succs
        }
        CfgShape::WideDag => {
            let width = 2 + rng.index(40);
            let n = width + 2;
            let mut succs = vec![Vec::new(); n];
            succs[0] = (1..=width).collect();
            for middle in &mut succs[1..=width] {
                *middle = vec![n - 1];
            }
            succs
        }
        CfgShape::Mixed => {
            let n = 2 + rng.index(50);
            (0..n)
                .map(|_| {
                    let deg = rng.index(3);
                    let mut ss: Vec<usize> = (0..deg).map(|_| rng.index(n)).collect();
                    ss.sort_unstable();
                    ss.dedup();
                    ss
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for shape in CfgShape::ALL {
            assert_eq!(CfgShape::from_label(shape.label()), Some(shape));
        }
        assert_eq!(CfgShape::from_label("nope"), None);
    }

    #[test]
    fn generator_is_deterministic() {
        let a = random_problem(42, CfgShape::Mixed);
        let b = random_problem(42, CfgShape::Mixed);
        assert_eq!(a.succs, b.succs);
        assert_eq!(a.boundary_nodes, b.boundary_nodes);
        assert_eq!(a.domain, b.domain);
    }

    #[test]
    fn giant_scc_really_is_one_component() {
        for seed in 0..10 {
            let p = random_problem(seed, CfgShape::GiantScc);
            let all: Vec<usize> = (0..p.succs.len()).collect();
            assert_eq!(component_of(&p.succs, 0), all, "seed {seed}");
        }
    }

    #[test]
    fn oracle_reports_mismatches() {
        let good = Solution {
            entry: vec![BitSet::of(4, &[1])],
            exit: vec![BitSet::new(4)],
        };
        let mut bad = good.clone();
        bad.entry[0].insert(2);
        let err = explain_mismatch(&good, &bad).unwrap_err();
        assert!(err.contains("entry[0]"), "got: {err}");
    }

    #[test]
    fn every_shape_matches_oracle_smoke() {
        for shape in CfgShape::ALL {
            for seed in 0..5 {
                let p = random_problem(seed, shape);
                check_against_oracle(&p.as_problem())
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", shape.label()));
            }
        }
    }
}
