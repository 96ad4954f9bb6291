//! Direction-parametric gen/kill worklist solver.
//!
//! The solver fixes the *may* (union-meet) family of gen/kill problems —
//! enough for liveness and reaching definitions — over an abstract node
//! graph: callers hand in successor lists rather than a `Cfg`, so the same
//! solver runs both per-function graphs and the whole-program supergraph
//! used by interprocedural liveness.

use crate::bitset::BitSet;

/// Direction of dataflow propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow along edges (reaching definitions).
    Forward,
    /// Facts flow against edges (liveness).
    Backward,
}

/// The transfer function of one node: `out = gen ∪ (in ∖ kill)`.
///
/// For a [`Direction::Backward`] problem, "in" is the value at the node's
/// program-order *end* and "out" the value at its *start*; gen/kill must be
/// computed accordingly (e.g. liveness gen = upward-exposed uses).
#[derive(Debug, Clone)]
pub struct GenKill {
    /// Facts the node generates.
    pub gen: BitSet,
    /// Facts the node kills.
    pub kill: BitSet,
}

impl GenKill {
    /// An identity transfer (`gen = kill = ∅`) over the given domain.
    pub fn identity(domain: usize) -> GenKill {
        GenKill {
            gen: BitSet::new(domain),
            kill: BitSet::new(domain),
        }
    }
}

/// A gen/kill dataflow problem over an abstract graph.
#[derive(Debug)]
pub struct Problem<'a> {
    /// Propagation direction.
    pub direction: Direction,
    /// Lattice domain size (bits per set).
    pub domain: usize,
    /// Per-node transfer functions (`transfer.len()` is the node count).
    pub transfer: &'a [GenKill],
    /// Per-node successor lists (edges in program order, regardless of
    /// direction; the solver reverses them itself for backward problems).
    pub succs: &'a [Vec<usize>],
    /// Nodes whose meet additionally includes `boundary_value`: entry
    /// nodes for forward problems, exit nodes for backward ones.
    pub boundary_nodes: &'a [usize],
    /// The value injected at boundary nodes.
    pub boundary_value: BitSet,
}

/// Per-node fixpoint of a [`Problem`].
///
/// `entry[n]` is the dataflow value at node `n`'s program-order start and
/// `exit[n]` the value at its end — for backward problems `entry` is the
/// *output* of `n`'s transfer function (e.g. live-in) and `exit` its input
/// (live-out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Value at each node's start (live-in / reach-in).
    pub entry: Vec<BitSet>,
    /// Value at each node's end (live-out / reach-out).
    pub exit: Vec<BitSet>,
}

/// Runs the worklist algorithm to a fixpoint.
///
/// Complexity is O(edges × domain/64) per pass with the usual fast
/// convergence of round-robin + worklist iteration.
///
/// # Panics
///
/// Panics if `succs` and `transfer` disagree on the node count, if an edge
/// names a node out of range, or if a set domain mismatches.
pub fn solve(p: &Problem<'_>) -> Solution {
    let n = p.transfer.len();
    assert_eq!(p.succs.len(), n, "succs/transfer node count mismatch");
    assert_eq!(p.boundary_value.domain(), p.domain, "boundary domain");
    // Edges along which facts propagate: forward uses succs as-is,
    // backward propagates from a node to its predecessors — which is
    // exactly "along succs, swapped at meet time". `flow_out[u]` are the
    // nodes whose meet takes `u`'s transfer output.
    let mut flow_out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, ss) in p.succs.iter().enumerate() {
        for &v in ss {
            assert!(v < n, "edge {u}->{v} out of range");
            match p.direction {
                Direction::Forward => flow_out[u].push(v),
                Direction::Backward => flow_out[v].push(u),
            }
        }
    }

    let mut is_boundary = vec![false; n];
    for &b in p.boundary_nodes {
        is_boundary[b] = true;
    }

    // meet_val[n] = boundary? ∪ ⋃ trans_val[flow_in]; trans_val = transfer.
    let mut meet_val: Vec<BitSet> = (0..n)
        .map(|i| {
            if is_boundary[i] {
                p.boundary_value.clone()
            } else {
                BitSet::new(p.domain)
            }
        })
        .collect();
    let mut trans_val: Vec<BitSet> = vec![BitSet::new(p.domain); n];

    // Seed every node once and iterate to fixpoint: processing a node
    // recomputes its transfer output from the current meet and pushes it
    // into dependents; a dependent whose meet grows is re-enqueued. Meets
    // only grow, so this terminates. Initial order: reverse node order for
    // backward problems (blocks are laid out roughly in program order, so
    // this approximates postorder), forward order otherwise.
    let mut on_list = vec![true; n];
    let mut worklist: std::collections::VecDeque<usize> = match p.direction {
        Direction::Forward => (0..n).collect(),
        Direction::Backward => (0..n).rev().collect(),
    };

    while let Some(u) = worklist.pop_front() {
        on_list[u] = false;
        // The transfer, applied in place: no set is allocated per visit.
        let (t, out) = (&p.transfer[u], &mut trans_val[u]);
        out.copy_from(&meet_val[u]);
        out.subtract(&t.kill);
        out.union_with(&t.gen);
        for &d in &flow_out[u] {
            if meet_val[d].union_with(&trans_val[u]) && !on_list[d] {
                on_list[d] = true;
                worklist.push_back(d);
            }
        }
    }

    // Map (meet, trans) back onto program-order (entry, exit): a forward
    // meet is the entry value, a backward meet the exit value.
    match p.direction {
        Direction::Forward => Solution {
            entry: meet_val,
            exit: trans_val,
        },
        Direction::Backward => Solution {
            entry: trans_val,
            exit: meet_val,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check_against_oracle, round_robin_solve};

    /// A diamond 0 -> {1,2} -> 3 with a fact generated in 1 and killed in 2.
    #[test]
    fn forward_union_over_diamond() {
        let domain = 2;
        let mut t = vec![
            GenKill::identity(domain),
            GenKill::identity(domain),
            GenKill::identity(domain),
            GenKill::identity(domain),
        ];
        t[0].gen.insert(0); // fact 0 born at entry
        t[1].gen.insert(1); // fact 1 born on the left arm
        t[2].kill.insert(0); // right arm kills fact 0
        let succs = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let sol = solve(&Problem {
            direction: Direction::Forward,
            domain,
            transfer: &t,
            succs: &succs,
            boundary_nodes: &[0],
            boundary_value: BitSet::new(domain),
        });
        // Join sees fact 0 (via left) and fact 1 (may-union).
        assert!(sol.entry[3].contains(0) && sol.entry[3].contains(1));
        assert!(sol.exit[2].is_empty());
        assert_eq!(sol.exit[0], BitSet::of(domain, &[0]));
    }

    /// Liveness-shaped backward problem over a loop 0 -> 1 -> {1, 2}.
    #[test]
    fn backward_loop_reaches_fixpoint() {
        let domain = 1;
        let mut t = vec![
            GenKill::identity(domain),
            GenKill::identity(domain),
            GenKill::identity(domain),
        ];
        t[2].gen.insert(0); // used after the loop
        let succs = vec![vec![1], vec![1, 2], vec![]];
        let sol = solve(&Problem {
            direction: Direction::Backward,
            domain,
            transfer: &t,
            succs: &succs,
            boundary_nodes: &[2],
            boundary_value: BitSet::new(domain),
        });
        // The use in node 2 is live throughout the loop.
        assert!(sol.entry[0].contains(0));
        assert!(sol.exit[1].contains(0));
        assert!(sol.entry[2].contains(0));
        assert!(sol.exit[2].is_empty());
    }

    #[test]
    fn kill_stops_backward_propagation() {
        let domain = 1;
        let mut t = vec![
            GenKill::identity(domain),
            GenKill::identity(domain),
            GenKill::identity(domain),
        ];
        t[1].kill.insert(0); // redefined in the middle
        t[2].gen.insert(0);
        let succs = vec![vec![1], vec![2], vec![]];
        let sol = solve(&Problem {
            direction: Direction::Backward,
            domain,
            transfer: &t,
            succs: &succs,
            boundary_nodes: &[2],
            boundary_value: BitSet::new(domain),
        });
        assert!(sol.entry[1].is_empty(), "killed before the use");
        assert!(sol.entry[0].is_empty());
    }

    #[test]
    fn boundary_value_enters_at_boundary_nodes() {
        let domain = 3;
        let t = vec![GenKill::identity(domain), GenKill::identity(domain)];
        let succs = vec![vec![1], vec![]];
        let sol = solve(&Problem {
            direction: Direction::Forward,
            domain,
            transfer: &t,
            succs: &succs,
            boundary_nodes: &[0],
            boundary_value: BitSet::of(domain, &[2]),
        });
        assert!(sol.entry[0].contains(2));
        assert!(sol.entry[1].contains(2), "flows through identity nodes");
    }

    fn diamond_problem() -> (Vec<GenKill>, Vec<Vec<usize>>) {
        let domain = 2;
        let mut t = vec![
            GenKill::identity(domain),
            GenKill::identity(domain),
            GenKill::identity(domain),
            GenKill::identity(domain),
        ];
        t[0].gen.insert(0);
        t[1].gen.insert(1);
        t[2].kill.insert(0);
        (t, vec![vec![1, 2], vec![3], vec![3], vec![]])
    }

    /// The worklist matches the round-robin reference on a diamond posed
    /// in both directions, with a non-empty boundary value.
    #[test]
    fn matches_sequential_on_diamond_both_directions() {
        let (t, succs) = diamond_problem();
        for direction in [Direction::Forward, Direction::Backward] {
            let boundary = match direction {
                Direction::Forward => vec![0],
                Direction::Backward => vec![3],
            };
            let p = Problem {
                direction,
                domain: 2,
                transfer: &t,
                succs: &succs,
                boundary_nodes: &boundary,
                boundary_value: BitSet::of(2, &[1]),
            };
            check_against_oracle(&p).unwrap_or_else(|e| panic!("{direction:?}: {e}"));
        }
    }

    #[test]
    fn zero_node_problem() {
        let p = Problem {
            direction: Direction::Forward,
            domain: 4,
            transfer: &[],
            succs: &[],
            boundary_nodes: &[],
            boundary_value: BitSet::new(4),
        };
        let sol = solve(&p);
        assert!(sol.entry.is_empty() && sol.exit.is_empty());
        assert_eq!(round_robin_solve(&p), sol);
    }

    #[test]
    fn self_loop_fixpoint() {
        // One node feeding itself: gen survives the loop, kill removes
        // the boundary fact.
        let domain = 2;
        let mut t = vec![GenKill::identity(domain)];
        t[0].gen.insert(0);
        t[0].kill.insert(1);
        let succs = vec![vec![0]];
        let p = Problem {
            direction: Direction::Forward,
            domain,
            transfer: &t,
            succs: &succs,
            boundary_nodes: &[0],
            boundary_value: BitSet::of(domain, &[1]),
        };
        check_against_oracle(&p).unwrap();
        let sol = solve(&p);
        assert!(sol.entry[0].contains(0), "own gen circulates");
        assert!(sol.entry[0].contains(1), "boundary joins the meet");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_malformed_edges_like_solve() {
        let t = vec![GenKill::identity(1)];
        let succs = vec![vec![7]];
        let p = Problem {
            direction: Direction::Forward,
            domain: 1,
            transfer: &t,
            succs: &succs,
            boundary_nodes: &[0],
            boundary_value: BitSet::new(1),
        };
        solve(&p);
    }
}
