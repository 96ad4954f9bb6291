//! Tarjan SCC decomposition and the condensation DAG.
//!
//! The parallel solver ([`solve_parallel`](crate::solve_parallel)) decomposes a problem's
//! propagation graph into strongly connected components: within an SCC,
//! dataflow values circulate and a local fixpoint iteration is needed;
//! between SCCs the condensation is acyclic, so components can be solved
//! once each, in dependency order — and independent components in
//! parallel.
//!
//! Determinism: Tarjan's algorithm visits roots in ascending node order
//! and children in successor-list order, so the decomposition is a pure
//! function of the input graph. Component ids are renumbered so that
//! **ascending id order is a topological order** of the condensation
//! (every edge goes from a lower id to a higher id), which makes the
//! sequential fallback a simple `for s in 0..k` loop and gives the
//! scheduler a canonical ready order.

/// The condensation of a directed graph: its SCCs and the DAG they form.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Component id of each node. Ids are topologically ordered: for
    /// every edge `u -> v` with `scc_of[u] != scc_of[v]`,
    /// `scc_of[u] < scc_of[v]`.
    pub scc_of: Vec<usize>,
    /// Member nodes of each component, ascending.
    pub members: Vec<Vec<usize>>,
    /// Condensation edges (successor component ids, sorted, deduped;
    /// never contains the component itself).
    pub succs: Vec<Vec<usize>>,
    /// In-degree of each component in the condensation (number of
    /// distinct predecessor components).
    pub pred_count: Vec<usize>,
    /// True for components that contain a cycle: more than one member,
    /// or a single member with a self-edge. Trivial (acyclic) components
    /// need one transfer application; cyclic ones need a local fixpoint.
    pub cyclic: Vec<bool>,
}

impl Condensation {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Decomposes the graph given by per-node successor lists.
///
/// Runs Tarjan's algorithm with an explicit stack (deep chains — tens of
/// thousands of nodes in fuzzed supergraphs — must not overflow the call
/// stack).
///
/// # Panics
///
/// Panics if an edge names a node out of range.
pub fn condense(succs: &[Vec<usize>]) -> Condensation {
    let n = succs.len();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    // Components in Tarjan pop order (reverse topological); relabelled
    // below so ascending ids are topological.
    let mut scc_pop = vec![UNVISITED; n];
    let mut members_pop: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;
    // (node, next child offset) frames of the explicit DFS.
    let mut call: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));
        while let Some(frame) = call.last_mut() {
            let v = frame.0;
            if frame.1 < succs[v].len() {
                let w = succs[v][frame.1];
                frame.1 += 1;
                assert!(w < n, "edge {v}->{w} out of range");
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        scc_pop[w] = members_pop.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    members_pop.push(comp);
                }
            }
        }
    }

    // A component pops only after every component it reaches has popped,
    // so pop order is reverse topological; flip it.
    let k = members_pop.len();
    let scc_of: Vec<usize> = scc_pop.into_iter().map(|raw| k - 1 - raw).collect();
    let mut members = members_pop;
    members.reverse();

    let mut cond_succs: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut cyclic = vec![false; k];
    for (s, m) in members.iter().enumerate() {
        cyclic[s] = m.len() > 1;
    }
    for (u, ss) in succs.iter().enumerate() {
        let su = scc_of[u];
        for &v in ss {
            let sv = scc_of[v];
            if su == sv {
                cyclic[su] = true; // intra-component edge (incl. self-loop)
            } else {
                debug_assert!(su < sv, "ids must be topologically ordered");
                cond_succs[su].push(sv);
            }
        }
    }
    let mut pred_count = vec![0usize; k];
    for cs in &mut cond_succs {
        cs.sort_unstable();
        cs.dedup();
        for &t in cs.iter() {
            pred_count[t] += 1;
        }
    }

    Condensation {
        scc_of,
        members,
        succs: cond_succs,
        pred_count,
        cyclic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every member list is ascending, ids partition the nodes, and the
    /// edge/topological invariants hold.
    fn check_invariants(succs: &[Vec<usize>], c: &Condensation) {
        let mut seen = vec![false; succs.len()];
        for (s, m) in c.members.iter().enumerate() {
            assert!(m.windows(2).all(|w| w[0] < w[1]), "members ascending");
            for &v in m {
                assert_eq!(c.scc_of[v], s);
                assert!(!seen[v], "node {v} in two components");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every node in a component");
        for (u, ss) in succs.iter().enumerate() {
            for &v in ss {
                if c.scc_of[u] != c.scc_of[v] {
                    assert!(c.scc_of[u] < c.scc_of[v], "topological ids");
                    assert!(c.succs[c.scc_of[u]].contains(&c.scc_of[v]));
                }
            }
        }
        let mut preds = vec![0usize; c.len()];
        for cs in &c.succs {
            assert!(cs.windows(2).all(|w| w[0] < w[1]), "sorted deduped");
            for &t in cs {
                preds[t] += 1;
            }
        }
        assert_eq!(preds, c.pred_count);
    }

    #[test]
    fn empty_graph() {
        let c = condense(&[]);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn chain_is_all_trivial() {
        let succs = vec![vec![1], vec![2], vec![3], vec![]];
        let c = condense(&succs);
        check_invariants(&succs, &c);
        assert_eq!(c.len(), 4);
        assert!(c.cyclic.iter().all(|&b| !b));
        // Topological ids follow the chain.
        assert_eq!(c.scc_of, vec![0, 1, 2, 3]);
        assert_eq!(c.pred_count, vec![0, 1, 1, 1]);
    }

    #[test]
    fn self_loop_is_cyclic_but_singleton() {
        let succs = vec![vec![0, 1], vec![]];
        let c = condense(&succs);
        check_invariants(&succs, &c);
        assert_eq!(c.len(), 2);
        assert!(c.cyclic[c.scc_of[0]], "self-loop needs a local fixpoint");
        assert!(!c.cyclic[c.scc_of[1]]);
    }

    #[test]
    fn loop_collapses_to_one_component() {
        // 0 -> 1 <-> 2, 2 -> 3
        let succs = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let c = condense(&succs);
        check_invariants(&succs, &c);
        assert_eq!(c.len(), 3);
        assert_eq!(c.scc_of[1], c.scc_of[2]);
        assert!(c.cyclic[c.scc_of[1]]);
        assert_eq!(c.members[c.scc_of[1]], vec![1, 2]);
        assert!(c.scc_of[0] < c.scc_of[1] && c.scc_of[1] < c.scc_of[3]);
    }

    #[test]
    fn irreducible_two_entry_loop() {
        // 0 branches to both entries of the 1 <-> 2 loop.
        let succs = vec![vec![1, 2], vec![2, 3], vec![1], vec![]];
        let c = condense(&succs);
        check_invariants(&succs, &c);
        assert_eq!(c.scc_of[1], c.scc_of[2]);
        assert_ne!(c.scc_of[0], c.scc_of[1]);
    }

    #[test]
    fn giant_ring_is_one_component() {
        let n = 1000;
        let succs: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 1) % n]).collect();
        let c = condense(&succs);
        check_invariants(&succs, &c);
        assert_eq!(c.len(), 1);
        assert!(c.cyclic[0]);
        assert_eq!(c.members[0].len(), n);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let n = 200_000;
        let succs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let c = condense(&succs);
        assert_eq!(c.len(), n);
    }

    #[test]
    fn disconnected_components_and_wide_dag() {
        // Two roots fanning into a shared sink, plus an isolated node.
        let succs = vec![vec![2], vec![2], vec![], vec![]];
        let c = condense(&succs);
        check_invariants(&succs, &c);
        assert_eq!(c.len(), 4);
        assert_eq!(c.pred_count[c.scc_of[2]], 2);
        assert_eq!(c.pred_count[c.scc_of[3]], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        condense(&[vec![5]]);
    }
}
