//! The SCC-parallel gen/kill solver.
//!
//! [`solve_parallel`] computes the same fixpoint as [`solve`] by
//! decomposing the propagation graph into its condensation DAG
//! ([`crate::scc`]) and solving components in dependency order:
//! acyclic components are a single transfer application, cyclic ones a
//! local worklist fixpoint over their internal edges. Independent
//! components run concurrently on [`polyflow_pool::StealDeque`]s —
//! per-worker deques, dependency counters, and a ready queue, the same
//! scheduling fabric the sweep harness uses.
//!
//! # Why the result is bit-identical to [`solve`]
//!
//! Union-meet gen/kill transfer functions are monotone over a finite
//! lattice, so the problem has a unique **least** fixpoint, and every
//! fair iteration strategy that starts from ⊥ (plus the boundary value)
//! converges to it. Under the topological order of the condensation the
//! global equation system is block-triangular: once every predecessor
//! component's transfer outputs are final, the local least fixpoint of a
//! component equals the restriction of the global least fixpoint to that
//! component. [`BitSet`] is a canonical representation (a fixed word
//! vector per domain), so value equality is byte equality: the parallel
//! schedule — worker count, steal order, interleaving — cannot show
//! through. The oracle harness ([`crate::oracle`]) enforces this
//! promise differentially.

use crate::bitset::BitSet;
use crate::scc::{condense, Condensation};
use crate::solver::{assemble, propagation_graph, GenKill, Problem, Solution};
use polyflow_pool::StealDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Everything a worker needs to solve one component.
struct Ctx<'p> {
    problem: &'p Problem<'p>,
    flow_in: Vec<Vec<usize>>,
    flow_out: Vec<Vec<usize>>,
    is_boundary: Vec<bool>,
    cond: Condensation,
}

/// Finalized per-node (meet, transfer output), written exactly once when
/// the node's component is solved, read by successor components.
type Slot = Mutex<Option<(BitSet, BitSet)>>;

/// Runs the worklist fixpoint SCC-by-SCC over the condensation DAG,
/// using up to `jobs` worker threads. `jobs <= 1` solves sequentially in
/// topological order with no threads spawned. The returned [`Solution`]
/// is bit-identical to [`solve`](crate::solve) on the same problem.
///
/// # Panics
///
/// Panics on the same malformed inputs as [`solve`](crate::solve) (node-count
/// mismatch, out-of-range edge, boundary domain mismatch).
pub fn solve_parallel(p: &Problem<'_>, jobs: usize) -> Solution {
    let n = p.transfer.len();
    let (flow_in, flow_out) = propagation_graph(p);
    let cond = condense(&flow_out);
    let mut is_boundary = vec![false; n];
    for &b in p.boundary_nodes {
        is_boundary[b] = true;
    }
    let ctx = Ctx {
        problem: p,
        flow_in,
        flow_out,
        is_boundary,
        cond,
    };
    let slots: Vec<Slot> = (0..n).map(|_| Mutex::new(None)).collect();
    let k = ctx.cond.len();
    let jobs = jobs.clamp(1, k.max(1));

    if jobs <= 1 {
        // Ascending component ids are a topological order (scc.rs), so a
        // plain loop respects every dependency.
        for s in 0..k {
            process_component(&ctx, s, &slots);
        }
    } else {
        run_dag(&ctx, &slots, jobs);
    }

    let mut meet = Vec::with_capacity(n);
    let mut trans = Vec::with_capacity(n);
    for slot in slots {
        let (m, t) = slot.into_inner().unwrap().expect("every node solved");
        meet.push(m);
        trans.push(t);
    }
    assemble(p.direction, meet, trans)
}

/// Schedules components over per-worker steal deques: a component
/// becomes ready when its last unfinished predecessor completes
/// (dependency counters), ready work is pushed to the finishing worker's
/// own deque (locality), and idle workers steal FIFO from the others.
fn run_dag(ctx: &Ctx<'_>, slots: &[Slot], jobs: usize) {
    let k = ctx.cond.len();
    let deps: Vec<AtomicUsize> = ctx
        .cond
        .pred_count
        .iter()
        .map(|&c| AtomicUsize::new(c))
        .collect();
    let queues: Vec<StealDeque<usize>> = (0..jobs).map(|_| StealDeque::new()).collect();
    let mut roots = 0usize;
    for s in 0..k {
        if ctx.cond.pred_count[s] == 0 {
            queues[roots % jobs].push(s);
            roots += 1;
        }
    }
    let completed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let queues = &queues;
            let deps = &deps;
            let completed = &completed;
            scope.spawn(move || loop {
                let next = queues[w]
                    .pop()
                    .or_else(|| (1..jobs).find_map(|d| queues[(w + d) % jobs].steal()));
                match next {
                    Some(s) => {
                        process_component(ctx, s, slots);
                        for &t in &ctx.cond.succs[s] {
                            // The last predecessor to finish owns the
                            // hand-off; the slot mutexes carry the data
                            // dependency.
                            if deps[t].fetch_sub(1, Ordering::AcqRel) == 1 {
                                queues[w].push(t);
                            }
                        }
                        completed.fetch_add(1, Ordering::AcqRel);
                    }
                    None => {
                        if completed.load(Ordering::Acquire) == k {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
}

/// Solves component `s`: seeds each member's meet from the boundary value
/// and the finalized outputs of external predecessors, then either
/// applies the transfer once (acyclic component) or iterates the internal
/// edges to a local fixpoint. Writes the finalized (meet, trans) pairs
/// into `slots`.
fn process_component(ctx: &Ctx<'_>, s: usize, slots: &[Slot]) {
    let p = ctx.problem;
    let members = &ctx.cond.members[s];
    let mut meet: Vec<BitSet> = members
        .iter()
        .map(|&v| {
            let mut m = if ctx.is_boundary[v] {
                p.boundary_value.clone()
            } else {
                BitSet::new(p.domain)
            };
            for &u in &ctx.flow_in[v] {
                if ctx.cond.scc_of[u] != s {
                    let slot = slots[u].lock().unwrap();
                    let (_, t) = slot.as_ref().expect("predecessor component finalized");
                    m.union_with(t);
                }
            }
            m
        })
        .collect();

    let mut trans: Vec<BitSet> = vec![BitSet::new(p.domain); members.len()];
    if !ctx.cond.cyclic[s] {
        // Trivial component: exactly one node, no internal edge — one
        // transfer application is the fixpoint.
        debug_assert_eq!(members.len(), 1);
        apply_into(&p.transfer[members[0]], &meet[0], &mut trans[0]);
    } else {
        local_fixpoint(ctx, s, members, &mut meet, &mut trans);
    }

    for (li, &v) in members.iter().enumerate() {
        let mut slot = slots[v].lock().unwrap();
        debug_assert!(slot.is_none(), "component solved twice");
        *slot = Some((
            std::mem::replace(&mut meet[li], BitSet::new(0)),
            std::mem::replace(&mut trans[li], BitSet::new(0)),
        ));
    }
}

/// Worklist iteration restricted to one cyclic component. External
/// inputs are already folded into `meet`; only internal edges propagate.
fn local_fixpoint(
    ctx: &Ctx<'_>,
    s: usize,
    members: &[usize],
    meet: &mut [BitSet],
    trans: &mut [BitSet],
) {
    let p = ctx.problem;
    // Local index of each member (members is ascending, so binary search).
    let local = |v: usize| members.binary_search(&v).expect("member of this component");
    // Internal dependents of each member, as local indices.
    let dependents: Vec<Vec<usize>> = members
        .iter()
        .map(|&v| {
            ctx.flow_out[v]
                .iter()
                .filter(|&&d| ctx.cond.scc_of[d] == s)
                .map(|&d| local(d))
                .collect()
        })
        .collect();

    // Seed every member once, in the same program-order heuristic the
    // sequential solver uses (reverse for backward problems). The order
    // affects only convergence speed, never the fixpoint reached.
    let m = members.len();
    let mut on_list = vec![true; m];
    let mut worklist: std::collections::VecDeque<usize> = match p.direction {
        crate::solver::Direction::Forward => (0..m).collect(),
        crate::solver::Direction::Backward => (0..m).rev().collect(),
    };
    let mut scratch = BitSet::new(p.domain);
    while let Some(li) = worklist.pop_front() {
        on_list[li] = false;
        let t = &p.transfer[members[li]];
        // trans[li] = gen ∪ (meet ∖ kill), via the allocation-free
        // bitset fast paths.
        scratch.copy_from(&meet[li]);
        scratch.subtract(&t.kill);
        t.gen.union_with_into(&scratch, &mut trans[li]);
        for &dj in &dependents[li] {
            // Read-only subset probe first: near the fixpoint most
            // propagations change nothing.
            if !trans[li].is_subset_of(&meet[dj]) {
                meet[dj].union_with(&trans[li]);
                if !on_list[dj] {
                    on_list[dj] = true;
                    worklist.push_back(dj);
                }
            }
        }
    }
}

/// `out = gen ∪ (input ∖ kill)` without allocating.
fn apply_into(t: &GenKill, input: &BitSet, out: &mut BitSet) {
    out.copy_from(input);
    out.subtract(&t.kill);
    out.union_with(&t.gen);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, Direction};

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
            let oracle = solve(&p);
            for jobs in [1, 2, 4] {
                assert_eq!(solve_parallel(&p, jobs), oracle, "jobs={jobs}");
            }
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
        for jobs in [1, 4] {
            let sol = solve_parallel(&p, jobs);
            assert!(sol.entry.is_empty() && sol.exit.is_empty());
        }
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
        let oracle = solve(&p);
        for jobs in [1, 4] {
            assert_eq!(solve_parallel(&p, jobs), oracle, "jobs={jobs}");
        }
        assert!(oracle.entry[0].contains(0), "own gen circulates");
        assert!(oracle.entry[0].contains(1), "boundary joins the meet");
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
        solve_parallel(&p, 2);
    }
}
