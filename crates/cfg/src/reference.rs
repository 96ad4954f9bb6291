//! Set-based reference implementations of dominance and postdominance:
//! the oracles the property tests compare [`crate::DomTree`] against, and
//! the one the lint pass (`polyflow_core::verify`) checks every
//! function's immediate postdominators against.
//!
//! They solve the textbook set-based dataflow equations:
//!
//! ```text
//! dom(entry)  = {entry}
//! dom(n)      = {n} ∪ ⋂ over preds p of dom(p)
//! ```
//!
//! and postdominance as dominance over the reverse CFG with a virtual exit.
//! The sets are bitsets, every node starting from the full set, swept in
//! reverse postorder from the root until none changes. In that order the
//! number of sweeps grows with loop nesting, not with a function's length,
//! so a function of n blocks and e edges costs O(n·e/64) word operations a
//! sweep and n²/8 bytes; the lint pass runs it on programs of tens of
//! thousands of blocks. Postdominators form a chain, so a block's
//! immediate postdominator is the strict postdominator whose set is one
//! smaller than the block's own. Nothing here shares code with the
//! Cooper–Harvey–Kennedy solver in [`crate::DomTree`].

use crate::graph::{BlockId, Cfg};
use std::collections::BTreeSet;

/// Computes, for each block, the full set of blocks that dominate it.
///
/// Unreachable blocks map to `None` (their dominator set is undefined).
pub fn dominator_sets(cfg: &Cfg) -> Vec<Option<BTreeSet<BlockId>>> {
    let preds: Vec<Vec<usize>> = (0..cfg.len())
        .map(|i| {
            cfg.preds(BlockId::new(i))
                .iter()
                .map(|p| p.index())
                .collect()
        })
        .collect();
    block_sets(&sets(cfg.entry().index(), &preds), cfg.len())
}

/// Computes, for each block, the full set of blocks that postdominate it.
///
/// Blocks that cannot reach an exit map to `None`. The virtual exit itself
/// is omitted from the returned sets (it is not a real block).
pub fn postdominator_sets(cfg: &Cfg) -> Vec<Option<BTreeSet<BlockId>>> {
    block_sets(&postdominance(cfg), cfg.len())
}

/// The immediate postdominator of each block, derived from its
/// postdominator set: the strict postdominator whose own set is exactly
/// one smaller (the block itself is the difference). `None` for a block
/// that cannot reach an exit, or whose only strict postdominator is the
/// virtual exit.
pub fn immediate_postdominators(cfg: &Cfg) -> Vec<Option<BlockId>> {
    let rows = postdominance(cfg);
    let virt = cfg.len();
    let sizes: Vec<Option<u32>> = rows
        .iter()
        .map(|row| Some(row.as_ref()?.iter().map(|w| w.count_ones()).sum()))
        .collect();
    (0..virt)
        .map(|b| {
            let size = sizes[b]?;
            members(rows[b].as_ref()?)
                .find(|&d| d != b && d != virt && sizes[d] == Some(size - 1))
                .map(BlockId::new)
        })
        .collect()
}

/// Each node's dominator set as a bitset, `None` for a node the root
/// does not reach.
type Rows = Vec<Option<Vec<u64>>>;

/// The postdominator sets of `cfg`'s blocks, plus the virtual exit as
/// node `cfg.len()`: dominance over the reverse graph rooted there.
fn postdominance(cfg: &Cfg) -> Rows {
    let n = cfg.len();
    // In the reverse graph a block's predecessors are its CFG successors,
    // and an exit block's predecessor is the virtual exit.
    let mut rev_preds: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            cfg.succs(BlockId::new(i))
                .iter()
                .map(|&(t, _)| t.index())
                .collect()
        })
        .collect();
    for &e in cfg.exits() {
        rev_preds[e.index()].push(n);
    }
    rev_preds.push(Vec::new());
    sets(n, &rev_preds)
}

/// Solves the dominance equations of the graph whose node v has the
/// predecessors `preds[v]`, rooted at `root`.
fn sets(root: usize, preds: &[Vec<usize>]) -> Rows {
    let n = preds.len();
    let mut succs = vec![Vec::new(); n];
    for (v, ps) in preds.iter().enumerate() {
        for &u in ps {
            succs[u].push(v);
        }
    }
    let order = reverse_postorder(root, &succs);
    let mut full = vec![0u64; n.div_ceil(64)];
    for &v in &order {
        full[v / 64] |= 1 << (v % 64);
    }
    let mut rows: Rows = vec![None; n];
    for &v in &order[1..] {
        rows[v] = Some(full.clone());
    }
    let mut own = vec![0u64; full.len()];
    own[root / 64] |= 1 << (root % 64);
    rows[root] = Some(own);

    // Every set stays within `full`, so meeting the reached preds' sets
    // starting from `full` is their intersection.
    let mut new = full.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for &v in &order[1..] {
            new.copy_from_slice(&full);
            for row in preds[v].iter().filter_map(|&p| rows[p].as_ref()) {
                for (w, &x) in new.iter_mut().zip(row) {
                    *w &= x;
                }
            }
            new[v / 64] |= 1 << (v % 64);
            let row = rows[v].as_mut().expect("a reached node has a set");
            if *row != new {
                row.copy_from_slice(&new);
                changed = true;
            }
        }
    }
    rows
}

/// The members of a bitset, ascending.
fn members(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i * 64 + bit
            })
        })
    })
}

/// The first `n` nodes' sets as block sets, without the nodes from `n`
/// on (the virtual exit).
fn block_sets(rows: &Rows, n: usize) -> Vec<Option<BTreeSet<BlockId>>> {
    rows[..n]
        .iter()
        .map(|row| {
            let row = row.as_ref()?;
            Some(members(row).filter(|&m| m < n).map(BlockId::new).collect())
        })
        .collect()
}

/// The nodes `root` reaches along `succs`, in reverse postorder of a
/// depth-first search (so `root` comes first).
fn reverse_postorder(root: usize, succs: &[Vec<usize>]) -> Vec<usize> {
    let mut seen = vec![false; succs.len()];
    let mut post = Vec::new();
    let mut stack = vec![(root, 0usize)];
    seen[root] = true;
    while let Some((u, next)) = stack.last_mut() {
        match succs[*u].get(*next) {
            Some(&v) => {
                *next += 1;
                if !seen[v] {
                    seen[v] = true;
                    stack.push((v, 0));
                }
            }
            None => {
                post.push(*u);
                stack.pop();
            }
        }
    }
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::DomTree;
    use polyflow_isa::{AluOp, Cond, Pc, ProgramBuilder, Reg};

    fn fig1_cfg() -> Cfg {
        let mut b = ProgramBuilder::new();
        b.begin_function("fig1");
        let la = b.fresh_label("A");
        let ld = b.fresh_label("D");
        let le = b.fresh_label("E");
        b.bind_label(la);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Eq, Reg::R2, 0, ld);
        b.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
        b.jmp(le);
        b.bind_label(ld);
        b.alui(AluOp::Add, Reg::R4, Reg::R4, 1);
        b.bind_label(le);
        b.alui(AluOp::Add, Reg::R5, Reg::R5, 1);
        b.br_imm(Cond::Lt, Reg::R1, 10, la);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        Cfg::build(&p, p.function("fig1").unwrap())
    }

    #[test]
    fn reference_agrees_with_chk_on_fig1() {
        let cfg = fig1_cfg();
        let fast = DomTree::postdominators(&cfg);
        let ipdoms = immediate_postdominators(&cfg);
        for b in cfg.blocks() {
            assert_eq!(fast.idom(b.id), ipdoms[b.id.index()], "block {}", b.id);
        }
    }

    #[test]
    fn reference_dominator_sets_on_fig1() {
        let cfg = fig1_cfg();
        let fast = DomTree::dominators(&cfg);
        let sets = dominator_sets(&cfg);
        for a in cfg.blocks() {
            for b in cfg.blocks() {
                let slow = sets[b.id.index()]
                    .as_ref()
                    .map(|s| s.contains(&a.id))
                    .unwrap_or(false);
                assert_eq!(
                    fast.dominates(a.id, b.id),
                    slow || a.id == b.id && sets[b.id.index()].is_none(),
                    "{} dom {}",
                    a.id,
                    b.id
                );
            }
        }
    }

    #[test]
    fn postdominator_sets_contain_self() {
        let cfg = fig1_cfg();
        for (i, s) in postdominator_sets(&cfg).iter().enumerate() {
            let s = s.as_ref().expect("fig1 fully reaches exit");
            assert!(s.contains(&BlockId::new(i)));
        }
    }

    #[test]
    fn entry_postdominated_by_join_in_diamond() {
        let mut b = ProgramBuilder::new();
        b.begin_function("f");
        let le = b.fresh_label("else");
        let lj = b.fresh_label("join");
        b.br_imm(Cond::Eq, Reg::R1, 0, le);
        b.nop();
        b.jmp(lj);
        b.bind_label(le);
        b.nop();
        b.bind_label(lj);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p, p.function("f").unwrap());
        let join = cfg.block_at(Pc::new(5)).unwrap();
        let ipdoms = immediate_postdominators(&cfg);
        assert_eq!(ipdoms[cfg.entry().index()], Some(join));
    }

    /// The reference agrees with [`DomTree`] on the shapes whose chains
    /// of postdominators are longest: thousands of hammocks in a row,
    /// and thousands of call sites in a row (a call ends its block).
    /// Either one took the old reference minutes.
    #[test]
    fn long_chains_match_domtree() {
        let mut hammocks = String::from("fn main {\n    li r1, 0\n");
        let mut calls = String::from("fn main {\n");
        for i in 0..3000 {
            hammocks.push_str(&format!(
                "    andi r4, r1, {}\n    beq r4, r0, e{i}\n    add r5, r5, r1\n\
                 e{i}:\n    addi r1, r1, 1\n",
                i % 7 + 1
            ));
            calls.push_str("    call leaf\n");
        }
        hammocks.push_str("    halt\n}\n");
        calls.push_str("    halt\n}\nfn leaf {\n    ret\n}\n");
        for (src, blocks) in [(hammocks, 6000), (calls, 3000)] {
            let p = polyflow_isa::parse_program(&src).unwrap();
            let cfg = Cfg::build(&p, p.function("main").unwrap());
            assert!(cfg.len() > blocks, "{} blocks", cfg.len());
            let fast = DomTree::postdominators(&cfg);
            let slow = immediate_postdominators(&cfg);
            for b in cfg.blocks() {
                assert_eq!(fast.idom(b.id), slow[b.id.index()], "block {}", b.id);
            }
        }
    }
}
