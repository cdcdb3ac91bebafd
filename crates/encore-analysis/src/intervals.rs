//! Cocke–Allen interval partitioning, applied recursively.
//!
//! Encore forms its candidate recovery regions from intervals (§3.3 of the
//! paper): an interval is a loop plus the acyclic "tails" dangling from it
//! (or just a SEME subgraph entered through one header). Two properties
//! matter:
//!
//! 1. every interval is a SEME region — single entry (every path from the
//!    function entry to a member passes through the header), any number
//!    of exits;
//! 2. partitioning can be applied *recursively*: collapsing each interval
//!    to a node yields a derived graph whose intervals are coarser
//!    candidate regions.
//!
//! [`IntervalHierarchy`] materializes all levels until the derived graph
//! stops shrinking: to a single node exactly when the CFG is reducible,
//! while an irreducible cycle keeps its entries in separate intervals at
//! every level.

use encore_ir::{BlockId, Function};
use std::collections::{BTreeMap, BTreeSet};

/// One interval: a SEME set of blocks with a distinguished header.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Header block: the single entry, through which every path from the
    /// function entry to a member passes.
    pub header: BlockId,
    /// All member blocks, header included.
    pub blocks: BTreeSet<BlockId>,
}

/// A small abstract directed graph used for derived-graph partitioning.
#[derive(Clone, Debug)]
struct AbsGraph {
    /// Successor lists per node.
    succs: Vec<Vec<usize>>,
    entry: usize,
}

impl AbsGraph {
    fn preds(&self) -> Vec<Vec<usize>> {
        let mut p = vec![Vec::new(); self.succs.len()];
        for (n, ss) in self.succs.iter().enumerate() {
            for &s in ss {
                if !p[s].contains(&n) {
                    p[s].push(n);
                }
            }
        }
        p
    }

    /// First-order interval partition of this abstract graph.
    /// Returns (interval membership per node as interval index, headers).
    fn intervals(&self) -> Vec<Vec<usize>> {
        let preds = self.preds();
        let n = self.succs.len();
        let mut assigned = vec![false; n];
        let mut intervals: Vec<Vec<usize>> = Vec::new();
        let mut header_work: Vec<usize> = vec![self.entry];
        let mut queued = vec![false; n];
        queued[self.entry] = true;

        while let Some(h) = header_work.pop() {
            if assigned[h] {
                continue;
            }
            let mut members: Vec<usize> = vec![h];
            let mut member_set: BTreeSet<usize> = [h].into_iter().collect();
            assigned[h] = true;
            // Grow: add any node all of whose predecessors are inside.
            let mut changed = true;
            while changed {
                changed = false;
                let mut frontier: BTreeSet<usize> = BTreeSet::new();
                for &m in &members {
                    for &s in &self.succs[m] {
                        if !member_set.contains(&s) && !assigned[s] {
                            frontier.insert(s);
                        }
                    }
                }
                for cand in frontier {
                    let all_in = !preds[cand].is_empty()
                        && preds[cand].iter().all(|p| member_set.contains(p));
                    if all_in {
                        member_set.insert(cand);
                        members.push(cand);
                        assigned[cand] = true;
                        changed = true;
                    }
                }
            }
            // Any successor outside becomes a new header candidate.
            for &m in &members {
                for &s in &self.succs[m] {
                    if !member_set.contains(&s) && !queued[s] {
                        queued[s] = true;
                        header_work.push(s);
                    }
                }
            }
            // Keep header first.
            intervals.push(members);
        }
        intervals
    }

    /// Collapses each interval into a node; returns the derived graph and
    /// the member list per derived node.
    fn derive(&self) -> (AbsGraph, Vec<Vec<usize>>) {
        let intervals = self.intervals();
        let mut node_of = vec![usize::MAX; self.succs.len()];
        for (i, members) in intervals.iter().enumerate() {
            for &m in members {
                node_of[m] = i;
            }
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); intervals.len()];
        for (n, ss) in self.succs.iter().enumerate() {
            for &s in ss {
                let (a, b) = (node_of[n], node_of[s]);
                if a != b && !succs[a].contains(&b) {
                    succs[a].push(b);
                }
            }
        }
        let entry = node_of[self.entry];
        (AbsGraph { succs, entry }, intervals)
    }
}

/// All levels of recursive interval partitioning of a function CFG.
///
/// Level 0 intervals partition the (reachable) basic blocks. Level *k*+1
/// intervals partition the level-*k* intervals. For reducible CFGs the
/// final level is a single interval covering the whole function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IntervalHierarchy {
    /// `levels[k]` is the interval partition at level `k`.
    pub levels: Vec<Vec<Interval>>,
    /// `parent[k][i]` is the index of the level-`k+1` interval containing
    /// level-`k` interval `i` (absent for the last level).
    pub parent: Vec<Vec<usize>>,
}

impl IntervalHierarchy {
    /// Computes the hierarchy for `func`, ignoring unreachable blocks.
    pub fn compute(func: &Function) -> Self {
        // Build the level-0 abstract graph over reachable blocks.
        let reach = crate::order::reachable_from(func, func.entry(), None);
        let blocks: Vec<BlockId> = reach.iter().copied().collect();
        let index_of: BTreeMap<BlockId, usize> =
            blocks.iter().enumerate().map(|(i, b)| (*b, i)).collect();
        let succs = blocks
            .iter()
            .map(|b| {
                func.block(*b)
                    .successors()
                    .into_iter()
                    .filter_map(|s| index_of.get(&s).copied())
                    .collect()
            })
            .collect();
        let mut graph = AbsGraph { succs, entry: index_of[&func.entry()] };

        // Node meaning at the current level: the set of blocks it covers
        // and its header block.
        let mut covers: Vec<BTreeSet<BlockId>> =
            blocks.iter().map(|b| [*b].into_iter().collect()).collect();
        let mut headers: Vec<BlockId> = blocks.clone();

        let mut levels: Vec<Vec<Interval>> = Vec::new();
        let mut parents: Vec<Vec<usize>> = Vec::new();

        loop {
            let (derived, members) = graph.derive();
            let level: Vec<Interval> = members
                .iter()
                .map(|ms| Interval {
                    header: headers[ms[0]],
                    blocks: ms
                        .iter()
                        .flat_map(|m| covers[*m].iter().copied())
                        .collect(),
                })
                .collect();

            // parent mapping from the previous level's intervals, if any.
            if let Some(prev) = levels.last() {
                let mut parent = vec![usize::MAX; prev.len()];
                for (di, ms) in members.iter().enumerate() {
                    for &m in ms {
                        parent[m] = di;
                    }
                }
                parents.push(parent);
            }

            let done = level.len() == levels.last().map(|l| l.len()).unwrap_or(usize::MAX)
                || level.len() == 1;
            let new_covers: Vec<BTreeSet<BlockId>> =
                level.iter().map(|iv| iv.blocks.clone()).collect();
            let new_headers: Vec<BlockId> = level.iter().map(|iv| iv.header).collect();
            levels.push(level);
            if done {
                break;
            }
            covers = new_covers;
            headers = new_headers;
            graph = derived;
        }

        Self { levels, parent: parents }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::{BinOp, ModuleBuilder, Operand};

    fn hierarchy(m: &encore_ir::Module) -> IntervalHierarchy {
        IntervalHierarchy::compute(&m.funcs[0])
    }

    /// Single entry: with `iv`'s header removed, none of its members is
    /// reachable from the function entry.
    fn assert_single_entry(f: &Function, iv: &Interval) {
        let allowed: BTreeSet<BlockId> = f.block_ids().filter(|&b| b != iv.header).collect();
        let reach = crate::order::reachable_from(f, f.entry(), Some(&allowed));
        assert!(reach.is_disjoint(&iv.blocks), "interval {} has a second entry", iv.header);
    }

    #[test]
    fn straight_line_is_single_interval() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 0, |f| {
            let r = f.mov(Operand::ImmI(1));
            f.ret(Some(r.into()));
        });
        let h = hierarchy(&mb.finish());
        assert_eq!(h.levels[0].len(), 1);
        assert_eq!(h.levels[0][0].header, BlockId::new(0));
    }

    #[test]
    fn diamond_is_single_interval() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let p = f.param(0);
            f.if_else(p.into(), |_| {}, |_| {});
            f.ret(None);
        });
        let h = hierarchy(&mb.finish());
        // Acyclic graph: everything is absorbed into the entry interval.
        assert_eq!(h.levels[0].len(), 1);
        assert_eq!(h.levels[0][0].blocks.len(), 4);
    }

    #[test]
    fn loop_splits_into_intervals_then_merges() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let n = f.param(0);
            let i = f.mov(Operand::ImmI(0));
            f.while_loop(
                |f| Operand::Reg(f.bin(BinOp::Lt, i.into(), n.into())),
                |f| f.bin_to(i, BinOp::Add, i.into(), Operand::ImmI(1)),
            );
            f.ret(None);
        });
        let m = mb.finish();
        let h = hierarchy(&m);
        // Level 0: {entry} and {header, body, exit} (header has an outside
        // predecessor — the entry — plus the latch, so it starts a new
        // interval).
        assert!(h.levels[0].len() >= 2);
        // Final level covers the whole function in one interval.
        let last = h.levels.last().unwrap();
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].blocks.len(), m.funcs[0].blocks.len());
        assert_eq!(last[0].header, BlockId::new(0));
    }

    #[test]
    fn intervals_partition_blocks() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                f.if_then(i.into(), |f| {
                    f.for_range(Operand::ImmI(0), i.into(), |f, _j| {
                        f.bin_to(n, BinOp::Add, n.into(), Operand::ImmI(0));
                    });
                });
            });
            f.ret(None);
        });
        let m = mb.finish();
        let h = hierarchy(&m);
        for level in &h.levels {
            let mut seen: BTreeSet<BlockId> = BTreeSet::new();
            for iv in level {
                for b in &iv.blocks {
                    assert!(seen.insert(*b), "block {b} in two intervals");
                }
            }
            // Partition covers all reachable blocks (all blocks here).
            assert_eq!(seen.len(), m.funcs[0].blocks.len());
        }
    }

    #[test]
    fn headers_dominate_members() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                f.if_else(
                    i.into(),
                    |f| {
                        f.bin_to(n, BinOp::Add, n.into(), Operand::ImmI(1));
                    },
                    |f| {
                        f.bin_to(n, BinOp::Sub, n.into(), Operand::ImmI(1));
                    },
                );
            });
            f.ret(None);
        });
        let m = mb.finish();
        let f = &m.funcs[0];
        for iv in IntervalHierarchy::compute(f).levels.iter().flatten() {
            assert_single_entry(f, iv);
        }
    }

    #[test]
    fn irreducible_cycle_stays_split() {
        // A cycle with two entries: entry -> a, entry -> b, a -> b,
        // b -> a. No single-entry interval can hold it whole.
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let p = f.param(0);
            let a = f.add_block();
            let b = f.add_block();
            f.branch(p.into(), a, b);
            f.switch_to(a);
            f.jump(b);
            f.switch_to(b);
            f.jump(a);
        });
        let m = mb.finish();
        let f = &m.funcs[0];
        let h = IntervalHierarchy::compute(f);
        for iv in h.levels.iter().flatten() {
            assert_single_entry(f, iv);
        }
        assert!(h.levels.last().unwrap().len() > 1, "{h:?}");
    }

    #[test]
    fn parent_links_are_consistent() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let n = f.param(0);
            let i = f.mov(Operand::ImmI(0));
            f.while_loop(
                |f| Operand::Reg(f.bin(BinOp::Lt, i.into(), n.into())),
                |f| f.bin_to(i, BinOp::Add, i.into(), Operand::ImmI(1)),
            );
            f.ret(None);
        });
        let h = hierarchy(&mb.finish());
        for (k, parent) in h.parent.iter().enumerate() {
            assert_eq!(parent.len(), h.levels[k].len());
            for (i, &p) in parent.iter().enumerate() {
                let child = &h.levels[k][i];
                let par = &h.levels[k + 1][p];
                assert!(child.blocks.is_subset(&par.blocks));
            }
        }
    }
}
