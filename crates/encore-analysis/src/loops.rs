//! Natural-loop detection and the loop nesting forest.
//!
//! Encore treats loops hierarchically (§3.1.2 of the paper): inner-most
//! loops are summarized first, then enclosing loops treat them as single
//! pseudo-blocks. The paper assumes loops are in *canonical form* (single
//! header, no side entries); natural loops of a reducible CFG satisfy this
//! by construction, and irreducible cycles are detected and reported so
//! the enclosing region can be marked unsupported (footnote 3 of the
//! paper).

use crate::dom::DomTree;
use encore_ir::{BlockId, Function};
use std::collections::BTreeSet;

/// A natural loop.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Loop {
    /// The loop header (single entry of a canonical loop).
    pub header: BlockId,
    /// All blocks of the loop, header included (bodies of nested loops
    /// included).
    pub blocks: BTreeSet<BlockId>,
    /// Latch blocks (sources of back edges to the header).
    pub latches: Vec<BlockId>,
    /// Indices (into [`LoopForest::loops`]) of loops directly nested
    /// inside this one.
    pub children: Vec<usize>,
    /// Index of the directly enclosing loop, if any.
    pub parent: Option<usize>,
}

/// The loop nesting forest of a function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LoopForest {
    /// All natural loops, inner-most first (safe processing order for
    /// hierarchical summarization).
    pub loops: Vec<Loop>,
    /// `true` if a retreating edge that is not a back edge was found —
    /// i.e. the CFG is irreducible and some cycles are not natural loops.
    pub irreducible: bool,
}

impl LoopForest {
    /// Computes the loop forest of `func` given its dominator tree.
    pub fn compute(func: &Function, dom: &DomTree) -> Self {
        let n = func.blocks.len();
        let mut headers: Vec<BlockId> = Vec::new();
        let mut loop_map: std::collections::BTreeMap<BlockId, Loop> = Default::default();
        let mut irreducible = false;

        // Find back edges: tail → head where head dominates tail.
        // A retreating edge to a non-dominator marks irreducibility; we
        // detect those as cycle edges found by DFS that are not back edges.
        let preds = func.predecessors();
        for (tail, block) in func.iter_blocks() {
            if !dom.is_reachable(tail) {
                continue;
            }
            for head in block.successors() {
                if dom.dominates(head, tail) {
                    // Natural back edge: collect the loop body.
                    let entry = loop_map.entry(head).or_insert_with(|| {
                        headers.push(head);
                        Loop {
                            header: head,
                            blocks: [head].into_iter().collect(),
                            latches: Vec::new(),
                            children: Vec::new(),
                            parent: None,
                        }
                    });
                    entry.latches.push(tail);
                    // Backward walk from the latch until the header.
                    let mut work = vec![tail];
                    while let Some(b) = work.pop() {
                        let lp = loop_map.get_mut(&head).expect("just inserted");
                        if lp.blocks.insert(b) {
                            for &p in preds.get(&b).map(|v| v.as_slice()).unwrap_or(&[]) {
                                if dom.is_reachable(p) {
                                    work.push(p);
                                }
                            }
                        }
                    }
                }
            }
        }

        // Irreducibility check: any cycle edge (successor already on the
        // current DFS stack) that is not a back edge to a dominator.
        {
            let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
            let mut stack: Vec<(BlockId, Vec<BlockId>, usize)> = Vec::new();
            let entry = func.entry();
            state[entry.index()] = 1;
            stack.push((entry, func.block(entry).successors(), 0));
            while let Some((node, succs, cursor)) = stack.last_mut() {
                if *cursor < succs.len() {
                    let s = succs[*cursor];
                    *cursor += 1;
                    match state[s.index()] {
                        0 => {
                            state[s.index()] = 1;
                            stack.push((s, func.block(s).successors(), 0));
                        }
                        1 if !dom.dominates(s, *node) => irreducible = true,
                        1 => {}
                        _ => {}
                    }
                } else {
                    state[node.index()] = 2;
                    stack.pop();
                }
            }
        }

        // Order inner-most first: sort by block-count ascending (a nested
        // loop is a strict subset of its parent, hence strictly smaller).
        let mut loops: Vec<Loop> = headers
            .into_iter()
            .map(|h| loop_map.remove(&h).expect("header present"))
            .collect();
        loops.sort_by_key(|l| l.blocks.len());

        // Wire parent/children: the parent of `l` is the smallest loop
        // strictly containing it.
        let count = loops.len();
        for i in 0..count {
            for j in (i + 1)..count {
                let contains =
                    loops[i].blocks.is_subset(&loops[j].blocks) && loops[i].header != loops[j].header;
                if contains {
                    loops[i].parent = Some(j);
                    loops[j].children.push(i);
                    break;
                }
            }
        }

        Self { loops, irreducible }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::{BinOp, ModuleBuilder, Operand};

    fn forest_of(m: &encore_ir::Module) -> LoopForest {
        let f = &m.funcs[0];
        let dom = DomTree::compute(f);
        LoopForest::compute(f, &dom)
    }

    #[test]
    fn single_while_loop_found() {
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
        let forest = forest_of(&m);
        assert_eq!(forest.loops.len(), 1);
        assert!(!forest.irreducible);
        let l = &forest.loops[0];
        assert_eq!(l.header, BlockId::new(1));
        assert_eq!(l.blocks.len(), 2); // header + body
        assert_eq!(l.latches, vec![BlockId::new(2)]);
    }

    #[test]
    fn nested_loops_inner_first() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, _i| {
                f.for_range(Operand::ImmI(0), n.into(), |f, _j| {
                    f.bin_to(n, BinOp::Add, n.into(), Operand::ImmI(0));
                });
            });
            f.ret(None);
        });
        let m = mb.finish();
        let forest = forest_of(&m);
        assert_eq!(forest.loops.len(), 2);
        // Inner loop (fewer blocks) comes first.
        assert!(forest.loops[0].blocks.len() < forest.loops[1].blocks.len());
        assert_eq!(forest.loops[0].parent, Some(1));
        assert_eq!(forest.loops[1].children, vec![0]);
        assert!(forest.loops[0].blocks.is_subset(&forest.loops[1].blocks));
    }

    #[test]
    fn irreducible_cfg_detected() {
        // Two blocks jumping into each other with two entries:
        //   entry -> a, entry -> b, a -> b, b -> a.
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let p = f.param(0);
            let a = f.add_block();
            let b = f.add_block();
            f.branch(p.into(), a, b);
            f.switch_to(a);
            f.jump(b);
            f.switch_to(b);
            // b -> a closes a cycle with two entries (irreducible).
            f.jump(a);
        });
        let m = mb.finish();
        let forest = forest_of(&m);
        assert!(forest.irreducible);
        assert!(forest.loops.is_empty());
    }

    #[test]
    fn self_loop_is_natural() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let p = f.param(0);
            let body = f.add_block();
            let exit = f.add_block();
            f.jump(body);
            f.switch_to(body);
            f.branch(p.into(), body, exit);
            f.switch_to(exit);
            f.ret(None);
        });
        let m = mb.finish();
        let forest = forest_of(&m);
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(forest.loops[0].blocks.len(), 1);
        assert_eq!(forest.loops[0].latches, vec![BlockId::new(1)]);
        assert!(!forest.irreducible);
    }

    #[test]
    fn acyclic_function_has_no_loops() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let p = f.param(0);
            f.if_else(p.into(), |_| {}, |_| {});
            f.ret(None);
        });
        let forest = forest_of(&mb.finish());
        assert!(forest.loops.is_empty());
        assert!(!forest.irreducible);
    }
}
