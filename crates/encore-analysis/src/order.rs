//! CFG traversal orders.
//!
//! Post-order traversals and reachability, both for whole functions and
//! for arbitrary block subsets (regions): liveness seeds its fixpoint in
//! post-order, and interval partitioning and the reference region
//! analysis ask which blocks are reachable.

use encore_ir::{BlockId, Function};
use std::collections::BTreeSet;

/// Post-order of the blocks reachable from `entry`, restricted to `allowed`
/// (pass `None` for the whole function).
///
/// Children are visited in successor order; a node is emitted after all its
/// (allowed, reachable) children.
pub fn postorder_from(
    func: &Function,
    entry: BlockId,
    allowed: Option<&BTreeSet<BlockId>>,
) -> Vec<BlockId> {
    let in_set = |b: BlockId| allowed.map(|s| s.contains(&b)).unwrap_or(true);
    let mut visited = vec![false; func.blocks.len()];
    let mut out = Vec::new();
    if !in_set(entry) {
        return out;
    }
    // Iterative DFS with an explicit child cursor to avoid recursion on
    // deep CFGs.
    let mut stack: Vec<(BlockId, Vec<BlockId>, usize)> = Vec::new();
    visited[entry.index()] = true;
    let succs = |b: BlockId| -> Vec<BlockId> {
        func.block(b)
            .successors()
            .into_iter()
            .filter(|s| in_set(*s))
            .collect()
    };
    stack.push((entry, succs(entry), 0));
    while let Some((node, children, cursor)) = stack.last_mut() {
        if *cursor < children.len() {
            let child = children[*cursor];
            *cursor += 1;
            if !visited[child.index()] {
                visited[child.index()] = true;
                stack.push((child, succs(child), 0));
            }
        } else {
            out.push(*node);
            stack.pop();
        }
    }
    out
}

/// Post-order of the whole function from its entry block.
pub fn postorder(func: &Function) -> Vec<BlockId> {
    postorder_from(func, func.entry(), None)
}

/// Blocks reachable from `entry` within `allowed` (or the whole function).
pub fn reachable_from(
    func: &Function,
    entry: BlockId,
    allowed: Option<&BTreeSet<BlockId>>,
) -> BTreeSet<BlockId> {
    postorder_from(func, entry, allowed).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::{ModuleBuilder, Operand};

    /// entry → (b1 | b2) → join → ret, a diamond.
    fn diamond() -> encore_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let p = f.param(0);
            f.if_else(p.into(), |_| {}, |_| {});
            f.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn postorder_ends_with_entry() {
        let m = diamond();
        let po = postorder(&m.funcs[0]);
        assert_eq!(po.len(), 4);
        assert_eq!(*po.last().unwrap(), m.funcs[0].entry());
    }

    #[test]
    fn restriction_excludes_blocks() {
        let m = diamond();
        let f = &m.funcs[0];
        let allowed: BTreeSet<_> = [BlockId::new(0), BlockId::new(1), BlockId::new(3)]
            .into_iter()
            .collect();
        let po = postorder_from(f, f.entry(), Some(&allowed));
        assert!(!po.contains(&BlockId::new(2)));
        assert_eq!(po.len(), 3);
    }

    #[test]
    fn unreachable_blocks_not_visited() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 0, |f| {
            f.ret(None);
            let dead = f.add_block();
            f.switch_to(dead);
            f.ret(Some(Operand::ImmI(1)));
        });
        let m = mb.finish();
        let po = postorder(&m.funcs[0]);
        assert_eq!(po.len(), 1);
    }
}
