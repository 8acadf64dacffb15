//! Dominator analysis (Cooper–Harvey–Kennedy).

use crate::cfg::{BlockId, Cfg};

/// The dominator tree of a [`Cfg`].
///
/// Computed with the Cooper–Harvey–Kennedy iterative algorithm over
/// reverse postorder. Unreachable blocks have no dominator information
/// and report `false`/`None` from every query.
///
/// Debug builds of the if-converter use this to assert its invariant that
/// a region seed dominates every block placed in the region.
///
/// # Examples
///
/// ```
/// use predbranch_compiler::{CfgBuilder, Cond, Dominators};
/// use predbranch_isa::{CmpCond, Gpr};
///
/// let mut b = CfgBuilder::new();
/// b.if_then(Cond::new(CmpCond::Eq, Gpr::new(1).unwrap(), 0), |_| {});
/// b.halt();
/// let cfg = b.finish().unwrap();
/// let dom = Dominators::compute(&cfg);
/// let entry = cfg.block_ids().next().unwrap(); // bb0
/// for id in cfg.block_ids() {
///     assert!(dom.dominates(entry, id));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dominators {
    /// Immediate dominator per block; `idom[entry] == entry`; `None` for
    /// unreachable blocks.
    idom: Vec<Option<BlockId>>,
}

impl Dominators {
    /// Computes the dominator tree of `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        let rpo = cfg.reverse_postorder();
        let pos = cfg.rpo_positions();
        let preds = cfg.predecessors();
        let mut idom: Vec<Option<BlockId>> = vec![None; cfg.len()];
        idom[Cfg::ENTRY.index()] = Some(Cfg::ENTRY);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| {
            while a != b {
                while pos[a.index()] > pos[b.index()] {
                    a = idom[a.index()].expect("processed block has idom");
                }
                while pos[b.index()] > pos[a.index()] {
                    b = idom[b.index()].expect("processed block has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // unprocessed or unreachable predecessor
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }

    /// The immediate dominator of `block` (`entry` for the entry block),
    /// or `None` if the block is unreachable.
    pub(crate) fn idom(&self, block: BlockId) -> Option<BlockId> {
        self.idom.get(block.index()).copied().flatten()
    }

    /// Whether `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CfgBuilder;
    use crate::cfg::Cond;
    use predbranch_isa::{CmpCond, Gpr};

    fn r(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    fn diamond_cfg() -> Cfg {
        let mut b = CfgBuilder::new();
        b.if_then_else(Cond::new(CmpCond::Eq, r(1), 0), |_| {}, |_| {});
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn entry_dominates_everything() {
        let cfg = diamond_cfg();
        let dom = Dominators::compute(&cfg);
        for id in cfg.block_ids() {
            assert!(dom.dominates(Cfg::ENTRY, id), "entry must dominate {id}");
        }
    }

    #[test]
    fn entry_idom_is_itself() {
        let dom = Dominators::compute(&diamond_cfg());
        assert_eq!(dom.idom(Cfg::ENTRY), Some(Cfg::ENTRY));
    }

    #[test]
    fn diamond_join_dominated_by_branch_not_arms() {
        let cfg = diamond_cfg();
        let dom = Dominators::compute(&cfg);
        let preds = cfg.predecessors();
        let join = cfg
            .block_ids()
            .find(|&id| preds[id.index()].len() == 2)
            .unwrap();
        assert_eq!(dom.idom(join), Some(Cfg::ENTRY));
        for &arm in &preds[join.index()] {
            assert!(!dom.dominates(arm, join), "{arm} must not dominate join");
            assert!(dom.dominates(Cfg::ENTRY, arm));
        }
    }

    #[test]
    fn loop_header_dominates_body() {
        let mut b = CfgBuilder::new();
        b.mov(r(1), 0);
        b.while_loop(
            |_| Cond::new(CmpCond::Lt, r(1), 10),
            |b| b.addi(r(1), r(1), 1),
        );
        b.halt();
        let cfg = b.finish().unwrap();
        let dom = Dominators::compute(&cfg);
        // find header (target of a back edge) and body (its source)
        let pos = cfg.rpo_positions();
        let mut pair = None;
        for (id, block) in cfg.iter() {
            for succ in block.term.successors() {
                if pos[succ.index()] <= pos[id.index()] {
                    pair = Some((succ, id));
                }
            }
        }
        let (header, body) = pair.expect("loop exists");
        assert_ne!(header, body);
        assert!(dom.dominates(header, body));
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        use crate::cfg::{Block, Terminator};
        let cfg = Cfg::from_blocks(vec![
            Block {
                ops: vec![],
                term: Terminator::Halt,
            },
            Block {
                ops: vec![],
                term: Terminator::Jump(BlockId(0)),
            },
        ])
        .unwrap();
        let dom = Dominators::compute(&cfg);
        assert_eq!(dom.idom(BlockId(1)), None);
        assert!(!dom.dominates(BlockId(1), BlockId(0)));
        assert!(!dom.dominates(BlockId(0), BlockId(1)));
    }

    #[test]
    fn dominance_is_reflexive_and_antisymmetric_on_distinct_chain() {
        let cfg = diamond_cfg();
        let dom = Dominators::compute(&cfg);
        for a in cfg.block_ids() {
            assert!(dom.dominates(a, a));
            for b in cfg.block_ids().filter(|&b| b != a) {
                assert!(!(dom.dominates(a, b) && dom.dominates(b, a)));
            }
        }
    }
}
