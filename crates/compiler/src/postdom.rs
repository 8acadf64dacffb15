//! Post-dominator analysis and control dependence.
//!
//! If-conversion literature (Park–Schlansker, RK) phrases predicate
//! assignment in terms of control dependence: block `b` is control
//! dependent on edge `(a → s)` when taking the edge commits control to
//! reaching `b` while `a` itself does not. These analyses are provided
//! for validation and for downstream passes; the region-based converter
//! in [`crate::if_convert`] derives its predicates structurally, and the
//! tests cross-check it against the control-dependence formulation.

use crate::cfg::{BlockId, Cfg, Terminator};

/// The post-dominator tree of a [`Cfg`].
///
/// Computed with the same Cooper–Harvey–Kennedy iteration as
/// [`crate::Dominators`], over the reverse graph. Because a CFG may have
/// several `Halt` blocks (and step-limited loops), the analysis uses a
/// virtual exit node that every `Halt` block edges to; blocks that cannot
/// reach any `Halt` have no post-dominator information.
///
/// The virtual exit is represented implicitly (each `Halt` roots its own
/// subtree), which is exact for the single-`Halt` CFGs the
/// [`crate::CfgBuilder`] produces. On hand-built CFGs with *multiple*
/// halts, post-dominance across diverging halt paths is over-approximated
/// (the intersection collapses to one root instead of the virtual exit).
///
/// # Examples
///
/// ```
/// use predbranch_compiler::{CfgBuilder, Cond, PostDominators};
/// use predbranch_isa::{CmpCond, Gpr};
///
/// let mut b = CfgBuilder::new();
/// b.if_then(Cond::new(CmpCond::Eq, Gpr::new(1).unwrap(), 0), |_| {});
/// b.halt();
/// let cfg = b.finish().unwrap();
/// let pdom = PostDominators::compute(&cfg);
/// // the halting join post-dominates the branch block
/// let entry = cfg.reverse_postorder()[0];
/// let join = *cfg.reverse_postorder().last().unwrap();
/// assert!(pdom.post_dominates(join, entry));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostDominators {
    /// Immediate post-dominator per block; `None` for the virtual-exit
    /// representative (`Halt` blocks post-dominated only by the exit) and
    /// for blocks that cannot reach an exit.
    ipdom: Vec<Option<BlockId>>,
    reaches_exit: Vec<bool>,
}

impl PostDominators {
    /// Computes the post-dominator tree of `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        let n = cfg.len();
        // Reverse graph: successors of b = predecessors in cfg; the
        // virtual exit's predecessors are the Halt blocks.
        let preds = cfg.predecessors(); // preds in forward graph = succs in reverse
        let halts: Vec<BlockId> = cfg
            .iter()
            .filter(|(_, b)| b.term == Terminator::Halt)
            .map(|(id, _)| id)
            .collect();

        // Reverse postorder over the REVERSE graph starting from the
        // virtual exit (we simulate the exit by seeding all halt blocks).
        let mut visited = vec![false; n];
        let mut postorder: Vec<BlockId> = Vec::with_capacity(n);
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        for &h in &halts {
            if visited[h.index()] {
                continue;
            }
            visited[h.index()] = true;
            stack.push((h, 0));
            while let Some(&(id, next)) = stack.last() {
                let succs = &preds[id.index()]; // reverse-graph successors
                if next < succs.len() {
                    stack.last_mut().expect("stack non-empty").1 += 1;
                    let s = succs[next];
                    if !visited[s.index()] {
                        visited[s.index()] = true;
                        stack.push((s, 0));
                    }
                } else {
                    postorder.push(id);
                    stack.pop();
                }
            }
        }
        let rpo: Vec<BlockId> = postorder.iter().rev().copied().collect();
        let mut pos = vec![usize::MAX; n];
        for (i, id) in rpo.iter().enumerate() {
            pos[id.index()] = i;
        }

        let mut ipdom: Vec<Option<BlockId>> = vec![None; n];
        // Halt blocks' ipdom is the virtual exit, represented by
        // themselves (roots of the forest).
        for &h in &halts {
            ipdom[h.index()] = Some(h);
        }
        let is_root = |b: BlockId| halts.contains(&b);

        let intersect = |ipdom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| {
            while a != b {
                while pos[a.index()] > pos[b.index()] {
                    if is_root(a) {
                        return b; // hit the virtual exit: converge on b's side
                    }
                    a = ipdom[a.index()].expect("processed block");
                }
                while pos[b.index()] > pos[a.index()] {
                    if is_root(b) {
                        return a;
                    }
                    b = ipdom[b.index()].expect("processed block");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                if is_root(b) {
                    continue;
                }
                // reverse-graph predecessors of b = forward successors
                let mut new: Option<BlockId> = None;
                for s in cfg.block(b).term.successors() {
                    if ipdom[s.index()].is_none() {
                        continue;
                    }
                    new = Some(match new {
                        None => s,
                        Some(cur) => intersect(&ipdom, cur, s),
                    });
                }
                if new.is_some() && ipdom[b.index()] != new {
                    ipdom[b.index()] = new;
                    changed = true;
                }
            }
        }

        PostDominators {
            reaches_exit: visited,
            ipdom,
        }
    }

    /// The immediate post-dominator of `block`. `Halt` blocks return
    /// themselves (they are roots under the virtual exit); unreachable-
    /// from-exit blocks return `None`.
    pub fn ipdom(&self, block: BlockId) -> Option<BlockId> {
        self.ipdom.get(block.index()).copied().flatten()
    }

    /// Whether `block` can reach a `Halt`.
    pub fn reaches_exit(&self, block: BlockId) -> bool {
        self.reaches_exit
            .get(block.index())
            .copied()
            .unwrap_or(false)
    }

    /// Whether `a` post-dominates `b` (reflexively).
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.reaches_exit(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.ipdom(cur) {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

/// Control-dependence edges of a CFG: block `b` is control dependent on
/// branch block `a` when one successor of `a` leads inevitably to `b`
/// and another may avoid it (Ferracina/Ottenstein-style definition via
/// post-dominators).
///
/// Returned as `(a, b)` pairs sorted by `(a, b)`.
pub fn control_dependences(cfg: &Cfg) -> Vec<(BlockId, BlockId)> {
    let pdom = PostDominators::compute(cfg);
    let mut out = Vec::new();
    for (a, block) in cfg.iter() {
        let succs: Vec<BlockId> = block.term.successors().collect();
        if succs.len() < 2 {
            continue;
        }
        for &s in &succs {
            // walk the post-dominator chain from s up to (exclusive)
            // a's immediate post-dominator; everything on the way is
            // control dependent on a
            if !pdom.reaches_exit(s) {
                continue;
            }
            let stop = pdom.ipdom(a);
            let mut cur = Some(s);
            while let Some(b) = cur {
                if Some(b) == stop {
                    break;
                }
                out.push((a, b));
                let next = pdom.ipdom(b);
                cur = if next == Some(b) { None } else { next };
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
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

    fn diamond() -> Cfg {
        let mut b = CfgBuilder::new();
        b.if_then_else(Cond::new(CmpCond::Eq, r(1), 0), |_| {}, |_| {});
        b.halt();
        b.finish().unwrap()
    }

    fn join_of(cfg: &Cfg) -> BlockId {
        let preds = cfg.predecessors();
        cfg.block_ids()
            .find(|&id| preds[id.index()].len() == 2)
            .expect("join exists")
    }

    #[test]
    fn join_post_dominates_everything_in_diamond() {
        let cfg = diamond();
        let pdom = PostDominators::compute(&cfg);
        let join = join_of(&cfg);
        for id in cfg.block_ids() {
            assert!(
                pdom.post_dominates(join, id),
                "join must post-dominate {id}"
            );
        }
    }

    #[test]
    fn arms_do_not_post_dominate_entry() {
        let cfg = diamond();
        let pdom = PostDominators::compute(&cfg);
        let join = join_of(&cfg);
        for id in cfg.block_ids() {
            if id != join && id != Cfg::ENTRY {
                assert!(!pdom.post_dominates(id, Cfg::ENTRY), "{id}");
            }
        }
    }

    #[test]
    fn diamond_arms_are_control_dependent_on_entry() {
        let cfg = diamond();
        let deps = control_dependences(&cfg);
        let join = join_of(&cfg);
        let arms: Vec<BlockId> = cfg
            .block_ids()
            .filter(|&id| id != Cfg::ENTRY && id != join)
            .collect();
        for arm in arms {
            assert!(
                deps.contains(&(Cfg::ENTRY, arm)),
                "{arm} must be control dependent on entry: {deps:?}"
            );
        }
        assert!(!deps.contains(&(Cfg::ENTRY, join)), "join is not dependent");
    }

    #[test]
    fn loop_body_is_control_dependent_on_header() {
        let mut b = CfgBuilder::new();
        b.while_loop(
            |_| Cond::new(CmpCond::Lt, r(1), 10),
            |b| b.addi(r(1), r(1), 1),
        );
        b.halt();
        let cfg = b.finish().unwrap();
        let deps = control_dependences(&cfg);
        // find header (2-way) and body (its then-successor)
        let (header, body) = cfg
            .iter()
            .find_map(|(id, block)| match block.term {
                Terminator::CondBr { then_bb, .. } => Some((id, then_bb)),
                _ => None,
            })
            .unwrap();
        assert!(deps.contains(&(header, body)), "{deps:?}");
        // the loop header is control dependent on itself (back edge)
        assert!(deps.contains(&(header, header)), "{deps:?}");
    }

    #[test]
    fn halt_blocks_reach_exit_and_root_the_tree() {
        let cfg = diamond();
        let pdom = PostDominators::compute(&cfg);
        for id in cfg.block_ids() {
            assert!(pdom.reaches_exit(id));
        }
        let halt = cfg
            .iter()
            .find(|(_, b)| b.term == Terminator::Halt)
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(pdom.ipdom(halt), Some(halt));
    }

    #[test]
    fn infinite_spin_block_has_no_postdom_info() {
        use crate::cfg::{Block, Terminator};
        // bb0: halt; bb1: spins to itself (unreachable from entry and
        // cannot reach exit)
        let cfg = Cfg::from_blocks(vec![
            Block {
                ops: vec![],
                term: Terminator::Halt,
            },
            Block {
                ops: vec![],
                term: Terminator::Jump(BlockId_of(1)),
            },
        ])
        .unwrap();
        let pdom = PostDominators::compute(&cfg);
        assert!(!pdom.reaches_exit(BlockId_of(1)));
        assert_eq!(pdom.ipdom(BlockId_of(1)), None);
    }

    #[allow(non_snake_case)]
    fn BlockId_of(i: u32) -> BlockId {
        // tests live in-crate, so the private constructor is reachable
        // via Cfg iteration; reconstruct by index lookup instead
        crate::cfg::BlockId(i)
    }
}
