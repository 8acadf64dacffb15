//! If-conversion: hyperblock-style region formation and predication.
//!
//! This pass reproduces the compiler context the paper assumes: an
//! IMPACT-style if-converter that selects single-entry acyclic regions of
//! the CFG, replaces the control flow *inside* each region with
//! compare-to-predicate instructions and guarded execution, and leaves the
//! remaining control transfers as **region-based branches**:
//!
//! * *kept branches* — side exits for strongly biased branches whose
//!   unlikely path is not worth predicating,
//! * *split branches* — both targets leave the region,
//! * *leaf exits* — guarded branches at the region end steering control
//!   to the correct successor of each predicated path (including loop
//!   back edges, which make a whole loop body one re-entered hyperblock).
//!
//! Region selection is profile-guided: a branch is converted (both paths
//! predicated) when its bias is below [`IfConvertConfig::convert_bias_below`],
//! and kept as a region-based branch otherwise — hard-to-predict branches
//! get predicated away, exactly the trade the paper's introduction
//! describes.
//!
//! Predicate assignment follows the Park–Schlansker scheme using the
//! IA-64 compare types: single-predecessor blocks get their predicate from
//! an `unc`-type compare at the predecessor's terminator (which also
//! clears the predicate when the predecessor itself was predicated off),
//! and merge blocks accumulate their predicate through `or`-type compares
//! after an explicit initialization to false at the region top.

use std::collections::{HashMap, HashSet, VecDeque};

use predbranch_isa::{CmpType, Inst, Op, PredReg, Program};

use crate::cfg::{BlockId, Cfg, Cond, Terminator};
use crate::dom::Dominators;
use crate::error::CompileError;
use crate::linearize::{always_false, always_true, cmp_inst, lower_op, sink, Emitter, PredPool};
use crate::profile::CfgProfile;

/// Tuning knobs for region formation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IfConvertConfig {
    /// Maximum number of blocks per region.
    pub max_region_blocks: usize,
    /// Maximum total weight (ops + terminators) per region.
    pub max_region_weight: usize,
    /// Convert a branch (predicate both paths) when its profiled bias is
    /// below this threshold; keep it as a region-based branch otherwise.
    pub convert_bias_below: f64,
    /// Bias assumed for branches with no profile information.
    pub unknown_bias: f64,
}

impl Default for IfConvertConfig {
    fn default() -> Self {
        IfConvertConfig {
            max_region_blocks: 16,
            max_region_weight: 96,
            convert_bias_below: 0.85,
            unknown_bias: 0.5,
        }
    }
}

/// Metadata about one formed region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// The region id stamped on its region-based branches.
    pub id: u16,
    /// The region's entry block.
    pub seed: BlockId,
    /// Member blocks, in topological (emission) order.
    pub blocks: Vec<BlockId>,
    /// Conditional branches eliminated by predication.
    pub converted_branches: u32,
    /// Conditional region-based branches left in the region (kept side
    /// exits, split exits, and guarded leaf exits).
    pub kept_branches: u32,
}

/// Aggregate if-conversion statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IfConvStats {
    /// Regions accepted.
    pub regions_formed: u32,
    /// Regions grown but discarded (no branch converted, or predicate
    /// pool exceeded).
    pub regions_dropped: u32,
    /// Conditional branches removed by predication.
    pub branches_converted: u32,
    /// Conditional region-based branches emitted.
    pub branches_kept: u32,
    /// Blocks executing under a non-trivial guard predicate.
    pub blocks_predicated: u32,
}

/// The output of [`if_convert`].
#[derive(Debug, Clone, PartialEq)]
pub struct IfConvResult {
    /// The predicated program.
    pub program: Program,
    /// Per-region metadata, indexed by region id.
    pub regions: Vec<RegionInfo>,
    /// Aggregate statistics.
    pub stats: IfConvStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    Jump,
    CondThen,
    CondElse,
}

/// A fully planned region: membership plus predicate assignment.
#[derive(Debug)]
struct PlannedRegion {
    id: u16,
    seed: BlockId,
    members: Vec<BlockId>, // topological order
    member_set: HashSet<BlockId>,
    pred_of: HashMap<BlockId, PredReg>,
    or_acc: HashSet<BlockId>,
    keep_pred: HashMap<BlockId, PredReg>,
    split_preds: HashMap<BlockId, (PredReg, PredReg)>,
    converted: u32,
}

/// If-converts a CFG into a predicated program with region-based branches.
///
/// `profile` supplies branch biases from [`crate::profile_cfg`]; without
/// it every branch is assumed to have [`IfConvertConfig::unknown_bias`]
/// (so, with the default configuration, everything eligible converts).
///
/// # Errors
///
/// Returns [`CompileError`] if the produced program fails ISA validation
/// (internal invariant; propagated for robustness).
///
/// # Examples
///
/// See the crate-level example.
pub fn if_convert(
    cfg: &Cfg,
    profile: Option<&CfgProfile>,
    config: &IfConvertConfig,
) -> Result<IfConvResult, CompileError> {
    let rpo = cfg.reverse_postorder();
    let pos = cfg.rpo_positions();
    let preds = cfg.predecessors();
    let mut stats = IfConvStats::default();

    // --- Region formation -------------------------------------------------
    let mut region_of: Vec<Option<usize>> = vec![None; cfg.len()];
    let mut planned: Vec<PlannedRegion> = Vec::new();

    for &seed in &rpo {
        if region_of[seed.index()].is_some() {
            continue;
        }
        let members = grow_region(cfg, profile, config, seed, &pos, &preds, &region_of);
        if members.len() < 2 {
            continue;
        }
        let id = planned.len() as u16;
        match plan_region(cfg, id, seed, &members, &pos) {
            Some(plan) if plan.converted > 0 => {
                for &b in &plan.members {
                    region_of[b.index()] = Some(planned.len());
                }
                planned.push(plan);
            }
            _ => stats.regions_dropped += 1,
        }
    }
    debug_assert!(
        {
            let dom = Dominators::compute(cfg);
            planned
                .iter()
                .all(|plan| plan.members.iter().all(|&b| dom.dominates(plan.seed, b)))
        },
        "region seed must dominate all members"
    );

    // --- Emission ----------------------------------------------------------
    #[derive(Clone, Copy)]
    enum Unit {
        Plain(BlockId),
        Region(usize),
    }
    let mut units: Vec<Unit> = Vec::new();
    for &b in &rpo {
        match region_of[b.index()] {
            Some(r) if planned[r].seed == b => units.push(Unit::Region(r)),
            Some(_) => {}
            None => units.push(Unit::Plain(b)),
        }
    }
    let head_of = |u: &Unit| match *u {
        Unit::Plain(b) => b,
        Unit::Region(r) => planned[r].seed,
    };

    let mut emitter = Emitter::new();
    let mut plain_pool = PredPool::new();
    let mut regions: Vec<RegionInfo> = Vec::new();

    for (i, unit) in units.iter().enumerate() {
        let next_head = units.get(i + 1).map(&head_of);
        match *unit {
            Unit::Plain(b) => {
                emit_plain_block(cfg, b, next_head, &mut emitter, &mut plain_pool);
            }
            Unit::Region(r) => {
                let info = emit_region(cfg, &planned[r], next_head, &mut emitter);
                stats.regions_formed += 1;
                stats.branches_converted += info.converted_branches;
                stats.branches_kept += info.kept_branches;
                stats.blocks_predicated += planned[r]
                    .members
                    .iter()
                    .filter(|&&b| !planned[r].pred_of[&b].is_always_true())
                    .count() as u32;
                regions.push(info);
            }
        }
    }

    Ok(IfConvResult {
        program: emitter.finish()?,
        regions,
        stats,
    })
}

/// Grows a region from `seed` by greedy forward inclusion.
fn grow_region(
    cfg: &Cfg,
    profile: Option<&CfgProfile>,
    config: &IfConvertConfig,
    seed: BlockId,
    pos: &[usize],
    preds: &[Vec<BlockId>],
    region_of: &[Option<usize>],
) -> Vec<BlockId> {
    if pos[seed.index()] == usize::MAX {
        return Vec::new(); // unreachable
    }
    let mut member_set: HashSet<BlockId> = HashSet::new();
    let mut members = vec![seed];
    member_set.insert(seed);
    let mut weight = cfg.block(seed).weight();
    let mut queue: VecDeque<BlockId> = VecDeque::new();
    queue.push_back(seed);

    while let Some(x) = queue.pop_front() {
        let block = cfg.block(x);
        let candidates: Vec<BlockId> = match block.term {
            Terminator::Halt => vec![],
            Terminator::Jump(t) => vec![t],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                let taken_frac = profile.and_then(|p| p.taken_fraction(x));
                let bias = match taken_frac {
                    Some(p) => p.max(1.0 - p),
                    None if profile.is_some() => 1.0, // never executed: don't predicate
                    None => config.unknown_bias,
                };
                if bias < config.convert_bias_below {
                    vec![then_bb, else_bb]
                } else {
                    // grow through the likely side only
                    match taken_frac {
                        Some(p) if p >= 0.5 => vec![then_bb],
                        _ => vec![else_bb],
                    }
                }
            }
        };
        for s in candidates {
            if member_set.contains(&s)
                || s == Cfg::ENTRY
                || pos[s.index()] == usize::MAX
                || pos[s.index()] <= pos[x.index()] // back edge
                || region_of[s.index()].is_some()
                || members.len() >= config.max_region_blocks
                || weight + cfg.block(s).weight() > config.max_region_weight
                || !preds[s.index()].iter().all(|p| member_set.contains(p))
            {
                continue;
            }
            member_set.insert(s);
            members.push(s);
            weight += cfg.block(s).weight();
            queue.push_back(s);
        }
    }
    members.sort_by_key(|b| pos[b.index()]);
    members
}

/// Computes predicate assignment for a region; `None` if the predicate
/// pool would overflow.
fn plan_region(
    cfg: &Cfg,
    id: u16,
    seed: BlockId,
    members: &[BlockId],
    pos: &[usize],
) -> Option<PlannedRegion> {
    let member_set: HashSet<BlockId> = members.iter().copied().collect();
    let mut in_edges: HashMap<BlockId, Vec<(BlockId, EdgeKind)>> = HashMap::new();
    let mut converted = 0u32;

    for &x in members {
        match cfg.block(x).term {
            Terminator::Halt => {}
            Terminator::Jump(t) => {
                if member_set.contains(&t) && t != seed {
                    in_edges.entry(t).or_default().push((x, EdgeKind::Jump));
                }
            }
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                let t_in = member_set.contains(&then_bb) && then_bb != seed;
                let e_in = member_set.contains(&else_bb) && else_bb != seed;
                if t_in {
                    in_edges
                        .entry(then_bb)
                        .or_default()
                        .push((x, EdgeKind::CondThen));
                }
                if e_in {
                    in_edges
                        .entry(else_bb)
                        .or_default()
                        .push((x, EdgeKind::CondElse));
                }
                if t_in && e_in {
                    converted += 1;
                }
            }
        }
    }

    let mut pool = PredPool::new();
    let mut pred_of: HashMap<BlockId, PredReg> = HashMap::new();
    let mut or_acc: HashSet<BlockId> = HashSet::new();
    pred_of.insert(seed, PredReg::TRUE);

    debug_assert!(members
        .windows(2)
        .all(|w| pos[w[0].index()] < pos[w[1].index()]));
    for &x in members.iter().filter(|&&b| b != seed) {
        let edges = in_edges.get(&x).map(Vec::as_slice).unwrap_or(&[]);
        debug_assert!(!edges.is_empty(), "non-seed member {x} has an in-edge");
        if edges.len() == 1 && edges[0].1 == EdgeKind::Jump {
            // alias: control flows straight from the predecessor
            let p = *pred_of.get(&edges[0].0).expect("topo order resolves preds");
            pred_of.insert(x, p);
        } else {
            pred_of.insert(x, pool.alloc_checked()?);
            if edges.len() > 1 {
                or_acc.insert(x);
            }
        }
    }

    let mut keep_pred: HashMap<BlockId, PredReg> = HashMap::new();
    let mut split_preds: HashMap<BlockId, (PredReg, PredReg)> = HashMap::new();
    for &x in members {
        if let Terminator::CondBr {
            then_bb, else_bb, ..
        } = cfg.block(x).term
        {
            let t_in = member_set.contains(&then_bb) && then_bb != seed;
            let e_in = member_set.contains(&else_bb) && else_bb != seed;
            match (t_in, e_in) {
                (true, true) => {}
                (true, false) | (false, true) => {
                    keep_pred.insert(x, pool.alloc_checked()?);
                }
                (false, false) => {
                    split_preds.insert(x, (pool.alloc_checked()?, pool.alloc_checked()?));
                }
            }
        }
    }

    Some(PlannedRegion {
        id,
        seed,
        members: members.to_vec(),
        member_set,
        pred_of,
        or_acc,
        keep_pred,
        split_preds,
        converted,
    })
}

/// Emits one plain (unpredicated) block.
fn emit_plain_block(
    cfg: &Cfg,
    b: BlockId,
    next_head: Option<BlockId>,
    emitter: &mut Emitter,
    pool: &mut PredPool,
) {
    emitter.bind(b);
    let block = cfg.block(b);
    for op in &block.ops {
        emitter.push(lower_op(PredReg::TRUE, op));
    }
    match block.term {
        Terminator::Halt => emitter.push(Inst::new(Op::Halt)),
        Terminator::Jump(t) => {
            if next_head != Some(t) {
                emitter.push_branch(PredReg::TRUE, t, None);
            }
        }
        Terminator::CondBr {
            ref cond,
            then_bb,
            else_bb,
        } => {
            let p_taken = pool.alloc_rotating();
            emitter.push(cmp_inst(
                PredReg::TRUE,
                CmpType::Norm,
                cond,
                p_taken,
                sink(),
            ));
            emitter.push_branch(p_taken, then_bb, None);
            if next_head != Some(else_bb) {
                emitter.push_branch(PredReg::TRUE, else_bb, None);
            }
        }
    }
}

/// Emits one planned region and returns its metadata.
fn emit_region(
    cfg: &Cfg,
    plan: &PlannedRegion,
    next_head: Option<BlockId>,
    emitter: &mut Emitter,
) -> RegionInfo {
    let region = Some(plan.id);
    let mut kept = 0u32;
    let mut leaf_exits: Vec<(PredReg, BlockId)> = Vec::new();

    emitter.bind(plan.seed);

    // Initialize or-accumulated predicates to false at the region top
    // (re-executed on every region entry, including loop back edges).
    for &x in plan.members.iter().filter(|b| plan.or_acc.contains(b)) {
        emitter.push(cmp_inst(
            PredReg::TRUE,
            CmpType::Norm,
            &always_false(),
            plan.pred_of[&x],
            sink(),
        ));
    }

    let in_region = |b: BlockId| plan.member_set.contains(&b) && b != plan.seed;

    for &x in &plan.members {
        let guard = plan.pred_of[&x];
        let block = cfg.block(x);
        for op in &block.ops {
            emitter.push(lower_op(guard, op));
        }
        match block.term {
            Terminator::Halt => emitter.push(Inst::guarded(guard, Op::Halt)),
            Terminator::Jump(t) => {
                if !in_region(t) {
                    leaf_exits.push((guard, t));
                } else if plan.pred_of[&t] != guard {
                    // or-forward into a merge block (aliased targets need
                    // no instruction at all)
                    emitter.push(cmp_inst(
                        guard,
                        CmpType::Or,
                        &always_true(),
                        plan.pred_of[&t],
                        sink(),
                    ));
                }
            }
            Terminator::CondBr {
                ref cond,
                then_bb,
                else_bb,
            } => {
                let t_in = in_region(then_bb);
                let e_in = in_region(else_bb);
                match (t_in, e_in) {
                    (true, true) => emit_convert(emitter, plan, guard, cond, then_bb, else_bb),
                    (true, false) => {
                        // branch away to `else_bb` when the condition is false
                        emit_keep(
                            emitter,
                            plan,
                            guard,
                            &cond.negate(),
                            plan.keep_pred[&x],
                            then_bb,
                            else_bb,
                            cond,
                        );
                        kept += 1;
                    }
                    (false, true) => {
                        emit_keep(
                            emitter,
                            plan,
                            guard,
                            cond,
                            plan.keep_pred[&x],
                            else_bb,
                            then_bb,
                            &cond.negate(),
                        );
                        kept += 1;
                    }
                    (false, false) => {
                        let (p_then, p_else) = plan.split_preds[&x];
                        emitter.push(cmp_inst(guard, CmpType::Unc, cond, p_then, p_else));
                        emitter.push_branch(p_then, then_bb, region);
                        emitter.push_branch(p_else, else_bb, region);
                        kept += 2;
                    }
                }
            }
        }
    }

    // Leaf exits: guarded region branches, except the final one, which is
    // unconditional (exactly one leaf predicate is true by construction).
    if let Some((_, last_target)) = leaf_exits.last().copied() {
        for &(pred, target) in &leaf_exits[..leaf_exits.len() - 1] {
            emitter.push_branch(pred, target, region);
            kept += 1;
        }
        if next_head != Some(last_target) {
            emitter.push_branch(PredReg::TRUE, last_target, None);
        }
    }

    RegionInfo {
        id: plan.id,
        seed: plan.seed,
        blocks: plan.members.clone(),
        converted_branches: plan.converted,
        kept_branches: kept,
    }
}

/// Emits the compares for a fully converted branch.
fn emit_convert(
    emitter: &mut Emitter,
    plan: &PlannedRegion,
    guard: PredReg,
    cond: &Cond,
    then_bb: BlockId,
    else_bb: BlockId,
) {
    let p_then = plan.pred_of[&then_bb];
    let p_else = plan.pred_of[&else_bb];
    let t_multi = plan.or_acc.contains(&then_bb);
    let e_multi = plan.or_acc.contains(&else_bb);
    match (t_multi, e_multi) {
        (false, false) => {
            emitter.push(cmp_inst(guard, CmpType::Unc, cond, p_then, p_else));
        }
        (false, true) => {
            emitter.push(cmp_inst(guard, CmpType::Unc, cond, p_then, sink()));
            emitter.push(cmp_inst(guard, CmpType::Or, &cond.negate(), p_else, sink()));
        }
        (true, false) => {
            emitter.push(cmp_inst(
                guard,
                CmpType::Unc,
                &cond.negate(),
                p_else,
                sink(),
            ));
            emitter.push(cmp_inst(guard, CmpType::Or, cond, p_then, sink()));
        }
        (true, true) => {
            emitter.push(cmp_inst(guard, CmpType::Or, cond, p_then, sink()));
            emitter.push(cmp_inst(guard, CmpType::Or, &cond.negate(), p_else, sink()));
        }
    }
}

/// Emits a kept (region-based) side-exit branch.
///
/// The branch fires when `branch_cond` holds under `guard`; control
/// otherwise continues to the in-region successor `cont` (whose predicate
/// must become `guard && cont_cond`).
#[allow(clippy::too_many_arguments)]
fn emit_keep(
    emitter: &mut Emitter,
    plan: &PlannedRegion,
    guard: PredReg,
    branch_cond: &Cond,
    p_br: PredReg,
    cont: BlockId,
    away: BlockId,
    cont_cond: &Cond,
) {
    let p_cont = plan.pred_of[&cont];
    if plan.or_acc.contains(&cont) {
        emitter.push(cmp_inst(guard, CmpType::Unc, branch_cond, p_br, sink()));
        emitter.push(cmp_inst(guard, CmpType::Or, cont_cond, p_cont, sink()));
    } else {
        // one `unc` compare defines both the branch guard and the
        // continuation predicate (complementary under `guard`)
        emitter.push(cmp_inst(guard, CmpType::Unc, branch_cond, p_br, p_cont));
    }
    emitter.push_branch(p_br, away, Some(plan.id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CfgBuilder;
    use crate::profile::{profile_cfg, ProfileConfig};
    use predbranch_isa::{CmpCond, Gpr};
    use std::collections::HashMap as Map;

    fn r(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    fn diamond_cfg() -> Cfg {
        let mut b = CfgBuilder::new();
        b.mov(r(1), 3);
        b.if_then_else(
            Cond::new(CmpCond::Gt, r(1), 0),
            |b| b.mov(r(2), 1),
            |b| b.mov(r(2), 2),
        );
        b.store(r(2), Gpr::ZERO, 0);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn diamond_fully_converts() {
        let cfg = diamond_cfg();
        let res = if_convert(&cfg, None, &IfConvertConfig::default()).unwrap();
        let s = res.program.stats();
        assert_eq!(s.conditional_branches, 0, "program:\n{}", res.program);
        assert_eq!(res.stats.branches_converted, 1);
        assert_eq!(res.regions.len(), 1);
        assert!(res.regions[0].blocks.len() >= 4);
    }

    #[test]
    fn nested_diamonds_convert() {
        let mut b = CfgBuilder::new();
        b.if_then_else(
            Cond::new(CmpCond::Gt, r(1), 0),
            |b| {
                b.if_then(Cond::new(CmpCond::Lt, r(2), 5), |b| b.mov(r(3), 1));
            },
            |b| b.mov(r(3), 2),
        );
        b.halt();
        let cfg = b.finish().unwrap();
        let res = if_convert(&cfg, None, &IfConvertConfig::default()).unwrap();
        assert_eq!(res.program.stats().conditional_branches, 0);
        assert_eq!(res.stats.branches_converted, 2);
    }

    #[test]
    fn loop_becomes_hyperblock_with_region_exit() {
        // a loop whose body has a convertible diamond: the loop-exit
        // branch must remain as a region-based branch.
        let mut b = CfgBuilder::new();
        b.for_range(r(1), 0, 100, |b| {
            b.alu(predbranch_isa::AluOp::Rem, r(2), r(1), 2);
            b.if_then_else(
                Cond::new(CmpCond::Eq, r(2), 0),
                |b| b.addi(r(3), r(3), 1),
                |b| b.addi(r(3), r(3), 2),
            );
        });
        b.halt();
        let cfg = b.finish().unwrap();
        let mut mem = Map::new();
        let profile = profile_cfg(&cfg, &mut mem, &ProfileConfig::default());
        let res = if_convert(&cfg, Some(&profile), &IfConvertConfig::default()).unwrap();
        let s = res.program.stats();
        assert!(
            s.region_branches >= 1,
            "loop exit must be region-based:\n{}",
            res.program
        );
        assert!(res.stats.branches_converted >= 1);
        // the diamond inside the loop body is gone: the only conditional
        // branches left are region-based
        assert_eq!(s.conditional_branches, s.region_branches);
    }

    #[test]
    fn biased_branch_kept_unbiased_converted() {
        // mem[0..N]: value 0 with prob 1/2 (unbiased inner branch);
        // error flag never set (biased branch kept as side exit).
        let mut mem = Map::new();
        for a in 0..200i64 {
            mem.insert(a, a % 2);
        }
        let (i, v) = (r(1), r(2));
        let mut b = CfgBuilder::new();
        b.for_range(i, 0, 200, |b| {
            b.load(v, i, 0);
            b.if_then_else(
                Cond::new(CmpCond::Eq, v, 0),
                |b| b.addi(r(3), r(3), 1),
                |b| b.addi(r(4), r(4), 1),
            );
            // strongly biased: v is never negative
            b.if_then(Cond::new(CmpCond::Lt, v, 0), |b| b.mov(r(5), 1));
        });
        b.halt();
        let cfg = b.finish().unwrap();
        let profile = profile_cfg(&cfg, &mut mem.clone(), &ProfileConfig::default());
        let res = if_convert(&cfg, Some(&profile), &IfConvertConfig::default()).unwrap();
        assert!(
            res.stats.branches_converted >= 1,
            "unbiased diamond converts"
        );
        assert!(
            res.stats.branches_kept >= 1,
            "biased branch stays as region branch:\n{}",
            res.program
        );
    }

    #[test]
    fn no_profile_defaults_to_converting() {
        let cfg = diamond_cfg();
        let res = if_convert(&cfg, None, &IfConvertConfig::default()).unwrap();
        assert_eq!(res.stats.branches_converted, 1);
    }

    #[test]
    fn high_threshold_converts_even_biased_branches() {
        let mut mem = Map::new();
        for a in 0..100i64 {
            mem.insert(a, 1);
        }
        let mut b = CfgBuilder::new();
        b.for_range(r(1), 0, 100, |b| {
            b.load(r(2), r(1), 0);
            b.if_then(Cond::new(CmpCond::Eq, r(2), 0), |b| b.mov(r(3), 1));
        });
        b.halt();
        let cfg = b.finish().unwrap();
        let profile = profile_cfg(&cfg, &mut mem, &ProfileConfig::default());
        let aggressive = IfConvertConfig {
            convert_bias_below: 1.01,
            ..IfConvertConfig::default()
        };
        let res = if_convert(&cfg, Some(&profile), &aggressive).unwrap();
        assert!(res.stats.branches_converted >= 1);
    }

    #[test]
    fn region_ids_are_dense_and_match_indices() {
        let mut b = CfgBuilder::new();
        // two separate diamonds split by a loop boundary
        b.if_then_else(Cond::new(CmpCond::Gt, r(1), 0), |_| {}, |_| {});
        b.for_range(r(9), 0, 3, |b| {
            b.if_then_else(Cond::new(CmpCond::Gt, r(2), 0), |_| {}, |_| {});
        });
        b.halt();
        let cfg = b.finish().unwrap();
        let res = if_convert(&cfg, None, &IfConvertConfig::default()).unwrap();
        for (i, region) in res.regions.iter().enumerate() {
            assert_eq!(region.id as usize, i);
        }
    }

    #[test]
    fn tiny_budget_suppresses_conversion() {
        let cfg = diamond_cfg();
        let cramped = IfConvertConfig {
            max_region_blocks: 1,
            ..IfConvertConfig::default()
        };
        let res = if_convert(&cfg, None, &cramped).unwrap();
        assert_eq!(res.stats.branches_converted, 0);
        // degenerates to plain lowering
        assert_eq!(res.program.stats().conditional_branches, 1);
    }

    #[test]
    fn region_branch_instructions_carry_region_ids() {
        let mut b = CfgBuilder::new();
        b.for_range(r(1), 0, 10, |b| {
            b.if_then_else(
                Cond::new(CmpCond::Eq, r(2), 0),
                |b| b.addi(r(3), r(3), 1),
                |b| b.addi(r(3), r(3), 2),
            );
        });
        b.halt();
        let cfg = b.finish().unwrap();
        let res = if_convert(&cfg, None, &IfConvertConfig::default()).unwrap();
        let valid_ids: HashSet<u16> = res.regions.iter().map(|r| r.id).collect();
        for (_, inst) in res.program.iter() {
            if let Op::Br {
                region: Some(id), ..
            } = inst.op
            {
                assert!(
                    valid_ids.contains(&id),
                    "branch references unknown region {id}"
                );
            }
        }
    }
}
