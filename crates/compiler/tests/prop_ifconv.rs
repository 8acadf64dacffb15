//! Structural property tests for if-conversion, on randomly generated
//! structured CFGs (semantic equivalence is covered by the differential
//! tests in `predbranch-sim`).

use proptest::prelude::*;

use predbranch_compiler::{if_convert, lower, Cfg, CfgBuilder, Cond, Dominators, IfConvertConfig};
use predbranch_isa::{AluOp, CmpCond, Gpr, Op};

#[derive(Debug, Clone)]
enum Stmt {
    Op,
    IfThenElse(Box<Stmt>, Box<Stmt>),
    IfThen(Box<Stmt>),
    Loop(u8, Box<Stmt>),
    Seq(Vec<Stmt>),
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = Just(Stmt::Op);
    leaf.prop_recursive(3, 20, 4, |inner| {
        prop_oneof![
            Just(Stmt::Op),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Stmt::IfThenElse(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Stmt::IfThen(Box::new(a))),
            (1u8..4, inner.clone()).prop_map(|(n, a)| Stmt::Loop(n, Box::new(a))),
            prop::collection::vec(inner, 0..3).prop_map(Stmt::Seq),
        ]
    })
}

fn r(i: u8) -> Gpr {
    Gpr::new(i).unwrap()
}

fn emit(b: &mut CfgBuilder, stmt: &Stmt, depth: u8, counter: &mut u8) {
    *counter = counter.wrapping_add(1);
    let reg = r(1 + (*counter % 8));
    match stmt {
        Stmt::Op => b.alu(AluOp::Add, reg, reg, 1),
        Stmt::IfThenElse(t, e) => {
            let cond = Cond::new(CmpCond::Lt, reg, 3);
            let (t, e) = (t.clone(), e.clone());
            let mut c1 = *counter;
            let mut c2 = *counter;
            b.if_then_else(
                cond,
                |b| emit(b, &t, depth, &mut c1),
                |b| emit(b, &e, depth, &mut c2),
            );
        }
        Stmt::IfThen(t) => {
            let t = t.clone();
            let mut c1 = *counter;
            b.if_then(Cond::new(CmpCond::Ge, reg, 2), |b| {
                emit(b, &t, depth, &mut c1)
            });
        }
        Stmt::Loop(n, body) => {
            let body = body.clone();
            let mut c1 = *counter;
            b.for_range(r(30 + depth), 0, *n as i32, |b| {
                emit(b, &body, depth + 1, &mut c1);
            });
        }
        Stmt::Seq(stmts) => {
            for s in stmts {
                emit(b, s, depth, counter);
            }
        }
    }
}

fn build(stmt: &Stmt) -> Cfg {
    let mut b = CfgBuilder::new();
    let mut counter = 0;
    emit(&mut b, stmt, 0, &mut counter);
    b.halt();
    b.finish().expect("generated CFGs are well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every accepted region's seed dominates all its blocks (the
    /// single-entry property predication correctness rests on).
    #[test]
    fn region_seeds_dominate_members(stmt in arb_stmt()) {
        let cfg = build(&stmt);
        let result = if_convert(&cfg, None, &IfConvertConfig::default()).unwrap();
        let dom = Dominators::compute(&cfg);
        for region in &result.regions {
            for &block in &region.blocks {
                prop_assert!(
                    dom.dominates(region.seed, block),
                    "region {} seed {} does not dominate {}",
                    region.id,
                    region.seed,
                    block
                );
            }
        }
    }

    /// Region blocks are disjoint across regions.
    #[test]
    fn regions_are_disjoint(stmt in arb_stmt()) {
        let cfg = build(&stmt);
        let result = if_convert(&cfg, None, &IfConvertConfig::default()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for region in &result.regions {
            for &block in &region.blocks {
                prop_assert!(seen.insert(block), "{block} in two regions");
            }
        }
    }

    /// Every emitted region id is dense and every `br.region` id refers
    /// to a real region.
    #[test]
    fn region_ids_are_consistent(stmt in arb_stmt()) {
        let cfg = build(&stmt);
        let result = if_convert(&cfg, None, &IfConvertConfig::default()).unwrap();
        for (i, region) in result.regions.iter().enumerate() {
            prop_assert_eq!(region.id as usize, i);
        }
        for (_, inst) in result.program.iter() {
            if let Op::Br { region: Some(id), .. } = inst.op {
                prop_assert!((id as usize) < result.regions.len());
            }
        }
    }

    /// Lowering and if-conversion both produce validated programs whose
    /// label sets cover the CFG's unit heads.
    #[test]
    fn lowering_is_total_on_structured_cfgs(stmt in arb_stmt()) {
        let cfg = build(&stmt);
        let plain = lower(&cfg).unwrap();
        prop_assert!(plain.len() > 0);
        prop_assert!(plain.resolve_label("bb0").is_some());
        let converted = if_convert(&cfg, None, &IfConvertConfig::default()).unwrap();
        prop_assert!(converted.program.resolve_label("bb0").is_some());
    }

    /// Predicated instruction counts reconcile: every region block that
    /// runs under a non-trivial guard contributes predicated instructions.
    #[test]
    fn predication_bookkeeping(stmt in arb_stmt()) {
        let cfg = build(&stmt);
        let result = if_convert(&cfg, None, &IfConvertConfig::default()).unwrap();
        let stats = result.program.stats();
        if result.stats.blocks_predicated > 0 {
            prop_assert!(stats.predicated > 0);
        }
        prop_assert_eq!(stats.region_branches, result.stats.branches_kept);
    }
}
