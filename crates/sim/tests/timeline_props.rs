//! Property test for [`FetchTimeline::fetch_to`]: counting fetch slots
//! from event indices matches walking the run one instruction at a time.

use proptest::prelude::*;

use predbranch_sim::{FetchTimeline, PipelineConfig};

/// What a branch costs the timeline: nothing, a taken-branch fragment,
/// or a misprediction flush.
const NEITHER: u8 = 0;
const TAKEN: u8 = 1;
const MISPREDICTED: u8 = 2;

/// The slot-by-slot reference: one slot per instruction and a cycle per
/// filled fetch block; a taken or mispredicted branch ends its block and
/// stalls. Returns (cycles, instructions) once `end` instructions ran.
fn slot_by_slot(config: PipelineConfig, branches: &[(u64, u8)], end: u64) -> (u64, u64) {
    let (mut cycles, mut slot, mut instructions) = (0u64, 0u32, 0u64);
    let counts = branches.iter().map(|&(index, kind)| (index + 1, kind));
    for (count, kind) in counts.chain([(end, NEITHER)]) {
        while instructions < count {
            instructions += 1;
            slot += 1;
            if slot >= config.fetch_width.max(1) {
                cycles += 1;
                slot = 0;
            }
        }
        let stall = match kind {
            TAKEN => config.taken_bubble,
            MISPREDICTED => config.mispredict_penalty,
            _ => continue,
        };
        cycles += u64::from(slot > 0) + u64::from(stall);
        slot = 0;
    }
    (cycles + u64::from(slot > 0), instructions)
}

proptest! {
    /// Whatever the fetch width (0 and 1 included), the branch spacing
    /// and outcomes, and wherever the run ends at or past its last
    /// branch, `fetch_to` at each branch and at the end gives the
    /// slot-by-slot cycles, instructions and IPC.
    #[test]
    fn fetch_to_matches_slot_by_slot(
        fetch_width in 0u32..10,
        mispredict_penalty in 0u32..16,
        taken_bubble in 0u32..4,
        gaps in prop::collection::vec((1u64..20, 0u8..3), 0..64),
        tail in 0u64..20,
    ) {
        let config = PipelineConfig { fetch_width, mispredict_penalty, taken_bubble };
        // strictly increasing branch indices, the first one possibly 0
        let mut next = 0;
        let branches: Vec<(u64, u8)> = gaps
            .iter()
            .map(|&(gap, kind)| {
                next += gap;
                (next - 1, kind)
            })
            .collect();
        let end = branches.last().map_or(0, |&(index, _)| index) + tail;

        let mut timeline = FetchTimeline::new(config);
        for &(index, kind) in &branches {
            timeline.fetch_to(index + 1);
            match kind {
                TAKEN => timeline.taken_branch(),
                MISPREDICTED => timeline.mispredict(),
                _ => {}
            }
        }
        timeline.fetch_to(end);

        let (cycles, instructions) = slot_by_slot(config, &branches, end);
        let ipc = if cycles == 0 { 0.0 } else { instructions as f64 / cycles as f64 };
        prop_assert_eq!(timeline.cycles(), cycles);
        prop_assert_eq!(timeline.instructions(), instructions);
        prop_assert_eq!(timeline.ipc(), ipc);
    }
}
