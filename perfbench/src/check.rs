//! Output checks: every timed pass must reproduce the study's rendered
//! artifacts byte for byte, and `matrix_wide` its set-up pass's outcomes.

use predbranch_bench::runner::outcome_to_json;
use predbranch_bench::{Artifact, RunOutcome};

/// The pinned digest of each experiment's rendered artifacts, one
/// `<experiment id> <16 hex digits>` line each. Regenerate with
/// `perfbench pin` when the study's output changes on purpose.
pub const PINNED_STUDY: &str = include_str!("../study_digests.txt");

/// FNV-1a-64, the digest the repository's trace and cell keys use.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |digest, &b| {
        (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The artifacts as `experiments` prints them to stdout.
pub fn render(artifacts: &[Artifact]) -> String {
    artifacts.iter().map(|a| format!("{a}\n")).collect()
}

/// The digest of one experiment's output.
pub fn artifact_digest(artifacts: &[Artifact]) -> u64 {
    fnv64(render(artifacts).as_bytes())
}

/// The digest of one cell's outcome, over its checkpoint-journal form
/// (every counter the outcome carries).
pub fn outcome_digest(outcome: &RunOutcome) -> u64 {
    fnv64(outcome_to_json(outcome).render().as_bytes())
}

/// Parses a pinned-digest table.
///
/// # Panics
///
/// Panics on a malformed line: the table is compiled in, so a bad one is
/// a defect of this package.
pub fn parse_pinned(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let (id, hex) = line
                .split_once(' ')
                .unwrap_or_else(|| panic!("bad pinned line `{line}`"));
            let digest = u64::from_str_radix(hex.trim(), 16)
                .unwrap_or_else(|_| panic!("bad pinned digest `{line}`"));
            (id.to_string(), digest)
        })
        .collect()
}

/// Renders a digest table in the pinned format.
pub fn format_pinned(digests: &[(String, u64)]) -> String {
    digests
        .iter()
        .map(|(id, digest)| format!("{id} {digest:016x}\n"))
        .collect()
}

/// How many pinned experiments a pass did not reproduce: a digest that
/// differs or an experiment missing from the pass.
pub fn study_failures(pinned: &[(String, u64)], got: &[(String, u64)]) -> usize {
    pinned
        .iter()
        .filter(|(id, digest)| !got.iter().any(|(g, d)| g == id && d == digest))
        .count()
}

/// How many cells disagree with the reference pass (every cell counts
/// as failed when the shapes differ).
pub fn cell_failures(reference: &[u64], got: &[u64]) -> usize {
    if reference.len() != got.len() {
        return reference.len();
    }
    reference.iter().zip(got).filter(|(r, g)| r != g).count()
}
