//! Output checks.  A failed check fails the cells it touches; nothing is
//! compared against a committed digest, so a later model-fidelity fix that
//! changes the documents is not counted as a failure.

use fabric_power_sweep::SweepDocument;

/// How many cells of `candidate` disagree with `reference`: 0 when the two
/// serialize to identical bytes, otherwise the number of differing or
/// missing points — or every cell, when only the header differs.
pub fn failed_cells(reference: &SweepDocument, candidate: &SweepDocument) -> usize {
    if reference.to_json_string().ok() == candidate.to_json_string().ok() {
        return 0;
    }
    let cells = reference.points.len().max(candidate.points.len());
    let differing = (0..cells)
        .filter(|&i| reference.points.get(i) != candidate.points.get(i))
        .count();
    if differing == 0 {
        cells.max(1)
    } else {
        differing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::tests::point;
    use fabric_power_fabric::Architecture;
    use fabric_power_sweep::{ExperimentConfig, SeedStrategy};
    use fabric_power_tech::units::Power;

    fn document() -> SweepDocument {
        SweepDocument {
            scenario: "hand-built".into(),
            config: ExperimentConfig::quick(),
            seed_strategy: SeedStrategy::Shared,
            points: vec![
                point(Architecture::Crossbar, 4, 0.1, 1.0),
                point(Architecture::Banyan, 4, 0.1, 2.0),
                point(Architecture::Banyan, 4, 0.3, 3.0),
            ],
        }
    }

    #[test]
    fn identical_passes_fail_nothing() {
        assert_eq!(failed_cells(&document(), &document()), 0);
    }

    #[test]
    fn a_tampered_point_in_a_pass_is_one_failed_cell() {
        let mut tampered = document();
        tampered.points[1].power = Power::from_milliwatts(2.5);
        assert_eq!(failed_cells(&document(), &tampered), 1);
    }

    #[test]
    fn a_missing_point_fails_and_a_header_change_fails_every_cell() {
        let mut short = document();
        short.points.pop();
        assert_eq!(failed_cells(&document(), &short), 1);
        let mut renamed = document();
        renamed.scenario = "other".into();
        assert_eq!(failed_cells(&document(), &renamed), 3);
    }
}
