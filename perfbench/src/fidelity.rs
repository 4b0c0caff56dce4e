//! Scores the reproduction against the paper's published numbers.

use fabric_power_core::paper::published_fc_vs_batcher_gap;
use fabric_power_fabric::Architecture;
use fabric_power_netlist::{SwitchEnergyLut, Table1};
use fabric_power_sweep::SweepPoint;

/// The port counts the paper publishes a fully-connected vs. Batcher-Banyan
/// gap for.
pub const GAP_PORTS: [usize; 2] = [4, 32];

/// The offered load the published gaps are quoted at.
pub const GAP_LOAD: f64 = 0.5;

/// `(P_BB − P_FC) / P_BB` at 50 % load for one fabric size, or `None` when
/// the points do not hold both cells.
pub fn fc_vs_batcher_gap(points: &[SweepPoint], ports: usize) -> Option<f64> {
    let power = |architecture: Architecture| {
        points
            .iter()
            .find(|p| {
                p.architecture == architecture
                    && p.ports == ports
                    && p.offered_load == GAP_LOAD
                    && p.network.is_none()
            })
            .map(|p| p.power.as_milliwatts())
    };
    let batcher = power(Architecture::BatcherBanyan)?;
    let fully_connected = power(Architecture::FullyConnected)?;
    Some((batcher - fully_connected) / batcher)
}

/// `fig9_gap_err`: the mean over [`GAP_PORTS`] of
/// |measured gap − published gap|, or `None` when a cell is missing.
pub fn fig9_gap_err(points: &[SweepPoint]) -> Option<f64> {
    let mut sum = 0.0;
    for ports in GAP_PORTS {
        let published = published_fc_vs_batcher_gap(ports)?;
        sum += (fc_vs_batcher_gap(points, ports)? - published).abs();
    }
    Some(sum / GAP_PORTS.len() as f64)
}

/// Every LUT of a Table 1: the three 2×2 classes, then the MUXes.
pub fn luts(table: &Table1) -> Vec<&SwitchEnergyLut> {
    let mut luts = vec![
        &table.crosspoint,
        &table.banyan_binary,
        &table.batcher_sorting,
    ];
    luts.extend(table.muxes.iter());
    luts
}

/// `table1_mean_rel_err`: the mean of |characterized − published| /
/// published over every Table 1 entry.  Entries the paper publishes as 0 fJ
/// (every switch with no packet present) have no relative error and are
/// skipped.
///
/// # Panics
///
/// Panics if the two tables do not have the same shape.
pub fn table1_mean_rel_err(characterized: &Table1, published: &Table1) -> f64 {
    let (ours, theirs) = (luts(characterized), luts(published));
    assert_eq!(ours.len(), theirs.len(), "Table 1 shapes differ");
    let mut errors = Vec::new();
    for (ours, theirs) in ours.iter().zip(&theirs) {
        assert_eq!(ours.entries().len(), theirs.entries().len());
        for (c, p) in ours.entries().iter().zip(theirs.entries()) {
            let p = p.as_femtojoules();
            if p != 0.0 {
                errors.push((c.as_femtojoules() - p).abs() / p);
            }
        }
    }
    errors.iter().sum::<f64>() / errors.len() as f64
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fabric_power_router::metrics::SparseLatencyHistogram;
    use fabric_power_tech::units::{Energy, Power};

    pub(crate) fn point(
        architecture: Architecture,
        ports: usize,
        load: f64,
        mw: f64,
    ) -> SweepPoint {
        SweepPoint {
            architecture,
            ports,
            offered_load: load,
            measured_throughput: load,
            power: Power::from_milliwatts(mw),
            switch_energy: Energy::ZERO,
            buffer_energy: Energy::ZERO,
            wire_energy: Energy::ZERO,
            buffered_words: 0,
            average_latency_cycles: 0.0,
            latency_p50: 0.0,
            latency_p95: 0.0,
            latency_p99: 0.0,
            latency_histogram: SparseLatencyHistogram::default(),
            network: None,
        }
    }

    #[test]
    fn gaps_of_088_and_033_score_032() {
        // Gap 0.88 at 4 ports (published 0.37), 0.33 at 32 (published 0.20).
        let points = vec![
            point(Architecture::BatcherBanyan, 4, 0.5, 100.0),
            point(Architecture::FullyConnected, 4, 0.5, 12.0),
            point(Architecture::BatcherBanyan, 32, 0.5, 300.0),
            point(Architecture::FullyConnected, 32, 0.5, 201.0),
            // Other loads and sizes are ignored.
            point(Architecture::FullyConnected, 4, 0.4, 1.0),
            point(Architecture::BatcherBanyan, 8, 0.5, 1.0),
        ];
        assert!((fc_vs_batcher_gap(&points, 4).unwrap() - 0.88).abs() < 1e-12);
        assert!((fc_vs_batcher_gap(&points, 32).unwrap() - 0.33).abs() < 1e-12);
        let err = fig9_gap_err(&points).unwrap();
        assert!((err - 0.32).abs() < 1e-12, "{err}");
    }

    #[test]
    fn a_missing_cell_gives_no_score() {
        let points = vec![point(Architecture::BatcherBanyan, 4, 0.5, 100.0)];
        assert_eq!(fig9_gap_err(&points), None);
    }

    #[test]
    fn the_published_table_scores_zero_against_itself() {
        assert_eq!(table1_mean_rel_err(&Table1::paper(), &Table1::paper()), 0.0);
    }
}
