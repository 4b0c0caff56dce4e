//! The paper's published numbers, collected in one place so experiments and
//! tests can compare against them.

use fabric_power_tech::constants;

pub use constants::published_fc_vs_batcher_gap;

/// Offered load below which the 32×32 Banyan is the cheapest fabric,
/// as published.
#[must_use]
pub fn published_banyan_crossover_32x32() -> f64 {
    constants::PAPER_BANYAN_32X32_CROSSOVER
}

/// The theoretical input-buffered saturation throughput quoted in §6.
#[must_use]
pub fn published_saturation_throughput() -> f64 {
    constants::INPUT_BUFFER_SATURATION_THROUGHPUT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_values_are_consistent() {
        assert_eq!(published_fc_vs_batcher_gap(4), Some(0.37));
        assert_eq!(published_fc_vs_batcher_gap(32), Some(0.20));
        assert_eq!(published_fc_vs_batcher_gap(8), None);
        assert!(published_banyan_crossover_32x32() < published_saturation_throughput());
    }
}
