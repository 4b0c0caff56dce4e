//! Property-based equivalence between the bit-parallel [`PackedSimulator`]
//! and the scalar reference [`Simulator`].
//!
//! Over random small netlists covering every [`CellKind`] (combinational,
//! DFF/latch state, tri-state hold), a packed run over the level schedule
//! must reproduce, lane by lane, the primary outputs of scalar walks on the
//! per-lane bit streams at every step, and their summed per-net toggle
//! counts at the end — and therefore bit-identical energies through the
//! shared [`EnergyTables`].  The netlists carry constant nets, duplicate
//! cells and undriven nets nothing reads, so the schedule's constant-drive
//! path and its quiet-cone skipping are exercised too.  Lane counts run
//! 1..=64, and the final step is masked to a subset of the lanes.
//!
//! [`EnergyTables`]: fabric_power_netlist::sim::EnergyTables

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use fabric_power_netlist::cells::CellKind;
use fabric_power_netlist::library::CellLibrary;
use fabric_power_netlist::netlist::{NetId, Netlist};
use fabric_power_netlist::packed::PackedSimulator;
use fabric_power_netlist::sim::Simulator;

/// Builds a random acyclic netlist with `cells` cells: two constant nets in
/// the input pool (so whole cones are constant-driven), a ~25 % chance per
/// cell of duplicating the previous cell's kind and inputs, and a few nets
/// nothing drives or reads.  The first `CellKind::ALL.len()` cells cycle
/// through every kind; inputs are drawn only from already-created nets,
/// which keeps the combinational graph a DAG.
fn random_netlist(seed: u64, cells: usize) -> Netlist {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut n = Netlist::new("prop");
    let mut nets: Vec<NetId> = (0..4).map(|i| n.add_input(format!("pi{i}"))).collect();
    nets.push(n.add_constant("tie0", false));
    nets.push(n.add_constant("tie1", true));
    for i in 0..3 {
        // Debris: no driver, no loads.
        n.add_net(format!("debris{i}"));
    }
    let mut previous: Option<(CellKind, Vec<NetId>)> = None;
    for i in 0..cells {
        let (kind, inputs) = match &previous {
            Some((kind, inputs)) if rng.gen::<u64>() % 4 == 0 => (*kind, inputs.clone()),
            _ => {
                let kind = CellKind::ALL[i % CellKind::ALL.len()];
                let inputs: Vec<NetId> = (0..kind.input_count())
                    .map(|_| nets[rng.gen::<u64>() as usize % nets.len()])
                    .collect();
                (kind, inputs)
            }
        };
        let out = n.add_net(format!("n{i}"));
        n.add_cell(format!("c{i}"), kind, &inputs, out).unwrap();
        previous = Some((kind, inputs));
        nets.push(out);
    }
    for net in nets.iter().rev().take(3) {
        n.mark_output(*net).unwrap();
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn packed_run_matches_summed_scalar_lanes_bit_exactly(
        seed in any::<u64>(),
        lanes in 1_u32..=64,
        cells in 15_usize..48,
        cycles in 1_usize..16,
    ) {
        let netlist = random_netlist(seed, cells);
        let library = CellLibrary::calibrated_018um();
        let pi_count = netlist.primary_inputs().len();

        // Random per-cycle input words: bit L of each word is lane L's
        // input bit for that cycle.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD_EF01);
        let vectors: Vec<Vec<u64>> = (0..cycles)
            .map(|_| (0..pi_count).map(|_| rng.gen::<u64>()).collect())
            .collect();

        // The final step is a partial one when more than one lane runs:
        // only lanes below `counted_final` are measured in it.  With
        // `cycles == 1` this is also a masked *first* step.
        let counted_final = if lanes > 1 { (lanes / 2).max(1) } else { lanes };

        let mut packed = PackedSimulator::new(&netlist, &library, lanes).unwrap();
        // Scalar oracle: lane L replays bit L of the vectors in lockstep.
        let mut oracle: Vec<Simulator<'_>> = (0..lanes)
            .map(|_| Simulator::new(&netlist, &library).unwrap())
            .collect();
        let mut summed = vec![0_u64; netlist.net_count()];
        let mut lane_cycles = 0_u64;
        let mut collect = |scalar: &Simulator<'_>, steps: usize, summed: &mut [u64]| {
            for (acc, &count) in summed.iter_mut().zip(scalar.net_toggle_counts()) {
                *acc += count;
            }
            lane_cycles += steps as u64;
        };
        for (i, vector) in vectors.iter().enumerate() {
            let last = i + 1 == cycles;
            let mask = if last && counted_final < lanes {
                (1_u64 << counted_final) - 1
            } else {
                packed.lane_mask()
            };
            packed.step_masked(vector, mask);
            for (lane, scalar) in oracle.iter_mut().enumerate() {
                let counted = (mask >> lane) & 1 == 1;
                // Lanes masked out of the final packed step still evolve,
                // but their final-step activity is unmeasured.
                if last && !counted {
                    collect(scalar, i, &mut summed);
                }
                let bits: Vec<bool> =
                    vector.iter().map(|word| (word >> lane) & 1 == 1).collect();
                scalar.step(&bits);
                if last && counted {
                    collect(scalar, cycles, &mut summed);
                }
            }
            let expected: Vec<u64> = (0..netlist.primary_outputs().len())
                .map(|output| {
                    oracle.iter().enumerate().fold(0, |word, (lane, scalar)| {
                        word | (u64::from(scalar.output_values()[output]) << lane)
                    })
                })
                .collect();
            prop_assert_eq!(packed.output_words(), expected);
        }

        prop_assert_eq!(packed.net_toggle_counts(), &summed[..]);
        prop_assert_eq!(packed.lane_cycles(), lane_cycles);
        // Identical integer counts ⇒ bit-identical energy reports through
        // the shared deterministic count→energy conversion.
        let tables = oracle[0].energy_tables().clone();
        prop_assert_eq!(packed.report(), tables.report_from_counts(&summed, lane_cycles));
    }
}
