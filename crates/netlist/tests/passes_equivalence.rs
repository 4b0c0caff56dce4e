//! Property-based equivalence between the level-scheduled
//! [`PackedSimulator`] and the raw scalar walk of [`Simulator`] on netlists
//! whose cells are declared out of dependency order.
//!
//! The schedule levelizes the netlist itself and the walk sorts it
//! topologically on its own, so neither may lean on declaration order: a
//! cell declared before the cells that drive its inputs must still be
//! evaluated after them.  Over random DAGs declared in shuffled order, the
//! packed engine at random lane counts must reproduce, lane by lane, the
//! walks' primary outputs at every step and their summed per-net toggle
//! counts and energy report at the end — also through the characterization
//! protocol of warm-up, `reset_counters` and measurement, and again after a
//! full `reset`.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use fabric_power_netlist::cells::CellKind;
use fabric_power_netlist::library::CellLibrary;
use fabric_power_netlist::netlist::{NetId, Netlist};
use fabric_power_netlist::packed::PackedSimulator;
use fabric_power_netlist::sim::{ActivityReport, EnergyTables, Simulator};

/// Builds a random acyclic netlist with `cells` cells and declares them in
/// shuffled order.  Cell `i` reads only primary inputs, the two constant
/// nets and the outputs of cells `0..i`, so the graph is a DAG; a ~25 %
/// chance per cell repeats the previous cell's kind and inputs, and a few
/// nets are neither driven nor read.  The first `CellKind::ALL.len()` cells
/// cycle through every kind.
fn shuffled_netlist(seed: u64, cells: usize) -> Netlist {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut n = Netlist::new("shuffled");
    let mut pool: Vec<NetId> = (0..4).map(|i| n.add_input(format!("pi{i}"))).collect();
    pool.push(n.add_constant("tie0", false));
    pool.push(n.add_constant("tie1", true));
    for i in 0..3 {
        n.add_net(format!("debris{i}"));
    }
    let outs: Vec<NetId> = (0..cells).map(|i| n.add_net(format!("n{i}"))).collect();
    let mut plan: Vec<(usize, CellKind, Vec<NetId>)> = Vec::with_capacity(cells);
    for (i, &out) in outs.iter().enumerate() {
        let (kind, inputs) = match plan.last() {
            Some((_, kind, inputs)) if rng.gen::<u64>() % 4 == 0 => (*kind, inputs.clone()),
            _ => {
                let kind = CellKind::ALL[i % CellKind::ALL.len()];
                let inputs: Vec<NetId> = (0..kind.input_count())
                    .map(|_| pool[rng.gen::<u64>() as usize % pool.len()])
                    .collect();
                (kind, inputs)
            }
        };
        plan.push((i, kind, inputs));
        pool.push(out);
    }
    // Fisher–Yates: declaration order is independent of dependency order.
    for i in (1..plan.len()).rev() {
        plan.swap(i, rng.gen::<u64>() as usize % (i + 1));
    }
    for (i, kind, inputs) in plan {
        n.add_cell(format!("c{i}"), kind, &inputs, outs[i]).unwrap();
    }
    for net in outs.iter().rev().take(3) {
        n.mark_output(*net).unwrap();
    }
    n
}

/// What one run leaves behind: the packed output words after every step,
/// the per-net toggle counts, the counted lane-cycles and the report.
#[derive(Debug, PartialEq)]
struct Run {
    outputs: Vec<Vec<u64>>,
    counts: Vec<u64>,
    lane_cycles: u64,
    report: ActivityReport,
}

/// Runs `vectors` through `sim`, resetting its counters before step
/// `measure_from`.
fn packed_run(sim: &mut PackedSimulator<'_>, vectors: &[Vec<u64>], measure_from: usize) -> Run {
    let mut outputs = Vec::with_capacity(vectors.len());
    for (i, vector) in vectors.iter().enumerate() {
        if i == measure_from {
            sim.reset_counters();
        }
        sim.step(vector);
        outputs.push(sim.output_words());
    }
    Run {
        outputs,
        counts: sim.net_toggle_counts().to_vec(),
        lane_cycles: sim.lane_cycles(),
        report: sim.report(),
    }
}

/// The oracle for [`packed_run`]: one fresh scalar walk per lane, lane `L`
/// replaying bit `L` of every vector, with counts summed over the lanes.
fn walk_run(
    netlist: &Netlist,
    library: &CellLibrary,
    lanes: u32,
    vectors: &[Vec<u64>],
    measure_from: usize,
) -> Run {
    let mut walks: Vec<Simulator<'_>> = (0..lanes)
        .map(|_| Simulator::new(netlist, library).unwrap())
        .collect();
    let mut outputs = Vec::with_capacity(vectors.len());
    for (i, vector) in vectors.iter().enumerate() {
        let mut words = vec![0_u64; netlist.primary_outputs().len()];
        for (lane, walk) in walks.iter_mut().enumerate() {
            if i == measure_from {
                walk.reset_counters();
            }
            let bits: Vec<bool> = vector.iter().map(|w| (w >> lane) & 1 == 1).collect();
            walk.step(&bits);
            for (word, value) in words.iter_mut().zip(walk.output_values()) {
                *word |= u64::from(value) << lane;
            }
        }
        outputs.push(words);
    }
    let mut counts = vec![0_u64; netlist.net_count()];
    for walk in &walks {
        for (acc, &count) in counts.iter_mut().zip(walk.net_toggle_counts()) {
            *acc += count;
        }
    }
    let measured = vectors.len() - measure_from.min(vectors.len());
    let lane_cycles = u64::from(lanes) * measured as u64;
    let report = EnergyTables::new(netlist, library).report_from_counts(&counts, lane_cycles);
    Run {
        outputs,
        counts,
        lane_cycles,
        report,
    }
}

fn random_vectors(seed: u64, steps: usize, inputs: usize) -> Vec<Vec<u64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..steps)
        .map(|_| (0..inputs).map(|_| rng.gen::<u64>()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scheduled_packed_engine_matches_raw_walk_bit_exactly(
        seed in any::<u64>(),
        lanes in 1_u32..=64,
        cells in 15_usize..40,
        cycles in 1_usize..12,
    ) {
        let netlist = shuffled_netlist(seed, cells);
        let library = CellLibrary::calibrated_018um();
        let vectors =
            random_vectors(seed ^ 0x5EED_0002, cycles, netlist.primary_inputs().len());
        let mut packed = PackedSimulator::new(&netlist, &library, lanes).unwrap();
        prop_assert_eq!(
            packed_run(&mut packed, &vectors, 0),
            walk_run(&netlist, &library, lanes, &vectors, 0)
        );
    }

    #[test]
    fn warmup_reset_measure_protocol_is_preserved(
        seed in any::<u64>(),
        lanes in 1_u32..=64,
        cells in 15_usize..32,
        warmup in 1_usize..6,
        measure in 1_usize..8,
    ) {
        // The characterization protocol: warm up, reset counters, measure.
        // The first-step settle toggles land in the warm-up of both engines
        // and are zeroed together, so measured counts still agree; a full
        // `reset` returns the packed engine to fresh-construction behavior.
        let netlist = shuffled_netlist(seed, cells);
        let library = CellLibrary::calibrated_018um();
        let vectors = random_vectors(
            seed ^ 0x5EED_0003,
            warmup + measure,
            netlist.primary_inputs().len(),
        );
        let mut packed = PackedSimulator::new(&netlist, &library, lanes).unwrap();
        let first = packed_run(&mut packed, &vectors, warmup);
        prop_assert_eq!(&first, &walk_run(&netlist, &library, lanes, &vectors, warmup));
        packed.reset();
        prop_assert_eq!(packed_run(&mut packed, &vectors, warmup), first);
    }
}
