//! Bit-parallel (bit-sliced) gate-level simulation: 64 lanes per `u64`.
//!
//! [`PackedSimulator`] evaluates up to 64 *independent* simulations of the
//! same netlist at once by packing one lane per bit of a `u64` word per net.
//! Every [`CellKind`] evaluates as word-wide boolean operations
//! ([`CellKind::evaluate_word`]), tri-state and flip-flop state are held as
//! per-lane words, and toggle activity is accumulated per net with
//! `(prev ^ new).count_ones()`.
//!
//! The simulator executes the netlist's [`EvalSchedule`]: drive lists and
//! levelled combinational cells, swept in level order.  After the first
//! step it evaluates only cells that have ever seen an input change, so
//! cones that go quiet after warm-up cost nothing.  Nets keep their ids, so
//! toggles are counted straight into the netlist's own net-id space.
//!
//! Energy accounting goes through the same [`EnergyTables`] as the scalar
//! reference [`crate::sim::Simulator`]: integer per-net toggle counts are
//! converted to energies in one deterministic pass, so a packed run and the
//! sum of the equivalent per-lane scalar runs produce **bit-identical**
//! energy numbers.
//!
//! Lanes are numbered from bit 0: lane `L` of net `n` is
//! `(word(n) >> L) & 1`. A *lane-cycle* is one lane advancing one clock
//! cycle; a full-mask [`PackedSimulator::step`] with `lanes` active lanes
//! contributes `lanes` lane-cycles. Per-cycle clock and leakage energy are
//! charged per lane-cycle, which keeps totals comparable with a scalar run
//! of the same number of (scalar) cycles.

use crate::library::CellLibrary;
use crate::netlist::{NetId, Netlist, NetlistError};
use crate::passes::EvalSchedule;
use crate::sim::{ActivityReport, EnergyTables};

/// Bit-parallel simulator holding one `u64` of lane values per net.
///
/// # Examples
///
/// ```
/// use fabric_power_netlist::cells::CellKind;
/// use fabric_power_netlist::library::CellLibrary;
/// use fabric_power_netlist::netlist::Netlist;
/// use fabric_power_netlist::packed::PackedSimulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n = Netlist::new("inv");
/// let a = n.add_input("a");
/// let y = n.add_net("y");
/// n.add_cell("u_inv", CellKind::Inv, &[a], y)?;
/// n.mark_output(y)?;
///
/// let library = CellLibrary::calibrated_018um();
/// let mut sim = PackedSimulator::new(&n, &library, 64)?;
/// // Lane 0 drives a=1, lane 1 drives a=0.
/// sim.step(&[0b01]);
/// assert_eq!(sim.output_words(), vec![!0b01_u64 & sim.lane_mask()]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PackedSimulator<'a> {
    netlist: &'a Netlist,
    schedule: EvalSchedule,
    nets: NetState,
    /// Stored per-lane state of sequential cells, indexed by schedule state
    /// slot.
    state: Vec<u64>,
    /// Scheduled cells that have ever seen an input change (in any lane),
    /// sorted by index (index order is level order).  The steady-state
    /// sweep evaluates exactly these.
    active_cells: Vec<u32>,
    /// Whether the first full-evaluation step has run.  Not reset by
    /// [`PackedSimulator::reset_counters`]: the circuit stays settled.
    settled: bool,
    /// Number of active lanes (1..=64).
    lanes: u32,
    /// Mask selecting the active lanes: low `lanes` bits set.
    lane_mask: u64,
    /// Measured lane-cycles since the last counter reset.
    lane_cycles: u64,
    /// Per-net energy tables shared with the scalar engine.
    tables: EnergyTables,
}

/// Everything a net write touches: lane words, toggle counts and the
/// activation sets.
#[derive(Debug, Clone)]
struct NetState {
    /// Current lane values of every net, one bit per lane.
    words: Vec<u64>,
    /// Toggles observed per net (summed over counted lanes) since the last
    /// counter reset.
    toggles: Vec<u64>,
    /// Membership flags for `active_cells` / `newly`.
    is_active: Vec<bool>,
    /// Cells activated since the last merge into `active_cells`.  Non-empty
    /// only on the rare steps when a previously quiet net first toggles.
    newly: Vec<u32>,
    /// Per net: all of the net's consumer cells are already active, so a
    /// flip needs no activation walk (set the first time the net flips,
    /// which activates every consumer).
    fanout_active: Vec<bool>,
}

impl NetState {
    /// Writes `word` to `net`, counting the flips in counted lanes and
    /// activating the net's consumer cells on its first flip.
    #[inline(always)]
    fn write(
        &mut self,
        schedule: &EvalSchedule,
        lane_mask: u64,
        count_mask: u64,
        net: u32,
        word: u64,
    ) {
        let idx = net as usize;
        let word = word & lane_mask;
        let flipped = self.words[idx] ^ word;
        if flipped == 0 {
            return;
        }
        self.words[idx] = word;
        self.toggles[idx] += u64::from((flipped & count_mask).count_ones());
        if !self.fanout_active[idx] {
            self.fanout_active[idx] = true;
            for &cell in schedule.load_cells(idx) {
                let c = cell as usize;
                if !self.is_active[c] {
                    self.is_active[c] = true;
                    self.newly.push(cell);
                }
            }
        }
    }

    /// Evaluates scheduled cell `cell` word-wide and writes its output.
    #[inline(always)]
    fn evaluate(&mut self, schedule: &EvalSchedule, lane_mask: u64, count_mask: u64, cell: usize) {
        let cell = schedule.cells[cell];
        let arity = cell.arity as usize;
        let mut words = [0_u64; 3];
        for (slot, &net) in words.iter_mut().zip(&cell.inputs[..arity]) {
            *slot = self.words[net as usize];
        }
        let previous = self.words[cell.output as usize];
        let value = cell.kind.evaluate_word(&words[..arity], previous);
        self.write(schedule, lane_mask, count_mask, cell.output, value);
    }
}

impl<'a> PackedSimulator<'a> {
    /// Validates `netlist`, compiles its [`EvalSchedule`] and creates a
    /// packed simulator with `lanes` independent lanes.
    ///
    /// All nets start at logic `0` in every lane, all flip-flops start
    /// cleared.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetlistError`] from [`EvalSchedule::new`].
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64`.
    pub fn new(
        netlist: &'a Netlist,
        library: &CellLibrary,
        lanes: u32,
    ) -> Result<Self, NetlistError> {
        assert!(
            (1..=64).contains(&lanes),
            "lane count must be in 1..=64, got {lanes}"
        );
        let schedule = EvalSchedule::new(netlist)?;
        let lane_mask = if lanes == 64 { !0 } else { (1 << lanes) - 1 };
        Ok(Self {
            netlist,
            nets: NetState {
                words: vec![0; netlist.net_count()],
                toggles: vec![0; netlist.net_count()],
                is_active: vec![false; schedule.cell_count()],
                newly: Vec::new(),
                fanout_active: vec![false; netlist.net_count()],
            },
            state: vec![0; schedule.state_slots()],
            active_cells: Vec::new(),
            settled: false,
            lanes,
            lane_mask,
            lane_cycles: 0,
            tables: EnergyTables::new(netlist, library),
            schedule,
        })
    }

    /// Number of active lanes.
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Mask with one bit set per active lane (bits `0..lanes`).
    #[must_use]
    pub fn lane_mask(&self) -> u64 {
        self.lane_mask
    }

    /// Measured lane-cycles since the last counter reset (the sum over
    /// steps of the number of counted lanes in that step).
    #[must_use]
    pub fn lane_cycles(&self) -> u64 {
        self.lane_cycles
    }

    /// Simulates one clock cycle in every active lane, counting activity in
    /// all of them.
    ///
    /// The order of `inputs` matches [`Netlist::primary_inputs`]; bit `L` of
    /// `inputs[i]` is the value of primary input `i` in lane `L`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn step(&mut self, inputs: &[u64]) {
        self.step_masked(inputs, self.lane_mask);
    }

    /// Simulates one clock cycle in every active lane, but only counts
    /// toggles, lane-cycles, clock and leakage for lanes selected by
    /// `count_mask`.
    ///
    /// All lanes still *evolve* (state advances) regardless of the mask;
    /// masking only excludes lanes from the measurement. This is how a
    /// measurement total that is not a multiple of the lane count is
    /// realised: a final partial step counts only the remainder lanes.
    ///
    /// The first step evaluates every cell: the all-zero reset words are
    /// not yet consistent with the cell functions.  Later steps sweep only
    /// the *active* cells, in level order.  On the rare step that activates
    /// a new cell (a quiet net's first toggle), the sweep stops and falls
    /// back to one full level-ordered walk.  The walk is idempotent for
    /// every cell already evaluated this step (unchanged inputs reproduce
    /// the same word, so no toggle is double-counted) and evaluates the
    /// newly activated cells in level order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn step_masked(&mut self, inputs: &[u64], count_mask: u64) {
        assert_eq!(
            inputs.len(),
            self.netlist.primary_inputs().len(),
            "expected {} primary-input words, got {}",
            self.netlist.primary_inputs().len(),
            inputs.len()
        );
        let lane_mask = self.lane_mask;
        let count_mask = count_mask & lane_mask;
        self.lane_cycles += u64::from(count_mask.count_ones());
        let schedule = &self.schedule;
        let nets = &mut self.nets;
        let first = !self.settled;
        self.settled = true;

        // 1. Drive primary inputs, constants and sequential outputs.
        for &(net, pi) in &schedule.input_drives {
            nets.write(schedule, lane_mask, count_mask, net, inputs[pi as usize]);
        }
        for &(net, value) in &schedule.constant_drives {
            let word = if value { lane_mask } else { 0 };
            nets.write(schedule, lane_mask, count_mask, net, word);
        }
        for &(net, slot) in &schedule.seq_drives {
            nets.write(
                schedule,
                lane_mask,
                count_mask,
                net,
                self.state[slot as usize],
            );
        }

        // 2. Evaluate combinational logic word-wide, in level order.
        let mut full_walk = first || !nets.newly.is_empty();
        if !full_walk {
            for &cell in &self.active_cells {
                nets.evaluate(schedule, lane_mask, count_mask, cell as usize);
                // A quiet net toggled for the first time: its newly
                // activated consumers sit at strictly higher levels than
                // everything swept so far, so every evaluation up to here
                // used correct inputs.
                if !nets.newly.is_empty() {
                    full_walk = true;
                    break;
                }
            }
        }
        if full_walk {
            for cell in 0..schedule.cells.len() {
                nets.evaluate(schedule, lane_mask, count_mask, cell);
            }
        }
        if !nets.newly.is_empty() {
            self.active_cells.append(&mut nets.newly);
            self.active_cells.sort_unstable();
        }

        // 3. Capture the next state of sequential cells (D sampled at the
        //    end of the cycle, visible on Q at the start of the next cycle).
        for &(slot, d) in &schedule.seq_captures {
            self.state[slot as usize] = nets.words[d as usize];
        }
    }

    /// Current lane words of the primary outputs, in declaration order.
    #[must_use]
    pub fn output_words(&self) -> Vec<u64> {
        self.netlist
            .primary_outputs()
            .iter()
            .map(|&n| self.net_word(n))
            .collect()
    }

    /// Current lane word of an arbitrary net.
    #[must_use]
    pub fn net_word(&self, net: NetId) -> u64 {
        self.nets.words[net.index()]
    }

    /// Toggle counts per net (summed over counted lanes) since the last
    /// counter reset, indexed by net.
    #[must_use]
    pub fn net_toggle_counts(&self) -> &[u64] {
        &self.nets.toggles
    }

    /// Snapshot of the accumulated activity and energy.
    ///
    /// `cycles` in the returned report is the number of measured
    /// *lane-cycles*, so per-cycle clock/leakage totals line up with a
    /// scalar run of the same total cycle count.
    #[must_use]
    pub fn report(&self) -> ActivityReport {
        self.tables
            .report_from_counts(&self.nets.toggles, self.lane_cycles)
    }

    /// Resets activity counters (but keeps the current logic state), so a
    /// warm-up phase can be excluded from measurements.
    pub fn reset_counters(&mut self) {
        self.lane_cycles = 0;
        self.nets.toggles.fill(0);
    }

    /// Resets the simulator to its freshly-constructed state: all lane words
    /// and sequential state back to zero, counters cleared.
    ///
    /// A reset simulator is observably identical to a newly constructed
    /// one: the first step after a reset re-evaluates every cell, exactly
    /// like a fresh instance.  The activation sets are deliberately *kept*.
    /// Activity skipping is monotone-safe (evaluating an already-active cell
    /// whose inputs did not change reproduces its word and counts nothing),
    /// so a warm active set only affects speed, never results.  This makes
    /// one simulator reusable across independent measurements without paying
    /// construction cost per run.
    pub fn reset(&mut self) {
        self.nets.words.fill(0);
        self.state.fill(0);
        self.reset_counters();
        self.settled = false;
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of `a[r]` moves to bit
/// `r` of `a[c]`.
///
/// This is the bridge between lane-major data (one word per lane, e.g. a
/// random payload drawn per lane) and the net-major layout the packed
/// simulator wants (one word per net, one bit per lane): transposing a
/// block of 64 lane payload words yields, for each payload bit position,
/// the `u64` to drive into that bit's input net.  Recursive block-swap
/// (Hacker's Delight §7-3), ~6·64 word operations instead of 64×64
/// single-bit moves.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32_usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellKind;
    use crate::sim::Simulator;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn transpose64_matches_naive_definition() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7A05);
        for _ in 0..16 {
            let mut a = [0_u64; 64];
            for word in &mut a {
                *word = rng.gen::<u64>();
            }
            let mut expected = [0_u64; 64];
            for (r, &row) in a.iter().enumerate() {
                for (c, out) in expected.iter_mut().enumerate() {
                    *out |= ((row >> c) & 1) << r;
                }
            }
            let mut actual = a;
            transpose64(&mut actual);
            assert_eq!(actual, expected);
        }
    }

    #[test]
    fn transpose64_is_an_involution() {
        let mut a = [0_u64; 64];
        for (i, word) in a.iter_mut().enumerate() {
            *word = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        let original = a;
        transpose64(&mut a);
        transpose64(&mut a);
        assert_eq!(a, original);
    }

    fn xor_netlist() -> Netlist {
        let mut n = Netlist::new("xor");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_net("y");
        n.add_cell("u_xor", CellKind::Xor2, &[a, b], y).unwrap();
        n.mark_output(y).unwrap();
        n
    }

    #[test]
    fn packed_xor_matches_scalar_lanes() {
        let n = xor_netlist();
        let lib = CellLibrary::default();
        let lanes = 8_u32;
        let mut packed = PackedSimulator::new(&n, &lib, lanes).unwrap();
        let vectors: Vec<[u64; 2]> = vec![[0b1010_1010, 0b0110_0110], [0b0011_1100, 0b1111_0000]];
        for v in &vectors {
            packed.step(v);
        }

        let mut summed = vec![0_u64; n.net_count()];
        let mut scalar_cycles = 0_u64;
        for lane in 0..lanes {
            let mut scalar = Simulator::new(&n, &lib).unwrap();
            for v in &vectors {
                let bits: Vec<bool> = v.iter().map(|word| (word >> lane) & 1 == 1).collect();
                scalar.step(&bits);
            }
            for (acc, &c) in summed.iter_mut().zip(scalar.net_toggle_counts()) {
                *acc += c;
            }
            scalar_cycles += scalar.report().cycles;
        }

        assert_eq!(packed.net_toggle_counts(), &summed[..]);
        assert_eq!(packed.lane_cycles(), scalar_cycles);
        // Identical counts ⇒ bit-identical energies through the shared tables.
        let oracle = packed.tables.report_from_counts(&summed, scalar_cycles);
        assert_eq!(packed.report(), oracle);
    }

    #[test]
    fn dff_state_is_per_lane() {
        let mut n = Netlist::new("pipe");
        let d = n.add_input("d");
        let q = n.add_net("q");
        n.add_cell("u_ff", CellKind::Dff, &[d], q).unwrap();
        n.mark_output(q).unwrap();
        let lib = CellLibrary::default();
        let mut sim = PackedSimulator::new(&n, &lib, 4).unwrap();
        sim.step(&[0b0101]);
        // Q still shows the reset value during the first cycle.
        assert_eq!(sim.output_words(), vec![0]);
        sim.step(&[0b0000]);
        // Now Q shows the per-lane values captured at the end of cycle 1.
        assert_eq!(sim.output_words(), vec![0b0101]);
        sim.step(&[0b0000]);
        assert_eq!(sim.output_words(), vec![0]);
    }

    #[test]
    fn tri_state_holds_per_lane() {
        let mut n = Netlist::new("bus");
        let a = n.add_input("a");
        let en = n.add_input("en");
        let y = n.add_net("y");
        n.add_cell("u_tri", CellKind::TriBuf, &[a, en], y).unwrap();
        n.mark_output(y).unwrap();
        let lib = CellLibrary::default();
        let mut sim = PackedSimulator::new(&n, &lib, 2).unwrap();
        // Lane 0: enabled with a=1. Lane 1: enabled with a=0.
        sim.step(&[0b01, 0b11]);
        assert_eq!(sim.output_words(), vec![0b01]);
        // Both lanes disabled with a flipped: outputs hold.
        sim.step(&[0b10, 0b00]);
        assert_eq!(sim.output_words(), vec![0b01]);
    }

    #[test]
    fn masked_lanes_evolve_but_do_not_count() {
        let n = xor_netlist();
        let lib = CellLibrary::default();
        let mut sim = PackedSimulator::new(&n, &lib, 2).unwrap();
        // Count only lane 0; lane 1 toggles a and y but must not be counted.
        sim.step_masked(&[0b10, 0b00], 0b01);
        assert_eq!(sim.lane_cycles(), 1);
        let toggles: u64 = sim.net_toggle_counts().iter().sum();
        assert_eq!(toggles, 0, "lane 1 activity leaked into the counts");
        // Lane 1's state did evolve: its output is high.
        assert_eq!(sim.output_words(), vec![0b10]);
        // A fully counted step that returns lane 1 to 0 counts those toggles.
        sim.step(&[0b00, 0b00]);
        assert_eq!(sim.lane_cycles(), 3);
        let toggles: u64 = sim.net_toggle_counts().iter().sum();
        assert_eq!(toggles, 2, "a and y fall in lane 1");
    }

    #[test]
    fn lanes_above_the_mask_are_ignored() {
        let n = xor_netlist();
        let lib = CellLibrary::default();
        let mut sim = PackedSimulator::new(&n, &lib, 2).unwrap();
        // Garbage bits above the lane mask must not reach state or counts.
        sim.step(&[!0b01, 0b00]);
        assert_eq!(sim.output_words(), vec![0b10]);
        assert_eq!(sim.lane_cycles(), 2);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn zero_lanes_panics() {
        let n = xor_netlist();
        let lib = CellLibrary::default();
        let _ = PackedSimulator::new(&n, &lib, 0);
    }

    #[test]
    fn reset_counters_keeps_state() {
        let n = xor_netlist();
        let lib = CellLibrary::default();
        let mut sim = PackedSimulator::new(&n, &lib, 64).unwrap();
        sim.step(&[!0_u64, 0]);
        sim.reset_counters();
        assert_eq!(sim.lane_cycles(), 0);
        assert_eq!(sim.report().toggles, 0);
        // State preserved: same vector again causes no toggles.
        sim.step(&[!0_u64, 0]);
        assert_eq!(sim.report().toggles, 0);
    }

    #[test]
    fn scheduled_packed_matches_walk_packed_bit_exactly() {
        // A generated switch, many levels deep, swept by the level schedule
        // with its quiet-cone skipping, against one scalar walk per lane.
        // Masked steps, the first one included, count only some lanes.
        let circuit = crate::circuits::banyan_binary_switch(8).unwrap();
        let n = &circuit.netlist;
        let lib = CellLibrary::default();
        let lanes = 37_u32;
        let mut rng = ChaCha8Rng::seed_from_u64(0xDAC_2002);
        let mut packed = PackedSimulator::new(n, &lib, lanes).unwrap();
        let mut walks: Vec<Simulator<'_>> = (0..lanes)
            .map(|_| Simulator::new(n, &lib).unwrap())
            .collect();
        let mut summed = vec![0_u64; n.net_count()];
        let mut lane_cycles = 0_u64;
        for cycle in 0..24 {
            let vector: Vec<u64> = (0..n.primary_inputs().len())
                .map(|_| rng.gen::<u64>())
                .collect();
            let mask = if cycle % 5 == 0 {
                0x5_0505_0505
            } else {
                packed.lane_mask()
            };
            packed.step_masked(&vector, mask);
            let mut expected = vec![0_u64; n.primary_outputs().len()];
            for (lane, walk) in walks.iter_mut().enumerate() {
                let before = walk.net_toggle_counts().to_vec();
                let bits: Vec<bool> = vector.iter().map(|w| (w >> lane) & 1 == 1).collect();
                walk.step(&bits);
                if (mask >> lane) & 1 == 1 {
                    for ((acc, &now), &was) in
                        summed.iter_mut().zip(walk.net_toggle_counts()).zip(&before)
                    {
                        *acc += now - was;
                    }
                    lane_cycles += 1;
                }
                for (word, value) in expected.iter_mut().zip(walk.output_values()) {
                    *word |= u64::from(value) << lane;
                }
            }
            assert_eq!(packed.output_words(), expected, "cycle {cycle}");
        }
        assert_eq!(packed.net_toggle_counts(), &summed[..]);
        assert_eq!(packed.lane_cycles(), lane_cycles);
        assert_eq!(
            packed.report(),
            packed.tables.report_from_counts(&summed, lane_cycles)
        );
    }
}
