//! The reusable per-tick switching core of one router.
//!
//! [`RouterNode`] is the per-cycle body of the router: accept injected
//! packets, arbitrate head-of-line packets onto free egress ports, resolve
//! interconnect contention, push one payload word per in-flight packet while
//! charging switch/wire/buffer energy, and hand back the packets that
//! finished crossing the fabric this cycle.  Traffic is *injected*
//! ([`RouterNode::inject`]) rather than self-generated, so the same core
//! serves both the single-router driver (`RouterSimulator`, which feeds it
//! from a `TrafficGenerator`) and a network node (`fabric-power-noc`, which
//! feeds it from inter-router links).
//!
//! The node knows nothing about warmup windows, latency bookkeeping or
//! traffic patterns: the driver owns the clock and calls
//! [`RouterNode::step`] once per cycle, then interprets the completions it
//! moved into the caller's buffer (recording end-to-end latency, or
//! forwarding the packet to its next hop).
//!
//! # Dense state
//!
//! All per-cycle state lives in vectors sized once in [`RouterNode::new`],
//! so a cycle allocates nothing and hashes nothing:
//!
//! * node switches are numbered by [`FabricTopology::element_slot`] and
//!   links by [`FabricTopology::link_slot`] (ids `0..ports` are the ingress
//!   segments); per-link polarity state and per-element buffer occupancy are
//!   plain `Vec<u64>`s indexed by them;
//! * contention claims are epoch-stamped (a link is claimed this cycle iff
//!   its stamp equals the cycle's epoch), and the per-element occupancy the
//!   switch LUT is indexed with is reset through a list of the slots touched;
//! * each input port feeds at most one flow, so the granted flow's path is
//!   written, as compact dense hops, into that input's reusable slot;
//! * the switch energy charged per hop, `E_S(k) · bus_width / k` (or
//!   `E_S(1) · bus_width · N` on a crossbar row), is precomputed once per
//!   (switch class, charged inputs) for every occupancy `k`.  It is the same
//!   expression the LUT lookup evaluates, and the per-cycle sums are taken
//!   in the same order, so every energy keeps its bits.
//!
//! # Arbitration in O(ports)
//!
//! The arbiter visits outputs in ascending order and grants each free
//! output to the first free input, in round-robin order from the output's
//! grant pointer, whose head-of-line packet is addressed to it.  An input's
//! head packet has exactly one destination, so no two outputs ever compete
//! for the same input within a cycle: each output's winner is simply the
//! requesting input at the smallest distance `(input − pointer) mod ports`.
//! One pass over the inputs finds those winners and a second pass grants
//! them in ascending output order, so flows enter in the same order as an
//! output-by-input scan would grant them.

use std::collections::VecDeque;
use std::sync::Arc;

use fabric_power_fabric::energy_model::FabricEnergyModel;
use fabric_power_fabric::topology::{FabricTopology, RoutePath, SwitchClass};
use fabric_power_fabric::Architecture;
use fabric_power_tech::units::Energy;
use fabric_power_tech::wire::polarity_flips;

use crate::energy::EnergyAccount;
use crate::packet::Packet;
use crate::sim::SimulationError;

/// One hop of a granted flow's path, in dense indices.
#[derive(Debug, Clone, Copy)]
struct Hop {
    /// The node switch traversed ([`FabricTopology::element_slot`]).
    element: u32,
    /// The link driven after it ([`FabricTopology::link_slot`]).
    link: u32,
    /// Row of [`RouterNode::switch_energy`] charged at this hop.
    class: u32,
    /// Thompson grids of that link.
    grids: u32,
    /// Whether losing the link to contention parks the word in a buffer.
    bufferable: bool,
}

/// The path of the flow an input port currently feeds.
#[derive(Debug)]
struct PathSlot {
    /// Thompson grids of the ingress segment.
    wire_grids_before: u32,
    /// Whether any hop can suffer interconnect contention.
    contendable: bool,
    hops: Vec<Hop>,
}

/// Per-bit-slot switch energy of one (switch class, charged inputs) pair,
/// indexed by the element's occupancy `k` (entry 0 repeats entry 1).
#[derive(Debug)]
struct SwitchEnergyRow {
    class: SwitchClass,
    charged_inputs: usize,
    by_occupancy: Vec<Energy>,
}

/// One packet currently crossing the fabric.
#[derive(Debug)]
struct ActiveFlow {
    packet: Packet,
    /// The input port feeding the flow; its [`PathSlot`] holds the path.
    input: usize,
    words_delivered: usize,
    /// Words currently parked in a node buffer because of contention.
    backlog: u64,
    /// The element slot the backlog is parked at (first contended hop).
    backlog_element: Option<u32>,
    blocked: bool,
}

impl ActiveFlow {
    fn is_complete(&self) -> bool {
        self.words_delivered >= self.packet.words()
    }
}

/// The per-tick switching core of one router: input queues, the
/// first-come-first-serve round-robin arbiter, the in-fabric flows with
/// their per-link polarity state, and the three-component energy account.
#[derive(Debug)]
pub struct RouterNode {
    ports: usize,
    node_buffer_bits: u64,
    /// Shared immutable energy model (one per distinct node configuration,
    /// [`Arc`]-shared across nodes and worker threads).
    model: Arc<FabricEnergyModel>,
    topology: FabricTopology,

    input_queues: Vec<VecDeque<Packet>>,
    input_busy: Vec<bool>,
    output_busy: Vec<bool>,
    grant_pointer: Vec<usize>,
    /// Per output: the input that wins it this cycle, `usize::MAX` if none.
    candidate: Vec<usize>,
    flows: Vec<ActiveFlow>,
    /// Per input: the path of the flow it feeds.
    paths: Vec<PathSlot>,
    /// Scratch path [`FabricTopology::route_into`] writes a grant's route to.
    route: RoutePath,

    /// Per link: the last word driven on it.
    link_last_word: Vec<u64>,
    /// Per link: the epoch of the cycle that last claimed it.
    link_claim: Vec<u64>,
    epoch: u64,
    /// Per element: words parked in its buffer.
    node_buffer_words: Vec<u64>,
    /// Per element: flows transmitting through it this cycle.
    occupancy: Vec<u32>,
    /// Elements whose occupancy is non-zero this cycle.
    occupied: Vec<u32>,

    switch_energy: Vec<SwitchEnergyRow>,
    bus_width_bits: u64,
    word_mask: u64,
    grid_bit_energy: Energy,
    /// Buffer energy of one parked word (`E_B_bit · bus_width`).
    buffer_word_energy: Energy,

    measuring: bool,
    words_delivered: u64,
    buffered_words: u64,
    buffer_overflow_cycles: u64,
    energy: EnergyAccount,
}

impl RouterNode {
    /// Creates a node for the given fabric architecture and port count.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`] if the port count is invalid for the
    /// architecture or does not match the energy model.
    pub fn new(
        architecture: Architecture,
        ports: usize,
        node_buffer_bits: u64,
        model: Arc<FabricEnergyModel>,
    ) -> Result<Self, SimulationError> {
        if model.ports() != ports {
            return Err(SimulationError::PortMismatch {
                config_ports: ports,
                model_ports: model.ports(),
            });
        }
        let topology = FabricTopology::new(architecture, ports)?;
        let stages = topology.stage_count();
        let bus_width_bits = model.bus_width_bits();
        Ok(Self {
            ports,
            node_buffer_bits,
            input_queues: vec![VecDeque::new(); ports],
            input_busy: vec![false; ports],
            output_busy: vec![false; ports],
            grant_pointer: vec![0; ports],
            candidate: vec![usize::MAX; ports],
            flows: Vec::with_capacity(ports),
            paths: (0..ports)
                .map(|_| PathSlot {
                    wire_grids_before: 0,
                    contendable: false,
                    hops: Vec::with_capacity(stages),
                })
                .collect(),
            route: RoutePath {
                wire_grids_before: 0,
                hops: Vec::with_capacity(stages),
            },
            link_last_word: vec![0; topology.link_slots()],
            link_claim: vec![0; topology.link_slots()],
            epoch: 0,
            node_buffer_words: vec![0; topology.element_count()],
            occupancy: vec![0; topology.element_count()],
            occupied: Vec::new(),
            switch_energy: Vec::new(),
            bus_width_bits: u64::from(bus_width_bits),
            word_mask: if bus_width_bits >= 64 {
                u64::MAX
            } else {
                (1_u64 << bus_width_bits) - 1
            },
            grid_bit_energy: model.grid_bit_energy(),
            buffer_word_energy: model.buffer_bit_energy() * f64::from(bus_width_bits),
            measuring: false,
            words_delivered: 0,
            buffered_words: 0,
            buffer_overflow_cycles: 0,
            energy: EnergyAccount::new(),
            model,
            topology,
        })
    }

    /// Number of switch-fabric ports.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The energy model this node charges against.
    #[must_use]
    pub fn model(&self) -> &FabricEnergyModel {
        &self.model
    }

    /// Enqueues a packet at an input port.  The packet's `source` and
    /// `destination` are *local* port indices on this node; a network layer
    /// rewrites them per hop.
    ///
    /// # Panics
    ///
    /// Panics if `port` or the packet's destination is not a port of this
    /// node.
    pub fn inject(&mut self, port: usize, packet: Packet) {
        assert!(
            packet.destination < self.ports,
            "destination port {} out of range",
            packet.destination
        );
        self.input_queues[port].push_back(packet);
    }

    /// Packets currently waiting in the given input queue (head-of-line
    /// packet included, in-fabric flows excluded).  Network links use this
    /// for backpressure.
    #[must_use]
    pub fn input_queue_len(&self, port: usize) -> usize {
        self.input_queues[port].len()
    }

    /// Starts the measurement window: zeroes the delivered-word, buffering
    /// and energy accounts.  In-flight state (queues, flows, per-link
    /// polarity) is deliberately kept — warmup exists precisely to populate
    /// it.
    pub fn begin_measurement(&mut self) {
        self.measuring = true;
        self.words_delivered = 0;
        self.buffered_words = 0;
        self.buffer_overflow_cycles = 0;
        self.energy = EnergyAccount::new();
    }

    /// Payload words that left through egress ports during the measurement
    /// window.
    #[must_use]
    pub fn words_delivered(&self) -> u64 {
        self.words_delivered
    }

    /// Words parked in node buffers by interconnect contention during the
    /// measurement window.
    #[must_use]
    pub fn buffered_words(&self) -> u64 {
        self.buffered_words
    }

    /// Blocked words parked in a node buffer beyond its configured capacity
    /// during the measurement window — a word count, not a cycle count.
    #[must_use]
    pub fn buffer_overflow_cycles(&self) -> u64 {
        self.buffer_overflow_cycles
    }

    /// The switch/buffer/wire energy charged during the measurement window.
    #[must_use]
    pub fn energy(&self) -> EnergyAccount {
        self.energy
    }

    /// Runs one clock cycle — arbitration, contention resolution, word
    /// transmission, flow completion — and appends the packets that finished
    /// crossing the fabric this cycle to `completed`, in completion order.
    ///
    /// The caller owns the clock: `cycle` only seeds the rotating contention
    /// priority and is echoed nowhere else.
    pub fn step(&mut self, cycle: u64, completed: &mut Vec<Packet>) {
        self.arbitrate();
        self.resolve_contention(cycle);
        self.transmit();
        self.complete_flows(completed);
    }

    /// First-come-first-serve arbitration with a round-robin tie-break per
    /// egress port: destination contention is resolved here, before packets
    /// enter the fabric (paper §3.2).  See the module docs for why one pass
    /// over the inputs finds every output's winner.
    fn arbitrate(&mut self) {
        let ports = self.ports;
        self.candidate.fill(usize::MAX);
        for input in 0..ports {
            if self.input_busy[input] {
                continue;
            }
            let Some(head) = self.input_queues[input].front() else {
                continue;
            };
            let output = head.destination;
            if self.output_busy[output] {
                continue;
            }
            let pointer = self.grant_pointer[output];
            let distance = |input: usize| (input + ports - pointer) % ports;
            let current = self.candidate[output];
            if current == usize::MAX || distance(input) < distance(current) {
                self.candidate[output] = input;
            }
        }
        for output in 0..ports {
            let input = self.candidate[output];
            if input != usize::MAX {
                self.grant(input, output);
            }
        }
    }

    /// Moves `input`'s head packet into the fabric towards `output` and
    /// writes its path into the input's slot.
    fn grant(&mut self, input: usize, output: usize) {
        let packet = self.input_queues[input].pop_front().expect("head exists");
        self.topology.route_into(input, output, &mut self.route);
        let slot = &mut self.paths[input];
        slot.wire_grids_before = grids_u32(self.route.wire_grids_before);
        slot.contendable = false;
        slot.hops.clear();
        for hop in &self.route.hops {
            slot.contendable |= hop.buffered_on_contention;
            slot.hops.push(Hop {
                element: dense_u32(self.topology.element_slot(hop.element)),
                link: dense_u32(self.topology.link_slot(hop.element, hop.output_port)),
                class: switch_energy_row(
                    &mut self.switch_energy,
                    &self.model,
                    self.ports,
                    hop.class,
                    hop.charged_inputs,
                ),
                grids: grids_u32(hop.wire_grids_after),
                bufferable: hop.buffered_on_contention,
            });
        }
        self.flows.push(ActiveFlow {
            packet,
            input,
            words_delivered: 0,
            backlog: 0,
            backlog_element: None,
            blocked: false,
        });
        self.input_busy[input] = true;
        self.output_busy[output] = true;
        self.grant_pointer[output] = (input + 1) % self.ports;
    }

    /// Detects interconnect contention (internal blocking) for fabrics whose
    /// paths can share links — only the Banyan in the paper's set.  Flows are
    /// examined in a rotating priority order; a flow that cannot claim every
    /// link of its path is blocked for this cycle and its incoming word is
    /// absorbed by the node buffer at the first contended hop.
    fn resolve_contention(&mut self, cycle: u64) {
        for flow in &mut self.flows {
            flow.blocked = false;
        }
        if self.flows.is_empty() {
            return;
        }
        self.epoch += 1;
        let count = self.flows.len();
        let start = (cycle as usize) % count;
        for offset in 0..count {
            let index = (start + offset) % count;
            let flow = &mut self.flows[index];
            let path = &self.paths[flow.input];
            if flow.is_complete() || !path.contendable {
                continue;
            }
            let claimed = path
                .hops
                .iter()
                .find(|hop| hop.bufferable && self.link_claim[hop.link as usize] == self.epoch);
            if let Some(hop) = claimed {
                flow.blocked = true;
                // Parked words stay at the first contended hop until they
                // drain, so only an empty backlog moves to a new element.
                if flow.backlog == 0 {
                    flow.backlog_element = Some(hop.element);
                }
            } else {
                for hop in path.hops.iter().filter(|hop| hop.bufferable) {
                    self.link_claim[hop.link as usize] = self.epoch;
                }
            }
        }
    }

    /// Advances every flow by one word, charging energy as it goes.
    fn transmit(&mut self) {
        // Per-element occupancy of flows that transmit this cycle (the input
        // vector the node-switch LUT is indexed with).
        for flow in &self.flows {
            if flow.blocked || flow.is_complete() {
                continue;
            }
            for hop in &self.paths[flow.input].hops {
                let count = &mut self.occupancy[hop.element as usize];
                if *count == 0 {
                    self.occupied.push(hop.element);
                }
                *count += 1;
            }
        }

        let mut switch_energy = Energy::ZERO;
        let mut wire_energy = Energy::ZERO;
        let mut buffer_energy = Energy::ZERO;

        for flow in &mut self.flows {
            if flow.is_complete() {
                continue;
            }
            if flow.blocked {
                // The word arriving at the contended node this cycle is written
                // into (and will later be read back from) the node buffer.
                buffer_energy += self.buffer_word_energy;
                flow.backlog += 1;
                if self.measuring {
                    self.buffered_words += 1;
                }
                if let Some(element) = flow.backlog_element {
                    let parked = &mut self.node_buffer_words[element as usize];
                    *parked += 1;
                    if *parked * self.bus_width_bits > self.node_buffer_bits && self.measuring {
                        self.buffer_overflow_cycles += 1;
                    }
                }
                continue;
            }

            let word = flow.packet.payload[flow.words_delivered] & self.word_mask;
            let path = &self.paths[flow.input];

            // Wire energy: only bits that flip polarity on each interconnect
            // segment dissipate energy (paper Eq. 2).  Node-switch energy
            // comes from the input-vector LUT at the element's occupancy:
            // the LUT value is the whole switch's per-bit-slot energy, split
            // evenly between the packets sharing the switch so it is charged
            // exactly once (a crossbar row instead charges all N crosspoint
            // inputs, Eq. 3's N·E_S term).
            let previous = std::mem::replace(&mut self.link_last_word[flow.input], word);
            let flips = f64::from(polarity_flips(previous, word));
            wire_energy += self.grid_bit_energy * (flips * f64::from(path.wire_grids_before));
            for hop in &path.hops {
                let previous = std::mem::replace(&mut self.link_last_word[hop.link as usize], word);
                let flips = f64::from(polarity_flips(previous, word));
                wire_energy += self.grid_bit_energy * (flips * f64::from(hop.grids));
                let occupants = self.occupancy[hop.element as usize] as usize;
                switch_energy += self.switch_energy[hop.class as usize].by_occupancy[occupants];
            }

            // A word previously parked in the node buffer drains along with
            // this one (its read access was already charged on the write).
            if flow.backlog > 0 {
                flow.backlog -= 1;
                if let Some(element) = flow.backlog_element {
                    self.node_buffer_words[element as usize] -= 1;
                }
            }

            flow.words_delivered += 1;
            if self.measuring {
                self.words_delivered += 1;
            }
        }

        for element in self.occupied.drain(..) {
            self.occupancy[element as usize] = 0;
        }

        if self.measuring {
            self.energy.switches += switch_energy;
            self.energy.wires += wire_energy;
            self.energy.buffers += buffer_energy;
        }
    }

    /// Removes finished flows, frees their input/output ports and any words
    /// still parked for them, and moves their packets into `completed` in
    /// completion order.
    fn complete_flows(&mut self, completed: &mut Vec<Packet>) {
        let mut index = 0;
        while index < self.flows.len() {
            if self.flows[index].is_complete() {
                let flow = self.flows.remove(index);
                if let Some(element) = flow.backlog_element {
                    self.node_buffer_words[element as usize] -= flow.backlog;
                }
                self.input_busy[flow.input] = false;
                self.output_busy[flow.packet.destination] = false;
                completed.push(flow.packet);
            } else {
                index += 1;
            }
        }
    }
}

/// The row of `rows` for (`class`, `charged_inputs`), built on first use:
/// entry `k` is the energy one packet is charged per word at a switch with
/// `k` occupants.
fn switch_energy_row(
    rows: &mut Vec<SwitchEnergyRow>,
    model: &FabricEnergyModel,
    ports: usize,
    class: SwitchClass,
    charged_inputs: usize,
) -> u32 {
    if let Some(row) = rows
        .iter()
        .position(|row| row.class == class && row.charged_inputs == charged_inputs)
    {
        return dense_u32(row);
    }
    let bus_width = f64::from(model.bus_width_bits());
    let by_occupancy = (0..=ports)
        .map(|occupants| {
            if charged_inputs > 1 {
                model.switch_bit_energy(class, 1) * (bus_width * charged_inputs as f64)
            } else {
                let occupants = occupants.max(1);
                model.switch_bit_energy(class, occupants) * (bus_width / occupants as f64)
            }
        })
        .collect();
    rows.push(SwitchEnergyRow {
        class,
        charged_inputs,
        by_occupancy,
    });
    dense_u32(rows.len() - 1)
}

fn dense_u32(index: usize) -> u32 {
    u32::try_from(index).expect("dense fabric index fits in u32")
}

fn grids_u32(grids: u64) -> u32 {
    u32::try_from(grids).expect("wire length fits in u32 grids")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{TrafficGenerator, TrafficPattern};

    fn paper_model(ports: usize) -> Arc<FabricEnergyModel> {
        Arc::new(FabricEnergyModel::paper(ports).expect("paper model"))
    }

    /// Words parked in node buffers, and the backlog the live flows hold.
    fn parked_and_backlog(node: &RouterNode) -> (u64, u64) {
        let parked = node.node_buffer_words.iter().sum();
        let backlog = node.flows.iter().map(|flow| flow.backlog).sum();
        (parked, backlog)
    }

    #[test]
    fn parked_words_track_the_live_backlog_and_drain_to_zero() {
        for architecture in Architecture::ALL {
            for (ports, load) in [(4, 0.3), (32, 0.9)] {
                let mut node =
                    RouterNode::new(architecture, ports, 256, paper_model(ports)).unwrap();
                let mut traffic = TrafficGenerator::new(
                    ports,
                    load,
                    16,
                    TrafficPattern::UniformRandom,
                    229_384_194,
                );
                let mut completed = Vec::new();
                let mut cycle = 0;
                let busy = |node: &RouterNode| {
                    !node.flows.is_empty() || node.input_queues.iter().any(|q| !q.is_empty())
                };
                while cycle < 1500 || busy(&node) {
                    if cycle < 1500 {
                        for port in 0..ports {
                            if let Some(packet) = traffic.arrivals(port, cycle) {
                                node.inject(port, packet);
                            }
                        }
                    }
                    node.step(cycle, &mut completed);
                    let (parked, backlog) = parked_and_backlog(&node);
                    assert_eq!(parked, backlog, "{architecture} x{ports} cycle {cycle}");
                    cycle += 1;
                    assert!(cycle < 1_000_000, "{architecture} x{ports} never drains");
                }
                assert_eq!(parked_and_backlog(&node), (0, 0), "{architecture} x{ports}");
            }
        }
    }
}
