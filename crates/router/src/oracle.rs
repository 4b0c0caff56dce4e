//! The HashMap-keyed router tick, kept verbatim as the reference oracle the
//! dense [`crate::node::RouterNode`] is property-tested against: per-link and
//! per-element state keyed by hashed [`LinkKey`]/[`ElementId`], a ports²
//! arbitration scan, a fresh [`RoutePath`] per grant and a cloned packet per
//! completion.

#![allow(dead_code)]

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use fabric_power_fabric::energy_model::FabricEnergyModel;
use fabric_power_fabric::topology::{ElementId, FabricTopology, RoutePath};
use fabric_power_fabric::Architecture;
use fabric_power_tech::wire::polarity_flips;

use crate::energy::EnergyAccount;
use crate::packet::Packet;
use crate::sim::SimulationError;

/// A link inside the fabric, used to track per-wire polarity state and to
/// detect interconnect contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LinkKey {
    /// The dedicated ingress segment of one input port.
    Ingress(usize),
    /// The output link of a node switch.
    Hop(ElementId, usize),
}

/// One packet currently crossing the fabric.
#[derive(Debug, Clone)]
struct ActiveFlow {
    packet: Packet,
    path: RoutePath,
    words_delivered: usize,
    /// Words currently parked in a node buffer because of contention.
    backlog: u64,
    /// The node the backlog is parked at (first contended hop).
    backlog_element: Option<ElementId>,
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
    flows: Vec<ActiveFlow>,
    link_last_word: HashMap<LinkKey, u64>,
    node_buffer_words: HashMap<ElementId, u64>,

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
        Ok(Self {
            ports,
            node_buffer_bits,
            model,
            topology,
            input_queues: vec![VecDeque::new(); ports],
            input_busy: vec![false; ports],
            output_busy: vec![false; ports],
            grant_pointer: vec![0; ports],
            flows: Vec::new(),
            link_last_word: HashMap::new(),
            node_buffer_words: HashMap::new(),
            measuring: false,
            words_delivered: 0,
            buffered_words: 0,
            buffer_overflow_cycles: 0,
            energy: EnergyAccount::new(),
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
    pub fn inject(&mut self, port: usize, packet: Packet) {
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
    /// transmission, flow completion — and returns the packets that finished
    /// crossing the fabric this cycle, in completion order.
    ///
    /// The caller owns the clock: `cycle` only seeds the rotating contention
    /// priority and is echoed nowhere else.
    pub fn step(&mut self, cycle: u64) -> Vec<Packet> {
        self.arbitrate();
        self.resolve_contention(cycle);
        self.transmit();
        self.complete_flows()
    }

    /// First-come-first-serve arbitration with a round-robin tie-break per
    /// egress port: destination contention is resolved here, before packets
    /// enter the fabric (paper §3.2).
    fn arbitrate(&mut self) {
        let ports = self.ports;
        for output in 0..ports {
            if self.output_busy[output] {
                continue;
            }
            let start = self.grant_pointer[output];
            for offset in 0..ports {
                let input = (start + offset) % ports;
                if self.input_busy[input] {
                    continue;
                }
                let Some(head) = self.input_queues[input].front() else {
                    continue;
                };
                if head.destination != output {
                    continue;
                }
                let packet = self.input_queues[input].pop_front().expect("head exists");
                let path = self.topology.route(input, output);
                self.flows.push(ActiveFlow {
                    packet,
                    path,
                    words_delivered: 0,
                    backlog: 0,
                    backlog_element: None,
                    blocked: false,
                });
                self.input_busy[input] = true;
                self.output_busy[output] = true;
                self.grant_pointer[output] = (input + 1) % ports;
                break;
            }
        }
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
        let mut claimed: HashMap<LinkKey, usize> = HashMap::new();
        let count = self.flows.len();
        let start = (cycle as usize) % count;
        for offset in 0..count {
            let index = (start + offset) % count;
            let flow = &self.flows[index];
            if flow.is_complete() {
                continue;
            }
            let contendable = flow.path.hops.iter().any(|h| h.buffered_on_contention);
            if !contendable {
                continue;
            }
            let mut blocking_element = None;
            for hop in flow.path.hops.iter().filter(|h| h.buffered_on_contention) {
                let key = LinkKey::Hop(hop.element, hop.output_port);
                if claimed.contains_key(&key) {
                    blocking_element = Some(hop.element);
                    break;
                }
            }
            if let Some(element) = blocking_element {
                let flow = &mut self.flows[index];
                flow.blocked = true;
                if flow.backlog == 0 {
                    flow.backlog_element = Some(element);
                }
            } else {
                for hop in self.flows[index]
                    .path
                    .hops
                    .iter()
                    .filter(|h| h.buffered_on_contention)
                {
                    claimed.insert(LinkKey::Hop(hop.element, hop.output_port), index);
                }
            }
        }
    }

    /// Advances every flow by one word, charging energy as it goes.
    fn transmit(&mut self) {
        let bus_width = f64::from(self.model.bus_width_bits());
        let word_mask = if self.model.bus_width_bits() >= 64 {
            u64::MAX
        } else {
            (1_u64 << self.model.bus_width_bits()) - 1
        };

        // Per-element occupancy of flows that transmit this cycle (the input
        // vector the node-switch LUT is indexed with).
        let mut occupancy: HashMap<ElementId, usize> = HashMap::new();
        for flow in &self.flows {
            if flow.blocked || flow.is_complete() {
                continue;
            }
            for hop in &flow.path.hops {
                *occupancy.entry(hop.element).or_insert(0) += 1;
            }
        }

        let mut switch_energy = fabric_power_tech::units::Energy::ZERO;
        let mut wire_energy = fabric_power_tech::units::Energy::ZERO;
        let mut buffer_energy = fabric_power_tech::units::Energy::ZERO;

        for flow in &mut self.flows {
            if flow.is_complete() {
                continue;
            }
            if flow.blocked {
                // The word arriving at the contended node this cycle is written
                // into (and will later be read back from) the node buffer.
                buffer_energy += self.model.buffer_bit_energy() * bus_width;
                flow.backlog += 1;
                if self.measuring {
                    self.buffered_words += 1;
                }
                if let Some(element) = flow.backlog_element {
                    let entry = self.node_buffer_words.entry(element).or_insert(0);
                    *entry += 1;
                    if *entry * u64::from(self.model.bus_width_bits()) > self.node_buffer_bits
                        && self.measuring
                    {
                        self.buffer_overflow_cycles += 1;
                    }
                }
                continue;
            }

            let word = flow.packet.payload[flow.words_delivered] & word_mask;

            // Wire energy: only bits that flip polarity on each interconnect
            // segment dissipate energy (paper Eq. 2).
            let ingress_key = LinkKey::Ingress(flow.packet.source);
            let previous = self.link_last_word.insert(ingress_key, word).unwrap_or(0);
            let flips = f64::from(polarity_flips(previous, word));
            wire_energy +=
                self.model.grid_bit_energy() * (flips * flow.path.wire_grids_before as f64);
            for hop in &flow.path.hops {
                let key = LinkKey::Hop(hop.element, hop.output_port);
                let previous = self.link_last_word.insert(key, word).unwrap_or(0);
                let flips = f64::from(polarity_flips(previous, word));
                wire_energy += self.model.grid_bit_energy() * (flips * hop.wire_grids_after as f64);
            }

            // Node-switch energy from the input-vector LUT.
            for hop in &flow.path.hops {
                if hop.charged_inputs > 1 {
                    // Crossbar row: the bit toggles the inputs of all N
                    // crosspoints (Eq. 3's N·E_S term).
                    switch_energy += self.model.switch_bit_energy(hop.class, 1)
                        * (bus_width * hop.charged_inputs as f64);
                } else {
                    let occupants = occupancy.get(&hop.element).copied().unwrap_or(1).max(1);
                    // The LUT value is the whole switch's per-bit-slot energy
                    // under that occupancy; split it evenly between the
                    // packets sharing the switch so it is charged exactly once.
                    switch_energy += self.model.switch_bit_energy(hop.class, occupants)
                        * (bus_width / occupants as f64);
                }
            }

            // A word previously parked in the node buffer drains along with
            // this one (its read access was already charged on the write).
            if flow.backlog > 0 {
                flow.backlog -= 1;
                if let Some(element) = flow.backlog_element {
                    if let Some(entry) = self.node_buffer_words.get_mut(&element) {
                        *entry = entry.saturating_sub(1);
                    }
                }
            }

            flow.words_delivered += 1;
            if self.measuring {
                self.words_delivered += 1;
            }
        }

        if self.measuring {
            self.energy.switches += switch_energy;
            self.energy.wires += wire_energy;
            self.energy.buffers += buffer_energy;
        }
    }

    /// Removes finished flows, frees their input/output ports, and returns
    /// their packets in completion order.
    fn complete_flows(&mut self) -> Vec<Packet> {
        let mut completed = Vec::new();
        let node_buffer_words = &mut self.node_buffer_words;
        self.flows.retain(|flow| {
            if flow.is_complete() {
                if let Some(element) = flow.backlog_element {
                    *node_buffer_words.entry(element).or_insert(0) -= flow.backlog;
                }
                completed.push(flow.packet.clone());
                false
            } else {
                true
            }
        });
        for packet in &completed {
            self.input_busy[packet.source] = false;
            self.output_busy[packet.destination] = false;
        }
        completed
    }
}

mod tests {
    use super::RouterNode as HashMapNode;
    use crate::node::RouterNode;
    use crate::traffic::{TrafficGenerator, TrafficPattern};
    use fabric_power_fabric::energy_model::FabricEnergyModel;
    use fabric_power_fabric::Architecture;
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn dense_node_matches_the_hashmap_oracle(
            architecture in 0_usize..4,
            log_ports in 1_u32..=5,
            load in 0.05_f64..=1.0,
            packet_words in 1_usize..=20,
            buffer_words in 1_u64..=6,
            cycles in 40_u64..=300,
            measure_fraction in 0.0_f64..1.0,
            seed in any::<u64>(),
        ) {
            let architecture = Architecture::ALL[architecture];
            let ports = 1 << log_ports;
            let model = Arc::new(FabricEnergyModel::paper(ports).unwrap());
            let buffer_bits = buffer_words * u64::from(model.bus_width_bits());
            let mut dense =
                RouterNode::new(architecture, ports, buffer_bits, Arc::clone(&model)).unwrap();
            let mut reference =
                HashMapNode::new(architecture, ports, buffer_bits, model).unwrap();
            let mut traffic = TrafficGenerator::new(
                ports,
                load,
                packet_words,
                TrafficPattern::UniformRandom,
                seed,
            );
            let measure_at = (cycles as f64 * measure_fraction) as u64;
            let mut completed = Vec::new();
            for cycle in 0..cycles {
                if cycle == measure_at {
                    dense.begin_measurement();
                    reference.begin_measurement();
                }
                for port in 0..ports {
                    if let Some(packet) = traffic.arrivals(port, cycle) {
                        reference.inject(port, packet.clone());
                        dense.inject(port, packet);
                    }
                }
                completed.clear();
                dense.step(cycle, &mut completed);
                let expected: Vec<u64> =
                    reference.step(cycle).iter().map(|packet| packet.id).collect();
                let got: Vec<u64> = completed.iter().map(|packet| packet.id).collect();
                prop_assert!(
                    got == expected,
                    "{architecture} x{ports} cycle {cycle}: {got:?} != {expected:?}"
                );
            }
            let (d, r) = (dense.energy(), reference.energy());
            prop_assert_eq!(d.switches.as_joules().to_bits(), r.switches.as_joules().to_bits());
            prop_assert_eq!(d.wires.as_joules().to_bits(), r.wires.as_joules().to_bits());
            prop_assert_eq!(d.buffers.as_joules().to_bits(), r.buffers.as_joules().to_bits());
            prop_assert_eq!(dense.words_delivered(), reference.words_delivered());
            prop_assert_eq!(dense.buffered_words(), reference.buffered_words());
            prop_assert_eq!(
                dense.buffer_overflow_cycles(),
                reference.buffer_overflow_cycles()
            );
        }
    }
}
