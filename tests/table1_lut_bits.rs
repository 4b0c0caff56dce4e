//! Pins every characterized Table 1 LUT entry to the bit.
//!
//! `tests/golden/table1_lut_bits.json` holds the `f64::to_bits` pattern (as
//! hex) of every LUT entry, in joules, for the seven Table 1 switch classes
//! at a 32-bit bus and 5-bit sort addresses, under the `quick` and `default`
//! characterization configs at 1 and 64 lanes.  Any change to the netlist
//! engine, the level schedule, the stimulus protocol or the energy tables
//! that moves a single LUT bit fails this test.

use fabric_power_netlist::characterize::{characterize_class, CharacterizationConfig};
use fabric_power_netlist::library::CellLibrary;
use fabric_power_netlist::SwitchClass;

/// Table 1's switch set: 32-bit payload buses, 5-bit sort addresses.
const BUS_WIDTH: usize = 32;
const ADDRESS_BITS: usize = 5;

const CLASSES: [SwitchClass; 7] = [
    SwitchClass::CrossbarCrosspoint,
    SwitchClass::BanyanBinary,
    SwitchClass::BatcherSorting,
    SwitchClass::Mux { inputs: 4 },
    SwitchClass::Mux { inputs: 8 },
    SwitchClass::Mux { inputs: 16 },
    SwitchClass::Mux { inputs: 32 },
];

/// Renders the golden document: one line per (config, lanes, class) row.
fn render() -> String {
    let library = CellLibrary::calibrated_018um();
    let mut rows = Vec::new();
    for (name, base) in [
        ("quick", CharacterizationConfig::quick()),
        ("default", CharacterizationConfig::default()),
    ] {
        for lanes in [1, 64] {
            let config = base.with_lanes(lanes);
            for class in CLASSES {
                let lut = characterize_class(class, BUS_WIDTH, ADDRESS_BITS, &library, &config)
                    .expect("Table 1 circuits characterize");
                let bits: Vec<String> = lut
                    .entries()
                    .iter()
                    .map(|energy| format!("\"{:016x}\"", energy.as_joules().to_bits()))
                    .collect();
                rows.push(format!(
                    "  {{\"config\": \"{name}\", \"lanes\": {lanes}, \"class\": \"{class}\", \
                     \"bits\": [{}]}}",
                    bits.join(", ")
                ));
            }
        }
    }
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[test]
fn table1_lut_bits_match_the_golden_pin() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/table1_lut_bits.json"
    ))
    .expect("read golden LUT bits");
    let actual = render();
    for (line, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "LUT bits drifted at golden line {}", line + 1);
    }
    assert_eq!(actual, golden, "golden LUT document shape changed");
}
