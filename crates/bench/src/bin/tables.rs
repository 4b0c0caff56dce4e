//! Regenerates the paper's tabulated results, in this order:
//!
//! 1. **Table 1** — node-switch bit energy per input vector, characterized
//!    from the generated gate-level circuits, next to the published values;
//! 2. **Table 2** — Banyan shared-buffer bit energy per fabric size, from
//!    the structural SRAM model, next to the published values;
//! 3. the **§5.1 wire energy** — the Thompson-grid length, the
//!    `E_T_bit ≈ 87 fJ` interconnect bit energy and the per-architecture
//!    worst-case wire lengths used by Eq. 3–6;
//! 4. the closed-form worst-case bit energies of **Eq. 3–6** over 4–128
//!    ports — the analytic counterpart of Figures 9/10.
//!
//! Figures 9 and 10 come from the CLI: `fabric-power sweep --scenario
//! paper-fig9` (or `paper-fig10`) followed by `fabric-power report`.
//!
//! Energy models come from one model provider per process; with
//! `--model-cache DIR` they persist in the content-addressed on-disk cache,
//! so a second run characterizes nothing.  The Table 1 LUTs are the switch
//! components of the derived models for the paper's four fabric sizes.
//! (Derived *sweeps* use their own `CharacterizationConfig::quick` entries —
//! the characterization config is part of the content address, so the two
//! never alias.)
//!
//! Run with `cargo run --release -p fabric-power-bench --bin tables
//! [-- --model-cache DIR]`.

use std::sync::Arc;

use fabric_power_core::report::{format_analytic_table, format_table1, format_table2};
use fabric_power_fabric::analytic::analytic_table_with_provider;
use fabric_power_fabric::provider::{ModelProvider, ModelSpec};
use fabric_power_fabric::FabricEnergyModel;
use fabric_power_memory::Table2;
use fabric_power_netlist::characterize::CharacterizationConfig;
use fabric_power_netlist::library::CellLibrary;
use fabric_power_netlist::{SwitchClass, Table1};
use fabric_power_tech::constants::{PAPER_GRID_BIT_ENERGY_FJ, PAPER_PORT_COUNTS};
use fabric_power_tech::{Technology, WireModel};
use fabric_power_thompson::wirelength;

const USAGE: &str = "usage: tables [--model-cache <DIR>]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cache_dir = match args.as_slice() {
        [] => None,
        [flag, dir] if flag == "--model-cache" => Some(dir.as_str()),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let provider = ModelProvider::from_cache_dir_arg(cache_dir)?;

    table1(&provider)?;
    table2()?;
    wire_energy();
    analytic_model(&provider)?;

    if provider.cache_dir().is_some() {
        eprintln!("model cache: {}", provider.stats());
    }
    Ok(())
}

fn table1(provider: &Arc<ModelProvider>) -> Result<(), Box<dyn std::error::Error>> {
    // The paper characterizes 32-bit-wide data paths on 0.18 um cells; the
    // sorting switch compares 5-bit addresses, i.e. log2(32) — exactly the
    // address width of the derived 32-port model.
    let technology = Technology::tsmc180();
    let library = CellLibrary::calibrated_018um();
    let config = CharacterizationConfig::default();

    let mut models = Vec::new();
    for ports in [4_usize, 8, 16, 32] {
        models.push(provider.get(&ModelSpec::derived(
            ports,
            technology.clone(),
            library.clone(),
            config,
        ))?);
    }
    let largest: &FabricEnergyModel = models.last().expect("four models");
    let ours = Table1 {
        crosspoint: largest.switch_lut(SwitchClass::CrossbarCrosspoint).clone(),
        banyan_binary: largest.switch_lut(SwitchClass::BanyanBinary).clone(),
        batcher_sorting: largest.switch_lut(SwitchClass::BatcherSorting).clone(),
        muxes: models
            .iter()
            .map(|m| m.switch_lut(SwitchClass::Mux { inputs: m.ports() }).clone())
            .collect(),
    };

    println!("{}", format_table1(&ours, &Table1::paper()));
    println!(
        "(ratio = characterized / paper; the qualitative ordering is the result that matters)"
    );
    Ok(())
}

fn table2() -> Result<(), Box<dyn std::error::Error>> {
    let computed = Table2::compute(&PAPER_PORT_COUNTS)?;
    println!("{}", format_table2(&computed, &Table2::paper()));
    Ok(())
}

fn wire_energy() {
    let technology = Technology::tsmc180();
    let wires = WireModel::new(technology.clone());

    println!("Interconnect wire energy (paper section 5.1)");
    println!(
        "  bus width            : {} bits at {} um pitch",
        technology.bus_width_bits(),
        technology.wire_pitch().as_micrometers()
    );
    println!(
        "  Thompson grid length : {:.1} um",
        technology.thompson_grid_length().as_micrometers()
    );
    println!(
        "  E_T_bit              : {:.2} fJ (paper: {} fJ)",
        wires.grid_bit_energy().as_femtojoules(),
        PAPER_GRID_BIT_ENERGY_FJ
    );

    println!("\nWorst-case wire lengths per bit, in Thompson grids:");
    println!(
        "{:>6} {:>10} {:>17} {:>10} {:>16}",
        "N", "crossbar", "fully connected", "banyan", "batcher-banyan"
    );
    for ports in [4_usize, 8, 16, 32] {
        println!(
            "{:>6} {:>10} {:>17} {:>10} {:>16}",
            ports,
            wirelength::crossbar_bit_wire_grids(ports),
            wirelength::fully_connected_bit_wire_grids(ports),
            wirelength::banyan_bit_wire_grids(ports),
            wirelength::batcher_banyan_bit_wire_grids(ports)
        );
    }
}

fn analytic_model(provider: &Arc<ModelProvider>) -> Result<(), Box<dyn std::error::Error>> {
    let rows = analytic_table_with_provider(&[4, 8, 16, 32, 64, 128], provider)?;
    println!("{}", format_analytic_table(&rows));
    println!("Notes:");
    println!("  * one contended Banyan stage adds one buffer access per bit (the buffer penalty),");
    println!("    which immediately dominates every other term;");
    println!("  * the fully-connected wire term grows as N^2/2 and overtakes the crossbar's 8N");
    println!(
        "    around N = 32 — the paper's remark that interconnect power dominates large fabrics."
    );
    Ok(())
}
