//! Times cold Table 1 gate-level characterization — one lane vs 64 lanes
//! of the bit-parallel engine — per switch class, and writes the repo's
//! perf trajectory file `BENCH_characterize.json`.
//!
//! Both runs use the same engine and the same total measured lane-cycle
//! budget per occupancy state (the 64-lane run splits it across 64 lanes),
//! so the wall-clock ratio is the throughput bought by bit-parallelism on
//! identical workloads.  Every run here is cold: circuits are characterized
//! directly, never through the model cache.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fabric-power-bench --bin characterize_bench -- \
//!     [--quick] [--out PATH] [--min-speedup X]
//! ```
//!
//! * `--quick` — use `CharacterizationConfig::quick` (CI-sized budget);
//! * `--out PATH` — where to write the JSON (default
//!   `BENCH_characterize.json` in the current directory, i.e. the repo root
//!   when run via `cargo run`);
//! * `--min-speedup X` — exit nonzero unless the total 64-lane speedup over
//!   one lane is at least `X` (used by the CI bench-smoke job).

use std::time::Instant;

use serde::Serialize;

use fabric_power_netlist::characterize::{characterize_class, CharacterizationConfig};
use fabric_power_netlist::library::CellLibrary;
use fabric_power_netlist::SwitchClass;

/// The Table 1 switch set: 32-bit payload buses, 5-bit sort addresses
/// (log2 of the paper's 32-port fabrics), as in the `tables` binary.
const BUS_WIDTH: usize = 32;
const ADDRESS_BITS: usize = 5;

#[derive(Debug, Serialize)]
struct ClassTiming {
    class: String,
    one_lane_ms: f64,
    packed_ms: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    /// Characterization budget common to both lane counts.
    warmup_cycles: u64,
    measure_cycles: u64,
    seed: u64,
    one_lane_lanes: u32,
    packed_lanes: u32,
    quick: bool,
    host_cpus: usize,
    classes: Vec<ClassTiming>,
    total_one_lane_ms: f64,
    total_packed_ms: f64,
    total_speedup: f64,
    /// Context for readers of the trajectory: the measurement itself is
    /// single-threaded; on multi-core hosts the sweep layer additionally
    /// parallelizes across models, so the end-to-end cold-build target
    /// there is >=10x over a single lane.
    multi_core_target_speedup: f64,
    note: String,
}

fn time_class(
    class: SwitchClass,
    config: &CharacterizationConfig,
) -> Result<f64, Box<dyn std::error::Error>> {
    let library = CellLibrary::calibrated_018um();
    let start = Instant::now();
    characterize_class(class, BUS_WIDTH, ADDRESS_BITS, &library, config)?;
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut quick = false;
    let mut out = String::from("BENCH_characterize.json");
    let mut min_speedup: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().ok_or("--out needs a path")?,
            "--min-speedup" => {
                min_speedup = Some(args.next().ok_or("--min-speedup needs a value")?.parse()?);
            }
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }

    let base = if quick {
        CharacterizationConfig::quick()
    } else {
        CharacterizationConfig::default()
    };
    let one_lane_config = base.with_lanes(1);
    let packed_config = base.with_lanes(64);

    let classes = [
        SwitchClass::CrossbarCrosspoint,
        SwitchClass::BanyanBinary,
        SwitchClass::BatcherSorting,
        SwitchClass::Mux { inputs: 4 },
        SwitchClass::Mux { inputs: 8 },
        SwitchClass::Mux { inputs: 16 },
        SwitchClass::Mux { inputs: 32 },
    ];

    println!(
        "cold Table 1 characterization, {} measured lane-cycles/occupancy (quick={quick})",
        base.measure_cycles
    );
    println!(
        "{:<28} {:>12} {:>12} {:>9}",
        "switch class", "1 lane (ms)", "64 lanes (ms)", "speedup"
    );
    let mut timings = Vec::new();
    let mut total_one_lane = 0.0;
    let mut total_packed = 0.0;
    for class in classes {
        let one_lane_ms = time_class(class, &one_lane_config)?;
        let packed_ms = time_class(class, &packed_config)?;
        let speedup = one_lane_ms / packed_ms.max(1e-9);
        println!("{class:<28} {one_lane_ms:>12.2} {packed_ms:>12.2} {speedup:>8.1}x");
        total_one_lane += one_lane_ms;
        total_packed += packed_ms;
        timings.push(ClassTiming {
            class: class.to_string(),
            one_lane_ms,
            packed_ms,
            speedup,
        });
    }
    let total_speedup = total_one_lane / total_packed.max(1e-9);
    println!(
        "{:<28} {total_one_lane:>12.2} {total_packed:>12.2} {total_speedup:>8.1}x",
        "TOTAL"
    );

    let report = BenchReport {
        warmup_cycles: base.warmup_cycles,
        measure_cycles: base.measure_cycles,
        seed: base.seed,
        one_lane_lanes: 1,
        packed_lanes: 64,
        quick,
        host_cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        classes: timings,
        total_one_lane_ms: total_one_lane,
        total_packed_ms: total_packed,
        total_speedup,
        multi_core_target_speedup: 10.0,
        note: "single-threaded 1-lane vs 64-lane comparison at an identical lane-cycle budget; \
               on multi-core hosts the sweep layer parallelizes cold builds across \
               models on top of this, targeting >=10x end-to-end"
            .to_string(),
    };
    fabric_power_sweep::write_atomic(
        std::path::Path::new(&out),
        &(serde_json::to_string_pretty(&report)? + "\n"),
    )?;
    println!("wrote {out}");

    if let Some(min) = min_speedup {
        if total_speedup < min {
            return Err(format!(
                "64-lane speedup {total_speedup:.2}x is below the required {min:.2}x"
            )
            .into());
        }
    }
    Ok(())
}
