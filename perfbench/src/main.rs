//! The fabric-power benchmark: three workloads driven in one process
//! through the public API, end-to-end metrics from untraced timed passes,
//! per-layer metrics from a separate traced run.  Host-time end-to-end
//! metrics are scaled to a reference host speed measured by a fixed
//! calibration kernel timed around every pass (`calib`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9 --seed 229384194 --seconds 35 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  The line before it records the
//! run's provenance (seed, host CPUs, commit, passes, within-run quartiles),
//! and the same record plus the traced run's spans is written to
//! `.bench_out/`.  See `perfbench/README.md`.

mod calib;
mod checks;
mod fidelity;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use checks::failed_cells;
use stats::{median, quartiles};
use workloads::{BoxError, Workload, DEFAULT_SEED};

/// Where run records, traced spans and the fleet's model cache go, relative
/// to the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

/// Set-ups before the warm-up pass and again before every timed pass;
/// `setup_s` is the median of them all, at the reference host speed (see
/// `calib`).  Spreading them over the run keeps one moment's host load from
/// deciding a microsecond-scale figure.
const SETUPS_PER_PASS: usize = 5;

/// Timed passes per run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("node_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fig9_gap_err", "ratio"),
    ("table1_mean_rel_err", "ratio"),
];

const PER_LAYER: [(&str, &str); 42] = [
    ("netlist.characterize_s", "s"),
    ("netlist.lane_cycles_per_s", "1/s"),
    ("fabric.model_cold_s", "s"),
    ("fabric.model_warm_s", "s"),
    ("fabric.cache_hit_ratio", "ratio"),
    ("router.crossbar.s", "s"),
    ("router.crossbar.ns_per_port_cycle", "ns"),
    ("router.fully_connected.s", "s"),
    ("router.fully_connected.ns_per_port_cycle", "ns"),
    ("router.banyan.s", "s"),
    ("router.banyan.ns_per_port_cycle", "ns"),
    ("router.batcher_banyan.s", "s"),
    ("router.batcher_banyan.ns_per_port_cycle", "ns"),
    ("router.cell_max_s", "s"),
    ("router.words_delivered", "count"),
    ("noc.2x2.s", "s"),
    ("noc.4x4.s", "s"),
    ("noc.8x8.s", "s"),
    ("noc.ns_per_node_cycle", "ns"),
    ("noc.hop_traversals", "count"),
    ("noc.credit_stalls", "count"),
    ("sweep.plan_s", "s"),
    ("sweep.engine_self_s", "s"),
    ("sweep.emit_s", "s"),
    ("sweep.emit_bytes", "bytes"),
    ("sweep.decode_s", "s"),
    ("sweep.merge_s", "s"),
    ("fleet.shard_s.max", "s"),
    ("fleet.shard_s.min", "s"),
    ("fleet.makespan_over_ideal", "ratio"),
    ("fleet.wire_bytes", "bytes"),
    ("fleet.encode_s", "s"),
    ("fleet.requeues", "count"),
    ("fleet.reconnects", "count"),
    ("obs.trace_overhead", "ratio"),
    ("trace.unattributed_s", "s"),
    ("layer.netlist.share", "ratio"),
    ("layer.fabric.share", "ratio"),
    ("layer.router.share", "ratio"),
    ("layer.noc.share", "ratio"),
    ("layer.sweep.share", "ratio"),
    ("layer.obs.share", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (expected one of {names:?})")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<(), BoxError> {
    let args = parse_args()?;
    let workload = args.workload;
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir)?;
    let config = workload.config(args.seed);

    // Set-up: the first one's state feeds the passes; the repeats only
    // time it again.
    let (prepared, first) = workloads::setup(workload, &config, out_dir)?;
    let mut setup_s = vec![first];
    let set_up_again = |setup_s: &mut Vec<f64>, times: usize| -> Result<(), BoxError> {
        for _ in 0..times {
            setup_s.push(workloads::setup(workload, &config, out_dir)?.1);
        }
        Ok(())
    };
    set_up_again(&mut setup_s, SETUPS_PER_PASS - 1)?;

    // One untimed warm-up pass; its document is the reference every timed
    // pass must reproduce byte for byte, with the same deterministic counts.
    let reference = workloads::pass(workload, &prepared)?;
    let counts = |pass: &workloads::Pass| {
        let emitted = pass.json.len() + pass.csv_bytes;
        (workloads::router_cycles(&pass.document), emitted)
    };
    let reference_counts = counts(&reference);
    let cells = reference.document.points.len();
    let mut attempted = cells;
    let mut failed = 0;

    // Every pass's seconds, and the same at the reference host speed: the
    // pass over the slowdown of the calibration chunks timed around it.
    let mut walls = Vec::new();
    let mut scaled = Vec::new();
    let mut chunks = Vec::new();
    let (mut hits, mut requests, mut requeues, mut reconnects) = (0, 0, 0, 0);
    let timed = Instant::now();
    while walls.len() < MIN_PASSES || timed.elapsed().as_secs_f64() < args.seconds {
        set_up_again(&mut setup_s, SETUPS_PER_PASS)?;
        let before = calib::side();
        let pass = workloads::pass(workload, &prepared)?;
        let around = [before, calib::side()].concat();
        walls.push(pass.seconds);
        scaled.push(pass.seconds / calib::slowdown(&around));
        chunks.extend(around);
        attempted += cells;
        if pass.json != reference.json || counts(&pass) != reference_counts {
            failed += failed_cells(&reference.document, &pass.document).max(1);
        }
        hits += pass.cache_hits;
        requests += pass.cache_requests;
        requeues += pass.requeues;
        reconnects += pass.reconnects;
    }
    let peak_rss = peak_rss_mb()?;
    // Every model a timed pass asks for is already cached.
    let cache_hit_ratio = hits as f64 / requests.max(1) as f64;
    if hits != requests {
        failed += 1;
    }
    if workload.is_fleet() {
        attempted += cells;
        failed += workloads::check_against_run_plan(&prepared, &reference.document)?;
    }

    let raw_wall_s = median(&walls);
    let (wall_q1, wall_q3) = quartiles(&walls);
    let wall_s = median(&scaled);
    let (scaled_q1, scaled_q3) = quartiles(&scaled);
    // Set-ups are spread over the whole run, so the run's slowdown scales them.
    let slowdown = median(&chunks) / calib::REFERENCE_CHUNK_S;
    let raw_setup_s = median(&setup_s);
    let (setup_q1, setup_q3) = quartiles(&setup_s);
    let (router_cycles, emit_bytes) = reference_counts;
    let end_to_end: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip([
            wall_s,
            router_cycles as f64 / wall_s,
            raw_setup_s / slowdown,
            peak_rss,
            workloads::gap_error(&reference.document, args.seed)?,
            workloads::table1_error(&config)?,
        ])
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect();

    let mut spans_json = "[]".to_owned();
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let traced = workloads::traced_run(workload, &prepared, raw_wall_s, out_dir)?;
        attempted += traced.attempted;
        failed += traced.failed;
        spans_json = traced.spans_json;
        let mut values = traced.metrics;
        values.insert("fabric.cache_hit_ratio".into(), cache_hit_ratio);
        *values.entry("fleet.requeues".into()).or_default() += requeues as f64;
        *values.entry("fleet.reconnects".into()).or_default() += reconnects as f64;
        eprintln!(
            "{} traced pass, share of wall time by layer:",
            workload.name()
        );
        for (layer, share) in &traced.shares {
            eprintln!("  {layer:<8} {:>6.1}%", share * 100.0);
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        end_to_end.clone()
    };
    let non_finite = metrics.iter().filter(|(_, _, v)| !v.is_finite()).count();
    failed += non_finite;
    let metrics: Vec<_> = metrics
        .into_iter()
        .map(|(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 }))
        .collect();

    let host_cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let info = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host_cpus\": {host_cpus}, \"commit\": \"{}\", \
         \"passes\": {}, \"setups\": {}, \"cells\": {cells}, \
         \"router_cycles\": {router_cycles}, \"emit_bytes\": {emit_bytes}, \
         \"host_slowdown\": {slowdown}, \"calib_chunks\": {}, \
         \"raw_wall_s\": {{\"q1\": {wall_q1}, \"median\": {raw_wall_s}, \"q3\": {wall_q3}}}, \
         \"scaled_wall_s\": {{\"q1\": {scaled_q1}, \"median\": {wall_s}, \"q3\": {scaled_q3}}}, \
         \"pass_s\": {walls:?}, \"scaled_pass_s\": {scaled:?}, \
         \"raw_setup_s\": {{\"q1\": {setup_q1}, \"median\": {raw_setup_s}, \"q3\": {setup_q3}}}, \
         \"end_to_end\": {}}}",
        workload.name(),
        args.seed,
        commit(),
        walls.len(),
        setup_s.len(),
        chunks.len(),
        json_metrics(&end_to_end),
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    let record = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        record,
        format!("{{\"info\": {info}, \"result\": {result}, \"spans\": {spans_json}}}\n"),
    )?;
    println!("{{\"info\": {info}}}");
    println!("{result}");
    Ok(())
}
