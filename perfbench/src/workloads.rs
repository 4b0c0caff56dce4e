//! The three workloads: set-up, one timed pass, and the traced run.
//!
//! Everything goes through the public API of `fabric-power-sweep` and the
//! layer crates beneath it; the program only ever sees the generated
//! `ExperimentConfig` and the plan expanded from it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fabric_power_fabric::FabricEnergyModel;
use fabric_power_netlist::Table1;
use fabric_power_noc::{NetworkReport, NetworkSimulator};
use fabric_power_router::sim::RouterSimulator;
use fabric_power_sweep::cell::unique_ports;
use fabric_power_sweep::protocol::{write_message, Request};
use fabric_power_sweep::{
    merge_documents, run_worker, ExperimentConfig, ExperimentError, ModelKind, ModelProvider,
    ModelSource, ScenarioRegistry, SeedStrategy, ServeOptions, ShardStrategy, SweepCell,
    SweepDocument, SweepEngine, SweepPlan, SweepPoint, WorkServer, WorkerOptions,
};

use crate::checks::failed_cells;
use crate::trace::{self_time, Tracer};

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// `0xDAC_2002`: the seed every registry scenario ships with.
pub const DEFAULT_SEED: u64 = 229_384_194;

/// Shards and loopback workers of the `fleet-derived` drain; 2 workers of
/// one engine thread each match the 2-CPU host the benchmark was sized on.
pub const FLEET_SHARDS: usize = 4;
pub const FLEET_WORKERS: usize = 2;

/// The layers a traced pass is attributed to.
pub const LAYERS: [&str; 6] = ["netlist", "fabric", "router", "noc", "sweep", "obs"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig9,
    NocUniform,
    FleetDerived,
}

impl Workload {
    pub const ALL: [Self; 3] = [Self::Fig9, Self::NocUniform, Self::FleetDerived];

    pub fn name(self) -> &'static str {
        match self {
            Self::Fig9 => "fig9",
            Self::NocUniform => "noc-uniform",
            Self::FleetDerived => "fleet-derived",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scenario(self) -> &'static str {
        match self {
            Self::Fig9 | Self::FleetDerived => "paper-fig9",
            Self::NocUniform => "noc-uniform",
        }
    }

    /// The generated experiment: the registry scenario with the run's seed
    /// (and derived models for the fleet drain).
    pub fn config(self, seed: u64) -> ExperimentConfig {
        let mut config = ScenarioRegistry::builtin()
            .get(self.scenario())
            .expect("built-in scenario")
            .config
            .clone();
        config.seed = seed;
        if self == Self::FleetDerived {
            config.model_source = ModelSource::Derived;
        }
        config
    }

    fn shards(self) -> usize {
        match self {
            Self::Fig9 | Self::NocUniform => 1,
            Self::FleetDerived => FLEET_SHARDS,
        }
    }

    pub fn is_fleet(self) -> bool {
        self == Self::FleetDerived
    }
}

/// Simulated router-cycles of a document: Σ over cells of (warm-up +
/// measured cycles) × routers in the cell.
pub fn router_cycles(document: &SweepDocument) -> u64 {
    let cycles = document.config.warmup_cycles + document.config.measure_cycles;
    document
        .points
        .iter()
        .map(|p| {
            cycles
                * p.network
                    .as_ref()
                    .map_or(1, |n| (n.width * n.height) as u64)
        })
        .sum()
}

/// What set-up leaves for the passes.
pub struct Prepared {
    pub plan: SweepPlan,
    /// Holds every model the plan needs (in memory, and on disk for the
    /// fleet drain).
    pub provider: Arc<ModelProvider>,
    /// The disk cache the fleet drain's workers read.
    pub cache_dir: Option<PathBuf>,
}

/// One set-up: plan expansion, model acquisition (cold: characterization
/// and cache writes on `fleet-derived`) and, for the fleet, the server bind.
/// Returns the prepared state and the seconds it took.
pub fn setup(
    workload: Workload,
    config: &ExperimentConfig,
    out_dir: &Path,
) -> Result<(Prepared, f64), BoxError> {
    let cache_dir = workload.is_fleet().then(|| out_dir.join("model-cache"));
    if let Some(dir) = &cache_dir {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
    }
    let started = Instant::now();
    let plan = SweepPlan::new(
        workload.scenario(),
        config.clone(),
        SeedStrategy::Shared,
        workload.shards(),
        ShardStrategy::default(),
    )?;
    let provider = Arc::new(match &cache_dir {
        Some(dir) => ModelProvider::with_disk_cache(dir)?,
        None => ModelProvider::in_memory(),
    });
    for ports in plan_ports(&plan) {
        provider.get(&config.model_spec(ports))?;
    }
    if workload.is_fleet() {
        drop(WorkServer::bind(
            "127.0.0.1:0",
            plan.clone(),
            ServeOptions::default(),
        )?);
    }
    let seconds = started.elapsed().as_secs_f64();
    Ok((
        Prepared {
            plan,
            provider,
            cache_dir,
        },
        seconds,
    ))
}

fn plan_ports(plan: &SweepPlan) -> Vec<usize> {
    let cells: Vec<SweepCell> = plan
        .shards
        .iter()
        .flat_map(|s| s.cells.iter().copied())
        .collect();
    unique_ports(&cells)
}

/// The outcome of one pass.
pub struct Pass {
    pub seconds: f64,
    pub document: SweepDocument,
    /// The document's JSON and the length of its CSV.
    pub json: String,
    pub csv_bytes: usize,
    /// Model-provider hits and requests made during the pass.
    pub cache_hits: u64,
    pub cache_requests: u64,
    pub requeues: u64,
    pub reconnects: u64,
    /// Fleet passes: when the server and each worker thread ran.
    pub threads: Vec<(&'static str, Instant, Instant)>,
}

/// One pass of the workload: `run_plan` plus JSON and CSV emission on one
/// engine thread, or a loopback fleet drain timed from the return of
/// `WorkServer::bind` until the merged document is in hand.
pub fn pass(workload: Workload, prepared: &Prepared) -> Result<Pass, BoxError> {
    if workload.is_fleet() {
        return fleet_pass(prepared);
    }
    let before = prepared.provider.stats();
    let engine = SweepEngine::new()
        .with_threads(1)
        .with_provider(Arc::clone(&prepared.provider));
    let started = Instant::now();
    let document = engine.run_plan(&prepared.plan)?;
    let json = document.to_json_string()?;
    let csv = document.to_csv_string();
    let seconds = started.elapsed().as_secs_f64();
    let after = prepared.provider.stats();
    Ok(Pass {
        seconds,
        document,
        json,
        csv_bytes: csv.len(),
        cache_hits: after.hits() - before.hits(),
        cache_requests: after.requests() - before.requests(),
        requeues: 0,
        reconnects: 0,
        threads: Vec::new(),
    })
}

type WorkerRun = (
    Result<fabric_power_sweep::WorkerReport, fabric_power_sweep::WorkerError>,
    Instant,
    Instant,
);

fn fleet_pass(prepared: &Prepared) -> Result<Pass, BoxError> {
    let dir = prepared.cache_dir.as_ref().expect("the fleet has a cache");
    let server = WorkServer::bind(
        "127.0.0.1:0",
        prepared.plan.clone(),
        ServeOptions::default(),
    )?;
    let addr = server.local_addr().to_string();
    let started = Instant::now();
    let providers = (0..FLEET_WORKERS)
        .map(|_| ModelProvider::with_disk_cache(dir).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    let (served, workers): (_, Vec<WorkerRun>) = std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let outcome = server.run();
            (outcome, Instant::now())
        });
        let workers: Vec<_> = providers
            .iter()
            .map(|provider| {
                let engine = SweepEngine::new()
                    .with_threads(1)
                    .with_provider(Arc::clone(provider));
                let addr = addr.as_str();
                scope.spawn(move || {
                    let began = Instant::now();
                    let report = run_worker(addr, &engine, WorkerOptions::default());
                    (report, began, Instant::now())
                })
            })
            .collect();
        let workers = workers
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        (server.join().expect("server thread panicked"), workers)
    });
    let (outcome, merged_at) = served;
    let outcome = outcome?;
    let seconds = merged_at.duration_since(started).as_secs_f64();
    let mut threads = vec![("fleet.serve", started, merged_at)];
    let mut reconnects = 0;
    for (report, began, ended) in workers {
        reconnects += u64::from(report?.reconnects);
        threads.push(("fleet.worker", began, ended));
    }
    let stats = providers.iter().map(|p| p.stats());
    let (hits, requests) = stats.fold((0, 0), |(h, r), s| (h + s.hits(), r + s.requests()));
    Ok(Pass {
        seconds,
        json: outcome.document.to_json_string()?,
        csv_bytes: outcome.document.to_csv_string().len(),
        document: outcome.document,
        cache_hits: hits,
        cache_requests: requests,
        requeues: outcome.requeues,
        reconnects,
        threads,
    })
}

/// The reference the fleet's merged document must match byte for byte:
/// `SweepEngine::run_plan` on the same plan.  Returns the failed cells.
pub fn check_against_run_plan(
    prepared: &Prepared,
    merged: &SweepDocument,
) -> Result<usize, BoxError> {
    let engine = SweepEngine::new()
        .with_threads(FLEET_WORKERS)
        .with_provider(Arc::clone(&prepared.provider));
    Ok(failed_cells(&engine.run_plan(&prepared.plan)?, merged))
}

/// Characterizes Table 1 with the technology, library and characterization
/// config that `ExperimentConfig::model_spec` gives derived models, and
/// returns it with the lane-cycles that config measures.
fn derived_table1(config: &ExperimentConfig) -> Result<(Table1, u64), BoxError> {
    let derived = ExperimentConfig {
        model_source: ModelSource::Derived,
        ..config.clone()
    };
    let largest = 32;
    let ModelKind::Derived {
        technology,
        library,
        characterization,
    } = derived.model_spec(largest).kind
    else {
        unreachable!("a derived config gives derived specs");
    };
    let address_bits = largest.trailing_zeros() as usize;
    let table = Table1::characterize(
        technology.bus_width_bits() as usize,
        address_bits,
        &library,
        &characterization,
    )?;
    // Lane-cycles from the config: every class is measured at each of its
    // `ports + 1` occupancies for `measure_cycles` lane-cycles.
    let occupancies: usize = crate::fidelity::luts(&table)
        .iter()
        .map(|lut| lut.ports() + 1)
        .sum();
    Ok((table, occupancies as u64 * characterization.measure_cycles))
}

/// `table1_mean_rel_err` for the run's config.
pub fn table1_error(config: &ExperimentConfig) -> Result<f64, BoxError> {
    let (table, _) = derived_table1(config)?;
    Ok(crate::fidelity::table1_mean_rel_err(
        &table,
        &Table1::paper(),
    ))
}

/// `fig9_gap_err` from the workload's own document when it holds the fig9
/// grid; otherwise (noc-uniform, whose own output has no published
/// reference) from the four paper-model fig9 cells the gap is defined on,
/// run at the same seed.
pub fn gap_error(document: &SweepDocument, seed: u64) -> Result<f64, BoxError> {
    if let Some(err) = crate::fidelity::fig9_gap_err(&document.points) {
        return Ok(err);
    }
    let config = ExperimentConfig {
        port_counts: crate::fidelity::GAP_PORTS.to_vec(),
        offered_loads: vec![crate::fidelity::GAP_LOAD],
        architectures: vec![
            fabric_power_fabric::Architecture::FullyConnected,
            fabric_power_fabric::Architecture::BatcherBanyan,
        ],
        ..Workload::Fig9.config(seed)
    };
    let points = SweepEngine::new()
        .with_threads(1)
        .with_provider(Arc::new(ModelProvider::in_memory()))
        .run(&config)?;
    crate::fidelity::fig9_gap_err(&points).ok_or_else(|| "fig9 gap cells missing".into())
}

/// Simulates one cell directly, as the engine does, timing only the
/// simulator call in a span named after its layer.
fn reproduce_cell(
    tracer: &mut Tracer,
    config: &ExperimentConfig,
    cell: &SweepCell,
    model: &Arc<FabricEnergyModel>,
) -> Result<NetworkReport, ExperimentError> {
    let mut sim_config =
        config.simulation_config(cell.architecture, cell.ports, cell.offered_load, cell.seed);
    sim_config.pattern = cell.pattern;
    match cell.network {
        Some(network) => {
            let name = format!("noc.{}x{}", network.width, network.height);
            let model = Arc::clone(model);
            tracer.span(&name, |_| {
                Ok(NetworkSimulator::with_shared_model(sim_config, network, model)?.run())
            })
        }
        None => {
            let name = format!("router.{}", cell.architecture.slug());
            let model = Arc::clone(model);
            let simulation = tracer.span(&name, |_| {
                Ok::<_, ExperimentError>(
                    RouterSimulator::with_shared_model(sim_config, model)?.run(),
                )
            })?;
            Ok(NetworkReport {
                simulation,
                network: None,
            })
        }
    }
}

fn to_point(cell: &SweepCell, report: NetworkReport) -> SweepPoint {
    let simulation = report.simulation;
    SweepPoint {
        architecture: cell.architecture,
        ports: cell.ports,
        offered_load: cell.offered_load,
        measured_throughput: simulation.measured_throughput(),
        power: simulation.average_power(),
        switch_energy: simulation.energy.switches,
        buffer_energy: simulation.energy.buffers,
        wire_energy: simulation.energy.wires,
        buffered_words: simulation.buffered_words,
        average_latency_cycles: simulation.average_latency_cycles,
        latency_p50: simulation.latency_p50,
        latency_p95: simulation.latency_p95,
        latency_p99: simulation.latency_p99,
        latency_histogram: simulation.latency_histogram,
        network: report.network,
    }
}

/// Counts the traced reproduction accumulates.
#[derive(Debug, Default)]
struct CellCounts {
    cells: usize,
    failed: usize,
    words_delivered: u64,
    hop_traversals: u64,
    credit_stalls: u64,
    /// Σ ports × cycles per architecture, and Σ routers × cycles of NoC
    /// cells: the work the per-cycle figures are normalised by.
    port_cycles: BTreeMap<&'static str, u64>,
    node_cycles: u64,
}

fn reproduce_all(
    tracer: &mut Tracer,
    prepared: &Prepared,
    document: &SweepDocument,
) -> Result<CellCounts, BoxError> {
    let config = &prepared.plan.config;
    let cycles = config.warmup_cycles + config.measure_cycles;
    let mut cells: Vec<SweepCell> = prepared
        .plan
        .shards
        .iter()
        .flat_map(|s| s.cells.iter().copied())
        .collect();
    cells.sort_by_key(|c| c.index);
    let mut models = BTreeMap::new();
    for ports in unique_ports(&cells) {
        models.insert(ports, prepared.provider.get(&config.model_spec(ports))?);
    }
    let mut counts = CellCounts::default();
    tracer.span("cells", |tracer| -> Result<(), BoxError> {
        for cell in &cells {
            let report = reproduce_cell(tracer, config, cell, &models[&cell.ports])?;
            let words = report.simulation.words_delivered;
            let window = report.simulation.measured_cycles * report.simulation.ports as u64;
            counts.words_delivered += words;
            match (&cell.network, &report.network) {
                (Some(network), Some(stats)) => {
                    counts.hop_traversals += (report.simulation.packets_delivered as f64
                        * stats.average_hops)
                        .round() as u64;
                    counts.credit_stalls += stats.credit_stalls;
                    counts.node_cycles += (network.width * network.height) as u64 * cycles;
                }
                _ => {
                    *counts
                        .port_cycles
                        .entry(cell.architecture.slug())
                        .or_default() += cell.ports as u64 * cycles;
                }
            }
            // The reproduced point must equal the document's, and the words
            // recovered from the document's throughput must equal the
            // simulator's own count.
            let point = to_point(cell, report);
            let expected = document.points.get(cell.index);
            let recovered =
                expected.map(|p| (p.measured_throughput * window as f64).round() as u64);
            if expected != Some(&point) || recovered != Some(words) {
                counts.failed += 1;
            }
            counts.cells += 1;
        }
        Ok(())
    })?;
    Ok(counts)
}

/// A `Write` sink that only counts bytes.
struct CountingWriter(u64);

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What the traced run reports.
pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    /// Each layer's share of the traced pass, in [`LAYERS`] order.
    pub shares: Vec<(&'static str, f64)>,
    pub attempted: usize,
    pub failed: usize,
    pub spans_json: String,
}

/// The traced run: one traced pass plus direct, individually spanned calls
/// into each layer's public functions.  `wall_s` is the untraced median the
/// tracing overhead is measured against.
#[allow(clippy::too_many_lines)]
pub fn traced_run(
    workload: Workload,
    prepared: &Prepared,
    wall_s: f64,
    out_dir: &Path,
) -> Result<Traced, BoxError> {
    let config = &prepared.plan.config;
    let mut tracer = Tracer::new();
    let mut failed = 0;
    let mut attempted = 0;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();

    // sweep: plan expansion.
    tracer.span("sweep.plan", |_| {
        SweepPlan::new(
            workload.scenario(),
            config.clone(),
            SeedStrategy::Shared,
            workload.shards(),
            ShardStrategy::default(),
        )
    })?;

    // fabric: every model cold on an empty disk cache, then warm through a
    // fresh provider over that cache.
    let cold_dir = out_dir.join("trace-model-cache");
    if cold_dir.exists() {
        std::fs::remove_dir_all(&cold_dir)?;
    }
    let ports = plan_ports(&prepared.plan);
    let cold = ModelProvider::with_disk_cache(&cold_dir)?;
    for &p in &ports {
        tracer.span("fabric.model_cold", |_| cold.get(&config.model_spec(p)))?;
    }
    let warm = ModelProvider::with_disk_cache(&cold_dir)?;
    for &p in &ports {
        tracer.span("fabric.model_warm", |_| warm.get(&config.model_spec(p)))?;
    }

    // The traced pass itself.  A fleet pass is timed like an untimed one,
    // from the server bind to the merged document, with one span per worker
    // thread under it.
    let document = if workload.is_fleet() {
        let drained = fleet_pass(prepared)?;
        let (_, start, end) = drained.threads[0];
        let pass = tracer.record("pass", start, end, None);
        for (name, start, end) in &drained.threads[1..] {
            tracer.record(name, *start, *end, Some(pass));
        }
        m.insert("fleet.requeues".into(), drained.requeues as f64);
        m.insert("fleet.reconnects".into(), drained.reconnects as f64);
        drained.document
    } else {
        let engine = SweepEngine::new()
            .with_threads(1)
            .with_provider(Arc::clone(&prepared.provider));
        tracer.span("pass", |tracer| -> Result<SweepDocument, BoxError> {
            let document = tracer.span("sweep.run_plan", |_| engine.run_plan(&prepared.plan))?;
            tracer.span("sweep.emit", |_| -> Result<(), BoxError> {
                std::hint::black_box((document.to_json_string()?, document.to_csv_string()));
                Ok(())
            })?;
            Ok(document)
        })?
    };
    let pass_id = tracer.find("pass").expect("the pass span");
    let traced_wall = tracer.spans()[pass_id].duration();

    // Emission and decoding of the workload's own output.
    let (json, csv) = tracer.span("sweep.emit", |_| -> Result<_, BoxError> {
        Ok((document.to_json_string()?, document.to_csv_string()))
    })?;
    let emit_s = tracer
        .durations("sweep.emit")
        .last()
        .copied()
        .unwrap_or(0.0);
    let decoded = tracer.span("sweep.decode", |_| SweepDocument::from_json_str(&json))?;
    attempted += document.points.len();
    failed += failed_cells(&document, &decoded);

    // fleet: each shard on its own, its wire encoding, and the merge.
    if workload.is_fleet() {
        let engine = SweepEngine::new().with_threads(1).with_provider(Arc::new(
            ModelProvider::with_disk_cache(prepared.cache_dir.as_ref().expect("fleet cache"))?,
        ));
        let mut parts = Vec::new();
        for index in 0..prepared.plan.shard_count() {
            parts.push(tracer.span("fleet.shard", |_| engine.run_shard(&prepared.plan, index))?);
        }
        let hash = prepared.plan.content_hash();
        let mut wire = CountingWriter(0);
        for part in &parts {
            let submit = Request::Submit {
                worker: 0,
                lease: 0,
                plan_hash: hash.clone(),
                document: Box::new(part.clone()),
            };
            tracer.span("fleet.encode", |_| write_message(&mut wire, &submit))?;
        }
        let merged = tracer.span("sweep.merge", |_| merge_documents(&parts))?;
        attempted += merged.points.len();
        failed += failed_cells(&document, &merged);

        let shard_s = tracer.durations("fleet.shard");
        let shard_sum: f64 = shard_s.iter().sum();
        m.insert(
            "fleet.shard_s.max".into(),
            shard_s.iter().copied().fold(0.0, f64::max),
        );
        m.insert(
            "fleet.shard_s.min".into(),
            shard_s.iter().copied().fold(f64::INFINITY, f64::min),
        );
        m.insert(
            "fleet.makespan_over_ideal".into(),
            wall_s / (shard_sum / FLEET_WORKERS as f64),
        );
        m.insert("fleet.wire_bytes".into(), wire.0 as f64);
        m.insert("fleet.encode_s".into(), tracer.total("fleet.encode"));
        m.insert("sweep.merge_s".into(), tracer.total("sweep.merge"));
    }

    // router / noc: every cell directly, checked against the document.
    let counts = reproduce_all(&mut tracer, prepared, &document)?;
    attempted += counts.cells;
    failed += counts.failed;

    // netlist: Table 1 with the derived-model characterization config; its
    // lane-cycles must match the program's own counter.
    let counter = fabric_power_obs::metrics::counter(
        fabric_power_obs::metrics::names::CHARACTERIZE_LANE_CYCLES,
    );
    let before = counter.get();
    let (_, lane_cycles) = tracer.span("netlist.characterize", |_| derived_table1(config))?;
    attempted += 1;
    if counter.get() - before != lane_cycles {
        failed += 1;
    }

    // Per-layer metrics.
    let characterize_s = tracer.total("netlist.characterize");
    m.insert("netlist.characterize_s".into(), characterize_s);
    m.insert(
        "netlist.lane_cycles_per_s".into(),
        lane_cycles as f64 / characterize_s,
    );
    m.insert(
        "fabric.model_cold_s".into(),
        tracer.total("fabric.model_cold"),
    );
    let model_warm_s = tracer.total("fabric.model_warm");
    m.insert("fabric.model_warm_s".into(), model_warm_s);
    let mut router_s = 0.0;
    for arch in fabric_power_fabric::Architecture::ALL {
        let seconds = tracer.total(&format!("router.{}", arch.slug()));
        router_s += seconds;
        let port_cycles = counts.port_cycles.get(arch.slug()).copied().unwrap_or(0);
        m.insert(format!("router.{}.s", arch.slug()), seconds);
        m.insert(
            format!("router.{}.ns_per_port_cycle", arch.slug()),
            if port_cycles == 0 {
                0.0
            } else {
                seconds * 1e9 / port_cycles as f64
            },
        );
    }
    let cell_max = tracer
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("router.") || s.name.starts_with("noc."))
        .map(crate::trace::Span::duration)
        .fold(0.0, f64::max);
    m.insert("router.cell_max_s".into(), cell_max);
    m.insert(
        "router.words_delivered".into(),
        counts.words_delivered as f64,
    );
    let mut noc_s = 0.0;
    for mesh in ["2x2", "4x4", "8x8"] {
        let seconds = tracer.total(&format!("noc.{mesh}"));
        noc_s += seconds;
        m.insert(format!("noc.{mesh}.s"), seconds);
    }
    m.insert(
        "noc.ns_per_node_cycle".into(),
        if counts.node_cycles == 0 {
            0.0
        } else {
            noc_s * 1e9 / counts.node_cycles as f64
        },
    );
    m.insert("noc.hop_traversals".into(), counts.hop_traversals as f64);
    m.insert("noc.credit_stalls".into(), counts.credit_stalls as f64);
    m.insert("sweep.plan_s".into(), tracer.total("sweep.plan"));
    m.insert("sweep.emit_s".into(), emit_s);
    m.insert("sweep.emit_bytes".into(), (json.len() + csv.len()) as f64);
    let decode_s = tracer.total("sweep.decode");
    m.insert("sweep.decode_s".into(), decode_s);

    // Attribute the traced pass's wall time to the layers.  The direct cell
    // calls stand in for the cells inside the pass; the engine's own time is
    // what the pass took beyond them.  A fleet pass spreads cell and model
    // work over its workers and decodes and merges on the server.
    let cells_s = router_s + noc_s;
    let (engine_self, attributed): (f64, BTreeMap<&str, f64>) = if workload.is_fleet() {
        let shards_s = tracer.total("fleet.shard");
        let per_worker = 1.0 / FLEET_WORKERS as f64;
        let engine_self = shards_s - cells_s - model_warm_s;
        let sweep =
            (engine_self + m["fleet.encode_s"]) * per_worker + decode_s + m["sweep.merge_s"];
        (
            engine_self,
            BTreeMap::from([
                ("router", router_s * per_worker),
                ("noc", noc_s * per_worker),
                ("fabric", model_warm_s * per_worker),
                ("sweep", sweep),
            ]),
        )
    } else {
        let run_plan = tracer.total("sweep.run_plan");
        let pass_emit = tracer.durations("sweep.emit")[0];
        (
            run_plan - cells_s,
            BTreeMap::from([
                ("router", router_s),
                ("noc", noc_s),
                ("sweep", run_plan - cells_s + pass_emit),
            ]),
        )
    };
    m.insert("sweep.engine_self_s".into(), engine_self);
    // The tracer's own bookkeeping is the local pass's time outside its
    // spans.  A fleet pass's threads are recorded after the fact, so its
    // time outside them (thread start-up, the server's join) is left
    // unattributed.
    let obs_s = if workload.is_fleet() {
        0.0
    } else {
        self_time(tracer.spans(), pass_id)
    };
    let mut shares = Vec::new();
    let mut total = 0.0;
    for layer in LAYERS {
        let seconds = match layer {
            "obs" => obs_s,
            _ => attributed.get(layer).copied().unwrap_or(0.0),
        };
        total += seconds;
        shares.push((layer, seconds / traced_wall));
    }
    for (layer, share) in &shares {
        m.insert(format!("layer.{layer}.share"), *share);
    }
    m.insert("trace.unattributed_s".into(), traced_wall - total);
    m.insert("obs.trace_overhead".into(), traced_wall / wall_s - 1.0);

    Ok(Traced {
        metrics: m,
        shares,
        attempted,
        failed,
        spans_json: tracer.to_json(),
    })
}
