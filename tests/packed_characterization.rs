//! Workspace-level guarantees of the bit-parallel characterization rollout:
//!
//! 1. the `lanes` field of `CharacterizationConfig` is part of the model
//!    cache address: single-lane ("scalar", `lanes = 1`) and 64-lane
//!    ("packed") specs have distinct cache keys;
//! 2. a warm on-disk cache written for the single-lane spec is **not**
//!    silently reused for a 64-lane spec — a fresh provider re-derives it —
//!    while the single-lane spec itself still warm-hits;
//! 3. derived sweeps (which characterize at 64 lanes by default) emit
//!    byte-identical JSON at 1 and 8 threads.

use std::path::PathBuf;
use std::sync::Arc;

use fabric_power_fabric::provider::ModelSpec;
use fabric_power_netlist::characterize::CharacterizationConfig;
use fabric_power_netlist::library::CellLibrary;
use fabric_power_sweep::{
    ExperimentConfig, ModelProvider, ModelSource, SeedStrategy, SweepDocument, SweepEngine,
};
use fabric_power_tech::Technology;

fn spec_with_lanes(lanes: u32, ports: usize) -> ModelSpec {
    ModelSpec::derived(
        ports,
        Technology::tsmc180(),
        CellLibrary::calibrated_018um(),
        CharacterizationConfig::quick().with_lanes(lanes),
    )
}

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fabric-power-packed-char-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn scalar_and_packed_specs_have_distinct_cache_keys() {
    let scalar = spec_with_lanes(1, 4);
    let packed = spec_with_lanes(64, 4);
    assert_eq!(scalar.cache_key().len(), 32);
    assert_eq!(packed.cache_key().len(), 32);
    assert_ne!(
        scalar.cache_key(),
        packed.cache_key(),
        "lane count must be part of the model cache address"
    );
    // The key is a pure function of the spec.
    assert_eq!(packed.cache_key(), spec_with_lanes(64, 4).cache_key());
}

#[test]
fn warm_scalar_cache_is_not_reused_for_packed_specs() {
    let dir = temp_cache_dir("scalar-vs-packed");

    // Cold scalar build populates the disk cache.
    let scalar_provider = Arc::new(ModelProvider::with_disk_cache(&dir).expect("cache dir"));
    scalar_provider
        .get(&spec_with_lanes(1, 4))
        .expect("scalar model");
    let stats = scalar_provider.stats();
    assert_eq!(stats.builds, 1);
    assert_eq!(stats.characterizations, 1);

    // A fresh provider (new process) asking for the packed spec must build:
    // the scalar entry addresses a different spec.
    let packed_provider = Arc::new(ModelProvider::with_disk_cache(&dir).expect("cache dir"));
    packed_provider
        .get(&spec_with_lanes(64, 4))
        .expect("packed model");
    let stats = packed_provider.stats();
    assert_eq!(
        stats.builds, 1,
        "packed spec must not be served from the scalar entry"
    );
    assert_eq!(stats.characterizations, 1);
    assert_eq!(stats.disk_hits, 0);

    // The scalar spec itself still warm-hits from disk, untouched.
    let warm_provider = Arc::new(ModelProvider::with_disk_cache(&dir).expect("cache dir"));
    warm_provider
        .get(&spec_with_lanes(1, 4))
        .expect("scalar model, warm");
    let stats = warm_provider.stats();
    assert_eq!(stats.builds, 0);
    assert_eq!(stats.disk_hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A derived-model grid small enough for CI; characterization runs on the
/// packed engine (the default `lanes = 64`).
fn derived_document(threads: usize) -> String {
    let config = ExperimentConfig {
        port_counts: vec![4, 8],
        offered_loads: vec![0.2, 0.4],
        warmup_cycles: 50,
        measure_cycles: 200,
        model_source: ModelSource::Derived,
        ..ExperimentConfig::paper()
    };
    let points = SweepEngine::new()
        .with_threads(threads)
        .run(&config)
        .expect("sweep");
    SweepDocument {
        scenario: "packed-characterization-test".into(),
        config,
        seed_strategy: SeedStrategy::Shared,
        points,
    }
    .to_json_string()
    .expect("serialize")
}

#[test]
fn derived_sweep_documents_are_byte_identical_across_threads_with_packed_characterization() {
    let single = derived_document(1);
    let parallel = derived_document(8);
    assert_eq!(
        single, parallel,
        "packed characterization broke sweep thread-count determinism"
    );
}
