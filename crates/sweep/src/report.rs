//! Plain-text summaries of sweep documents, used by `fabric-power report`.

use fabric_power_tech::constants::{published_fc_vs_batcher_gap, FIGURE10_THROUGHPUT};

use crate::emit::SweepDocument;
use crate::sweeps::{PortSweep, ThroughputSweep};

/// Renders a per-fabric-size power table plus headline observations for a
/// sweep document: the cheapest architecture per load and, where both
/// fabrics were simulated, the fully-connected vs. Batcher-Banyan gap of
/// Figure 10 (beside the published value at 4 and 32 ports, 50 % load).
#[must_use]
pub fn format_document(document: &SweepDocument) -> String {
    // Reuse ThroughputSweep's point lookup and cheapest-architecture
    // selection, and PortSweep's gap, so the CLI report and the
    // programmatic API can never diverge on matching tolerance or
    // tie-breaks.
    let sweep = ThroughputSweep {
        points: document.points.clone(),
    };
    let port_sweeps: Vec<PortSweep> = document
        .config
        .offered_loads
        .iter()
        .map(|&load| PortSweep {
            offered_load: load,
            points: sweep
                .points
                .iter()
                .filter(|p| (p.offered_load - load).abs() < 1e-9)
                .cloned()
                .collect(),
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!(
        "scenario: {} ({} points, seed 0x{:X}, {} seeding)\n",
        document.scenario,
        document.points.len(),
        document.config.seed,
        match document.seed_strategy {
            crate::cell::SeedStrategy::Shared => "shared",
            crate::cell::SeedStrategy::PerCell => "per-cell",
        }
    ));

    for &ports in &document.config.port_counts {
        out.push_str(&format!("\n{ports}x{ports} fabric — average power [mW]\n"));
        out.push_str(&format!("{:<16}", "load"));
        for &load in &document.config.offered_loads {
            out.push_str(&format!("{:>12.0}%", load * 100.0));
        }
        out.push('\n');
        for &architecture in &document.config.architectures {
            out.push_str(&format!("{:<16}", architecture.slug()));
            for &load in &document.config.offered_loads {
                match sweep.power(architecture, ports, load) {
                    Some(power) => {
                        out.push_str(&format!("{:>13.3}", power.as_milliwatts()));
                    }
                    None => out.push_str(&format!("{:>13}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{ports}x{ports} fabric — latency [cycles] (mean p50/p95/p99)\n"
        ));
        out.push_str(&format!("{:<16}", "load"));
        for &load in &document.config.offered_loads {
            out.push_str(&format!("{:>17.0}%", load * 100.0));
        }
        out.push('\n');
        for &architecture in &document.config.architectures {
            out.push_str(&format!("{:<16}", architecture.slug()));
            for &load in &document.config.offered_loads {
                match sweep.point(architecture, ports, load) {
                    Some(point) => out.push_str(&format!(
                        "{:>18}",
                        format!(
                            "{:.1} {:.0}/{:.0}/{:.0}",
                            point.average_latency_cycles,
                            point.latency_p50,
                            point.latency_p95,
                            point.latency_p99
                        )
                    )),
                    None => out.push_str(&format!("{:>18}", "-")),
                }
            }
            out.push('\n');
        }
        for &load in &document.config.offered_loads {
            if let Some(cheapest) = sweep.cheapest(ports, load) {
                out.push_str(&format!(
                    "  cheapest at {:.0}% load: {}\n",
                    load * 100.0,
                    cheapest.slug()
                ));
            }
        }
        for port_sweep in &port_sweeps {
            if let Some(gap) = port_sweep.fully_connected_vs_batcher_gap(ports) {
                out.push_str(&format!(
                    "  FC vs Batcher-Banyan gap at {:.0}% load: {:.0}%",
                    port_sweep.offered_load * 100.0,
                    gap * 100.0
                ));
                // The paper quotes the gap at the Figure 10 load only.
                let published = if (port_sweep.offered_load - FIGURE10_THROUGHPUT).abs() < 1e-9 {
                    published_fc_vs_batcher_gap(ports)
                } else {
                    None
                };
                if let Some(paper) = published {
                    out.push_str(&format!(" (paper: {:.0}%)", paper * 100.0));
                }
                out.push('\n');
            }
        }
    }

    // Network aggregates, for sweeps with a mesh axis: one row per
    // networked point (1×1 cells report as plain single routers and carry
    // no row here).
    let networked: Vec<_> = document
        .points
        .iter()
        .filter_map(|point| point.network.as_ref().map(|stats| (point, stats)))
        .collect();
    if !networked.is_empty() {
        out.push_str("\nnetwork aggregates (per-hop energy over router + link traversals)\n");
        out.push_str(&format!(
            "{:<12}{:<18}{:>6}{:>10}{:>15}{:>14}{:>13}{:>10}{:>9}\n",
            "mesh",
            "routing",
            "load",
            "avg hops",
            "p50/p95/p99",
            "per-hop [pJ]",
            "link [pJ]",
            "sat thpt",
            "stalls"
        ));
        for (point, stats) in networked {
            out.push_str(&format!(
                "{:<12}{:<18}{:>5.0}%{:>10.2}{:>15}{:>14.3}{:>13.3}{:>10.3}{:>9}\n",
                format!(
                    "{}x{}{}",
                    stats.width,
                    stats.height,
                    if stats.torus { " torus" } else { "" }
                ),
                stats.routing.slug(),
                point.offered_load * 100.0,
                stats.average_hops,
                format!(
                    "{:.0}/{:.0}/{:.0}",
                    stats.hops_p50, stats.hops_p95, stats.hops_p99
                ),
                stats.per_hop_energy.as_picojoules(),
                stats.link_energy.as_picojoules(),
                stats.saturation_throughput,
                stats.credit_stalls,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::engine::SweepEngine;

    #[test]
    fn report_mentions_every_architecture_and_size() {
        let config = ExperimentConfig {
            port_counts: vec![4, 8],
            offered_loads: vec![0.1, 0.3, 0.5],
            warmup_cycles: 50,
            measure_cycles: 200,
            ..ExperimentConfig::quick()
        };
        let points = SweepEngine::new().with_threads(1).run(&config).unwrap();
        let document = SweepDocument {
            scenario: "report-test".into(),
            config: config.clone(),
            seed_strategy: crate::cell::SeedStrategy::Shared,
            points,
        };
        let text = format_document(&document);
        assert!(text.contains("4x4 fabric"));
        assert!(text.contains("8x8 fabric"));
        for architecture in &config.architectures {
            assert!(text.contains(architecture.slug()), "{architecture}");
        }
        assert!(text.contains("cheapest at 10% load"));
        // One gap row per size and load, equal to PortSweep's gap; the
        // published value sits beside the 4-port row at the Figure 10 load
        // only (the paper quotes no 8-port gap).
        let engine = SweepEngine::new().with_threads(1);
        for &load in &config.offered_loads {
            let port_sweep = PortSweep::run_with(&config, load, &engine).unwrap();
            for &ports in &config.port_counts {
                let gap = port_sweep.fully_connected_vs_batcher_gap(ports).unwrap();
                let paper = if ports == 4 && load == 0.5 {
                    " (paper: 37%)"
                } else {
                    ""
                };
                let row = format!(
                    "  FC vs Batcher-Banyan gap at {:.0}% load: {:.0}%{paper}\n",
                    load * 100.0,
                    gap * 100.0
                );
                assert!(text.contains(&row), "{row}");
            }
        }
        assert_eq!(text.matches("(paper: ").count(), 1);
    }

    #[test]
    fn report_appends_the_network_section_for_mesh_sweeps() {
        let config = ExperimentConfig {
            port_counts: vec![8],
            offered_loads: vec![0.2],
            architectures: vec![fabric_power_fabric::Architecture::Crossbar],
            warmup_cycles: 20,
            measure_cycles: 100,
            network: Some(crate::config::NetworkSweepConfig::meshes(&[(2, 2)])),
            ..ExperimentConfig::quick()
        };
        let points = SweepEngine::new().with_threads(1).run(&config).unwrap();
        let document = SweepDocument {
            scenario: "noc-report-test".into(),
            config,
            seed_strategy: crate::cell::SeedStrategy::Shared,
            points,
        };
        let text = format_document(&document);
        assert!(text.contains("network aggregates"));
        assert!(text.contains("2x2"));
        assert!(text.contains("dimension-order"));
        // Single-router documents never grow the section.
        let plain = ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.2],
            warmup_cycles: 20,
            measure_cycles: 100,
            ..ExperimentConfig::quick()
        };
        let plain_points = SweepEngine::new().with_threads(1).run(&plain).unwrap();
        let plain_text = format_document(&SweepDocument {
            scenario: "plain".into(),
            config: plain,
            seed_strategy: crate::cell::SeedStrategy::Shared,
            points: plain_points,
        });
        assert!(!plain_text.contains("network aggregates"));
    }

    #[test]
    fn report_prints_latency_columns_with_percentiles() {
        let config = ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.3],
            warmup_cycles: 50,
            measure_cycles: 200,
            ..ExperimentConfig::quick()
        };
        let points = SweepEngine::new().with_threads(1).run(&config).unwrap();
        let document = SweepDocument {
            scenario: "latency-report-test".into(),
            config,
            seed_strategy: crate::cell::SeedStrategy::Shared,
            points: points.clone(),
        };
        let text = format_document(&document);
        assert!(text.contains("latency [cycles] (mean p50/p95/p99)"));
        // The table carries the actual measured values, not placeholders.
        let point = &points[0];
        assert!(text.contains(&format!(
            "{:.1} {:.0}/{:.0}/{:.0}",
            point.average_latency_cycles, point.latency_p50, point.latency_p95, point.latency_p99
        )));
    }
}
