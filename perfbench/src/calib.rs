//! The host-speed reference: a fixed kernel that times the host, not the
//! program.
//!
//! The shared host's throughput per cycle drifts over seconds to minutes,
//! and a run's median pass time moves with it (see `README.md`, "Noise").
//! The kernel below has the simulator's allocation and lookup shape: two
//! small `HashMap`s built and dropped per simulated cycle, a long-lived
//! `HashMap` of last words per link and a set of bounded `VecDeque` queues.
//! It is timed in chunks right before and right after every timed pass, and
//! the host-time metrics are reported at the speed the host had when the
//! kernel took [`REFERENCE_CHUNK_S`] per chunk.  Nothing of the program runs
//! in it, so a change to the program moves the pass and not the reference.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Simulated cycles in one chunk (about 50 ms on the reference host).
const CYCLES: u64 = 20_000;

/// Ports touched per simulated cycle.
const PORTS: u32 = 16;

/// Seconds one chunk takes on the reference host, a 2-vCPU x86_64 VM: the
/// median over fifteen 35 s runs, five per workload.  Host-time metrics are
/// scaled to this speed.
pub const REFERENCE_CHUNK_S: f64 = 0.0515;

/// Chunks timed right before and again right after every timed pass.
pub const CHUNKS_PER_SIDE: usize = 3;

/// Runs one chunk and returns its seconds.  Every chunk does the same work.
pub fn chunk() -> f64 {
    let started = Instant::now();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut last_word: HashMap<(u32, u32), u64> = HashMap::new();
    let mut queues: Vec<VecDeque<u64>> = (0..32).map(|_| VecDeque::new()).collect();
    let mut acc = 0u64;
    for cycle in 0..CYCLES {
        let mut claimed: HashMap<(u32, u32), usize> = HashMap::new();
        let mut occupancy: HashMap<u32, usize> = HashMap::new();
        for port in 0..PORTS {
            let r = next();
            let link = (port, (r % 64) as u32);
            *claimed.entry(link).or_default() += 1;
            *occupancy.entry((r >> 8) as u32 % 48).or_default() += 1;
            let queue = &mut queues[(r >> 16) as usize % 32];
            queue.push_back(r);
            if queue.len() > 8 {
                acc ^= queue.pop_front().unwrap_or(0);
            }
            let previous = last_word.insert(link, r ^ cycle).unwrap_or(0);
            acc = acc.wrapping_add(u64::from((previous ^ r).count_ones()));
        }
        acc = acc.wrapping_add((claimed.len() + occupancy.values().sum::<usize>()) as u64);
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Times `CHUNKS_PER_SIDE` chunks.
pub fn side() -> Vec<f64> {
    (0..CHUNKS_PER_SIDE).map(|_| chunk()).collect()
}

/// How much slower than the reference the host ran, from the chunks timed
/// around a stretch of work: their mean over [`REFERENCE_CHUNK_S`].
pub fn slowdown(chunks: &[f64]) -> f64 {
    chunks.iter().sum::<f64>() / chunks.len() as f64 / REFERENCE_CHUNK_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_chunk_over_the_reference() {
        let chunks = [REFERENCE_CHUNK_S, 2.0 * REFERENCE_CHUNK_S];
        assert!((slowdown(&chunks) - 1.5).abs() < 1e-12);
    }
}
