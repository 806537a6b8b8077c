//! Host-speed reference for the sweep benchmark.
//!
//! Runs a fixed amount of work on `--threads` threads at once (the sweep's
//! `--jobs`) and prints the number of branches its counter table
//! mispredicted, which is the same on every run. It uses no predbranch
//! crate, so a change to the program under test never changes it. The
//! benchmark times it right before and after each sweep and divides the
//! sweep's times by its mean CPU time: a shared host that runs slower for
//! minutes at a time slows both alike.
//!
//! The work imitates the sweep's hot loop while staying in the core's own
//! caches: a stream of branches, each predicted by a 2-bit counter in a
//! 1 MiB gshare-style table and then trained. A variant that also read a
//! large buffer and a 2 MiB table was tried first; it measured memory
//! latency, and its time did not follow the sweep's.
//!
//! Usage: sweepbench-hostref [--threads N] [--branches N]

use std::hint::black_box;
use std::thread;

const TABLE_BITS: u32 = 20;
const SITES: u64 = 1024;

/// Predicts `branches` branches; returns the number mispredicted.
fn kernel(seed: u64, branches: u64) -> u64 {
    let mask = (1u64 << TABLE_BITS) - 1;
    let mut table = vec![1u8; 1 << TABLE_BITS];
    let (mut history, mut rng, mut misses) = (0u64, seed | 1, 0u64);
    for i in 0..branches {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let site = (i % SITES) * 4;
        // a loop-like period per site, flipped once in 64 at random
        let taken = ((i >> 3) % ((site >> 2) % 7 + 2) != 0) ^ (rng & 63 == 0);
        let at = ((site ^ history.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) & mask) as usize;
        if (table[at] >= 2) != taken {
            misses += 1;
        }
        table[at] = if taken {
            (table[at] + 1).min(3)
        } else {
            table[at].saturating_sub(1)
        };
        history = (history << 1) | taken as u64;
    }
    misses
}

fn main() {
    let (mut threads, mut branches) = (2u64, 10_000_000u64);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match (
            flag.as_str(),
            args.next().and_then(|v| v.parse::<u64>().ok()),
        ) {
            ("--threads", Some(n)) if n > 0 => threads = n,
            ("--branches", Some(n)) if n > 0 => branches = n,
            _ => {
                eprintln!("usage: sweepbench-hostref [--threads N] [--branches N]");
                std::process::exit(2);
            }
        }
    }
    let workers: Vec<_> = (0..threads)
        .map(|i| thread::spawn(move || kernel(black_box(7 + i), black_box(branches))))
        .collect();
    let misses: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("reference thread"))
        .sum();
    println!("{misses}");
}
