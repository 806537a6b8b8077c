//! `pbsim` — run a predbranch assembly program and report dynamic
//! statistics.
//!
//! ```text
//! pbsim <file.s|file.hex> [--hex] [--max N] [--latency L] [--trace]
//! ```

use std::fs;
use std::process::ExitCode;

use predbranch_isa::{assemble, outln};
use predbranch_sim::{Event, ExecMetrics, Executor, GuardKnowledgeStats, Memory, TraceSink};

struct Options {
    path: String,
    max: u64,
    latency: u64,
    trace: bool,
    hex: bool,
}

fn parse_args() -> Option<Options> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        path: String::new(),
        max: 10_000_000,
        latency: 8,
        trace: false,
        hex: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max" => opts.max = args.next()?.parse().ok()?,
            "--latency" => opts.latency = args.next()?.parse().ok()?,
            "--trace" => opts.trace = true,
            "--hex" => opts.hex = true,
            path if opts.path.is_empty() && !path.starts_with('-') => {
                opts.path = path.to_string();
            }
            _ => return None,
        }
    }
    if opts.path.is_empty() {
        None
    } else {
        Some(opts)
    }
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else {
        eprintln!("usage: pbsim <file.s> [--max N] [--latency L] [--trace]");
        return ExitCode::FAILURE;
    };
    let text = match fs::read_to_string(&opts.path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pbsim: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let program = if opts.hex {
        let words: Result<Vec<u64>, _> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(|l| u64::from_str_radix(l, 16))
            .collect();
        let insts = words
            .map_err(|e| e.to_string())
            .and_then(|w| predbranch_isa::decode_program(&w).map_err(|e| e.to_string()))
            .and_then(|insts| predbranch_isa::Program::new(insts).map_err(|e| e.to_string()));
        match insts {
            Ok(p) => p,
            Err(e) => {
                eprintln!("pbsim: {}: {e}", opts.path);
                return ExitCode::FAILURE;
            }
        }
    } else {
        match assemble(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("pbsim: {}: {e}", opts.path);
                return ExitCode::FAILURE;
            }
        }
    };

    let mut exec = Executor::new(&program, Memory::new());
    let mut sinks = (
        ExecMetrics::new(),
        (GuardKnowledgeStats::new(opts.latency), TraceSink::new()),
    );
    let summary = exec.run(&mut sinks, opts.max);
    let (metrics, (knowledge, trace)) = sinks;

    if opts.trace {
        for event in trace.events() {
            match event {
                Event::Branch(b) => outln!(
                    "branch  @{:>5} pc {:>5} guard {:<4} {}",
                    b.index,
                    b.pc,
                    b.guard.to_string(),
                    if b.taken { "taken" } else { "not-taken" }
                ),
                Event::PredWrite(w) => outln!(
                    "predset @{:>5} pc {:>5} {:<4} = {}",
                    w.index,
                    w.pc,
                    w.preg.to_string(),
                    w.value
                ),
            }
        }
    }

    outln!("halted:              {}", summary.halted);
    outln!("instructions:        {}", summary.instructions);
    outln!("branches:            {}", summary.branches);
    outln!("  conditional:       {}", summary.conditional_branches);
    outln!("  taken:             {}", summary.taken_conditional);
    outln!("  region-based:      {}", summary.region_branches);
    outln!("predicate writes:    {}", summary.pred_writes);
    outln!("taken fraction:      {}", metrics.taken_fraction());
    outln!(
        "guard @fetch (lat {}): known-false {} / known-true {} / unknown {}",
        opts.latency,
        knowledge.known_false(),
        knowledge.known_true(),
        knowledge.unknown()
    );
    if summary.halted {
        ExitCode::SUCCESS
    } else {
        eprintln!("pbsim: instruction budget exhausted");
        ExitCode::FAILURE
    }
}
