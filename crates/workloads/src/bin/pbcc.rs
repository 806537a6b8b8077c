//! `pbcc` — compile a suite benchmark to predbranch assembly.
//!
//! ```text
//! pbcc list                          list benchmarks
//! pbcc <bench>                       plain (branchy) lowering to stdout
//! pbcc <bench> --ifconvert           profile-guided if-conversion
//! pbcc <bench> --ifconvert --threshold 0.95
//! pbcc <bench> --report              compilation report instead of assembly
//! ```
//!
//! The emitted text round-trips through `pbasm`/`pbsim`.

use std::process::ExitCode;

use predbranch_isa::{out, outln};
use predbranch_workloads::{compile_benchmark, suite, CompileOptions, IfConvertConfig};

struct Options {
    bench: String,
    ifconvert: bool,
    threshold: Option<f64>,
    report: bool,
}

fn parse_args() -> Option<Options> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        bench: String::new(),
        ifconvert: false,
        threshold: None,
        report: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ifconvert" => opts.ifconvert = true,
            "--threshold" => opts.threshold = Some(args.next()?.parse().ok()?),
            "--report" => opts.report = true,
            name if opts.bench.is_empty() && !name.starts_with('-') => {
                opts.bench = name.to_string();
            }
            _ => return None,
        }
    }
    if opts.bench.is_empty() {
        None
    } else {
        Some(opts)
    }
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else {
        eprintln!("usage: pbcc <bench|list> [--ifconvert] [--threshold X] [--report]");
        return ExitCode::FAILURE;
    };
    if opts.bench == "list" {
        for bench in suite() {
            outln!("{:<9} {}", bench.name(), bench.description());
        }
        return ExitCode::SUCCESS;
    }
    let Some(bench) = suite().into_iter().find(|b| b.name() == opts.bench) else {
        eprintln!("pbcc: unknown benchmark `{}` (try `pbcc list`)", opts.bench);
        return ExitCode::FAILURE;
    };

    let mut compile_opts = CompileOptions::default();
    if let Some(threshold) = opts.threshold {
        compile_opts.ifconv = IfConvertConfig {
            convert_bias_below: threshold,
            ..IfConvertConfig::default()
        };
    }
    let compiled = compile_benchmark(&bench, &compile_opts);

    if opts.report {
        outln!("benchmark:           {}", compiled.name);
        outln!("plain instructions:  {}", compiled.plain.len());
        outln!("pred  instructions:  {}", compiled.predicated.len());
        let stats = compiled.ifconv_stats;
        outln!("regions formed:      {}", stats.regions_formed);
        outln!("branches converted:  {}", stats.branches_converted);
        outln!("region branches:     {}", stats.branches_kept);
        outln!("blocks predicated:   {}", stats.blocks_predicated);
        for region in &compiled.regions {
            outln!(
                "  region {:>2} @ {:<5} {:>2} blocks, {} converted, {} kept",
                region.id,
                region.seed.to_string(),
                region.blocks.len(),
                region.converted_branches,
                region.kept_branches
            );
        }
        return ExitCode::SUCCESS;
    }

    let program = if opts.ifconvert {
        &compiled.predicated
    } else {
        &compiled.plain
    };
    out!("{program}");
    ExitCode::SUCCESS
}
