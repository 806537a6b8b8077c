//! F17 — the H2P taxonomy joined against per-branch mispredictions
//! (extension).
//!
//! One shared pass per benchmark feeds the streaming characterizer
//! *and* one harness with an attribution lane per headline
//! configuration, then every static conditional branch's misprediction
//! counts are grouped by its taxonomy bucket. The join answers the
//! question the taxonomy exists for: which class of branch does each
//! mechanism actually fix?
//!
//! The expected shape — and the claim the test suite pins — is that the
//! SFPF/PGU wins concentrate in the *predicate-predictable* bucket.
//! That is a real prediction, not a tautology: the classifier sees only
//! fetch-visible signals (scoreboard guard knowledge plus a delayed
//! predicate-outcome register), never the architectural guard value the
//! predictors are being scored against.

use predbranch_characterize::Bucket;
use predbranch_core::{build_predictor, BranchPredictor};
use predbranch_stats::{Align, Cell, Table};

use super::attribution::{attribute_suite, BucketAgg};
use super::{headline_specs, Artifact, Scale};
use crate::runner::RunContext;

/// The four headline configurations, in [`headline_specs`] order.
fn predictors() -> [Box<dyn BranchPredictor>; 4] {
    let specs = headline_specs();
    std::array::from_fn(|i| build_predictor(&specs[i].1))
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);
    let joined = attribute_suite(ctx, &entries, predictors);

    let mut deltas = Table::new(
        "F17: misprediction win over gshare (pp) by taxonomy bucket",
        &[
            "bucket", "statics", "branches", "gshare", "+SFPF", "+PGU", "+both",
        ],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (bucket, a) in Bucket::ALL.iter().zip(&joined.buckets) {
        deltas.row(bucket_row(bucket.label(), a));
    }
    deltas.row(bucket_row("(all)", &joined.total));

    let mut population = Table::new(
        "F17: static-branch taxonomy per benchmark",
        &[
            "benchmark",
            "statics",
            "biased",
            "history",
            "predicate",
            "hard",
        ],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (entry, report) in entries.iter().zip(&joined.reports) {
        let mut row = vec![
            Cell::new(entry.compiled.name),
            Cell::count(report.branches().len() as u64),
        ];
        for bucket in Bucket::ALL {
            row.push(Cell::count(report.bucket_count(bucket) as u64));
        }
        population.row(row);
    }

    vec![Artifact::Table(deltas), Artifact::Table(population)]
}

fn bucket_row(label: &str, a: &BucketAgg<4>) -> Vec<Cell> {
    vec![
        Cell::new(label),
        Cell::count(a.statics),
        Cell::count(a.branches),
        Cell::percent(a.misp_percent(0)),
        Cell::float(a.delta_pp(0, 1), 2),
        Cell::float(a.delta_pp(0, 2), 2),
        Cell::float(a.delta_pp(0, 3), 2),
    ]
}
