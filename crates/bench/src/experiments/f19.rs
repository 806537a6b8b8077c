//! F19 — where the modern-tier wins land (extension): the F18
//! configurations joined against the F17 predictability taxonomy.
//!
//! For each benchmark, one shared pass feeds the streaming
//! characterizer and a harness with six per-branch attribution lanes —
//! TAGE and the multiperspective perceptron, each bare, with +SFPF+PGU,
//! and in its predicate-aware form (`ptage`/`pmpp`). Every static
//! conditional branch's misprediction counts are then grouped by its
//! taxonomy bucket.
//!
//! The claim under test — the paper's conclusion carried forward 20
//! years — is that whatever accuracy the predicate mechanisms still buy
//! on top of a modern base concentrates in the *predicate-predictable*
//! bucket: the branches whose guards resolve early or whose predicate
//! context is informative, exactly the population the 2003 mechanisms
//! were designed for. On the other buckets a strong history-based base
//! has little left to gain from predicate signals.

use predbranch_characterize::Bucket;
use predbranch_core::BranchPredictor;
use predbranch_modern::{build_modern, ModernSpec};
use predbranch_stats::{Align, Cell, Table};

use super::attribution::{attribute_suite, BucketAgg};
use super::{mpp_spec, tage_spec, Artifact, Scale};
use crate::runner::{RunContext, PGU_DELAY};

/// The six configurations, in column order: each family's base, its
/// +SFPF+PGU wrapping, and its predicate-aware variant.
fn configs() -> [ModernSpec; 6] {
    let both = |spec: ModernSpec| spec.with_sfpf().with_pgu(PGU_DELAY);
    [
        tage_spec(),
        both(tage_spec()),
        predicate_variant(tage_spec()),
        mpp_spec(),
        both(mpp_spec()),
        predicate_variant(mpp_spec()),
    ]
}

/// The predicate-aware form of a modern base spec, keeping its
/// geometry in lock-step with the F18 configuration.
fn predicate_variant(spec: ModernSpec) -> ModernSpec {
    match spec {
        ModernSpec::Tage {
            tables,
            index_bits,
            max_history,
            ..
        } => ModernSpec::Tage {
            tables,
            index_bits,
            max_history,
            predicate: true,
        },
        ModernSpec::Mpp { index_bits, .. } => ModernSpec::Mpp {
            index_bits,
            predicate: true,
        },
        other => other,
    }
}

/// The six configurations, built in [`configs`] order.
fn predictors() -> [Box<dyn BranchPredictor>; 6] {
    let specs = configs();
    std::array::from_fn(|i| build_modern(&specs[i]))
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);
    let joined = attribute_suite(ctx, &entries, predictors);

    let mut table = Table::new(
        "F19: modern-tier misprediction win over each family base (pp) by taxonomy bucket",
        &[
            "bucket",
            "statics",
            "branches",
            "tage",
            "tage+both",
            "ptage",
            "mpp",
            "mpp+both",
            "pmpp",
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
        Align::Right,
        Align::Right,
    ]);
    for (bucket, a) in Bucket::ALL.iter().zip(&joined.buckets) {
        table.row(bucket_row(bucket.label(), a));
    }
    table.row(bucket_row("(all)", &joined.total));

    vec![Artifact::Table(table)]
}

fn bucket_row(label: &str, a: &BucketAgg<6>) -> Vec<Cell> {
    vec![
        Cell::new(label),
        Cell::count(a.statics),
        Cell::count(a.branches),
        Cell::percent(a.misp_percent(0)),
        Cell::float(a.delta_pp(0, 1), 2),
        Cell::float(a.delta_pp(0, 2), 2),
        Cell::percent(a.misp_percent(3)),
        Cell::float(a.delta_pp(3, 4), 2),
        Cell::float(a.delta_pp(3, 5), 2),
    ]
}
