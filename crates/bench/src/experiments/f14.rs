//! F14 — seed stability (extension): the headline result across
//! independent evaluation inputs.
//!
//! Synthetic workloads invite the worry that a result is an artifact of
//! one input draw. Each headline configuration runs on several fresh
//! evaluation seeds (compilation stays trained on the canonical training
//! seed); the table reports the suite-mean misprediction rate per
//! configuration as mean ± 95% CI over seeds.

use predbranch_core::InsertFilter;
use predbranch_stats::{mean, Cell, Summary, Table};

use super::{base_spec, headline_specs, Artifact, Scale};
use crate::runner::{CellSpec, RunContext};

const SEEDS: [u64; 5] = [11, 222, 3_333, 44_444, 555_555];

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);
    let specs = headline_specs();
    // one input image per (seed, bench), shared by every spec's cell
    let timing = scale.timing();
    let seeded: Vec<CellSpec> = SEEDS
        .iter()
        .flat_map(|&seed| {
            entries.iter().map(move |entry| {
                CellSpec::seeded(entry, "", seed, base_spec(), timing, InsertFilter::All)
            })
        })
        .collect();
    let n = entries.len();
    let mut cells_in = Vec::with_capacity(specs.len() * seeded.len());
    for (label, spec) in &specs {
        for (seed_cells, seed) in seeded.chunks(n).zip(SEEDS) {
            for (base, entry) in seed_cells.iter().zip(entries.iter()) {
                cells_in.push(CellSpec {
                    label: format!("f14/{}/{label}/s{seed}", entry.compiled.name),
                    spec: spec.into(),
                    ..base.clone()
                });
            }
        }
    }
    let outs = ctx.run_cells(cells_in);

    let mut table = Table::new(
        "F14: headline result across evaluation seeds (suite mean misp%, n=5 seeds)",
        &["config", "mean", "95% CI ±", "min", "max"],
    );
    for (si, (label, _)) in specs.iter().enumerate() {
        let mut per_seed = Summary::new();
        for seed_idx in 0..SEEDS.len() {
            let start = (si * SEEDS.len() + seed_idx) * n;
            let rates: Vec<f64> = outs[start..start + n]
                .iter()
                .map(|out| out.misp_percent())
                .collect();
            per_seed.record(mean(&rates));
        }
        table.row(vec![
            Cell::new(*label),
            Cell::percent(per_seed.mean()),
            Cell::float(per_seed.confidence95(), 3),
            Cell::percent(per_seed.min()),
            Cell::percent(per_seed.max()),
        ]);
    }
    vec![Artifact::Table(table)]
}
