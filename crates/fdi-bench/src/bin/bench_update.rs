//! Update-maintenance benchmark: incremental [`ChaseIndex`] deltas
//! (`Database::insert/delete/modify` re-bucketing only the touched
//! rows, with deletes tombstoning stable `RowId` slots — no survivor
//! id-shift anywhere) vs a full `ChaseIndex::build` after every update —
//! the maintenance strategy the delta operations replaced — plus a
//! **journaled** lane: the incremental pipeline behind a synced
//! in-memory write-ahead journal, isolating the durability layer's
//! per-op overhead. Runs `fdi-gen` single-row update streams, writes
//! `BENCH_update.json` (medians in nanoseconds plus speedups and
//! journal overheads) to the current directory, and prints a table.
//!
//! Both sides perform the identical instance mutations; they differ
//! only in how the determinant index is maintained, so the gap is
//! purely index-maintenance cost. A final equivalence check asserts the
//! two pipelines end on the same instance and bucket-identical indexes.
//! The pipeline core lives in [`fdi_bench::update_bench`], where the CI
//! smoke lane runs it at n = 10².
//!
//! Mixes include `delete_heavy` (≥50% deletes) and `churn`
//! (delete+reinsert cycles) — the workloads that used to sit on the
//! O(n·|F|) positional id-shift floor.
//!
//! A second lane (`"policy": "default"`) times the insert, modify and
//! mixed streams under `Policy::default()` — weak enforcement with
//! NS-rule propagation, where each update runs the delta chase — and
//! every point records `db_clone_ns`, the median cost of one
//! `Database::clone` (what an epoch publication pays).
//!
//! Usage: `cargo run --release -p fdi-bench --bin bench_update
//! [--quick]` — `--quick` drops the n = 100 000 incremental-only point.
//!
//! [`ChaseIndex`]: fdi_core::update::ChaseIndex

use fdi_bench::update_bench::{
    assert_journal_agrees, assert_pipelines_agree, measure_clone, measure_obs_overhead, median_of,
    mixes, render_json, run_incremental, run_journaled, run_rebuild, spec_for, Point,
    DEFAULT_MIXES, POLICY,
};
use fdi_bench::{fmt_duration, Table};
use fdi_core::update::{Database, Policy};
use fdi_gen::{large_workload, update_stream};
use std::io::Write;

const OPS: usize = 256;
const STREAM_SEED: u64 = 11;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut table = Table::new([
        "n",
        "policy",
        "mix",
        "incremental (256 ops)",
        "journaled (mem WAL)",
        "overhead",
        "rebuild-per-op",
        "speedup",
        "db clone",
    ]);
    let mut points = Vec::new();
    for &n in sizes {
        let w = large_workload(7, n, 0.15, 0.1, 4);
        let db = Database::new(w.instance.clone(), w.fds.clone(), POLICY).expect("load mode");
        let repeats = if n >= 100_000 { 3 } else { 5 };
        let t_clone = measure_clone(&db, 11);
        for (mix_name, mix) in mixes() {
            let ops = update_stream(STREAM_SEED, &spec_for(n), n, OPS, mix);
            let t_incremental = median_of(repeats, || run_incremental(&db, &ops).0);
            let t_journaled = median_of(repeats, || run_journaled(&db, &ops).0);
            // Rebuild-per-op is O(ops · n · |F|): skip it at 100k where
            // one stream alone takes minutes.
            let t_rebuild = (n <= 10_000)
                .then(|| median_of(repeats, || run_rebuild(&w.instance, &w.fds, &ops).0));
            // The measurement is only honest if both pipelines end in
            // the same state.
            if t_rebuild.is_some() {
                assert_pipelines_agree(
                    &db,
                    &ops,
                    &w.instance,
                    &w.fds,
                    &format!("n = {n}, mix {mix_name}"),
                );
            }
            let speedup = t_rebuild
                .map(|t| format!("×{:.1}", t.as_secs_f64() / t_incremental.as_secs_f64()))
                .unwrap_or_else(|| "-".to_string());
            table.row([
                n.to_string(),
                "none".to_string(),
                mix_name.to_string(),
                fmt_duration(t_incremental),
                fmt_duration(t_journaled),
                format!(
                    "×{:.2}",
                    t_journaled.as_secs_f64() / t_incremental.as_secs_f64()
                ),
                t_rebuild
                    .map(fmt_duration)
                    .unwrap_or_else(|| "(skipped)".into()),
                speedup,
                fmt_duration(t_clone),
            ]);
            points.push(Point {
                n,
                policy: "none",
                mix: mix_name,
                ops: OPS,
                incremental_ns: t_incremental.as_nanos(),
                journaled_ns: t_journaled.as_nanos(),
                rebuild_ns: t_rebuild.map(|d| d.as_nanos()),
                db_clone_ns: t_clone.as_nanos(),
            });
        }
        // The serving default: weak enforcement decided by, and NS-rule
        // propagation done by, the delta chase of every update.
        let db = Database::new(w.instance.clone(), w.fds.clone(), Policy::default())
            .expect("large workloads are weakly satisfiable");
        let t_clone = measure_clone(&db, 11);
        for (mix_name, mix) in mixes() {
            if !DEFAULT_MIXES.contains(&mix_name) {
                continue;
            }
            let ops = update_stream(STREAM_SEED, &spec_for(n), n, OPS, mix);
            let t_incremental = median_of(repeats, || run_incremental(&db, &ops).0);
            let t_journaled = median_of(repeats, || run_journaled(&db, &ops).0);
            assert_journal_agrees(
                &db,
                &ops,
                &format!("n = {n}, default policy, mix {mix_name}"),
            );
            table.row([
                n.to_string(),
                "default".to_string(),
                mix_name.to_string(),
                fmt_duration(t_incremental),
                fmt_duration(t_journaled),
                format!(
                    "×{:.2}",
                    t_journaled.as_secs_f64() / t_incremental.as_secs_f64()
                ),
                "-".to_string(),
                "-".to_string(),
                fmt_duration(t_clone),
            ]);
            points.push(Point {
                n,
                policy: "default",
                mix: mix_name,
                ops: OPS,
                incremental_ns: t_incremental.as_nanos(),
                journaled_ns: t_journaled.as_nanos(),
                rebuild_ns: None,
                db_clone_ns: t_clone.as_nanos(),
            });
        }
    }
    table.print();
    // Honesty lane: the same incremental pipeline under a live recorder
    // vs the noop default, asserted bounded before the artifact is
    // written so an instrumented serving build can trust these numbers.
    let obs = {
        let n = 1_000;
        let w = large_workload(7, n, 0.15, 0.1, 4);
        let db = Database::new(w.instance, w.fds, POLICY).expect("load mode");
        let ops = update_stream(
            STREAM_SEED,
            &spec_for(n),
            n,
            OPS,
            fdi_gen::UpdateMix::default(),
        );
        measure_obs_overhead(&db, &ops, 5)
    };
    obs.assert_bounded(3.0);
    println!(
        "obs honesty lane: enabled-recorder overhead ×{:.2}",
        obs.ratio()
    );
    let json = render_json(&points, &obs);
    std::fs::File::create("BENCH_update.json")
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_update.json");
    println!("wrote BENCH_update.json");
}
