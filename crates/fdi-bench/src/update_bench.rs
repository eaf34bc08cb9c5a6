//! Core of the `bench_update` binary, factored into the library so the
//! CI smoke lane (`cargo test -p fdi-bench`) exercises the exact
//! pipelines the benchmark times — at n = 10², every mix — before the
//! artifact-upload step can bit-rot.
//!
//! Three pipelines perform identical instance mutations:
//!
//! * **incremental** — a [`Database`] under a no-check/no-propagate
//!   policy ([`POLICY`]): every op is one `ChaseIndex` delta on stable
//!   [`RowId`]s (deletes tombstone + unfile, `O(|F| · bucket)`, no
//!   survivor renumbering);
//! * **journaled** — the same database wrapped in a
//!   [`JournaledDatabase`] over in-memory storage with a sync barrier
//!   after every op, so the gap over *incremental* is the pure
//!   write-ahead-journaling overhead (op encoding + append + barrier),
//!   free of disk noise;
//! * **rebuild-per-op** — the same mutations on a plain [`Instance`],
//!   with `ChaseIndex::build` re-run from scratch after every op (the
//!   pre-delta strategy the deltas replaced).
//!
//! Both resolve an op's positional row reference through the same
//! display-order live-row bookkeeping ([`LiveRows`] on the incremental
//! side, a mirrored id vector on the rebuild side), so they always
//! target the same logical row.
//!
//! A second lane times the same incremental and journaled pipelines
//! under [`Policy::default`] (weak enforcement with NS-rule
//! propagation — the serving default), where every accepted update
//! runs the delta chase and every weak verdict comes from it
//! ([`DEFAULT_MIXES`]; no rebuild-per-op column, since the rebuild
//! pipeline neither checks nor chases). Every point also records the
//! cost of one [`Database::clone`] — what an epoch publication pays.

use fdi_core::fd::FdSet;
use fdi_core::update::{ChaseIndex, Database, Enforcement, Policy};
use fdi_gen::{apply_op, LiveRows, UpdateMix, UpdateOp, WorkloadSpec};
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;
use fdi_relation::value::Value;
use fdi_store::{JournaledDatabase, MemStorage, SyncPolicy};
use std::time::{Duration, Instant};

/// Maintenance-only policy: no satisfiability checking, no NS-rule
/// propagation — the measured work is the index upkeep itself.
pub const POLICY: Policy = Policy {
    enforcement: Enforcement::None,
    propagate: false,
};

/// The mixes the [`Policy::default`] lane times.
pub const DEFAULT_MIXES: [&str; 3] = ["insert", "modify", "mixed"];

/// One measured configuration.
pub struct Point {
    /// Starting relation size.
    pub n: usize,
    /// Policy lane: `"none"` ([`POLICY`]) or `"default"`
    /// ([`Policy::default`]).
    pub policy: &'static str,
    /// Mix name (see [`mixes`]).
    pub mix: &'static str,
    /// Ops applied per run.
    pub ops: usize,
    /// Median wall time of the incremental pipeline, nanoseconds.
    pub incremental_ns: u128,
    /// Median wall time of the journaled pipeline (incremental plus a
    /// synced in-memory write-ahead journal), nanoseconds.
    pub journaled_ns: u128,
    /// Median wall time of rebuild-per-op (`None` when skipped).
    pub rebuild_ns: Option<u128>,
    /// Median wall time of one clone of the starting database.
    pub db_clone_ns: u128,
}

/// The benchmarked op mixes. `delete_heavy` (50% deletes) and `churn`
/// (delete + reinsert cycles) are the stable-slot stress mixes: under
/// positional row ids they sat on the O(n·|F|) id-shift floor.
pub fn mixes() -> Vec<(&'static str, UpdateMix)> {
    let m = |insert, delete, modify| UpdateMix {
        insert,
        delete,
        modify,
        resolve: 0,
    };
    vec![
        ("mixed", UpdateMix::default()),
        ("insert", m(1, 0, 0)),
        ("delete", m(0, 1, 0)),
        ("modify", m(0, 0, 1)),
        ("delete_heavy", m(1, 2, 1)),
        ("churn", m(1, 1, 0)),
    ]
}

/// The workload spec the streams draw tokens from.
pub fn spec_for(n: usize) -> WorkloadSpec {
    fdi_gen::scaling_spec(n, 0.15, 0.1)
}

/// Median over `repeats` runs of `f`, where `f` excludes its own setup.
pub fn median_of(repeats: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut times: Vec<Duration> = (0..repeats).map(|_| f()).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Median wall time of one [`Database::clone`] of `db`.
pub fn measure_clone(db: &Database, repeats: usize) -> Duration {
    median_of(repeats, || {
        let start = Instant::now();
        std::hint::black_box(db.clone());
        start.elapsed()
    })
}

/// Applies the stream through the delta-maintained [`Database`].
pub fn run_incremental(db: &Database, ops: &[UpdateOp]) -> (Duration, Database) {
    let mut db = db.clone();
    let mut live = LiveRows::of(db.instance());
    let start = Instant::now();
    for op in ops {
        std::hint::black_box(apply_op(&mut db, &mut live, op));
    }
    (start.elapsed(), db)
}

/// Mirrors [`apply_op`]'s positional resolution and skip-on-reject
/// behaviour against a [`JournaledDatabase`], so the journaled lane
/// targets exactly the rows the other lanes target.
fn journaled_apply(
    jdb: &mut JournaledDatabase<MemStorage>,
    live: &mut Vec<RowId>,
    op: &UpdateOp,
) -> bool {
    match op {
        UpdateOp::Insert(tokens) => {
            let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            match jdb.insert(&refs) {
                Ok(outcome) => {
                    live.push(outcome.row);
                    true
                }
                Err(_) => false,
            }
        }
        UpdateOp::Delete(pos) => match live.get(*pos).copied() {
            Some(row) if jdb.delete(row).is_ok() => {
                live.remove(*pos);
                true
            }
            _ => false,
        },
        UpdateOp::Modify { row, attr, token } => match live.get(*row).copied() {
            Some(id) => jdb.modify(id, *attr, token).is_ok(),
            None => false,
        },
        UpdateOp::ResolveNull { row, attr, token } => match live.get(*row).copied() {
            Some(id) => jdb.resolve_null(id, *attr, token).is_ok(),
            None => false,
        },
    }
}

/// Applies the stream through a [`JournaledDatabase`] over in-memory
/// storage under [`SyncPolicy::EveryOp`]. Journal creation (the genesis
/// snapshot) is setup and excluded from the timed region; the measured
/// delta over [`run_incremental`] is per-op journaling cost.
pub fn run_journaled(db: &Database, ops: &[UpdateOp]) -> (Duration, JournaledDatabase<MemStorage>) {
    let mut jdb = JournaledDatabase::create(db.clone(), MemStorage::new(), SyncPolicy::EveryOp)
        .expect("fresh in-memory storage is empty");
    let mut live: Vec<RowId> = jdb.db().instance().row_ids().collect();
    let start = Instant::now();
    for op in ops {
        std::hint::black_box(journaled_apply(&mut jdb, &mut live, op));
    }
    (start.elapsed(), jdb)
}

/// Applies the identical mutations to a plain instance, rebuilding the
/// index from scratch after every update — the pre-delta strategy.
pub fn run_rebuild(
    base: &Instance,
    fds: &FdSet,
    ops: &[UpdateOp],
) -> (Duration, Instance, ChaseIndex) {
    let mut instance = base.clone();
    let mut index = ChaseIndex::build(&instance, fds);
    let mut live: Vec<RowId> = instance.row_ids().collect();
    let start = Instant::now();
    for op in ops {
        match op {
            UpdateOp::Insert(tokens) => {
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                let id = instance.add_row(&refs).expect("stream tokens are valid");
                live.push(id);
            }
            UpdateOp::Delete(pos) => {
                let id = live.remove(*pos);
                instance.remove_row(id);
            }
            UpdateOp::Modify { row, attr, token } => {
                let value = if token == "-" {
                    Value::Null(instance.fresh_null())
                } else {
                    Value::Const(
                        instance
                            .intern_constant(*attr, token)
                            .expect("stream tokens are valid"),
                    )
                };
                instance.set_value(live[*row], *attr, value);
            }
            UpdateOp::ResolveNull { .. } => {
                unreachable!("bench mixes keep resolve ops off (blind targets)")
            }
        }
        index = std::hint::black_box(ChaseIndex::build(&instance, fds));
    }
    (start.elapsed(), instance, index)
}

/// Asserts all pipelines end on the same instance and bucket-identical
/// indexes — the honesty check behind every point. The journaled lane
/// is additionally replayed through crash recovery: the state rebuilt
/// from its journal must be bit-identical to the state it timed.
pub fn assert_pipelines_agree(
    db: &Database,
    ops: &[UpdateOp],
    base: &Instance,
    fds: &FdSet,
    label: &str,
) {
    let (_, final_db) = run_incremental(db, ops);
    let (_, final_instance, final_index) = run_rebuild(base, fds, ops);
    assert_eq!(
        final_db.instance().canonical_form(),
        final_instance.canonical_form(),
        "pipelines diverge: {label}"
    );
    assert!(
        final_db.index().same_buckets(&final_index),
        "delta-maintained index diverges from rebuilds: {label}"
    );
    let (_, jdb) = run_journaled(db, ops);
    assert_eq!(
        jdb.db().instance().render(true),
        final_db.instance().render(true),
        "journaled pipeline diverges from incremental: {label}"
    );
    let (live, journal) = jdb.into_parts();
    let recovered = fdi_store::Journal::recover(journal.into_storage().crash())
        .expect("a fully synced journal recovers");
    assert_eq!(
        recovered.db.instance().render(true),
        live.instance().render(true),
        "recovery does not reproduce the journaled database: {label}"
    );
    assert!(
        recovered.db.index().same_buckets(live.index()),
        "recovered index diverges: {label}"
    );
}

/// The honesty check of the [`Policy::default`] lane, where the
/// rebuild pipeline (no checks, no chase) does not apply: the
/// delta-maintained index equals a fresh build, the journaled lane ends
/// where the incremental lane ends, and crash recovery of its journal
/// reproduces that state. Recovery replays only the accepted ops, and
/// a rejected insert may have burned null ids, so recovered and live
/// states are compared up to null naming (canonical form, buckets).
pub fn assert_journal_agrees(db: &Database, ops: &[UpdateOp], label: &str) {
    let (_, final_db) = run_incremental(db, ops);
    assert!(
        final_db
            .index()
            .same_buckets(&ChaseIndex::build(final_db.instance(), final_db.fds())),
        "delta-maintained index diverges from a fresh build: {label}"
    );
    let (_, jdb) = run_journaled(db, ops);
    assert_eq!(
        jdb.db().instance().render(true),
        final_db.instance().render(true),
        "journaled pipeline diverges from incremental: {label}"
    );
    let (live, journal) = jdb.into_parts();
    let recovered = fdi_store::Journal::recover(journal.into_storage().crash())
        .expect("a fully synced journal recovers");
    assert_eq!(
        recovered.db.instance().canonical_form(),
        live.instance().canonical_form(),
        "recovery does not reproduce the journaled database: {label}"
    );
    assert!(
        recovered.db.index().same_buckets(live.index()),
        "recovered index diverges: {label}"
    );
}

/// The instrumented-vs-noop honesty lane: the incremental pipeline
/// timed with the default noop recorder vs with a live
/// [`fdi_obs::Recorder`] tallying every op's acceptance and
/// index-delta counters. The counters are a handful of relaxed atomic
/// adds per op, so the ratio should sit near 1; the bench bins assert
/// it stays bounded before writing artifacts.
pub fn measure_obs_overhead(db: &Database, ops: &[UpdateOp], repeats: usize) -> crate::ObsOverhead {
    let noop = median_of(repeats, || run_incremental(db, ops).0);
    let mut recorded = db.clone();
    recorded.set_recorder(fdi_obs::Recorder::enabled());
    let enabled = median_of(repeats, || run_incremental(&recorded, ops).0);
    crate::ObsOverhead {
        noop_ns: noop.as_nanos(),
        enabled_ns: enabled.as_nanos(),
    }
}

/// Renders the measured points as the `BENCH_update.json` document.
pub fn render_json(points: &[Point], obs: &crate::ObsOverhead) -> String {
    let mut out = String::from(
        "{\n  \"workload\": \"large_workload(seed=7, null=0.15, nec=0.1, fds=4) + \
         update_stream(seed=11)\",\n",
    );
    out.push_str(&format!("  \"host\": {},\n", crate::host_json()));
    out.push_str(&format!("  \"obs_overhead\": {},\n", obs.json()));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let rebuild = p
            .rebuild_ns
            .map(|v| v.to_string())
            .unwrap_or_else(|| "null".to_string());
        let speedup = p
            .rebuild_ns
            .map(|v| format!("{:.1}", v as f64 / p.incremental_ns as f64))
            .unwrap_or_else(|| "null".to_string());
        let overhead = p.journaled_ns as f64 / p.incremental_ns as f64;
        out.push_str(&format!(
            "    {{\"n\": {}, \"policy\": \"{}\", \"mix\": \"{}\", \"ops\": {}, \
             \"incremental_ns\": {}, \"journaled_ns\": {}, \"journal_overhead\": {:.2}, \
             \"rebuild_ns\": {}, \"speedup\": {}, \"db_clone_ns\": {}}}{}\n",
            p.n,
            p.policy,
            p.mix,
            p.ops,
            p.incremental_ns,
            p.journaled_ns,
            overhead,
            rebuild,
            speedup,
            p.db_clone_ns,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_gen::{large_workload, update_stream};

    /// The CI smoke lane: every benchmarked mix runs end to end at
    /// n = 10² with all three pipelines agreeing and the journaled
    /// lane surviving crash recovery — the full bench recipe, minus
    /// the clock.
    #[test]
    fn bench_pipelines_agree_at_smoke_scale() {
        let n = 100;
        let w = large_workload(7, n, 0.15, 0.1, 4);
        let db = Database::new(w.instance.clone(), w.fds.clone(), POLICY).expect("load mode");
        for (mix_name, mix) in mixes() {
            let ops = update_stream(11, &spec_for(n), n, 64, mix);
            assert_pipelines_agree(&db, &ops, &w.instance, &w.fds, mix_name);
        }
    }

    /// The [`Policy::default`] lane at smoke scale: weakly enforced,
    /// propagating inserts and modifies (some rejected) agree with the
    /// journaled lane and its recovery, and the index stays fresh.
    #[test]
    fn default_policy_lane_agrees_at_smoke_scale() {
        let n = 100;
        let w = large_workload(7, n, 0.15, 0.1, 4);
        let db = Database::new(w.instance.clone(), w.fds.clone(), Policy::default())
            .expect("large workloads are weakly satisfiable");
        for (mix_name, mix) in mixes() {
            if DEFAULT_MIXES.contains(&mix_name) {
                let ops = update_stream(11, &spec_for(n), n, 64, mix);
                assert_journal_agrees(&db, &ops, mix_name);
            }
        }
        assert!(measure_clone(&db, 3).as_nanos() > 0);
    }

    /// The delete-heavy mixes really are delete-heavy (≥ 50% deletes
    /// while rows remain) and the churn mix cycles delete + reinsert.
    #[test]
    fn stress_mixes_have_the_advertised_shape() {
        let n = 100;
        let mixes: Vec<_> = mixes();
        let heavy = mixes
            .iter()
            .find(|(name, _)| *name == "delete_heavy")
            .unwrap()
            .1;
        assert_eq!(
            heavy.delete * 2,
            heavy.insert + heavy.delete + heavy.modify,
            "delete weight is 50% of the mix"
        );
        let ops = update_stream(11, &spec_for(n), n, 64, heavy);
        let deletes = ops
            .iter()
            .filter(|op| matches!(op, UpdateOp::Delete(_)))
            .count();
        assert!(
            deletes * 5 >= ops.len() * 2,
            "delete_heavy produced only {deletes}/{} deletes",
            ops.len()
        );
        let churn = mixes.iter().find(|(name, _)| *name == "churn").unwrap().1;
        let ops = update_stream(11, &spec_for(n), n, 64, churn);
        let inserts = ops
            .iter()
            .filter(|op| matches!(op, UpdateOp::Insert(_)))
            .count();
        let deletes = ops.len() - inserts;
        assert!(inserts > 10 && deletes > 10, "churn must mix both");
    }

    /// The instrumented-vs-noop lane runs end to end at smoke scale
    /// (no timing bound here — CI runners are too noisy for that; the
    /// bench bins assert the ×3 bound on real runs).
    #[test]
    fn obs_overhead_lane_runs_at_smoke_scale() {
        let n = 100;
        let w = large_workload(7, n, 0.15, 0.1, 4);
        let db = Database::new(w.instance.clone(), w.fds.clone(), POLICY).expect("load mode");
        let ops = update_stream(11, &spec_for(n), n, 64, UpdateMix::default());
        let obs = measure_obs_overhead(&db, &ops, 3);
        assert!(obs.noop_ns > 0 && obs.enabled_ns > 0);
        assert!(obs.ratio().is_finite());
    }

    /// The JSON document stays parseable-by-eye and complete.
    #[test]
    fn json_rendering_includes_every_point() {
        let points = vec![
            Point {
                n: 100,
                policy: "none",
                mix: "mixed",
                ops: 64,
                incremental_ns: 1000,
                journaled_ns: 1500,
                rebuild_ns: Some(5000),
                db_clone_ns: 700,
            },
            Point {
                n: 1000,
                policy: "default",
                mix: "churn",
                ops: 64,
                incremental_ns: 2000,
                journaled_ns: 2400,
                rebuild_ns: None,
                db_clone_ns: 900,
            },
        ];
        let obs = crate::ObsOverhead {
            noop_ns: 1000,
            enabled_ns: 1100,
        };
        let json = render_json(&points, &obs);
        assert!(json.contains("\"host\": {\"host_threads\": "), "{json}");
        assert!(
            json.contains("\"obs_overhead\": {\"noop_ns\": 1000"),
            "{json}"
        );
        assert!(json.contains("\"mix\": \"mixed\""));
        assert!(json.contains("\"policy\": \"default\""));
        assert!(json.contains("\"db_clone_ns\": 700"));
        assert!(json.contains("\"speedup\": 5.0"));
        assert!(json.contains("\"rebuild_ns\": null"));
        assert!(json.contains("\"journaled_ns\": 1500"));
        assert!(json.contains("\"journal_overhead\": 1.50"));
        assert!(json.contains("\"journal_overhead\": 1.20"));
        assert_eq!(json.matches("{\"n\":").count(), 2);
    }
}
