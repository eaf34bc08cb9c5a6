//! Parallel ≡ sequential: every `fdi-exec`-backed `_par` entry point
//! must be **bit-identical at every thread count 1–8** and reproduce
//! its sequential oracle.
//!
//! Coverage is deliberately adversarial for the determinism contract:
//! besides the column-local workloads of the `fdi-gen` generators, the
//! instances here are mutated to contain `nothing`-bearing buckets,
//! **cross-column NEC classes** (the regime where the indexed chase's
//! naive-replay guarantee is void — the parallel engine must still
//! equal the *sequential indexed* engine exactly), and nulls on
//! determinants (the strong-convention pairwise-fallback path of
//! TEST-FDs).

use fdi_core::chase::{
    chase_plain, chase_plain_par, extended_chase, extended_chase_par, order_replay_caveats,
    Scheduler,
};
use fdi_core::groupkey;
use fdi_core::query::{self, Query};
use fdi_core::testfd::{self, Convention};
use fdi_core::update::ChaseIndex;
use fdi_exec::Executor;
use fdi_gen::{plant_violation, scaling_query, workload, Workload, WorkloadSpec};
use fdi_relation::attrs::AttrId;
use fdi_relation::rowid::RowId;
use fdi_relation::value::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DENSITIES: [f64; 4] = [0.0, 0.1, 0.3, 0.6];

/// Thread counts every property sweeps. 1 is the sequential execution
/// (the executor runs inline); the rest exercise real interleavings.
const THREADS: std::ops::RangeInclusive<usize> = 1..=8;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (2usize..40, 0usize..4, 0usize..4, 0usize..3).prop_map(|(rows, nd, necd, coll)| WorkloadSpec {
        rows,
        attrs: 4,
        domain: 6,
        null_density: DENSITIES[nd],
        nec_density: DENSITIES[necd],
        collision_rate: [0.2, 0.5, 0.9][coll],
    })
}

/// A workload, optionally mutated into the adversarial regimes:
/// planted violations, `nothing` cells, cross-column NEC classes, and
/// forced nulls on the first FD's determinant.
fn arb_adversarial() -> impl Strategy<Value = Workload> {
    (
        (0u64..1 << 32, arb_spec(), 1usize..5),
        (
            0u8..2, // violations planted
            0u8..2, // nothing cells poked
            0u8..2, // cross-column class spliced
            0u8..2, // null forced onto fd0's determinant
        ),
    )
        .prop_map(
            |((seed, spec, fd_count), (violations, nothings, cross, null_lhs))| {
                let mut w = workload(seed, &spec, fd_count);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
                if violations == 1 {
                    plant_violation(&mut rng, &mut w.instance, &w.fds);
                }
                let rows: Vec<RowId> = w.instance.row_ids().collect();
                if nothings == 1 {
                    // `nothing` cells, including two sharing a column so
                    // some bucket carries one (grouped keys must stay
                    // row-unique on them)
                    for _ in 0..2 {
                        let row = rows[rng.gen_range(0..rows.len())];
                        let attr = AttrId(rng.gen_range(0..spec.attrs) as u16);
                        w.instance.set_value(row, attr, Value::Nothing);
                    }
                }
                if cross == 1 && rows.len() >= 2 {
                    // one NEC class spanning two columns of two rows —
                    // the caveat regime of the indexed chase
                    let id = w.instance.fresh_null();
                    let r0 = rows[rng.gen_range(0..rows.len())];
                    let r1 = rows[rng.gen_range(0..rows.len())];
                    w.instance.set_value(r0, AttrId(0), Value::Null(id));
                    w.instance.set_value(r1, AttrId(1), Value::Null(id));
                }
                if null_lhs == 1 {
                    // a null on fd0's determinant forces the
                    // strong-convention pairwise fallback for that FD
                    if let Some(fd) = w.fds.fds().first() {
                        if let Some(attr) = fd.normalized().lhs.iter().next() {
                            let row = rows[rng.gen_range(0..rows.len())];
                            let id = w.instance.fresh_null();
                            w.instance.set_value(row, attr, Value::Null(id));
                        }
                    }
                }
                w
            },
        )
}

proptest! {
    /// `chase_plain_par` is `chase_plain`, bit for bit — instance,
    /// event list (sites, classes, donors), pass count — at every
    /// thread count, *including* on caveat-bearing instances
    /// (cross-column classes, `nothing` buckets): the caveats void
    /// naive-order replay, never parallel/sequential identity.
    #[test]
    fn parallel_chase_is_bit_identical_to_sequential(w in arb_adversarial()) {
        let sequential = chase_plain(&w.instance, &w.fds);
        for threads in THREADS {
            let parallel = chase_plain_par(&w.instance, &w.fds, &Executor::with_threads(threads));
            prop_assert_eq!(
                sequential.instance.canonical_form(),
                parallel.instance.canonical_form(),
                "threads = {} (caveats: {:?}) on\n{}",
                threads,
                order_replay_caveats(&w.instance),
                w.instance.render(true)
            );
            prop_assert_eq!(&sequential.events, &parallel.events, "threads = {}", threads);
            prop_assert_eq!(sequential.passes, parallel.passes, "threads = {}", threads);
        }
    }

    /// `check_par` is thread-invariant (bit-identical `Result`,
    /// violation payload included), **bit-identical to the sequential
    /// variants — witness included** under both conventions, and any
    /// violation it reports is genuine under the pairwise predicate.
    /// The adversarial instances cover `nothing`-bearing buckets,
    /// planted violations (so witness equality is exercised on
    /// violating instances, not just where witnesses happen to
    /// coincide), and the strong-null-determinant fallback.
    #[test]
    fn parallel_testfd_is_thread_invariant_and_sound(w in arb_adversarial()) {
        for conv in [Convention::Strong, Convention::Weak] {
            let oracle = testfd::check_pairwise(&w.instance, &w.fds, conv);
            let baseline = testfd::check_par(&w.instance, &w.fds, conv, &Executor::with_threads(1));
            prop_assert_eq!(
                oracle,
                baseline,
                "canonical witness vs pairwise under {:?} on\n{}",
                conv,
                w.instance.render(true)
            );
            for threads in THREADS {
                let par = testfd::check_par(&w.instance, &w.fds, conv, &Executor::with_threads(threads));
                prop_assert_eq!(baseline, par, "threads = {} under {:?}", threads, conv);
            }
            if let Err(v) = baseline {
                let fd = w.fds.fds()[v.fd_index];
                prop_assert!(
                    testfd::pair_violates(&w.instance, fd, v.rows.0, v.rows.1, conv),
                    "reported violation {} is not genuine under {:?}",
                    v,
                    conv
                );
            }
        }
    }

    /// The deterministic-witness contract of the sequential variants:
    /// `check`, `check_grouped`, `check_hashed`, `check_sorted`, and
    /// `check_pairwise` all return one bit-identical `Result` — the
    /// least violating pair of the lowest violated FD — on any
    /// instance, violating ones included. (Before the fix the grouped
    /// and hashed variants picked the first group in `HashMap`
    /// iteration order: a run-to-run nondeterministic witness.)
    #[test]
    fn sequential_witnesses_are_canonical(w in arb_adversarial()) {
        for conv in [Convention::Strong, Convention::Weak] {
            let pairwise = testfd::check_pairwise(&w.instance, &w.fds, conv);
            prop_assert_eq!(
                pairwise, testfd::check(&w.instance, &w.fds, conv),
                "check under {:?} on\n{}", conv, w.instance.render(true)
            );
            prop_assert_eq!(
                pairwise, testfd::check_grouped(&w.instance, &w.fds, conv),
                "check_grouped under {:?}", conv
            );
            prop_assert_eq!(
                pairwise, testfd::check_hashed(&w.instance, &w.fds, conv),
                "check_hashed under {:?}", conv
            );
            prop_assert_eq!(
                pairwise, testfd::check_sorted(&w.instance, &w.fds, conv),
                "check_sorted under {:?}", conv
            );
        }
    }

    /// `extended_chase_par` equals `Scheduler::Fast` — canonical
    /// materialized instance, `nothing_classes`, `union_count` — at
    /// every thread count, across the adversarial regimes (cross-column
    /// NEC classes, preexisting `nothing` cells, planted conflicts);
    /// and the parallel path itself is bit-identical across thread
    /// counts, `rounds` included.
    #[test]
    fn parallel_extended_chase_matches_fast(w in arb_adversarial()) {
        let fast = extended_chase(&w.instance, &w.fds, Scheduler::Fast);
        let baseline = extended_chase_par(&w.instance, &w.fds, &Executor::with_threads(1));
        for threads in THREADS {
            let par = extended_chase_par(&w.instance, &w.fds, &Executor::with_threads(threads));
            prop_assert_eq!(
                fast.instance.canonical_form(),
                par.instance.canonical_form(),
                "threads = {} on\n{}",
                threads,
                w.instance.render(true)
            );
            prop_assert_eq!(fast.nothing_classes, par.nothing_classes, "threads = {}", threads);
            prop_assert_eq!(fast.unions, par.unions, "threads = {}", threads);
            prop_assert_eq!(
                baseline.instance.canonical_form(),
                par.instance.canonical_form(),
                "parallel path not thread-invariant at {} threads",
                threads
            );
            prop_assert_eq!(baseline.rounds, par.rounds, "phase count at {} threads", threads);
        }
    }

    /// The extended chase (both schedulers and the parallel path) is
    /// invariant under delete-then-`compact()`: tombstoning rows and
    /// densifying the arena afterwards must not change the outcome on
    /// the surviving rows — canonical instance, `nothing` classes, and
    /// union count all agree between the tombstoned instance and its
    /// compacted twin.
    #[test]
    fn extended_chase_is_invariant_under_delete_then_compact(
        w in arb_adversarial(),
        delete_mask in 0u64..u64::MAX,
    ) {
        let mut tombstoned = w.instance.clone();
        let rows: Vec<RowId> = tombstoned.row_ids().collect();
        for (i, &row) in rows.iter().enumerate() {
            // keep at least two rows so FDs still have pairs to fire on
            if delete_mask & (1 << (i % 64)) != 0 && tombstoned.len() > 2 {
                tombstoned.remove_row(row);
            }
        }
        let mut compacted = tombstoned.clone();
        compacted.compact();
        prop_assert_eq!(compacted.slot_bound(), compacted.len());
        for scheduler in [Scheduler::Fast, Scheduler::NaivePairs] {
            let a = extended_chase(&tombstoned, &w.fds, scheduler);
            let b = extended_chase(&compacted, &w.fds, scheduler);
            prop_assert_eq!(
                a.instance.canonical_form(),
                b.instance.canonical_form(),
                "{:?} diverges under compact() on\n{}",
                scheduler,
                tombstoned.render(true)
            );
            prop_assert_eq!(a.nothing_classes, b.nothing_classes, "{:?}", scheduler);
            prop_assert_eq!(a.unions, b.unions, "{:?}", scheduler);
        }
        let fast = extended_chase(&tombstoned, &w.fds, Scheduler::Fast);
        for threads in THREADS {
            let exec = Executor::with_threads(threads);
            let pa = extended_chase_par(&tombstoned, &w.fds, &exec);
            let pb = extended_chase_par(&compacted, &w.fds, &exec);
            prop_assert_eq!(
                pa.instance.canonical_form(),
                pb.instance.canonical_form(),
                "parallel path diverges under compact() at {} threads",
                threads
            );
            prop_assert_eq!(pa.nothing_classes, pb.nothing_classes);
            prop_assert_eq!(pa.unions, pb.unions);
            prop_assert_eq!(pa.instance.canonical_form(), fast.instance.canonical_form());
        }
    }

    /// `select_par` equals `select` exactly — same rows in the same
    /// order in every answer set — at every thread count, across
    /// null-free, null-bearing, NEC-sharing, and `nothing`-bearing
    /// rows.
    #[test]
    fn parallel_select_is_bit_identical(w in arb_adversarial()) {
        let q = scaling_query(&w.instance);
        let sequential = query::select(&q, &w.instance).expect("uniform domains are finite");
        for threads in THREADS {
            let parallel = query::select_par(&q, &w.instance, &Executor::with_threads(threads))
                .expect("uniform domains are finite");
            prop_assert_eq!(&sequential, &parallel, "threads = {}", threads);
        }
        // a second query shape: attribute comparison across two
        // columns, exercising NEC classes and multi-class signatures
        let schema = w.instance.schema();
        let q2 = Query::eq_attrs(&w.instance, schema.attr_name(AttrId(0)), schema.attr_name(AttrId(1)))
            .expect("attrs exist");
        let sequential = query::select(&q2, &w.instance).expect("finite");
        for threads in [2usize, 5, 8] {
            let parallel = query::select_par(&q2, &w.instance, &Executor::with_threads(threads))
                .expect("finite");
            prop_assert_eq!(&sequential, &parallel, "eq_attrs, threads = {}", threads);
        }
    }

    /// `group_rows_par` returns `group_rows`' map exactly (same keys,
    /// same ascending row lists) at every thread count, on every FD's
    /// determinant.
    #[test]
    fn parallel_grouping_is_bit_identical(w in arb_adversarial()) {
        let snapshot = w.instance.necs().canonical_snapshot();
        for fd in &w.fds {
            let fd = fd.normalized();
            let sequential = groupkey::group_rows(&w.instance, fd.lhs, &snapshot);
            for threads in THREADS {
                let parallel = groupkey::group_rows_par(
                    &w.instance,
                    fd.lhs,
                    &snapshot,
                    &Executor::with_threads(threads),
                );
                prop_assert_eq!(&sequential, &parallel, "threads = {}", threads);
            }
        }
    }

    /// `ChaseIndex::build_par` builds the same index as `build` (bucket
    /// maps, wild lists, filing records) at every thread count — and
    /// stays delta-consistent: removing a row from the parallel build
    /// equals a sequential build without it.
    #[test]
    fn parallel_index_build_matches_sequential(w in arb_adversarial()) {
        let sequential = ChaseIndex::build(&w.instance, &w.fds);
        for threads in THREADS {
            let parallel = ChaseIndex::build_par(&w.instance, &w.fds, &Executor::with_threads(threads));
            prop_assert!(
                sequential.same_buckets(&parallel),
                "build_par diverges at {} threads on\n{}",
                threads,
                w.instance.render(true)
            );
        }
        // delta-consistency of the parallel build
        if w.instance.len() > 1 {
            let mut chopped = w.instance.clone();
            let victim = chopped.nth_row(0);
            chopped.remove_row(victim);
            let mut parallel = ChaseIndex::build_par(&w.instance, &w.fds, &Executor::with_threads(4));
            parallel.remove_row(&w.instance, victim);
            let rebuilt = ChaseIndex::build(&chopped, &w.fds);
            prop_assert!(parallel.same_buckets(&rebuilt), "delta after parallel build");
        }
    }
}

/// Shards over a heavily tombstoned arena still merge to the sequential
/// result: delete most rows of a workload (leaving interior tombstones),
/// then sweep every `_par` entry point across thread counts.
#[test]
fn parallel_paths_survive_tombstone_heavy_arenas() {
    let spec = WorkloadSpec {
        rows: 60,
        attrs: 4,
        domain: 6,
        null_density: 0.3,
        nec_density: 0.3,
        collision_rate: 0.6,
    };
    let mut w = workload(23, &spec, 3);
    let rows: Vec<RowId> = w.instance.row_ids().collect();
    // tombstone two of every three rows, skewed toward the front so
    // leading shards are nearly empty
    for (i, &row) in rows.iter().enumerate() {
        if i % 3 != 2 || i < 12 {
            w.instance.remove_row(row);
        }
    }
    assert!(
        w.instance.tombstone_count() > 0,
        "interior tombstones exist"
    );
    let q = scaling_query(&w.instance);
    let seq_sel = query::select(&q, &w.instance).unwrap();
    let seq_chase = chase_plain(&w.instance, &w.fds);
    let seq_extended = extended_chase(&w.instance, &w.fds, Scheduler::Fast);
    let snapshot = w.instance.necs().canonical_snapshot();
    for threads in THREADS {
        let exec = Executor::with_threads(threads);
        assert_eq!(seq_sel, query::select_par(&q, &w.instance, &exec).unwrap());
        let par_chase = chase_plain_par(&w.instance, &w.fds, &exec);
        assert_eq!(seq_chase.events, par_chase.events, "threads = {threads}");
        assert_eq!(
            seq_chase.instance.canonical_form(),
            par_chase.instance.canonical_form()
        );
        let par_extended = extended_chase_par(&w.instance, &w.fds, &exec);
        assert_eq!(
            seq_extended.instance.canonical_form(),
            par_extended.instance.canonical_form(),
            "extended chase over tombstones, threads = {threads}"
        );
        assert_eq!(seq_extended.nothing_classes, par_extended.nothing_classes);
        assert_eq!(seq_extended.unions, par_extended.unions);
        for conv in [Convention::Strong, Convention::Weak] {
            assert_eq!(
                testfd::check_par(&w.instance, &w.fds, conv, &Executor::with_threads(1)),
                testfd::check_par(&w.instance, &w.fds, conv, &exec),
                "threads = {threads}"
            );
        }
        for fd in &w.fds {
            let fd = fd.normalized();
            assert_eq!(
                groupkey::group_rows(&w.instance, fd.lhs, &snapshot),
                groupkey::group_rows_par(&w.instance, fd.lhs, &snapshot, &exec)
            );
        }
    }
}

/// Live rows above a large tombstone gap (`slot_bound() >> len()`): the
/// extended chase's per-slot side tables are sized by the slot bound,
/// and the leading shards are entirely dead — both schedulers and the
/// parallel path at every thread count must still agree, with the
/// planted conflict among the survivors detected.
#[test]
fn extended_chase_handles_live_rows_above_large_tombstone_gaps() {
    let spec = WorkloadSpec {
        rows: 120,
        attrs: 4,
        domain: 8,
        null_density: 0.25,
        nec_density: 0.4,
        collision_rate: 0.6,
    };
    let mut w = workload(31, &spec, 3);
    let mut rng = StdRng::seed_from_u64(31);
    // tombstone everything except the last 6 slots, then plant the
    // conflict among the survivors so it is guaranteed live
    let rows: Vec<RowId> = w.instance.row_ids().collect();
    for &row in &rows[..rows.len() - 6] {
        w.instance.remove_row(row);
    }
    plant_violation(&mut rng, &mut w.instance, &w.fds);
    assert!(
        w.instance.slot_bound() >= w.instance.len() * 10,
        "gap regime: slot_bound {} vs len {}",
        w.instance.slot_bound(),
        w.instance.len()
    );
    let fast = extended_chase(&w.instance, &w.fds, Scheduler::Fast);
    let naive = extended_chase(&w.instance, &w.fds, Scheduler::NaivePairs);
    assert_eq!(
        fast.instance.canonical_form(),
        naive.instance.canonical_form()
    );
    assert_eq!(fast.nothing_classes, naive.nothing_classes);
    assert!(fast.nothing_classes > 0, "planted conflict must be found");
    for threads in THREADS {
        let par = extended_chase_par(&w.instance, &w.fds, &Executor::with_threads(threads));
        assert_eq!(
            fast.instance.canonical_form(),
            par.instance.canonical_form(),
            "threads = {threads}"
        );
        assert_eq!(fast.nothing_classes, par.nothing_classes);
        assert_eq!(fast.unions, par.unions);
    }
}

/// `extended_chase_par` on the scale generator built for it:
/// cross-column NEC classes and planted conflicts at n = 300, swept
/// across thread counts against the sequential Fast scheduler.
#[test]
fn parallel_extended_chase_matches_fast_on_extended_workloads() {
    for (seed, conflicts) in [(3u64, 0usize), (4, 4)] {
        let w = fdi_gen::extended_workload(seed, 300, 4, 8, conflicts);
        let fast = extended_chase(&w.instance, &w.fds, Scheduler::Fast);
        if conflicts > 0 {
            assert!(fast.nothing_classes > 0, "seed {seed}: conflicts must bite");
        }
        let baseline = extended_chase_par(&w.instance, &w.fds, &Executor::with_threads(1));
        for threads in THREADS {
            let par = extended_chase_par(&w.instance, &w.fds, &Executor::with_threads(threads));
            assert_eq!(
                fast.instance.canonical_form(),
                par.instance.canonical_form(),
                "seed {seed}, threads = {threads}"
            );
            assert_eq!(fast.nothing_classes, par.nothing_classes);
            assert_eq!(fast.unions, par.unions);
            assert_eq!(baseline.rounds, par.rounds, "phase count thread-invariance");
        }
    }
}

/// A marked null reused across columns *in the text format* (the way a
/// user would write a cross-column class) — the regression shape for
/// the chase's mid-sweep re-keying, swept across thread counts.
#[test]
fn parallel_chase_handles_cross_column_marks_exactly() {
    let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 4).unwrap();
    let r = fdi_relation::Instance::parse(
        schema.clone(),
        "A_1 ?z
         A_1 B_2
         ?z  B_1
         ?z  ?w",
    )
    .unwrap();
    let fds = fdi_core::fd::FdSet::parse(&schema, "A -> B").unwrap();
    assert!(!order_replay_caveats(&r).is_empty());
    let sequential = chase_plain(&r, &fds);
    for threads in THREADS {
        let parallel = chase_plain_par(&r, &fds, &Executor::with_threads(threads));
        assert_eq!(sequential.events, parallel.events, "threads = {threads}");
        assert_eq!(
            sequential.instance.canonical_form(),
            parallel.instance.canonical_form()
        );
        assert_eq!(sequential.passes, parallel.passes);
    }
}

/// `build_par` below [`fdi_core::update::PAR_BUILD_SMALL_N`] rows takes
/// the sequential path, so the proptest above only proves the API
/// contract there; this drives the genuinely sharded build on an
/// instance beyond the cutoff.
#[test]
fn parallel_index_build_matches_sequential_beyond_the_cutoff() {
    use fdi_core::update::PAR_BUILD_SMALL_N;
    let spec = WorkloadSpec {
        rows: PAR_BUILD_SMALL_N + 500,
        attrs: 4,
        domain: 64,
        null_density: 0.2,
        nec_density: 0.2,
        collision_rate: 0.4,
    };
    let w = workload(41, &spec, 4);
    assert!(w.instance.len() >= PAR_BUILD_SMALL_N);
    let sequential = ChaseIndex::build(&w.instance, &w.fds);
    for threads in [2, 4, 8] {
        let parallel = ChaseIndex::build_par(&w.instance, &w.fds, &Executor::with_threads(threads));
        assert!(
            sequential.same_buckets(&parallel),
            "sharded build diverges at {threads} threads"
        );
    }
}

/// `Database::insert_batch` (the serving-layer ingest path) equals
/// looped `Database::insert` — acceptances, `RowId`s, index buckets,
/// NEC snapshot — at every thread count, under every policy. Small
/// random batches drive the fallback and the per-row semantics
/// (including rejected rows mid-batch); the cutoff test below drives
/// the genuinely sharded filing.
#[test]
fn batch_ingest_is_bit_identical_to_looped_inserts() {
    use fdi_core::update::{Database, Enforcement, Policy};
    use fdi_gen::{update_stream, UpdateMix, UpdateOp, WorkloadSpec};
    let spec = WorkloadSpec {
        rows: 0,
        attrs: 4,
        domain: 5,
        null_density: 0.3,
        nec_density: 0.0,
        collision_rate: 0.5,
    };
    for seed in 0..8u64 {
        let w = workload(seed.wrapping_mul(977), &spec, 3);
        let mix = UpdateMix {
            insert: 1,
            delete: 0,
            modify: 0,
            resolve: 0,
        };
        let mut rows: Vec<Vec<String>> = update_stream(seed, &spec, 0, 60, mix)
            .into_iter()
            .filter_map(|op| match op {
                UpdateOp::Insert(tokens) => Some(tokens),
                _ => None,
            })
            .collect();
        // splice in a malformed row so rejection-in-the-middle is covered
        rows.insert(rows.len() / 2, vec!["no-such-constant".into(); 4]);
        for (enforcement, propagate) in [
            (Enforcement::None, false),
            (Enforcement::Weak, true),
            (Enforcement::Strong, false),
        ] {
            let policy = Policy {
                enforcement,
                propagate,
            };
            let mk = || {
                Database::new(
                    fdi_relation::Instance::new(w.schema.clone()),
                    w.fds.clone(),
                    policy,
                )
                .unwrap()
            };
            let mut oracle = mk();
            let mut oracle_results = Vec::new();
            for tokens in &rows {
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                oracle_results.push(oracle.insert(&refs).map(|o| o.row));
            }
            for threads in [1, 2, 4] {
                let mut db = mk();
                let results = db.insert_batch(&rows, &Executor::with_threads(threads));
                let got: Vec<_> = results.into_iter().map(|r| r.map(|o| o.row)).collect();
                assert_eq!(
                    got.iter().map(|r| r.as_ref().ok()).collect::<Vec<_>>(),
                    oracle_results
                        .iter()
                        .map(|r| r.as_ref().ok())
                        .collect::<Vec<_>>(),
                    "{policy:?} at {threads} threads: acceptances/row ids diverge"
                );
                assert_eq!(
                    db.instance().render(true),
                    oracle.instance().render(true),
                    "{policy:?} at {threads} threads"
                );
                assert!(db.index().same_buckets(oracle.index()));
                assert_eq!(
                    db.instance().necs().canonical_snapshot(),
                    oracle.instance().necs().canonical_snapshot()
                );
            }
        }
    }
}

/// Batches below [`fdi_core::update::PAR_BUILD_SMALL_N`] take the
/// sequential filing loop, so the test above proves the API contract
/// there; this drives the genuinely sharded `ChaseIndex::insert_rows_par`
/// delta filing on a batch beyond the cutoff.
#[test]
fn batch_ingest_matches_looped_inserts_beyond_the_cutoff() {
    use fdi_core::update::{Database, Enforcement, Policy, PAR_BUILD_SMALL_N};
    let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C"], 64).unwrap();
    let fds = fdi_core::FdSet::parse(&schema, "A -> B").unwrap();
    let policy = Policy {
        enforcement: Enforcement::None,
        propagate: false,
    };
    let n = PAR_BUILD_SMALL_N + 321;
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            vec![
                if i % 7 == 0 {
                    "-".to_string()
                } else {
                    format!("A_{}", i % 64)
                },
                format!("B_{}", i % 11),
                format!("C_{}", i % 5),
            ]
        })
        .collect();
    let mut oracle = Database::new(
        fdi_relation::Instance::new(schema.clone()),
        fds.clone(),
        policy,
    )
    .unwrap();
    for tokens in &rows {
        let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        oracle.insert(&refs).unwrap();
    }
    for threads in [2, 4, 8] {
        let mut db = Database::new(
            fdi_relation::Instance::new(schema.clone()),
            fds.clone(),
            policy,
        )
        .unwrap();
        let results = db.insert_batch(&rows, &Executor::with_threads(threads));
        assert!(results.iter().all(|r| r.is_ok()));
        assert!(
            db.index().same_buckets(oracle.index()),
            "sharded delta filing diverges at {threads} threads"
        );
        assert_eq!(db.instance().render(true), oracle.instance().render(true));
    }
}

/// Strong-convention TEST-FDs on an instance whose *every* determinant
/// carries a null: the whole check runs through the sharded pairwise
/// fallback, which must stay thread-invariant and agree with the
/// sequential pairwise scan.
#[test]
fn parallel_pairwise_fallback_is_exact() {
    let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C"], 4).unwrap();
    let r = fdi_relation::Instance::parse(
        schema.clone(),
        "-   B_0 C_0
         A_0 -   C_1
         -   B_1 C_0
         A_1 B_0 -
         A_0 B_1 C_1",
    )
    .unwrap();
    for fd_text in ["A -> B", "B -> C", "A B -> C", "C -> A"] {
        let fds = fdi_core::fd::FdSet::parse(&schema, fd_text).unwrap();
        let oracle = testfd::check_pairwise(&r, &fds, Convention::Strong);
        let baseline = testfd::check_par(&r, &fds, Convention::Strong, &Executor::with_threads(1));
        assert_eq!(oracle.is_ok(), baseline.is_ok(), "{fd_text}");
        for threads in THREADS {
            assert_eq!(
                baseline,
                testfd::check_par(
                    &r,
                    &fds,
                    Convention::Strong,
                    &Executor::with_threads(threads)
                ),
                "{fd_text} at {threads} threads"
            );
        }
        if let Err(v) = baseline {
            assert!(testfd::pair_violates(
                &r,
                fds.fds()[v.fd_index],
                v.rows.0,
                v.rows.1,
                Convention::Strong
            ));
        }
    }
}
