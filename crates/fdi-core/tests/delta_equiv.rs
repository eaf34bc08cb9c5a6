//! Delta propagation ≡ whole-instance oracle.
//!
//! A propagating `Database` chases only from the buckets of the rows an
//! update touched, and under weak enforcement lets that run decide
//! acceptance. The oracle here does what the database did before it
//! kept a persistent chase index: a non-propagating database of the
//! same enforcement decides every update on the whole instance (weak:
//! `weakly_satisfiable_via_chase`), then `chase_plain` runs on the full
//! instance and the chased state is resumed. After every operation of a
//! `fdi_gen::delta_stress_stream` — shared and cross-column marked
//! nulls, planted conflicts, `nothing` tokens, resolves, compactions —
//! both must agree on
//!
//! * the verdict, and for accepted updates the whole `UpdateOutcome`
//!   (row, events in order, `changed_rows`, `nec_merges`);
//! * the canonical form and the exact encoded state (what an epoch
//!   fingerprint hashes: symbols, null allocator, NEC forest, slots);
//! * the index, which must be bucket-identical to a fresh build.
//!
//! Settings: every enforcement with propagation on, plus weak without
//! it (the one policy still decided on the whole instance), with the
//! databases built under `FDI_THREADS` 1 and 4.

use fdi_core::chase::chase_plain;
use fdi_core::fd::FdSet;
use fdi_core::update::{ChaseIndex, Database, Enforcement, Policy, UpdateError, UpdateOutcome};
use fdi_gen::{delta_stress_stream, satisfiable_workload, StressOp, UpdateOp, WorkloadSpec};
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;
use proptest::prelude::*;

const POLICIES: [Policy; 4] = [
    Policy {
        enforcement: Enforcement::Weak,
        propagate: true,
    },
    Policy {
        enforcement: Enforcement::Strong,
        propagate: true,
    },
    Policy {
        enforcement: Enforcement::None,
        propagate: true,
    },
    Policy {
        enforcement: Enforcement::Weak,
        propagate: false,
    },
];

fn spec(rows: usize) -> WorkloadSpec {
    WorkloadSpec {
        rows,
        attrs: 4,
        domain: 4, // small domains: collisions, rejections and cascades
        null_density: 0.3,
        nec_density: 0.3,
        collision_rate: 0.5,
    }
}

/// The whole-instance reference: `core` checks (never propagates), and
/// propagation re-chases the full instance.
struct Oracle {
    core: Database,
    propagate: bool,
}

impl Oracle {
    fn new(base: Instance, fds: &FdSet, policy: Policy) -> Result<Oracle, UpdateError> {
        let core_policy = Policy {
            propagate: false,
            ..policy
        };
        let mut oracle = Oracle {
            core: Database::new(base, fds.clone(), core_policy)?,
            propagate: policy.propagate,
        };
        oracle.chase(UpdateOutcome {
            row: RowId(0),
            propagated: Vec::new(),
            changed_rows: Vec::new(),
            nec_merges: 0,
        });
        Ok(oracle)
    }

    /// Runs `chase_plain` on the whole instance and folds its events
    /// and cell changes into `outcome`.
    fn chase(&mut self, mut outcome: UpdateOutcome) -> UpdateOutcome {
        if !self.propagate {
            return outcome;
        }
        let before = self.core.instance();
        let chased = chase_plain(before, self.core.fds());
        let all = before.schema().all_attrs();
        outcome.changed_rows.extend(before.row_ids().filter(|&row| {
            all.iter()
                .any(|a| before.value(row, a) != chased.instance.value(row, a))
        }));
        outcome.changed_rows.sort_unstable();
        outcome.changed_rows.dedup();
        outcome.nec_merges = chased.instance.necs().merge_count() - before.necs().merge_count();
        outcome.propagated = chased.events;
        self.core = Database::resume(chased.instance, self.core.fds().clone(), self.core.policy());
        outcome
    }

    fn apply(&mut self, op: &UpdateOp) -> Option<Result<UpdateOutcome, UpdateError>> {
        let result = apply(&mut self.core, op)?;
        Some(result.map(|outcome| self.chase(outcome)))
    }
}

/// Applies one stream op, resolving its position against the live rows
/// in display order; `None` when the position is out of range.
fn apply(db: &mut Database, op: &UpdateOp) -> Option<Result<UpdateOutcome, UpdateError>> {
    let nth = |db: &Database, pos: usize| db.instance().row_ids().nth(pos);
    Some(match op {
        UpdateOp::Insert(tokens) => {
            let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            db.insert(&refs)
        }
        UpdateOp::Delete(pos) => db.delete(nth(db, *pos)?),
        UpdateOp::Modify { row, attr, token } => db.modify(nth(db, *row)?, *attr, token),
        UpdateOp::ResolveNull { row, attr, token } => db.resolve_null(nth(db, *row)?, *attr, token),
    })
}

fn encoded(instance: &Instance) -> Vec<u8> {
    let mut out = Vec::new();
    instance.encode_state(&mut out);
    out
}

/// Same verdict, same outcome field by field.
fn same_result(
    got: &Option<Result<UpdateOutcome, UpdateError>>,
    want: &Option<Result<UpdateOutcome, UpdateError>>,
) -> Result<(), String> {
    match (got, want) {
        (None, None) => Ok(()),
        (Some(Err(a)), Some(Err(b))) if a == b => Ok(()),
        (Some(Ok(a)), Some(Ok(b)))
            if a.row == b.row
                && a.propagated == b.propagated
                && a.changed_rows == b.changed_rows
                && a.nec_merges == b.nec_merges =>
        {
            Ok(())
        }
        _ => Err(format!("delta {got:?}\noracle {want:?}")),
    }
}

fn check_state(db: &Database, oracle: &Oracle) -> Result<(), String> {
    if db.instance().canonical_form() != oracle.core.instance().canonical_form() {
        return Err("canonical forms diverge".into());
    }
    if encoded(db.instance()) != encoded(oracle.core.instance()) {
        return Err("encoded states (fingerprints) diverge".into());
    }
    if !db
        .index()
        .same_buckets(&ChaseIndex::build(db.instance(), db.fds()))
    {
        return Err("delta-maintained index diverged from a fresh build".into());
    }
    Ok(())
}

/// Drives one stream through a database and its oracle under `policy`.
fn run_stream(
    seed: u64,
    rows: usize,
    ops: usize,
    fd_count: usize,
    policy: Policy,
) -> Result<(), String> {
    let w = satisfiable_workload(seed, &spec(rows), fd_count);
    let empty = Instance::new(w.schema.clone());
    // A base the policy rejects (strong, with nulls) starts empty.
    let (mut db, mut oracle) = match Database::new(w.instance.clone(), w.fds.clone(), policy) {
        Ok(db) => (
            db,
            Oracle::new(w.instance.clone(), &w.fds, policy).map_err(|e| e.to_string())?,
        ),
        Err(_) => (
            Database::new(empty.clone(), w.fds.clone(), policy).map_err(|e| e.to_string())?,
            Oracle::new(empty, &w.fds, policy).map_err(|e| e.to_string())?,
        ),
    };
    check_state(&db, &oracle).map_err(|e| format!("{policy:?} at open: {e}"))?;
    let stream = delta_stress_stream(seed ^ 0xde17a, &spec(rows), db.instance().len(), ops);
    for (i, op) in stream.iter().enumerate() {
        let before = oracle.core.instance().render(true);
        let context =
            |e: String| format!("{policy:?}, op {i} {op:?}: {e}\nstate before:\n{before}");
        match op {
            StressOp::Compact => {
                let moved = db.compact();
                if moved != oracle.core.compact() {
                    return Err(context("compactions moved different rows".into()));
                }
            }
            StressOp::Update(op) => {
                let got = apply(&mut db, op);
                let want = oracle.apply(op);
                same_result(&got, &want).map_err(context)?;
            }
        }
        check_state(&db, &oracle).map_err(context)?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn delta_propagation_matches_the_whole_instance_oracle(
        seed in 0u64..1 << 32,
        rows in 0usize..16,
        ops in 1usize..48,
        fd_count in 1usize..4,
    ) {
        for threads in ["1", "4"] {
            std::env::set_var(fdi_exec::THREADS_ENV, threads);
            for policy in POLICIES {
                let verdict = run_stream(seed, rows, ops, fd_count, policy);
                prop_assert!(verdict.is_ok(), "FDI_THREADS={}: {}", threads, verdict.unwrap_err());
            }
        }
    }
}

/// A hand-built pass-1 admission: `?z` and `?w` span columns A and B.
/// The insert makes `A -> B` merge `?w` into `?z`, which moves row 1
/// (`A = ?w`) into the clean, undrawn bucket `[?z]` of the very FD being
/// swept. A whole-instance pass sweeps that bucket later in the same
/// pass (substituting `?q`) *before* `C -> D` fires, so the delta run
/// must admit it, or the events come out in another order.
#[test]
fn buckets_grown_mid_pass_are_swept_in_the_same_pass() {
    let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C", "D"], 4).unwrap();
    let base = Instance::parse(
        schema.clone(),
        "A_1 ?z  C_0 D_0
         ?w  ?q  C_1 D_1
         ?z  B_2 C_2 D_2
         ?z  B_2 C_3 D_3",
    )
    .unwrap();
    let fds = FdSet::parse(&schema, "A -> B\nC -> D").unwrap();
    let insert = UpdateOp::Insert(vec!["A_1".into(), "?w".into(), "C_1".into(), "-".into()]);
    for enforcement in [Enforcement::Weak, Enforcement::None] {
        let policy = Policy {
            enforcement,
            propagate: true,
        };
        let mut db = Database::new(base.clone(), fds.clone(), policy).unwrap();
        let mut oracle = Oracle::new(base.clone(), &fds, policy).unwrap();
        let got = apply(&mut db, &insert);
        let want = oracle.apply(&insert);
        same_result(&got, &want).unwrap();
        check_state(&db, &oracle).unwrap();
        let fired: Vec<usize> = want
            .unwrap()
            .unwrap()
            .propagated
            .iter()
            .map(|e| e.fd_index)
            .collect();
        assert_eq!(fired, [0, 0, 1], "the grown bucket fires before C -> D");
    }
}
