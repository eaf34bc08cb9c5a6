//! Modification operations over constrained, incomplete relations —
//! §7's on-going-work programme, built out.
//!
//! The paper closes: "more research is needed on the semantics of the
//! ways a database *acquires* information. This acquisition may be
//! internal (non-ambiguous substitution of nulls), or external
//! (modification operations by the users)." This module implements that
//! programme on top of the paper's machinery:
//!
//! * a [`Database`] couples an instance with its FD set and a
//!   maintenance [`Policy`] — reject updates that break **strong**
//!   satisfiability (Theorem 2: no completion may violate `F`), reject
//!   updates that break **weak** satisfiability (Theorem 4: some
//!   completion must satisfy `F`), or accept everything;
//! * **external acquisition**: [`Database::insert`],
//!   [`Database::delete`], [`Database::modify`], and
//!   [`Database::resolve_null`] (a user replaces a null with a value,
//!   checked against the constraints — "the only value a user can
//!   insert without the creation of an inconsistency", §4);
//! * **internal acquisition**: after an accepted update, the NS-rules
//!   fire ([`Policy::propagate`]) so the instance stays minimally
//!   incomplete — the non-ambiguous substitutions of §6;
//! * one persistent [`ChaseIndex`] per database — per FD, rows
//!   hash-partitioned by the NEC-canonical key of their determinant,
//!   plus each null class's occurrence list — serves both: its buckets
//!   are the NS-rules' trigger groups, and the strong-convention insert
//!   check reads its candidates from the probe's exact bucket plus the
//!   buckets keyed by a null class (a null potentially matches
//!   everything), `O(|F| · group)` instead of `O(|F| · n)`. Experiment
//!   E19 measures the gap.
//!
//! ## Incremental maintenance
//!
//! Rows are addressed by stable [`RowId`] slot handles throughout, and
//! the index is maintained by deltas: an insert files one row, a delete
//! unfiles one (a tombstone, **no survivor is renumbered** —
//! [`Database::delete`] is `O(|F| · bucket)` and never chases), a
//! modify re-files one, a resolve walks its class's occurrence list,
//! and [`Database::compact`] densifies the slot arena and remaps the
//! index in `O(moved)`. No mutation clones the instance.
//!
//! **The fixpoint invariant.** With [`Policy::propagate`] on, the
//! instance is a plain-chase fixpoint after every accepted update (and
//! after [`Database::new`]): no NS-rule applies in any bucket. An
//! update changes the cells of a few rows, so only the buckets holding
//! those rows can have become applicable — every other bucket is clean,
//! and whole-class rule applications keep it clean. Internal
//! acquisition therefore runs the chase on the database's own index
//! from the touched rows' buckets only, and reproduces the events (in
//! order) and the final state of [`chase::chase_plain`] on the whole
//! instance; a bucket that grows mid-pass is admitted to the pass, as
//! a whole-instance pass would sweep it.
//!
//! **Weak enforcement ⇔ no `nothing`.** A weakly satisfiable fixpoint
//! has homogeneous buckets: each dependent column holds at most one
//! constant. By Theorem 4 the extended chase of the updated instance
//! derives `nothing` exactly when the update writes a `nothing` or the
//! delta run leaves two distinct constants in a dependent column of a
//! touched bucket (the plain rules' steps are congruence steps, and a
//! fixpoint with homogeneous buckets is itself a congruence with one
//! constant per class). So under [`Enforcement::Weak`] with propagation
//! the delta run *is* the acceptance test. A rejected update is rolled
//! back from an undo trail — cells, NEC rewrites, index steps — so the
//! instance is byte-identical to one that never saw it.
//!
//! **Whole-instance paths.** Cold builds stay `O(n·|F|)`:
//! [`Database::new`] and [`Database::resume`] build the index on the
//! ambient executor, and [`chase::chase_plain`] is the same run seeded
//! with every bucket. Weak enforcement *without* propagation has no
//! fixpoint to lean on, so it decides each update with
//! [`chase::weakly_satisfiable_via_chase`] on the whole instance; strong
//! enforcement of modifies and resolves revalidates with the
//! size-dispatched TEST-FDs ([`crate::testfd::check`]). The property
//! suite `tests/delta_equiv.rs` holds the delta path to the
//! whole-instance oracle (verdicts, outcomes, encoded state, index),
//! `tests/update_equiv.rs` the index to a fresh build, and
//! `bench_update` records both policies in `BENCH_update.json`.
//!
//! A *rejected* update leaves no tuple behind and changes no cell —
//! a rejected insert's slot is released outright (the arena truncates
//! its trailing slot), so the next insert re-occupies the same
//! [`RowId`]. Token parsing may still intern symbols, register null
//! marks, or advance the null-id allocator — all invisible to the
//! relational semantics (ids are never reused, unreferenced symbols
//! are inert).
//!
//! # Example — §7's programme end to end
//!
//! ```
//! use fdi_core::fixtures;
//! use fdi_core::update::{Database, Enforcement, Policy};
//!
//! // Figure 1.2 under f1: E# → SL,D# and f2: D# → CT, weakly enforced
//! // with internal acquisition on.
//! let mut db = Database::new(
//!     fixtures::figure1_instance(),
//!     fixtures::figure1_fds(),
//!     Policy { enforcement: Enforcement::Weak, propagate: true },
//! )
//! .unwrap();
//! // e1 already earns 10K in d1, so a definitely-conflicting salary is
//! // rejected even under the optimistic notion …
//! assert!(db.insert(&["e1", "20K", "d1", "full"]).is_err());
//! // … while a new d1 employee with an unknown contract is accepted,
//! // and internal acquisition (the NS-rules) immediately resolves the
//! // null: d1's contract type is known to be `full`.
//! let out = db.insert(&["e5", "20K", "d1", "-"]).unwrap();
//! assert_eq!(out.propagated.len(), 1);
//! assert!(db.instance().tuple(out.row).is_total_on(
//!     db.instance().schema().all_attrs()
//! ));
//! ```

use crate::chase;
pub use crate::chase::index::{ChaseIndex, PAR_BUILD_SMALL_N};
use crate::fd::FdSet;
use crate::semantics::{self, Semantics, SemanticsKind};
use crate::testfd::{self, Violation};
use fdi_relation::attrs::AttrId;
use fdi_relation::error::RelationError;
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;
use fdi_relation::tuple::Tuple;
use fdi_relation::value::Value;
use std::fmt;

/// What a maintained database enforces on every modification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enforcement {
    /// Every update must leave the instance strongly satisfied
    /// (Theorem 2's test): no completion may violate `F`.
    Strong,
    /// Every update must leave the instance weakly satisfiable
    /// (Theorem 4's test): some completion must satisfy `F`.
    Weak,
    /// No checking (load mode).
    None,
}

/// Maintenance policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// The satisfiability notion to enforce.
    pub enforcement: Enforcement,
    /// Run the NS-rules after accepted updates (internal acquisition).
    pub propagate: bool,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            enforcement: Enforcement::Weak,
            propagate: true,
        }
    }
}

/// Errors raised by modifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The update would break the enforced satisfiability notion.
    Rejected {
        /// The violated dependency and rows (where known).
        violation: Option<Violation>,
        /// The enforcement that rejected it.
        enforcement: Enforcement,
    },
    /// `resolve_null` was pointed at a non-null cell.
    NotANull {
        /// Row of the cell.
        row: RowId,
        /// Attribute of the cell.
        attr: AttrId,
    },
    /// The row id names no live row (deleted, or never allocated).
    NoSuchRow(RowId),
    /// Forwarded relational error (domain membership, arity, …).
    Relation(RelationError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Rejected {
                violation,
                enforcement,
            } => match violation {
                Some(v) => write!(f, "update rejected ({enforcement:?} enforcement): {v}"),
                None => write!(f, "update rejected ({enforcement:?} enforcement)"),
            },
            UpdateError::NotANull { row, attr } => {
                write!(f, "cell ({row}, {attr}) is not a null")
            }
            UpdateError::NoSuchRow(row) => write!(f, "no row {row}"),
            UpdateError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<RelationError> for UpdateError {
    fn from(e: RelationError) -> Self {
        UpdateError::Relation(e)
    }
}

/// Outcome of an accepted modification.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The row affected (for inserts: the new row's id).
    pub row: RowId,
    /// NS-rule events fired by internal acquisition.
    pub propagated: Vec<chase::NsEvent>,
    /// Every row whose cells changed, ascending and deduplicated: the
    /// inserted / modified row, every row rewritten by a class-wide
    /// null resolution, and every row the chase substituted into. For
    /// a delete, the (no longer live) deleted row. This is an **exact
    /// cell-change record** — materialized views re-evaluate these rows
    /// and no others (plus, when [`UpdateOutcome::nec_merges`] is
    /// non-zero, the rows whose verdicts can shift without a cell
    /// changing).
    pub changed_rows: Vec<RowId>,
    /// Number of NEC class-merge operations performed while applying
    /// (the chase can equate nulls). Merges change
    /// class roots, so signature caches keyed on roots must be
    /// invalidated when this is non-zero.
    pub nec_merges: usize,
}

/// A relation instance maintained under a dependency set.
#[derive(Debug, Clone)]
pub struct Database {
    instance: Instance,
    fds: FdSet,
    policy: Policy,
    index: ChaseIndex,
    /// Metrics sink (defaults to noop; see [`Database::set_recorder`]).
    /// Clones share the same sink, matching the epoch-snapshot model:
    /// a published clone keeps reporting into the node's recorder.
    rec: fdi_obs::Recorder,
}

impl Database {
    /// Wraps an existing instance. Fails (per policy) if the starting
    /// instance already violates the enforced notion.
    ///
    /// The cold index build and, with [`Policy::propagate`], the cold
    /// chase are the `O(n·|F|)` moments of a database's life, so both
    /// run on the ambient executor ([`fdi_exec::Executor::from_env`] —
    /// `FDI_THREADS` or the available parallelism); every later
    /// mutation is a delta. Index and chased state are identical at
    /// every thread count.
    pub fn new(instance: Instance, fds: FdSet, policy: Policy) -> Result<Database, UpdateError> {
        check_instance(&instance, &fds, policy.enforcement)?;
        let exec = fdi_exec::Executor::from_env();
        let index = ChaseIndex::build_par(&instance, &fds, &exec);
        let mut db = Database {
            instance,
            fds,
            policy,
            index,
            rec: fdi_obs::Recorder::noop(),
        };
        if policy.propagate {
            db.index
                .settle_all(&mut db.instance, &exec, &fdi_obs::Recorder::noop());
        }
        Ok(db)
    }

    /// Wraps an instance whose state is *already known valid* under the
    /// policy — the log-replay/recovery constructor. Unlike
    /// [`Database::new`] it neither re-runs the satisfiability check nor
    /// fires internal acquisition: a durability layer's snapshot was
    /// taken from a database that had both already applied, so
    /// re-deciding either here would at best waste a chase and at worst
    /// *mutate* the restored state before replay begins. Only the
    /// index is (re)built — it is derived data, and
    /// [`ChaseIndex::build_par`] produces the identical index at every
    /// thread count.
    pub fn resume(instance: Instance, fds: FdSet, policy: Policy) -> Database {
        let index = ChaseIndex::build_par(&instance, &fds, &fdi_exec::Executor::from_env());
        Database {
            instance,
            fds,
            policy,
            index,
            rec: fdi_obs::Recorder::noop(),
        }
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The dependency set.
    pub fn fds(&self) -> &FdSet {
        &self.fds
    }

    /// The policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The chase index (for inspection/benchmarks).
    pub fn index(&self) -> &ChaseIndex {
        &self.index
    }

    /// Routes this database's mutation metrics (`ops_applied`,
    /// `ops_rejected`, the `index_rows_*` delta counters) into `rec`.
    /// All of them are deterministic: mutations are writer-serial and
    /// their accept/reject decisions are thread-count-invariant.
    pub fn set_recorder(&mut self, rec: fdi_obs::Recorder) {
        self.rec = rec;
    }

    /// The metrics sink mutations record into (noop unless
    /// [`Database::set_recorder`] was called).
    pub fn recorder(&self) -> &fdi_obs::Recorder {
        &self.rec
    }

    /// Tallies one mutation's outcome into the recorder.
    fn record_op<T, E>(&self, result: &Result<T, E>) {
        self.rec.incr(match result {
            Ok(_) => fdi_obs::Counter::OpsApplied,
            Err(_) => fdi_obs::Counter::OpsRejected,
        });
    }

    /// Opens the undo trail of a change that the policy may still
    /// reject after its cells are written (every enforcement but
    /// [`Enforcement::None`]).
    fn begin_rejectable(&mut self) {
        if self.policy.enforcement != Enforcement::None {
            self.index.begin_undo(&self.instance);
        }
    }

    /// Does the delta run decide acceptance? (Weak enforcement over a
    /// propagated, hence fixpoint, instance.)
    fn guarded(&self) -> bool {
        self.policy.enforcement == Enforcement::Weak && self.policy.propagate
    }

    /// Finishes a mutation whose cells (rows `touched`) are written and
    /// re-filed (under an undo trail wherever a rejection can still
    /// follow): runs internal acquisition from
    /// the touched buckets and, when [`Database::guarded`], decides
    /// acceptance by Theorem 4 — on a weakly satisfiable fixpoint the
    /// extended chase derives `nothing` exactly when a `nothing` was
    /// written or the delta run leaves two distinct constants in a
    /// dependent column. A rejection rolls the trail back (an inserted
    /// row is the caller's to remove); an acceptance returns the events
    /// and the rows the chase substituted into.
    fn settle(
        &mut self,
        touched: &[RowId],
        wrote_nothing: bool,
    ) -> Result<(Vec<chase::NsEvent>, Vec<RowId>), UpdateError> {
        let guarded = self.guarded();
        let settled = (self.policy.propagate && !(guarded && wrote_nothing))
            .then(|| self.index.settle(&mut self.instance, touched, guarded));
        if guarded && settled.as_ref().is_none_or(|s| s.conflict) {
            self.index.rollback(&mut self.instance);
            return Err(UpdateError::Rejected {
                violation: None,
                enforcement: Enforcement::Weak,
            });
        }
        self.index.commit_undo();
        let (events, changed) = settled.map_or_else(Default::default, |s| (s.events, s.changed));
        self.rec
            .add(fdi_obs::Counter::IndexRowsRekeyed, changed.len() as u64);
        Ok((events, changed))
    }

    /// Merges delta row lists into the ascending, deduplicated
    /// [`UpdateOutcome::changed_rows`] record.
    fn merge_changed(mut base: Vec<RowId>, more: Vec<RowId>) -> Vec<RowId> {
        base.extend(more);
        base.sort_unstable();
        base.dedup();
        base
    }

    /// Incremental strong check of the tuple at `row` (the candidate
    /// insert, already parsed into the instance but not yet indexed)
    /// against the preexisting rows, via the index. Returns the first
    /// violation (per FD, the least candidate row).
    fn incremental_strong_check(&self, tuple: &Tuple, row: RowId) -> Option<Violation> {
        for (i, fd) in self.fds.iter().enumerate() {
            let fd = fd.normalized();
            for other_row in self.index.candidates(i, tuple, &self.instance) {
                if other_row == row {
                    continue; // the candidate itself (live, not yet filed)
                }
                let other = self.instance.tuple(other_row);
                let x_match = fd
                    .lhs
                    .iter()
                    .all(|a| strong_eq(tuple.get(a), other.get(a), &self.instance));
                if !x_match {
                    continue;
                }
                let y_conflict = fd
                    .rhs
                    .iter()
                    .any(|a| strong_neq(tuple.get(a), other.get(a), &self.instance));
                if y_conflict {
                    return Some(Violation {
                        fd_index: i,
                        rows: (other_row, row),
                    });
                }
            }
        }
        None
    }

    /// Inserts a row given as text tokens (`-`, `?mark`, constants).
    /// The accepted row is filed into the index by a delta insert; a
    /// rejected row is removed again (leaving no tuple trace — see the
    /// module docs for what token parsing may intern).
    pub fn insert(&mut self, tokens: &[&str]) -> Result<UpdateOutcome, UpdateError> {
        let result = self.insert_inner(tokens);
        self.record_op(&result);
        result
    }

    fn insert_inner(&mut self, tokens: &[&str]) -> Result<UpdateOutcome, UpdateError> {
        let row = self.instance.add_row(tokens)?;
        let rejection = match self.policy.enforcement {
            Enforcement::Strong => {
                let tuple = self.instance.tuple(row).clone();
                self.incremental_strong_check(&tuple, row)
                    .map(|v| UpdateError::Rejected {
                        violation: Some(v),
                        enforcement: Enforcement::Strong,
                    })
            }
            Enforcement::Weak if !self.policy.propagate => {
                check_instance(&self.instance, &self.fds, Enforcement::Weak).err()
            }
            _ => None,
        };
        if let Some(err) = rejection {
            self.instance.remove_row(row);
            return Err(err);
        }
        // Past this point only the delta run can still reject.
        if self.guarded() {
            self.index.begin_undo(&self.instance);
        }
        self.index.insert_row(&self.instance, row);
        let wrote_nothing = self.instance.tuple(row).values().contains(&Value::Nothing);
        let merges_before = self.instance.necs().merge_count();
        let (propagated, chase_changed) = match self.settle(&[row], wrote_nothing) {
            Ok(settled) => settled,
            Err(e) => {
                self.instance.remove_row(row);
                return Err(e);
            }
        };
        self.rec.incr(fdi_obs::Counter::IndexRowsInserted);
        Ok(UpdateOutcome {
            row,
            propagated,
            changed_rows: Self::merge_changed(vec![row], chase_changed),
            nec_merges: self.instance.necs().merge_count() - merges_before,
        })
    }

    /// Inserts a batch of rows given as text tokens, returning one
    /// result per row, in order. Semantically identical to calling
    /// [`Database::insert`] once per row — same acceptances and
    /// rejections, same [`RowId`]s, same index state, at every thread
    /// count. Under [`Enforcement::None`] with propagation off (the
    /// bulk-load / ingest regime, where a per-row insert neither checks
    /// nor chases) the accepted rows are filed with their keys computed
    /// on the executor; any checking or propagating policy falls back
    /// to the per-row loop, because each acceptance decision there
    /// depends on the rows accepted before it.
    pub fn insert_batch(
        &mut self,
        rows: &[Vec<String>],
        exec: &fdi_exec::Executor,
    ) -> Vec<Result<UpdateOutcome, UpdateError>> {
        let bulk = self.policy.enforcement == Enforcement::None && !self.policy.propagate;
        if !bulk {
            return rows
                .iter()
                .map(|tokens| {
                    let toks: Vec<&str> = tokens.iter().map(|t| t.as_str()).collect();
                    self.insert(&toks)
                })
                .collect();
        }
        let mut results = Vec::with_capacity(rows.len());
        let mut accepted = Vec::with_capacity(rows.len());
        for tokens in rows {
            let toks: Vec<&str> = tokens.iter().map(|t| t.as_str()).collect();
            match self.instance.add_row(&toks) {
                Ok(row) => {
                    accepted.push(row);
                    results.push(Ok(UpdateOutcome {
                        row,
                        propagated: Vec::new(),
                        changed_rows: vec![row],
                        nec_merges: 0,
                    }));
                }
                Err(e) => results.push(Err(e.into())),
            }
        }
        self.index.insert_rows_par(&self.instance, &accepted, exec);
        for result in &results {
            self.record_op(result);
        }
        self.rec
            .add(fdi_obs::Counter::IndexRowsInserted, accepted.len() as u64);
        results
    }

    /// Deletes a row. Deletion can never break satisfiability (both
    /// notions are anti-monotone in the tuple set) nor make a rule
    /// applicable, so it always succeeds and never chases. The index
    /// unfiles one row and the instance tombstones the slot —
    /// `O(|F| · bucket)` total, with **no survivor renumbering
    /// anywhere** (every other [`RowId`] stays valid).
    pub fn delete(&mut self, row: RowId) -> Result<UpdateOutcome, UpdateError> {
        let result = self.delete_inner(row);
        self.record_op(&result);
        result
    }

    fn delete_inner(&mut self, row: RowId) -> Result<UpdateOutcome, UpdateError> {
        if !self.instance.is_live(row) {
            return Err(UpdateError::NoSuchRow(row));
        }
        self.index.remove_row(&self.instance, row);
        self.instance.remove_row(row);
        self.rec.incr(fdi_obs::Counter::IndexRowsRemoved);
        Ok(UpdateOutcome {
            row,
            propagated: Vec::new(),
            changed_rows: vec![row],
            nec_merges: 0,
        })
    }

    /// Densifies the slot arena after heavy churn: compacts the
    /// instance ([`Instance::compact`]) and remaps the index in
    /// `O(moved)`. Returns the old → new id pairs of every row that
    /// moved — previously held [`RowId`]s for those rows are
    /// invalidated.
    pub fn compact(&mut self) -> Vec<(RowId, RowId)> {
        let moved = self.instance.compact();
        self.index.remap(&self.instance, &moved);
        self.rec.incr(fdi_obs::Counter::OpsApplied);
        self.rec
            .add(fdi_obs::Counter::IndexRowsRemapped, moved.len() as u64);
        moved
    }

    /// Replaces the value of one cell (checked like an insert). The row
    /// is re-keyed in place — one delta, no rebuild — and a rejection
    /// rolls cell and index back.
    pub fn modify(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        let result = self.modify_inner(row, attr, token);
        self.record_op(&result);
        result
    }

    fn modify_inner(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        if !self.instance.is_live(row) {
            return Err(UpdateError::NoSuchRow(row));
        }
        let value = parse_token(&mut self.instance, attr, token)?;
        self.index.begin_undo(&self.instance);
        self.index.write_cell(&mut self.instance, row, attr, value);
        if !self.guarded() {
            if let Err(e) = check_instance(&self.instance, &self.fds, self.policy.enforcement) {
                self.index.rollback(&mut self.instance);
                return Err(e);
            }
        }
        let merges_before = self.instance.necs().merge_count();
        let (propagated, chase_changed) = self.settle(&[row], value == Value::Nothing)?;
        self.rec.incr(fdi_obs::Counter::IndexRowsRekeyed);
        Ok(UpdateOutcome {
            row,
            propagated,
            changed_rows: Self::merge_changed(vec![row], chase_changed),
            nec_merges: self.instance.necs().merge_count() - merges_before,
        })
    }

    /// External acquisition: the user asserts the actual value of a
    /// null. Every occurrence of the null's NEC class receives the
    /// value, and the result is checked under the policy — "the only
    /// value a user can insert without the creation of an inconsistency"
    /// (§4) is exactly a value this method accepts. The class's
    /// occurrence list names the cells, so the substitution costs the
    /// class, not the instance; a rejection restores every one of them.
    pub fn resolve_null(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        let result = self.resolve_null_inner(row, attr, token);
        self.record_op(&result);
        result
    }

    fn resolve_null_inner(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        if !self.instance.is_live(row) {
            return Err(UpdateError::NoSuchRow(row));
        }
        let Value::Null(id) = self.instance.value(row, attr) else {
            return Err(UpdateError::NotANull { row, attr });
        };
        let symbol = match parse_token(&mut self.instance, attr, token)? {
            Value::Const(s) => s,
            _ => {
                return Err(UpdateError::Relation(RelationError::Parse {
                    line: 0,
                    message: format!("resolve_null needs a constant, got {token:?}"),
                }))
            }
        };
        self.begin_rejectable();
        let root = self.instance.necs().find_readonly(id);
        let mut touched: Vec<RowId> = self
            .index
            .substitute_class(&mut self.instance, root, symbol, None)
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        if !self.guarded() {
            if let Err(e) = check_instance(&self.instance, &self.fds, self.policy.enforcement) {
                self.index.rollback(&mut self.instance);
                return Err(e);
            }
        }
        let merges_before = self.instance.necs().merge_count();
        let (propagated, chase_changed) = self.settle(&touched, false)?;
        self.rec
            .add(fdi_obs::Counter::IndexRowsRekeyed, touched.len() as u64);
        Ok(UpdateOutcome {
            row,
            propagated,
            changed_rows: Self::merge_changed(touched, chase_changed),
            nec_merges: self.instance.necs().merge_count() - merges_before,
        })
    }
}

/// Strong-convention equality for the incremental check. One guard on
/// top of [`semantics::Strong`]'s trait predicate: the incremental
/// check pins `nothing` as matching *nothing* even against a null
/// (TEST-FDs' pessimistic equality lets a null potentially match the
/// inconsistent element), so index triggers never fire through an
/// already-inconsistent cell.
fn strong_eq(a: Value, b: Value, instance: &Instance) -> bool {
    match (a, b) {
        (Value::Nothing, _) | (_, Value::Nothing) => false,
        _ => semantics::Strong.values_equal(a, b, instance),
    }
}

/// Strong-convention inequality for the incremental check — exactly
/// [`semantics::Strong`]'s trait predicate.
fn strong_neq(a: Value, b: Value, instance: &Instance) -> bool {
    semantics::Strong.values_unequal(a, b, instance)
}

fn check_instance(
    instance: &Instance,
    fds: &FdSet,
    enforcement: Enforcement,
) -> Result<(), UpdateError> {
    match enforcement {
        Enforcement::Strong => {
            testfd::check_strong(instance, fds).map_err(|v| UpdateError::Rejected {
                violation: Some(v),
                enforcement: Enforcement::Strong,
            })
        }
        Enforcement::Weak => {
            if chase::weakly_satisfiable_via_chase(fds, instance) {
                Ok(())
            } else {
                Err(UpdateError::Rejected {
                    violation: None,
                    enforcement: Enforcement::Weak,
                })
            }
        }
        Enforcement::None => Ok(()),
    }
}

fn parse_token(instance: &mut Instance, attr: AttrId, token: &str) -> Result<Value, UpdateError> {
    if token == "-" {
        Ok(Value::Null(instance.fresh_null()))
    } else if token == "#!" {
        Ok(Value::Nothing)
    } else if let Some(mark) = token.strip_prefix('?') {
        match instance.mark(mark) {
            Some(id) => Ok(Value::Null(id)),
            None => Ok(Value::Null(instance.fresh_null())),
        }
    } else {
        Ok(Value::Const(instance.intern_constant(attr, token)?))
    }
}

/// Full revalidation insert (no index): the baseline experiment E19
/// compares [`Database::insert`] against.
///
/// Generic over the null-comparison [`Semantics`]: acceptance is
/// [`semantics::decide`] on the scratch instance (chase-then-test for
/// the weak convention, direct TEST-FDs otherwise), so the two
/// [`testfd::Convention`] values behave exactly as before and the alternative
/// semantics slot in without touching the journal. The [`Enforcement`]
/// tag on a rejection maps the strong convention to
/// [`Enforcement::Strong`] and every optimistic-family semantics to
/// [`Enforcement::Weak`] — the journal's enforcement vocabulary is
/// frozen at two values.
pub fn insert_with_full_recheck<S: Semantics>(
    instance: &mut Instance,
    fds: &FdSet,
    tokens: &[&str],
    sem: S,
) -> Result<RowId, UpdateError> {
    let mut scratch = instance.clone();
    let row = scratch.add_row(tokens)?;
    match semantics::decide(&scratch, fds, sem) {
        Ok(()) => {
            *instance = scratch;
            Ok(row)
        }
        Err(v) => Err(UpdateError::Rejected {
            violation: Some(v),
            enforcement: match sem.kind() {
                SemanticsKind::Strong => Enforcement::Strong,
                _ => Enforcement::Weak,
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn strong_db() -> Database {
        Database::new(
            fixtures::figure1_instance(),
            fixtures::figure1_fds(),
            Policy {
                enforcement: Enforcement::Strong,
                propagate: true,
            },
        )
        .expect("figure 1.2 is strongly satisfied")
    }

    /// The invariant behind every delta operation: the maintained index
    /// is bucket-identical to a fresh build.
    fn assert_index_fresh(db: &Database) {
        assert!(
            db.index()
                .same_buckets(&ChaseIndex::build(db.instance(), db.fds())),
            "delta-maintained index diverged from a fresh build"
        );
    }

    #[test]
    fn inserts_respecting_fds_are_accepted() {
        let mut db = strong_db();
        let n = db.instance().len();
        let out = db
            .insert(&["e4", "20K", "d3", "part"])
            .expect("clean insert");
        assert!(db.instance().is_live(out.row));
        assert_eq!(db.instance().nth_row(n), out.row);
        assert_eq!(db.instance().len(), n + 1);
        assert_index_fresh(&db);
    }

    #[test]
    fn conflicting_inserts_are_rejected_under_strong() {
        let mut db = strong_db();
        // e1 already earns 10K in d1: a different salary must be rejected
        let err = db.insert(&["e1", "20K", "d1", "full"]).unwrap_err();
        assert!(matches!(
            err,
            UpdateError::Rejected {
                enforcement: Enforcement::Strong,
                ..
            }
        ));
        // nulls are also rejected under strong when they *could* collide
        let err = db.insert(&["e1", "-", "d1", "full"]).unwrap_err();
        assert!(matches!(err, UpdateError::Rejected { .. }));
        assert_eq!(db.instance().len(), 3, "rejected inserts leave no trace");
        assert_index_fresh(&db);
    }

    #[test]
    fn weak_policy_accepts_possibly_consistent_inserts() {
        let mut db = Database::new(
            fixtures::figure1_instance(),
            fixtures::figure1_fds(),
            Policy {
                enforcement: Enforcement::Weak,
                propagate: false,
            },
        )
        .unwrap();
        // the null salary may later turn out to equal e1's: weakly fine
        db.insert(&["e1", "-", "d1", "full"]).expect("weakly fine");
        // a definite contradiction is still rejected
        let err = db.insert(&["e1", "20K", "d1", "full"]).unwrap_err();
        assert!(matches!(
            err,
            UpdateError::Rejected {
                enforcement: Enforcement::Weak,
                ..
            }
        ));
        assert_index_fresh(&db);
    }

    #[test]
    fn internal_acquisition_fills_nulls_on_insert() {
        let mut db = Database::new(
            fixtures::figure1_instance(),
            fixtures::figure1_fds(),
            Policy {
                enforcement: Enforcement::Weak,
                propagate: true,
            },
        )
        .unwrap();
        // d1's contract type is known (full): inserting (e5, 20K, d1, -)
        // lets the NS-rule resolve the null immediately.
        let out = db.insert(&["e5", "20K", "d1", "-"]).expect("insert");
        assert_eq!(out.propagated.len(), 1);
        let ct = db.instance().value(out.row, AttrId(3));
        assert_eq!(
            ct.render(db.instance().symbols(), false),
            "full",
            "internal acquisition: the only consistent value was substituted"
        );
        assert_index_fresh(&db);
    }

    #[test]
    fn resolve_null_checks_consistency() {
        let mut db = Database::new(
            fixtures::figure1_null_instance(),
            fixtures::figure1_fds(),
            Policy {
                enforcement: Enforcement::Weak,
                propagate: false,
            },
        )
        .unwrap();
        // e3's D# is null; resolving it to d1 forces CT=full vs e3's
        // part — contradiction, rejected.
        let e3 = db.instance().nth_row(2);
        let err = db.resolve_null(e3, AttrId(2), "d1").unwrap_err();
        assert!(matches!(err, UpdateError::Rejected { .. }));
        assert_index_fresh(&db);
        // resolving to d3 is fine (no other d3 row)
        db.resolve_null(e3, AttrId(2), "d3")
            .expect("consistent value");
        assert_eq!(
            db.instance()
                .value(e3, AttrId(2))
                .render(db.instance().symbols(), false),
            "d3"
        );
        assert_index_fresh(&db);
        // pointing at a non-null errs
        let e1 = db.instance().nth_row(0);
        let err = db.resolve_null(e1, AttrId(0), "e1").unwrap_err();
        assert!(matches!(err, UpdateError::NotANull { .. }));
    }

    #[test]
    fn resolve_null_substitutes_the_whole_class() {
        let schema = fixtures::section6_schema();
        let r = fdi_relation::Instance::parse(schema.clone(), "a1 ?x c1\na2 ?x c2").unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        let mut db = Database::new(
            r,
            fds,
            Policy {
                enforcement: Enforcement::Weak,
                propagate: false,
            },
        )
        .unwrap();
        let r0 = db.instance().nth_row(0);
        let r1 = db.instance().nth_row(1);
        db.resolve_null(r0, AttrId(1), "b1").expect("consistent");
        assert!(
            db.instance().value(r1, AttrId(1)).is_const(),
            "class-wide substitution"
        );
        assert_index_fresh(&db);
    }

    #[test]
    fn deletes_always_succeed_and_reindex() {
        let mut db = strong_db();
        let victim = db.instance().nth_row(1);
        db.delete(victim).expect("delete");
        assert_eq!(db.instance().len(), 2);
        assert!(db.delete(victim).is_err(), "the slot is dead now");
        assert!(db.delete(fdi_relation::RowId(99)).is_err());
        assert_index_fresh(&db);
        // still insertable after the delta remove
        db.insert(&["e2", "25K", "d3", "part"]).expect("reinsert");
        assert_index_fresh(&db);
    }

    #[test]
    fn modify_is_policy_checked() {
        let mut db = strong_db();
        let e1 = db.instance().nth_row(0);
        let e2 = db.instance().nth_row(1);
        // moving e2 into d2 would pair its `full` contract with e3's
        // `part` under D# → CT: rejected.
        let err = db.modify(e2, AttrId(2), "d2").unwrap_err();
        assert!(matches!(err, UpdateError::Rejected { .. }), "d2 is part");
        assert_index_fresh(&db);
        // d3 is unused: fine.
        db.modify(e2, AttrId(2), "d3").expect("no d3 rows yet");
        // and with e2 out of d1, e1's contract can change freely.
        db.modify(e1, AttrId(3), "part")
            .expect("d1 now has one member");
        assert_index_fresh(&db);
    }

    #[test]
    fn incremental_and_full_checks_agree() {
        // randomized agreement: incremental-indexed insert decision ≡
        // full TEST-FDs revalidation decision, under strong enforcement.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let spec = fdi_gen_spec();
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C"], 4).unwrap();
            let fds = FdSet::parse(&schema, "A -> B\nB -> C").unwrap();
            let mut db = Database::new(
                fdi_relation::Instance::new(schema.clone()),
                fds.clone(),
                Policy {
                    enforcement: Enforcement::Strong,
                    propagate: false,
                },
            )
            .unwrap();
            let mut plain = fdi_relation::Instance::new(schema.clone());
            for _ in 0..spec {
                let tokens: Vec<String> = ["A", "B", "C"]
                    .iter()
                    .map(|attr| {
                        if rng.gen_bool(0.15) {
                            "-".to_string()
                        } else {
                            format!("{attr}_{}", rng.gen_range(0..4))
                        }
                    })
                    .collect();
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                let incremental = db.insert(&refs).is_ok();
                let full =
                    insert_with_full_recheck(&mut plain, &fds, &refs, testfd::Convention::Strong)
                        .is_ok();
                assert_eq!(incremental, full, "seed {seed}, tokens {tokens:?}");
            }
            assert_index_fresh(&db);
        }
    }

    fn fdi_gen_spec() -> usize {
        24
    }

    #[test]
    fn index_candidates_shrink_with_groups() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 16).unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        let mut r = fdi_relation::Instance::new(schema);
        for i in 0..16 {
            r.add_row(&[&format!("A_{i}"), "B_0"]).unwrap();
        }
        let index = ChaseIndex::build(&r, &fds);
        assert_eq!(index.group_count(0), 16);
        let probe = r.tuple(r.nth_row(0)).clone();
        let candidates = index.candidates(0, &probe, &r);
        assert_eq!(candidates.len(), 1, "exact group only, no wild tuples");
    }
}
