//! The indexed worklist engine for the plain NS-rules.
//!
//! The naive engine in [`super::ns`] re-scans every tuple pair for every
//! FD on every pass — `O(|F|·n²)` agreement checks per pass and an
//! `O(n·p)` full-instance scan per substitution, `O(|F|·n³)` in the
//! worst case. This module replaces both scans with indexes:
//!
//! * a **group index** per FD: rows hash-partitioned by the
//!   NEC-canonical key of their determinant projection
//!   ([`crate::groupkey`]), so a tuple's NS-rule partners are exactly
//!   its bucket co-members — no pair scans;
//! * an **occurrence index** per NEC class: every `(row, attr)` cell
//!   holding a null of the class, merged small-into-large union-find
//!   style, so substituting a class touches only its occurrences — no
//!   instance scans;
//! * a **bucket worklist**: the first pass seeds every bucket; after
//!   that, only buckets whose *membership* changed are re-swept. Plain
//!   NS-rule applications transform whole NEC classes at once, so the
//!   applicability status of a tuple pair (equal constants / distinct
//!   constants / one null / two classes) is invariant under events
//!   elsewhere — new work can only appear where buckets gain members.
//!   Bucket keys change *en bloc* (every member of a bucket shares the
//!   key), so re-keying migrates whole buckets and re-enqueues only
//!   merged ones.
//!
//! Within a bucket, a single ascending **representative sweep** per
//! dependent attribute applies every NS-rule the naive engine would
//! apply across all `O(|bucket|²)` pairs: nulls merge into the running
//! class, and the first constant promotes it (later nulls pair against
//! the earliest constant-bearing row, exactly as the pair scan does).
//!
//! # One persistent index, delta runs
//!
//! The indexes live in a [`ChaseIndex`] that outlives a chase: a
//! [`crate::update::Database`] keeps one, maintains it by single-row
//! deltas, and runs the NS-rules on it after each update **from the
//! touched rows' buckets only**. On a plain-chase fixpoint every other
//! bucket is clean, and only membership growth can make a clean bucket
//! applicable — the argument the parallel path below uses to skip
//! clean sweeps — so the delta run fires exactly the events, in exactly
//! the order, of a whole-instance run. The one subtlety is a bucket of
//! the FD being swept that grows before its turn in the first pass (a
//! cross-column class re-keys it): a whole-instance pass would sweep it
//! at its place, so the delta run admits it there. The sweeps also
//! flag a bucket left holding two distinct constants in a dependent
//! column — the weak-enforcement verdict — and an undo trail of every
//! write lets a rejected update roll the index, the cells and the NEC
//! forest back exactly. [`chase_indexed`] and friends are the same run
//! over a freshly built index with every bucket seeded.
//!
//! # Order fidelity (the column-local-NEC restriction)
//!
//! The plain system is not confluent (Figure 5), so matching the naive
//! engine's *result* — not just reaching some minimally incomplete
//! instance — requires replaying its site order: passes, FDs in set
//! order within a pass, buckets by least member row, rows ascending
//! within a bucket. On instances whose NEC classes are **column-local**
//! and which contain no `nothing` values, the replay is exact: same
//! chased instance, same events at the same sites, same pass count (the
//! property suite compares full event lists). Use
//! [`order_replay_caveats`] / [`order_replay_exact`] to test an
//! instance for the restriction — every condition that voids exact
//! replay is reported as a typed [`ChaseIndexCaveat`], and the `fdi-gen`
//! generators debug-assert their workloads free of them. Two regimes
//! are exempt from exact replay — in both, each engine still returns a
//! legitimate chase result (the fixpoint of *some* rule order, accepted
//! by [`super::ns::is_minimally_incomplete`]), but the choice at
//! contended sites may differ:
//!
//! * an NEC class spanning **columns** (a marked null like `?z` reused
//!   across columns — `Instance::parse` allows this; every generator
//!   keeps classes column-local): a substitution can then re-key the
//!   very FD being swept mid-flight. The worklist still guarantees the
//!   fixpoint — every re-keyed bucket re-enters it, so the engine never
//!   terminates while a rule applies (see the cross-column regression
//!   test);
//! * a **`nothing`** value in a bucket (the plain rules treat it as
//!   inert): the bucket's first applicable site may then involve later
//!   rows than its least member, so the least-member agenda order can
//!   interleave buckets differently than the global pair scan (see the
//!   nothing-divergence regression test). `nothing` belongs to the
//!   extended system; the plain chase merely tolerates it.

use crate::fd::{Fd, FdSet};
use crate::groupkey::{self, GroupKey};
use fdi_exec::Executor;
use fdi_obs::{Counter, Gauge, Recorder};
use fdi_relation::attrs::{AttrId, AttrSet};
use fdi_relation::instance::Instance;
use fdi_relation::nec::{NecSnapshot, NecUndo};
use fdi_relation::rowid::RowId;
use fdi_relation::symbol::Symbol;
use fdi_relation::tuple::Tuple;
use fdi_relation::value::{NullId, Value};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use super::ns::{NsChaseResult, NsEvent, NsEventKind};

/// Runs the indexed worklist chase; same contract as
/// [`super::ns::chase_plain`].
pub fn chase_indexed(instance: &Instance, fds: &FdSet) -> NsChaseResult {
    chase_indexed_par(instance, fds, &Executor::with_threads(1))
}

/// Runs the indexed worklist chase with its **read phases sharded**
/// onto `exec` — the `fdi-exec`-backed twin of [`chase_indexed`], and
/// **bit-identical to it at every thread count** (same chased
/// instance, same events at the same sites, same pass count — with or
/// without [`ChaseIndexCaveat`]s present; the caveats govern fidelity
/// to the *naive* engine, not to this one).
///
/// Parallelism never touches rule application. Two phases shard:
///
/// * the **index build** (per-FD determinant buckets, the occurrence
///   index): shard-local maps merged in shard order, so every bucket
///   and occurrence list equals its sequential counterpart;
/// * per pass and FD, the **agenda classification**: every agenda
///   bucket is scanned read-only against the pass-start state and
///   flagged *clean* (no NS-rule applicable) or *dirty*.
///
/// Application then replays the agenda **sequentially in agenda
/// order**, sweeping dirty buckets and skipping clean ones — which is
/// sound because a clean bucket can only become sweepable through a
/// *membership* change (plain-rule events transform whole NEC classes,
/// so they never turn an all-one-class or all-one-constant dependent
/// column into a mixed one; only bucket migration adds members), and
/// every migration target is tracked and re-checked. Skipped sweeps
/// are therefore provably no-ops, and the surviving sweeps run in
/// exactly the sequential engine's order against exactly the
/// sequential engine's state.
pub fn chase_indexed_par(instance: &Instance, fds: &FdSet, exec: &Executor) -> NsChaseResult {
    chase_indexed_par_with(instance, fds, exec, &Recorder::noop())
}

/// [`chase_indexed`] plus metrics: records `chase_passes`,
/// `chase_bucket_sweeps` (agenda entries scheduled — identical at
/// every thread count; the parallel path may *skip* provably-no-op
/// sweeps but schedules the same agenda), `chase_substitutions`,
/// `chase_unions`, and the `chase_worklist_peak` high-watermark into
/// `rec`. All recording happens in the sequential application path, so
/// every recorded value is deterministic (see [`fdi_obs`]).
pub fn chase_indexed_with(instance: &Instance, fds: &FdSet, rec: &Recorder) -> NsChaseResult {
    chase_indexed_par_with(instance, fds, &Executor::with_threads(1), rec)
}

/// [`chase_indexed_par`] plus metrics — the executor-backed twin of
/// [`chase_indexed_with`], recording the same (thread-count-invariant)
/// counters.
pub fn chase_indexed_par_with(
    instance: &Instance,
    fds: &FdSet,
    exec: &Executor,
    rec: &Recorder,
) -> NsChaseResult {
    let mut work = instance.clone();
    let mut index = ChaseIndex::build_par(&work, fds, exec);
    let (events, passes) = index.settle_all(&mut work, exec, rec);
    NsChaseResult {
        instance: work,
        events,
        passes,
    }
}

/// Is no plain NS-rule applicable? Group-indexed equivalent of the
/// pairwise definition: a bucket violates minimal incompleteness iff
/// some dependent column mixes a null with a constant or holds two
/// distinct null classes.
pub fn is_minimally_incomplete_indexed(instance: &Instance, fds: &FdSet) -> bool {
    let snapshot = instance.necs().canonical_snapshot();
    for fd in fds {
        let fd = fd.normalized();
        if fd.is_trivial() {
            continue; // agreement on X forces agreement on Y ⊆ X
        }
        let buckets = groupkey::group_rows(instance, fd.lhs, &snapshot);
        for rows in buckets.values() {
            if rows.len() < 2 {
                continue;
            }
            for b in fd.rhs.iter() {
                let mut seen_const: Option<Symbol> = None;
                let mut seen_class: Option<NullId> = None;
                for &row in rows {
                    match instance.value(row, b) {
                        Value::Nothing => {}
                        Value::Const(c) => {
                            if seen_class.is_some() {
                                return false; // rule (a): substitution applies
                            }
                            seen_const = seen_const.or(Some(c));
                        }
                        Value::Null(m) => {
                            if seen_const.is_some() {
                                return false; // rule (a)
                            }
                            let root = snapshot.root(m);
                            match seen_class {
                                Some(prior) if prior != root => return false, // rule (b)
                                _ => seen_class = Some(root),
                            }
                        }
                    }
                }
            }
        }
    }
    true
}

/// A condition voiding the indexed chase's *exact replay* of the naive
/// engine — the order-fidelity restriction of the module docs, as a
/// typed, testable value instead of a buried comment.
///
/// A caveat does **not** make [`chase_indexed`] wrong: both engines
/// still reach a fixpoint of the plain rules (a minimally incomplete
/// instance), but on a caveat-bearing instance they may make different
/// choices at contended sites (Figure 5's order dependence), so their
/// chased instances, event lists, and pass counts are no longer
/// guaranteed identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseIndexCaveat {
    /// An NEC class spans more than one column (a marked null like `?z`
    /// reused across columns — `Instance::parse` allows this; every
    /// generator keeps classes column-local). A substitution can then
    /// re-key the very FD being swept mid-flight, and the engines may
    /// order the contended sites differently.
    CrossColumnNecClass {
        /// A null of the offending class.
        null: NullId,
        /// Two distinct columns the class occurs under.
        columns: (AttrId, AttrId),
    },
    /// A `nothing` value occupies a cell. The plain rules treat
    /// `nothing` as inert, so a bucket's first applicable site may
    /// involve later rows than its least member and the least-member
    /// agenda can interleave buckets differently than the global pair
    /// scan. (`nothing` belongs to the extended system of
    /// [`super::cells`]; the plain chase merely tolerates it.)
    NothingValue {
        /// Row of the cell.
        row: RowId,
        /// Attribute of the cell.
        attr: AttrId,
    },
}

impl std::fmt::Display for ChaseIndexCaveat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaseIndexCaveat::CrossColumnNecClass { null, columns } => write!(
                f,
                "NEC class of {null} spans columns {} and {}: indexed chase order \
                 may diverge from the naive engine",
                columns.0, columns.1
            ),
            ChaseIndexCaveat::NothingValue { row, attr } => write!(
                f,
                "`nothing` at ({row}, {attr}): indexed chase order may diverge \
                 from the naive engine"
            ),
        }
    }
}

/// Scans `instance` for every condition voiding exact naive-order
/// replay (see [`ChaseIndexCaveat`]): one caveat per cross-column NEC
/// class and one per `nothing` cell, in row-major order of first
/// detection.
pub fn order_replay_caveats(instance: &Instance) -> Vec<ChaseIndexCaveat> {
    let mut caveats = Vec::new();
    let snapshot = instance.necs().canonical_snapshot();
    let mut class_col: HashMap<NullId, AttrId> = HashMap::new();
    let mut flagged: HashSet<NullId> = HashSet::new();
    let all = instance.schema().all_attrs();
    for row in instance.row_ids() {
        for attr in all.iter() {
            match instance.value(row, attr) {
                Value::Nothing => caveats.push(ChaseIndexCaveat::NothingValue { row, attr }),
                Value::Null(n) => {
                    let root = snapshot.root(n);
                    match class_col.get(&root) {
                        Some(&col) if col != attr => {
                            if flagged.insert(root) {
                                caveats.push(ChaseIndexCaveat::CrossColumnNecClass {
                                    null: n,
                                    columns: (col, attr),
                                });
                            }
                        }
                        Some(_) => {}
                        None => {
                            class_col.insert(root, attr);
                        }
                    }
                }
                Value::Const(_) => {}
            }
        }
    }
    caveats
}

/// `true` iff [`chase_indexed`] is guaranteed to replay
/// [`super::ns::chase_naive`] exactly on `instance` — same chased
/// instance, events, and pass count (no [`ChaseIndexCaveat`] present).
pub fn order_replay_exact(instance: &Instance) -> bool {
    order_replay_caveats(instance).is_empty()
}

/// Bucket keys as stored: one allocation shared by the key map and the
/// bucket slab, so a clone of the index bumps reference counts instead
/// of copying every key.
type Key = Arc<[u64]>;

/// Slot-table entry of a slot not filed under an FD (a dead slot).
const UNFILED: u32 = u32::MAX;

/// Below this row count [`ChaseIndex::build_par`] (and the batch filing
/// of [`crate::update::Database::insert_batch`]) computes keys
/// sequentially regardless of the executor: a cold build of a few
/// thousand rows is microseconds of hashing, and OS thread spawn/join
/// would cost more than it saves. (The two paths produce identical
/// indexes; the property suite drives `build_par` across thread counts
/// directly.)
pub const PAR_BUILD_SMALL_N: usize = 4096;

/// One FD's buckets: NEC-canonical determinant key → bucket id, a
/// bucket slab (key and member rows per id), and a dense per-slot table
/// naming each row's bucket.
#[derive(Debug, Clone)]
struct FdBuckets {
    /// The normalized dependency.
    fd: Fd,
    ids: HashMap<Key, u32>,
    keys: Vec<Key>,
    /// Member rows per bucket id, **unsorted**, so merges are `O(moved)`
    /// appends — sweeps sort their own copy.
    members: Vec<Vec<RowId>>,
    /// Released bucket ids, reused last-in first-out.
    free: Vec<u32>,
    /// Bucket ids whose key carries a null-class atom: the rows a
    /// constant determinant may still match under the strong
    /// convention.
    wild: HashSet<u32>,
    /// Per row slot: its bucket id, or [`UNFILED`].
    slot: Vec<u32>,
}

impl FdBuckets {
    fn new(fd: Fd) -> FdBuckets {
        FdBuckets {
            fd,
            ids: HashMap::new(),
            keys: Vec::new(),
            members: Vec::new(),
            free: Vec::new(),
            wild: HashSet::new(),
            slot: Vec::new(),
        }
    }

    /// Do the NS-rules fire for this FD? (Trivial dependencies are
    /// indexed for the strong check but never chased: agreement on `X`
    /// makes every `Y ⊆ X` comparison inert.)
    fn chased(&self) -> bool {
        !self.fd.is_trivial()
    }

    fn bucket_of(&self, row: RowId) -> u32 {
        self.slot.get(row.index()).copied().unwrap_or(UNFILED)
    }

    fn note_wild(&mut self, id: u32) {
        if self.keys[id as usize]
            .iter()
            .any(|&atom| groupkey::atom_class(atom).is_some())
        {
            self.wild.insert(id);
        } else {
            self.wild.remove(&id);
        }
    }
}

/// One reversible write of an index mutation, recorded while an undo
/// trail is open (see [`ChaseIndex::begin_undo`]).
#[derive(Debug, Clone)]
enum Step {
    Cell(RowId, AttrId, Value),
    Slot(usize, RowId, u32),
    Pushed(usize, u32),
    SwapRemoved(usize, u32, usize, RowId),
    Extended(usize, u32, usize),
    Opened(usize, u32, bool),
    Closed(usize, u32, Key, Vec<RowId>),
    Renamed(usize, u32, Key),
    OccPushed(u32),
    OccSwapRemoved(u32, usize, (RowId, u16)),
    OccTaken(u32, Vec<(RowId, u16)>),
    OccExtended(u32, usize),
    Rows(usize),
}

/// The undo trail of one mutation: index steps plus the NEC store's own
/// log, replayed backwards on rollback.
#[derive(Debug, Clone)]
struct Trail {
    steps: Vec<Step>,
    nec: NecUndo,
}

/// The persistent NEC-canonical index the NS-rules run on: per FD, rows
/// hash-partitioned by the canonical key of their determinant
/// ([`crate::groupkey`]; bucket co-membership *is* the rule trigger),
/// plus per NEC class the list of its null occurrences.
///
/// Built once ([`build`](ChaseIndex::build) /
/// [`build_par`](ChaseIndex::build_par)) and then maintained by deltas:
/// a [`crate::update::Database`] files, unfiles and re-keys single rows,
/// and its NS-rule propagation runs on this very index from the buckets
/// of the rows an update touched. The chase entry points
/// ([`chase_indexed_par`]) are the same run seeded with every bucket.
/// [`same_buckets`](ChaseIndex::same_buckets) is the equivalence the
/// property suites compare a delta-maintained index and a fresh build
/// with.
#[derive(Debug, Clone)]
pub struct ChaseIndex {
    fds: Vec<FdBuckets>,
    /// NEC class root → null occurrences `(row, attr)` of the class.
    occ: HashMap<u32, Vec<(RowId, u16)>>,
    /// attr index → FDs with that attribute in their determinant.
    lhs_fds: Vec<Vec<usize>>,
    rows: usize,
    trail: Option<Trail>,
}

/// The canonical key of `tuple[lhs]`, class roots read from the live
/// store without path compression (an index delta never rewrites the
/// NEC forest — only rule applications do).
fn live_key_into(key: &mut GroupKey, work: &Instance, tuple: &Tuple, row: RowId, lhs: AttrSet) {
    key.clear();
    for a in lhs.iter() {
        key.push(groupkey::atom_with(tuple.get(a), row, |n| {
            work.necs().find_readonly(n)
        }));
    }
}

/// Is no plain NS-rule applicable within this bucket? Read-only twin of
/// [`ChaseIndex::sweep`]'s trigger conditions, for the parallel
/// classification phase: a bucket is *clean* iff every dependent column
/// holds (besides inert `nothing`s) only one constant or only nulls of
/// one NEC class.
fn bucket_clean(work: &Instance, snapshot: &NecSnapshot, rows: &[RowId], rhs: AttrSet) -> bool {
    for attr in rhs.iter() {
        let mut seen_const = false;
        let mut seen_class: Option<NullId> = None;
        for &row in rows {
            match work.value(row, attr) {
                Value::Nothing => {}
                Value::Const(_) => {
                    if seen_class.is_some() {
                        return false; // rule (a): null + constant
                    }
                    seen_const = true;
                }
                Value::Null(n) => {
                    if seen_const {
                        return false; // rule (a)
                    }
                    let root = snapshot.root(n);
                    match seen_class {
                        Some(prior) if prior != root => return false, // rule (b)
                        _ => seen_class = Some(root),
                    }
                }
            }
        }
    }
    true
}

/// Pass-1 admission state of a delta run for the FD being processed:
/// the buckets a whole-instance pass would sweep that the delta agenda
/// has not drawn, admitted when a migration grows one of them before
/// its turn.
struct Admission {
    fd: usize,
    /// Keys whose place on the whole-instance agenda is settled: drawn,
    /// admitted, already passed, or created after the draw.
    considered: HashSet<Key>,
    cursor: Option<(RowId, Key)>,
    admitted: BTreeSet<(RowId, Key)>,
}

/// Worklist state of one chase run over a [`ChaseIndex`].
pub(crate) struct Run {
    /// Per FD: bucket keys whose membership changed (the worklist).
    dirty: Vec<HashSet<Key>>,
    /// Per FD: bucket keys migrated *into* since the FD's agenda was
    /// classified this pass — the keys whose clean verdicts are stale.
    /// Only maintained on the parallel path; cleared per (pass, FD).
    touched: Vec<HashSet<Key>>,
    parallel: bool,
    /// Seeded from touched rows rather than every bucket: pass 1 then
    /// admits clean buckets that grow before their turn.
    delta: bool,
    admission: Option<Admission>,
    events: Vec<NsEvent>,
    /// Rows whose cells a substitution rewrote (unsorted, repeats).
    substituted: Vec<RowId>,
    /// Did a sweep meet two distinct constants in a dependent column?
    conflict: bool,
    stop_on_conflict: bool,
    rec: Recorder,
}

impl Run {
    fn new(fds: usize, parallel: bool, delta: bool) -> Run {
        Run {
            dirty: vec![HashSet::new(); fds],
            touched: vec![HashSet::new(); fds],
            parallel,
            delta,
            admission: None,
            events: Vec::new(),
            substituted: Vec::new(),
            conflict: false,
            stop_on_conflict: false,
            rec: Recorder::noop(),
        }
    }

    fn push_event(&mut self, fd_index: usize, a: RowId, b: RowId, attr: AttrId, kind: NsEventKind) {
        self.events.push(NsEvent {
            fd_index,
            rows: (a.min(b), a.max(b)),
            attr,
            kind,
        });
    }

    /// A migration is about to grow bucket `key` of FD `fd` (whose
    /// members are still `pre`): if the whole-instance pass would sweep
    /// it later in this FD's agenda, the delta pass must too.
    fn note_grown(&mut self, fd: usize, key: &Key, pre: &[RowId]) {
        let Some(ad) = self.admission.as_mut().filter(|ad| ad.fd == fd) else {
            return;
        };
        if !ad.considered.insert(key.clone()) || pre.len() < 2 {
            return;
        }
        let entry = (*pre.iter().min().expect("non-empty"), key.clone());
        if ad.cursor.as_ref().is_none_or(|cursor| entry > *cursor) {
            ad.admitted.insert(entry);
        }
    }

    fn note_created(&mut self, fd: usize, key: &Key) {
        if let Some(ad) = self.admission.as_mut().filter(|ad| ad.fd == fd) {
            ad.considered.insert(key.clone());
        }
    }
}

/// What a delta run ([`ChaseIndex::settle`]) did.
pub(crate) struct Settled {
    /// NS-rule events, in the order a whole-instance chase fires them.
    pub events: Vec<NsEvent>,
    /// Rows whose cells the run substituted, ascending, deduplicated.
    pub changed: Vec<RowId>,
    /// Did some bucket end with two distinct constants in a dependent
    /// column — i.e. does the extended chase derive `nothing`?
    pub conflict: bool,
}

impl ChaseIndex {
    fn empty(instance: &Instance, fds: &FdSet) -> ChaseIndex {
        let fds: Vec<FdBuckets> = fds
            .iter()
            .map(|fd| FdBuckets::new(fd.normalized()))
            .collect();
        let mut lhs_fds = vec![Vec::new(); instance.arity()];
        for (f, b) in fds.iter().enumerate() {
            for a in b.fd.lhs.iter() {
                lhs_fds[a.index()].push(f);
            }
        }
        ChaseIndex {
            fds,
            occ: HashMap::new(),
            lhs_fds,
            rows: 0,
            trail: None,
        }
    }

    /// Builds the index for `instance` under `fds`.
    pub fn build(instance: &Instance, fds: &FdSet) -> ChaseIndex {
        ChaseIndex::build_par(instance, fds, &Executor::with_threads(1))
    }

    /// [`build`](ChaseIndex::build) with the key computation sharded
    /// over [`RowId`] ranges on an `fdi-exec` executor — the cold-build
    /// path of [`crate::update::Database::new`]. Keys are read-only and
    /// embarrassingly parallel; filing stays sequential in ascending row
    /// order, so the index is identical (bucket ids and member order
    /// included) at every thread count. A 1-thread executor — or an
    /// instance below [`PAR_BUILD_SMALL_N`] rows — takes the sequential
    /// loop outright.
    pub fn build_par(instance: &Instance, fds: &FdSet, exec: &Executor) -> ChaseIndex {
        let mut index = ChaseIndex::empty(instance, fds);
        let rows: Vec<RowId> = instance.row_ids().collect();
        index.insert_rows_par(instance, &rows, exec);
        index
    }

    /// Delta insert of a batch: files `rows` (live, unfiled, in order)
    /// exactly as looping [`insert_row`](ChaseIndex::insert_row) would,
    /// with the keys computed against one NEC snapshot — sharded over
    /// `exec` when the executor and the batch are large enough.
    pub(crate) fn insert_rows_par(&mut self, instance: &Instance, rows: &[RowId], exec: &Executor) {
        let snapshot = instance.necs().canonical_snapshot();
        let root_of = |n: NullId| snapshot.root(n);
        let keys: Vec<GroupKey> = if exec.threads() == 1 || rows.len() < PAR_BUILD_SMALL_N {
            rows.iter()
                .map(|&row| self.flat_key(instance, row, root_of))
                .collect()
        } else {
            let this = &*self;
            exec.map(rows, |_, &row| this.flat_key(instance, row, root_of))
        };
        for (&row, flat) in rows.iter().zip(keys) {
            self.file_row(instance, row, &flat, root_of);
        }
    }

    /// The determinant keys of `row` under every FD, concatenated.
    fn flat_key(
        &self,
        instance: &Instance,
        row: RowId,
        root_of: impl Fn(NullId) -> NullId,
    ) -> GroupKey {
        let tuple = instance.tuple(row);
        self.fds
            .iter()
            .flat_map(|b| b.fd.lhs.iter())
            .map(|a| groupkey::atom_with(tuple.get(a), row, &root_of))
            .collect()
    }

    /// Files `row` under every FD (`flat` from
    /// [`flat_key`](ChaseIndex::flat_key)) and its nulls into their
    /// classes' occurrence lists.
    fn file_row(
        &mut self,
        instance: &Instance,
        row: RowId,
        flat: &[u64],
        root_of: impl Fn(NullId) -> NullId,
    ) {
        let mut at = 0;
        for f in 0..self.fds.len() {
            let len = self.fds[f].fd.lhs.len();
            assert_eq!(
                self.fds[f].bucket_of(row),
                UNFILED,
                "row {row} already filed"
            );
            self.file(f, row, &flat[at..at + len]);
            at += len;
        }
        for (col, value) in instance.tuple(row).values().iter().enumerate() {
            if let Value::Null(n) = *value {
                self.occ_push(root_of(n).0, (row, col as u16));
            }
        }
        self.set_rows(self.rows + 1);
    }

    /// Number of buckets for FD `fd_index`.
    #[cfg(test)]
    pub(crate) fn group_count(&self, fd_index: usize) -> usize {
        self.fds[fd_index].ids.len()
    }

    /// The rows a new tuple must be checked against for FD `fd_index`
    /// under the strong convention, ascending: when the tuple's
    /// determinant is all constants, its exact bucket plus every bucket
    /// whose key carries a null-class atom (rows whose `nothing`
    /// determinants match nothing are left out); otherwise every live
    /// row of `instance`. (The probe tuple's own row, if it is already
    /// live but not yet filed, is the caller's to exclude.)
    pub(crate) fn candidates(
        &self,
        fd_index: usize,
        tuple: &Tuple,
        instance: &Instance,
    ) -> Vec<RowId> {
        let b = &self.fds[fd_index];
        let mut key = GroupKey::new();
        if !groupkey::const_key_into(&mut key, tuple, b.fd.lhs) {
            return instance.row_ids().collect();
        }
        let mut out: Vec<RowId> = b
            .ids
            .get(key.as_slice())
            .map(|&id| b.members[id as usize].clone())
            .unwrap_or_default();
        for &id in &b.wild {
            out.extend_from_slice(&b.members[id as usize]);
        }
        out.sort_unstable();
        out
    }

    /// Delta insert: files the live row `row` of `instance`.
    ///
    /// # Panics
    /// Panics when `row` is already filed.
    pub(crate) fn insert_row(&mut self, instance: &Instance, row: RowId) {
        let root_of = |n: NullId| instance.necs().find_readonly(n);
        let flat = self.flat_key(instance, row, root_of);
        self.file_row(instance, row, &flat, root_of);
    }

    /// Delta delete: unfiles the live row `row` of `instance` (call
    /// before the instance drops it) — `O(|F| · bucket + class)`, no
    /// other entry moves.
    ///
    /// # Panics
    /// Panics when `row` is not filed.
    pub fn remove_row(&mut self, instance: &Instance, row: RowId) {
        for f in 0..self.fds.len() {
            self.unfile(f, row);
        }
        for (col, value) in instance.tuple(row).values().iter().enumerate() {
            if let Value::Null(n) = *value {
                self.occ_remove(instance.necs().find_readonly(n).0, (row, col as u16));
            }
        }
        self.set_rows(self.rows - 1);
    }

    /// Writes one cell and re-files its row under the FDs whose
    /// determinant holds `attr` — the delta of a modification.
    pub(crate) fn write_cell(
        &mut self,
        work: &mut Instance,
        row: RowId,
        attr: AttrId,
        value: Value,
    ) {
        let old = work.value(row, attr);
        if let Value::Null(n) = old {
            self.occ_remove(work.necs().find_readonly(n).0, (row, attr.0));
        }
        self.set_cell(work, row, attr, value);
        if let Value::Null(n) = value {
            self.occ_push(work.necs().find_readonly(n).0, (row, attr.0));
        }
        let mut key = GroupKey::new();
        for i in 0..self.lhs_fds[attr.index()].len() {
            let f = self.lhs_fds[attr.index()][i];
            live_key_into(&mut key, work, work.tuple(row), row, self.fds[f].fd.lhs);
            let id = self.fds[f].bucket_of(row);
            if *self.fds[f].keys[id as usize] != *key {
                self.unfile(f, row);
                self.file(f, row, &key);
            }
        }
    }

    /// Substitutes `value` for every occurrence of the NEC class rooted
    /// at `root` and migrates the buckets keyed by the class (as work
    /// of `run`, if any); returns the substituted cells.
    pub(crate) fn substitute_class(
        &mut self,
        work: &mut Instance,
        root: NullId,
        value: Symbol,
        run: Option<&mut Run>,
    ) -> Vec<(RowId, u16)> {
        let occs = self.occ_take(root.0);
        for &(row, col) in &occs {
            debug_assert!(matches!(work.value(row, AttrId(col)), Value::Null(_)));
            self.set_cell(work, row, AttrId(col), Value::Const(value));
        }
        self.migrate(work, &occs, run);
        occs
    }

    /// Applies the old → new id pairs returned by [`Instance::compact`]
    /// (to the compacted `instance`): every stored occurrence of a moved
    /// id is rewritten in place — `O(moved · (|F| · bucket + class))`,
    /// no rebuild. Keys holding a `nothing` atom name their row, so
    /// those buckets are renamed too.
    pub(crate) fn remap(&mut self, instance: &Instance, moved: &[(RowId, RowId)]) {
        // Pairs must be applied in the order compact() reports them
        // (ascending old slot): chains like (2→1),(3→2) re-use a just-
        // vacated id, so processing out of order would rewrite the
        // wrong row.
        let mut key = GroupKey::new();
        for &(old, new) in moved {
            let tuple = instance.tuple(new);
            for f in 0..self.fds.len() {
                let id = self.fds[f].bucket_of(old);
                let b = &mut self.fds[f];
                b.slot[old.index()] = UNFILED;
                b.slot[new.index()] = id;
                let members = &mut b.members[id as usize];
                let pos = members.iter().position(|&r| r == old).expect("filed row");
                members[pos] = new;
                live_key_into(&mut key, instance, tuple, new, b.fd.lhs);
                if *b.keys[id as usize] != *key {
                    self.rename(f, id, &key);
                }
            }
            for (col, value) in tuple.values().iter().enumerate() {
                if let Value::Null(n) = *value {
                    let cells = self
                        .occ
                        .get_mut(&instance.necs().find_readonly(n).0)
                        .expect("class occurrences");
                    let pos = cells
                        .iter()
                        .position(|&c| c == (old, col as u16))
                        .expect("filed occurrence");
                    cells[pos] = (new, col as u16);
                }
            }
        }
    }

    /// Order-insensitive equality: same dependencies, same row count,
    /// per FD the same key → row-set mapping (with every slot-table
    /// entry naming its bucket), and the same occurrence lists. Null
    /// class atoms compare by their class's least occurrence cell, not
    /// by null id, so two instances whose classes correspond
    /// positionally (one of them having burned allocator ids on a
    /// rejected update) index identically. This is the equivalence the
    /// property suites use to prove a delta-maintained index identical
    /// to a fresh [`build`](ChaseIndex::build).
    pub fn same_buckets(&self, other: &ChaseIndex) -> bool {
        self.canon() == other.canon()
    }

    fn canon(&self) -> Canon {
        let first: HashMap<u32, (RowId, u16)> = self
            .occ
            .iter()
            .filter_map(|(&root, cells)| Some((root, *cells.iter().min()?)))
            .collect();
        let canon_key = |key: &[u64]| -> CanonKey {
            key.iter()
                .map(|&atom| match groupkey::atom_class(atom) {
                    Some(root) => (
                        true,
                        first.get(&root.0).map_or(u64::MAX, |&(row, col)| {
                            (u64::from(row.0) << 16) | u64::from(col)
                        }),
                    ),
                    None => (false, atom),
                })
                .collect()
        };
        let mut consistent = true;
        let fds = self
            .fds
            .iter()
            .map(|b| {
                let mut buckets: CanonBuckets = b
                    .ids
                    .iter()
                    .map(|(key, &id)| {
                        let mut rows = b.members[id as usize].clone();
                        consistent &= !rows.is_empty()
                            && b.keys[id as usize] == *key
                            && rows.iter().all(|&r| b.bucket_of(r) == id);
                        rows.sort_unstable();
                        (canon_key(key), rows)
                    })
                    .collect();
                buckets.sort();
                consistent &=
                    buckets.iter().map(|(_, rows)| rows.len()).sum::<usize>() == self.rows;
                (b.fd, buckets)
            })
            .collect();
        let mut occ: Vec<Vec<(RowId, u16)>> = self
            .occ
            .values()
            .map(|cells| {
                let mut cells = cells.clone();
                cells.sort_unstable();
                cells
            })
            .collect();
        occ.sort();
        Canon {
            fds,
            occ,
            rows: self.rows,
            consistent,
        }
    }

    // ---- undo trail -------------------------------------------------

    /// Opens an undo trail: every following write — index steps, cells
    /// written through the index, NEC rewrites of rule applications —
    /// is recorded until [`commit_undo`](ChaseIndex::commit_undo) or
    /// [`rollback`](ChaseIndex::rollback).
    pub(crate) fn begin_undo(&mut self, work: &Instance) {
        self.trail = Some(Trail {
            steps: Vec::new(),
            nec: work.necs().undo_point(),
        });
    }

    /// Closes the undo trail, keeping every write.
    pub(crate) fn commit_undo(&mut self) {
        self.trail = None;
    }

    /// Reverts every write since [`begin_undo`](ChaseIndex::begin_undo),
    /// newest first, leaving index, cells and NEC forest exactly as they
    /// were.
    pub(crate) fn rollback(&mut self, work: &mut Instance) {
        let trail = self.trail.take().expect("rollback without an undo trail");
        for step in trail.steps.into_iter().rev() {
            match step {
                Step::Cell(row, attr, old) => work.set_value(row, attr, old),
                Step::Slot(f, row, old) => self.fds[f].slot[row.index()] = old,
                Step::Pushed(f, id) => {
                    self.fds[f].members[id as usize].pop();
                }
                Step::SwapRemoved(f, id, pos, row) => {
                    let members = &mut self.fds[f].members[id as usize];
                    members.push(row);
                    let last = members.len() - 1;
                    members.swap(pos, last);
                }
                Step::Extended(f, id, len) => self.fds[f].members[id as usize].truncate(len),
                Step::Opened(f, id, reused) => {
                    let b = &mut self.fds[f];
                    b.ids.remove(&b.keys[id as usize]);
                    b.wild.remove(&id);
                    if reused {
                        b.keys[id as usize] = Key::from([]);
                        b.free.push(id);
                    } else {
                        b.keys.pop();
                        b.members.pop();
                    }
                }
                Step::Closed(f, id, key, members) => {
                    let b = &mut self.fds[f];
                    assert_eq!(
                        b.free.pop(),
                        Some(id),
                        "bucket ids are released last-in first-out"
                    );
                    b.ids.insert(key.clone(), id);
                    b.keys[id as usize] = key;
                    b.members[id as usize] = members;
                    b.note_wild(id);
                }
                Step::Renamed(f, id, old) => {
                    let b = &mut self.fds[f];
                    b.ids.remove(&b.keys[id as usize]);
                    b.ids.insert(old.clone(), id);
                    b.keys[id as usize] = old;
                    b.note_wild(id);
                }
                Step::OccPushed(root) => {
                    let cells = self.occ.get_mut(&root).expect("class occurrences");
                    cells.pop();
                    if cells.is_empty() {
                        self.occ.remove(&root);
                    }
                }
                Step::OccSwapRemoved(root, pos, cell) => {
                    let cells = self.occ.entry(root).or_default();
                    cells.push(cell);
                    let last = cells.len() - 1;
                    cells.swap(pos, last);
                }
                Step::OccTaken(root, cells) => {
                    self.occ.insert(root, cells);
                }
                Step::OccExtended(root, len) => {
                    let cells = self.occ.get_mut(&root).expect("class occurrences");
                    cells.truncate(len);
                    if cells.is_empty() {
                        self.occ.remove(&root);
                    }
                }
                Step::Rows(rows) => self.rows = rows,
            }
        }
        work.necs_mut().undo(trail.nec);
    }

    fn log(&mut self, step: impl FnOnce() -> Step) {
        if let Some(trail) = &mut self.trail {
            trail.steps.push(step());
        }
    }

    // ---- logged primitives ------------------------------------------

    fn set_cell(&mut self, work: &mut Instance, row: RowId, attr: AttrId, value: Value) {
        let old = work.value(row, attr);
        self.log(|| Step::Cell(row, attr, old));
        work.set_value(row, attr, value);
    }

    fn set_rows(&mut self, rows: usize) {
        let old = self.rows;
        self.log(|| Step::Rows(old));
        self.rows = rows;
    }

    fn set_slot(&mut self, f: usize, row: RowId, id: u32) {
        let slot = &mut self.fds[f].slot;
        if slot.len() <= row.index() {
            slot.resize(row.index() + 1, UNFILED);
        }
        let old = std::mem::replace(&mut slot[row.index()], id);
        self.log(|| Step::Slot(f, row, old));
    }

    /// Allocates an empty bucket under `key`.
    fn open(&mut self, f: usize, key: &[u64]) -> u32 {
        let key = Key::from(key);
        let b = &mut self.fds[f];
        let (id, reused) = match b.free.pop() {
            Some(id) => {
                b.keys[id as usize] = key.clone();
                (id, true)
            }
            None => {
                b.keys.push(key.clone());
                b.members.push(Vec::new());
                ((b.keys.len() - 1) as u32, false)
            }
        };
        b.ids.insert(key, id);
        b.note_wild(id);
        self.log(|| Step::Opened(f, id, reused));
        id
    }

    /// Releases bucket `id`, dropping its key and any remaining members.
    fn close(&mut self, f: usize, id: u32) {
        let b = &mut self.fds[f];
        let key = std::mem::replace(&mut b.keys[id as usize], Key::from([]));
        let members = std::mem::take(&mut b.members[id as usize]);
        b.ids.remove(&key);
        b.wild.remove(&id);
        b.free.push(id);
        self.log(|| Step::Closed(f, id, key, members));
    }

    fn rename(&mut self, f: usize, id: u32, key: &[u64]) {
        let b = &mut self.fds[f];
        let new = Key::from(key);
        let old = std::mem::replace(&mut b.keys[id as usize], new.clone());
        b.ids.remove(&old);
        b.ids.insert(new, id);
        b.note_wild(id);
        self.log(|| Step::Renamed(f, id, old));
    }

    fn file(&mut self, f: usize, row: RowId, key: &[u64]) {
        let id = match self.fds[f].ids.get(key) {
            Some(&id) => id,
            None => self.open(f, key),
        };
        self.fds[f].members[id as usize].push(row);
        self.log(|| Step::Pushed(f, id));
        self.set_slot(f, row, id);
    }

    fn unfile(&mut self, f: usize, row: RowId) {
        let id = self.fds[f].bucket_of(row);
        assert_ne!(id, UNFILED, "row {row} not filed");
        let members = &mut self.fds[f].members[id as usize];
        let pos = members.iter().position(|&r| r == row).expect("filed row");
        members.swap_remove(pos);
        let now_empty = members.is_empty();
        self.log(|| Step::SwapRemoved(f, id, pos, row));
        self.set_slot(f, row, UNFILED);
        if now_empty {
            self.close(f, id);
        }
    }

    fn occ_push(&mut self, root: u32, cell: (RowId, u16)) {
        self.occ.entry(root).or_default().push(cell);
        self.log(|| Step::OccPushed(root));
    }

    fn occ_remove(&mut self, root: u32, cell: (RowId, u16)) {
        let cells = self.occ.get_mut(&root).expect("class occurrences");
        let pos = cells
            .iter()
            .position(|&c| c == cell)
            .expect("filed occurrence");
        cells.swap_remove(pos);
        if cells.is_empty() {
            self.occ.remove(&root);
        }
        self.log(|| Step::OccSwapRemoved(root, pos, cell));
    }

    fn occ_take(&mut self, root: u32) -> Vec<(RowId, u16)> {
        let cells = self.occ.remove(&root).unwrap_or_default();
        if self.trail.is_some() && !cells.is_empty() {
            let copy = cells.clone();
            self.log(|| Step::OccTaken(root, copy));
        }
        cells
    }

    fn occ_extend(&mut self, root: u32, cells: &[(RowId, u16)]) {
        if cells.is_empty() {
            return;
        }
        let list = self.occ.entry(root).or_default();
        let len = list.len();
        list.extend_from_slice(cells);
        self.log(|| Step::OccExtended(root, len));
    }

    fn find(&mut self, work: &mut Instance, id: NullId) -> NullId {
        match &mut self.trail {
            Some(trail) => work.necs_mut().find_logged(id, &mut trail.nec),
            None => work.necs_mut().find(id),
        }
    }

    fn union(&mut self, work: &mut Instance, a: NullId, b: NullId) -> bool {
        match &mut self.trail {
            Some(trail) => work.necs_mut().union_logged(a, b, &mut trail.nec),
            None => work.necs_mut().union(a, b),
        }
    }

    // ---- the chase ----------------------------------------------------

    /// The delta run: chases `work` — a plain-chase fixpoint except for
    /// the cells of `seeds` — from the buckets of the seed rows only.
    /// Every other bucket is clean (no rule applies there, and
    /// whole-class rule applications keep it so), so the run fires
    /// exactly the events, in exactly the order, of a whole-instance
    /// [`chase_indexed`] and reaches its state. With `stop_on_conflict`
    /// the run returns as soon as a bucket holds two distinct constants
    /// in a dependent column (the state is then only fit for
    /// [`rollback`](ChaseIndex::rollback)).
    pub(crate) fn settle(
        &mut self,
        work: &mut Instance,
        seeds: &[RowId],
        stop_on_conflict: bool,
    ) -> Settled {
        let mut run = Run::new(self.fds.len(), false, true);
        run.stop_on_conflict = stop_on_conflict;
        for &row in seeds {
            for (f, b) in self.fds.iter().enumerate() {
                if b.chased() {
                    run.dirty[f].insert(b.keys[b.bucket_of(row) as usize].clone());
                }
            }
        }
        self.run(work, &mut run, &Executor::with_threads(1));
        let mut changed = std::mem::take(&mut run.substituted);
        changed.sort_unstable();
        changed.dedup();
        Settled {
            events: run.events,
            changed,
            conflict: run.conflict,
        }
    }

    /// The whole-instance run: every bucket seeded, as a cold chase
    /// needs. Returns the events and the pass count.
    pub(crate) fn settle_all(
        &mut self,
        work: &mut Instance,
        exec: &Executor,
        rec: &Recorder,
    ) -> (Vec<NsEvent>, usize) {
        let mut run = Run::new(self.fds.len(), exec.threads() > 1, false);
        run.rec = rec.clone();
        for (f, b) in self.fds.iter().enumerate() {
            if b.chased() {
                run.dirty[f].extend(b.ids.keys().cloned());
            }
        }
        let passes = self.run(work, &mut run, exec);
        (run.events, passes)
    }

    /// Runs passes to the fixpoint; returns the pass count (the final
    /// pass applies nothing, mirroring the naive engine's counter).
    ///
    /// Each pass draws, per FD in set order, the dirty buckets with at
    /// least two members and sweeps them by least member row. With a
    /// multi-thread executor, each (pass, FD) agenda is first
    /// **classified in parallel** (read-only: is any rule applicable in
    /// this bucket?) and the sequential application loop then skips the
    /// clean buckets — unless a migration has since grown their
    /// membership (`touched`), the one way a clean verdict can go
    /// stale. Skipped sweeps are provably no-ops, so events, states,
    /// and pass counts are identical at every thread count.
    fn run(&mut self, work: &mut Instance, run: &mut Run, exec: &Executor) -> usize {
        let parallel = run.parallel && exec.threads() > 1;
        let bound = 2 * work.slot_bound() * work.arity() + 2;
        let mut passes = 0;
        loop {
            passes += 1;
            run.rec.incr(Counter::ChasePasses);
            let before = run.events.len();
            for si in 0..self.fds.len() {
                if !self.fds[si].chased() {
                    continue;
                }
                // Keys drawn up front and re-checked on use: sweeps
                // migrate buckets of *other* FDs freely, and (with
                // cross-column NEC classes) occasionally this one.
                let drawn = std::mem::take(&mut run.dirty[si]);
                let b = &self.fds[si];
                let mut agenda: Vec<(RowId, Key)> = drawn
                    .iter()
                    .filter_map(|key| {
                        let rows = &b.members[*b.ids.get(key)? as usize];
                        (rows.len() > 1)
                            .then(|| (*rows.iter().min().expect("non-empty"), key.clone()))
                    })
                    .collect();
                agenda.sort_unstable();
                run.rec.add(Counter::ChaseBucketSweeps, agenda.len() as u64);
                run.rec
                    .gauge_max(Gauge::ChaseWorklistPeak, agenda.len() as u64);
                if passes == 1 && run.delta {
                    run.admission = Some(Admission {
                        fd: si,
                        considered: drawn,
                        cursor: None,
                        admitted: BTreeSet::new(),
                    });
                }
                let clean: Vec<bool> = if parallel && agenda.len() > 1 {
                    let snapshot = work.necs().canonical_snapshot();
                    let work = &*work;
                    let rhs = b.fd.rhs;
                    exec.map(&agenda, |_, (_, key)| match b.ids.get(key) {
                        Some(&id) => bucket_clean(work, &snapshot, &b.members[id as usize], rhs),
                        None => true, // unreachable: nothing ran since the draw
                    })
                } else {
                    vec![false; agenda.len()]
                };
                // Clean verdicts hold from here on unless a migration
                // grows a bucket — start tracking those now.
                if parallel {
                    run.touched[si].clear();
                }
                let mut next = 0;
                loop {
                    let admitted = run
                        .admission
                        .as_ref()
                        .and_then(|ad| ad.admitted.first().cloned());
                    let (entry, skippable) = match (agenda.get(next), admitted) {
                        (Some(drawn), Some(admitted)) if admitted < *drawn => (admitted, false),
                        (Some(drawn), _) => {
                            next += 1;
                            (drawn.clone(), clean[next - 1])
                        }
                        (None, Some(admitted)) => (admitted, false),
                        (None, None) => break,
                    };
                    if let Some(ad) = run.admission.as_mut() {
                        ad.admitted.remove(&entry);
                        ad.cursor = Some(entry.clone());
                    }
                    if skippable && !run.touched[si].contains(&entry.1) {
                        continue; // provably a no-op sweep
                    }
                    self.sweep(work, run, si, &entry.1);
                    if run.stop_on_conflict && run.conflict {
                        return passes;
                    }
                }
                run.admission = None;
            }
            if run.events.len() == before {
                break;
            }
            assert!(passes <= bound, "indexed chase failed to terminate");
        }
        passes
    }

    /// Applies every applicable NS-rule within one bucket: for each
    /// dependent attribute, an ascending sweep merging nulls into the
    /// running class and promoting on the first constant — the same
    /// events the naive pair scan fires at this bucket's sites. A later
    /// constant unequal to the first is where the plain system is stuck
    /// (the extended system's `nothing`): the sweep flags the conflict.
    fn sweep(&mut self, work: &mut Instance, run: &mut Run, si: usize, key: &Key) {
        let b = &self.fds[si];
        let Some(&id) = b.ids.get(key) else {
            return; // migrated away since the agenda was drawn
        };
        let mut rows = b.members[id as usize].clone();
        rows.sort_unstable();
        let rhs = b.fd.rhs;
        for attr in rhs.iter() {
            let mut anchor: Option<(RowId, Symbol)> = None;
            let mut pending_null: Option<(RowId, NullId)> = None;
            for &row in &rows {
                match work.value(row, attr) {
                    Value::Nothing => {}
                    Value::Const(value) => match anchor {
                        Some((_, first)) => run.conflict |= value != first,
                        None => {
                            anchor = Some((row, value));
                            if let Some((null_row, class)) = pending_null.take() {
                                self.chase_substitute(work, run, class, value);
                                run.push_event(
                                    si,
                                    null_row,
                                    row,
                                    attr,
                                    NsEventKind::Substituted { class, value },
                                );
                                // The promoted pending row now holds the
                                // constant and precedes this row, so it is
                                // the site the naive pair scan pairs later
                                // nulls against.
                                anchor = Some((null_row, value));
                            }
                        }
                    },
                    Value::Null(id) => {
                        if let Some((const_row, value)) = anchor {
                            self.chase_substitute(work, run, id, value);
                            run.push_event(
                                si,
                                const_row,
                                row,
                                attr,
                                NsEventKind::Substituted { class: id, value },
                            );
                        } else if let Some((null_row, prior)) = pending_null {
                            if !work.necs().same_class(prior, id) {
                                self.chase_merge(work, run, prior, id);
                                run.push_event(
                                    si,
                                    null_row,
                                    row,
                                    attr,
                                    NsEventKind::NecIntroduced { a: prior, b: id },
                                );
                            }
                        } else {
                            pending_null = Some((row, id));
                        }
                    }
                }
            }
        }
    }

    /// Rule (a): substitutes every occurrence of `id`'s class with
    /// `value`, then migrates the buckets whose keys mentioned the class.
    fn chase_substitute(&mut self, work: &mut Instance, run: &mut Run, id: NullId, value: Symbol) {
        run.rec.incr(Counter::ChaseSubstitutions);
        let root = self.find(work, id);
        let cells = self.substitute_class(work, root, value, Some(run));
        run.substituted.extend(cells.iter().map(|&(row, _)| row));
    }

    /// Rule (b): introduces the NEC `a := b`, migrates the buckets keyed
    /// by the loser class, and concatenates its occurrence list onto the
    /// winner's.
    fn chase_merge(&mut self, work: &mut Instance, run: &mut Run, a: NullId, b: NullId) {
        run.rec.incr(Counter::ChaseUnions);
        let root_a = self.find(work, a);
        let root_b = self.find(work, b);
        debug_assert_ne!(root_a, root_b);
        self.union(work, a, b);
        let winner = self.find(work, a);
        let loser = if winner == root_a { root_b } else { root_a };
        let moved = self.occ_take(loser.0);
        self.migrate(work, &moved, Some(run));
        self.occ_extend(winner.0, &moved);
    }

    /// Re-files the buckets referencing a class whose canonical atom
    /// just changed. Every member of such a bucket shares the key, so
    /// whole buckets move: a pure re-name keeps its members, while a
    /// merge with an existing bucket grows it. Inside a run, every
    /// re-keyed bucket re-enters the worklist — not only merged ones. A
    /// pure rename can strand a *pending* sweep: the running pass's
    /// agenda holds the old key, so the sweep would silently vanish (a
    /// cross-column NEC class renaming a not-yet-swept bucket of the
    /// very FD being processed). Re-enqueueing renames costs at most one
    /// no-op sweep next pass; dropping one loses the fixpoint.
    fn migrate(&mut self, work: &Instance, occs: &[(RowId, u16)], mut run: Option<&mut Run>) {
        let mut affected: Vec<(usize, u32)> = Vec::new();
        for &(row, col) in occs {
            for &f in &self.lhs_fds[col as usize] {
                affected.push((f, self.fds[f].bucket_of(row)));
            }
        }
        affected.sort_unstable();
        affected.dedup();
        let mut key = GroupKey::new();
        for (f, id) in affected {
            let b = &self.fds[f];
            let sample = b.members[id as usize][0];
            live_key_into(&mut key, work, work.tuple(sample), sample, b.fd.lhs);
            let old = b.keys[id as usize].clone();
            let chased = b.chased();
            if let Some(run) = run.as_deref_mut().filter(|_| chased) {
                run.dirty[f].remove(&old);
            }
            let target = match b.ids.get(key.as_slice()).copied() {
                Some(target) => {
                    if let Some(run) = run.as_deref_mut() {
                        run.note_grown(f, &b.keys[target as usize], &b.members[target as usize]);
                    }
                    let rows = self.fds[f].members[id as usize].clone();
                    for &row in &rows {
                        self.set_slot(f, row, target);
                    }
                    let len = self.fds[f].members[target as usize].len();
                    self.fds[f].members[target as usize].extend_from_slice(&rows);
                    self.log(|| Step::Extended(f, target, len));
                    self.close(f, id);
                    target
                }
                None => {
                    self.rename(f, id, &key);
                    if let Some(run) = run.as_deref_mut() {
                        run.note_created(f, &self.fds[f].keys[id as usize]);
                    }
                    id
                }
            };
            if let Some(run) = run.as_deref_mut().filter(|_| chased) {
                let key = self.fds[f].keys[target as usize].clone();
                if run.parallel {
                    run.touched[f].insert(key.clone());
                }
                run.dirty[f].insert(key);
            }
        }
    }
}

/// A bucket key with null-class atoms named by their class's least
/// occurrence cell (`true`) instead of a null id.
type CanonKey = Vec<(bool, u64)>;

/// One FD's buckets in canonical form: sorted `(key, sorted rows)`.
type CanonBuckets = Vec<(CanonKey, Vec<RowId>)>;

/// [`ChaseIndex::same_buckets`]' canonical form.
#[derive(PartialEq)]
struct Canon {
    fds: Vec<(Fd, CanonBuckets)>,
    occ: Vec<Vec<(RowId, u16)>>,
    rows: usize,
    consistent: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::ns::{chase_naive, is_minimally_incomplete_naive};
    use crate::fixtures;

    fn assert_engines_agree(r: &Instance, fds: &FdSet) {
        assert!(
            order_replay_exact(r),
            "exact replay is only promised on caveat-free instances: {:?}",
            order_replay_caveats(r)
        );
        let naive = chase_naive(r, fds);
        let indexed = chase_indexed(r, fds);
        assert_eq!(
            naive.instance.canonical_form(),
            indexed.instance.canonical_form(),
            "engines diverge on\n{}",
            r.render(true)
        );
        assert_eq!(naive.passes, indexed.passes, "pass counts");
        assert!(is_minimally_incomplete_indexed(&indexed.instance, fds));
        assert!(is_minimally_incomplete_naive(&indexed.instance, fds));
        // Event lists match site-for-site on single-attribute dependents;
        // multi-attribute dependents interleave attrs differently (the
        // sweep is attribute-major, the pair scan pair-major), so only
        // counts are compared there.
        if fds.iter().all(|fd| fd.normalized().rhs.len() == 1) {
            assert_eq!(naive.events, indexed.events, "event sites");
        } else {
            assert_eq!(naive.events.len(), indexed.events.len(), "event counts");
        }
    }

    #[test]
    fn engines_agree_on_every_fixture() {
        assert_engines_agree(&fixtures::figure5_instance(), &fixtures::figure5_fds());
        assert_engines_agree(
            &fixtures::figure5_instance(),
            &fixtures::figure5_fds().permuted(&[1, 0]),
        );
        assert_engines_agree(&fixtures::section6_instance(), &fixtures::section6_fds());
        assert_engines_agree(&fixtures::figure1_instance(), &fixtures::figure1_fds());
        assert_engines_agree(&fixtures::figure1_null_instance(), &fixtures::figure1_fds());
    }

    #[test]
    fn cascades_run_to_the_same_fixpoint() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 -   C_0
             A_0 B_1 -",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B\nB -> C").unwrap();
        assert_engines_agree(&r, &fds);
        let result = chase_indexed(&r, &fds);
        assert!(result.instance.is_complete());
    }

    #[test]
    fn class_wide_substitution_through_the_occurrence_index() {
        let schema = fixtures::section6_schema();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "a1 ?x c1
             a2 ?x c1
             a1 b1 c2",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        assert_engines_agree(&r, &fds);
        let result = chase_indexed(&r, &fds);
        let b = AttrId(1);
        let r0 = result.instance.nth_row(0);
        let r1 = result.instance.nth_row(1);
        assert!(result.instance.value(r0, b).is_const());
        assert_eq!(result.instance.value(r0, b), result.instance.value(r1, b));
    }

    #[test]
    fn multi_attribute_dependents() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C", "D"], 5).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 -   C_1 -
             A_0 B_2 -   D_3
             A_1 B_0 C_0 D_0",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B, C, D").unwrap();
        assert_engines_agree(&r, &fds);
    }

    #[test]
    fn cross_column_classes_still_reach_a_fixpoint() {
        // `?z` spans columns A and B: substituting class z re-keys the
        // pending {?z, ?z} bucket of the same FD mid-pass. The engines
        // may legitimately diverge here (order choice at contended
        // sites), but the indexed engine must still reach a fixpoint —
        // a dropped re-keyed bucket once made it terminate early.
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_1 ?z
             A_1 B_2
             ?z  B_1
             ?z  ?w",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        assert!(
            matches!(
                order_replay_caveats(&r).as_slice(),
                [ChaseIndexCaveat::CrossColumnNecClass { .. }]
            ),
            "the ?z class spans columns and must be reported"
        );
        let indexed = chase_indexed(&r, &fds);
        assert!(
            is_minimally_incomplete_naive(&indexed.instance, &fds),
            "indexed chase stopped before the fixpoint:\n{}",
            indexed.instance.render(true)
        );
        assert!(is_minimally_incomplete_indexed(&indexed.instance, &fds));
        let naive = chase_naive(&r, &fds);
        assert!(is_minimally_incomplete_naive(&naive.instance, &fds));
    }

    #[test]
    fn nothing_buckets_still_reach_a_fixpoint() {
        // A `nothing` at a bucket's least row makes it inert there, so
        // the engines may pick different donors for a shared class (the
        // least-member agenda order vs the global pair order). Both
        // outcomes must be fixpoints of the plain rules.
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 #!
             A_1 B_0
             A_1 ?w
             A_0 ?w
             A_0 B_1",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        assert!(
            order_replay_caveats(&r)
                .iter()
                .any(|c| matches!(c, ChaseIndexCaveat::NothingValue { row: RowId(0), .. })),
            "the `nothing` cell must be reported"
        );
        let naive = chase_naive(&r, &fds);
        let indexed = chase_indexed(&r, &fds);
        assert!(is_minimally_incomplete_naive(&naive.instance, &fds));
        assert!(is_minimally_incomplete_naive(&indexed.instance, &fds));
        assert!(is_minimally_incomplete_indexed(&indexed.instance, &fds));
        // (The chased instances legitimately differ here: ?w gets B_0
        // from one engine and B_1 from the other — Figure 5's order
        // dependence, triggered by the inert `nothing` row.)
    }

    #[test]
    fn parallel_engine_is_bit_identical_even_on_caveat_instances() {
        // chase_indexed_par promises identity with chase_indexed at any
        // thread count *unconditionally* — caveats only relax fidelity
        // to the naive engine. Exercise fixture instances plus both
        // caveat regimes (cross-column class, `nothing` bucket).
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 4).unwrap();
        let cross = fdi_relation::Instance::parse(
            schema.clone(),
            "A_1 ?z
             A_1 B_2
             ?z  B_1
             ?z  ?w",
        )
        .unwrap();
        let nothing = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 #!
             A_1 B_0
             A_1 ?w
             A_0 ?w
             A_0 B_1",
        )
        .unwrap();
        let ab_fds = FdSet::parse(&schema, "A -> B").unwrap();
        let cases: Vec<(Instance, FdSet)> = vec![
            (fixtures::figure5_instance(), fixtures::figure5_fds()),
            (fixtures::section6_instance(), fixtures::section6_fds()),
            (fixtures::figure1_null_instance(), fixtures::figure1_fds()),
            (cross, ab_fds.clone()),
            (nothing, ab_fds),
        ];
        for (r, fds) in &cases {
            let sequential = chase_indexed(r, fds);
            for threads in [2, 3, 8] {
                let parallel = chase_indexed_par(r, fds, &Executor::with_threads(threads));
                assert_eq!(
                    sequential.instance.canonical_form(),
                    parallel.instance.canonical_form(),
                    "threads = {threads} on\n{}",
                    r.render(true)
                );
                assert_eq!(sequential.events, parallel.events, "threads = {threads}");
                assert_eq!(sequential.passes, parallel.passes, "threads = {threads}");
            }
        }
    }

    #[test]
    fn trivial_fds_are_inert() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 3).unwrap();
        let r = fdi_relation::Instance::parse(schema.clone(), "A_0 -\nA_0 B_1").unwrap();
        let fds = FdSet::parse(&schema, "A B -> B\nA -> B").unwrap();
        assert_engines_agree(&r, &fds);
    }
}
