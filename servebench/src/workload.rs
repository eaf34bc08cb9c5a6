//! Seeded inputs and the oracle transcript.
//!
//! A [`Script`] is everything one run sends and expects: the base
//! table as an `fdi serve` description file, the journal prepared
//! before timing (`read`, `mixed`), the request lines of the timed
//! phase, and the exact reply each request must get. The requests are
//! generated against the oracle state as it evolves, so the same seed
//! gives the same script and the same expected transcript.
//!
//! The oracle is a plain [`Database`] under the serving default
//! [`Policy`] (weak enforcement plus NS-rule propagation): mutation
//! verdicts come from it directly, `select` answers from the
//! interpreted [`query::select`] mapped to display positions, and
//! `semantics` text from [`semantics::compare`]. None of it goes
//! through `fdi-serve`, so the served path and the replay are both
//! checked against an independent computation.

use fdi_core::query::{self, Query};
use fdi_core::semantics::{self, Weak};
use fdi_core::testfd;
use fdi_core::update::{Database, Policy};
use fdi_core::FdSet;
use fdi_exec::Executor;
use fdi_gen::WorkloadSpec;
use fdi_relation::rowid::RowId;
use fdi_relation::{Instance, Schema};
use fdi_serve::{ServeConfig, ServeOp, Staged, Writer};
use fdi_store::{FileStorage, Journal};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Attribute names of the generated relation.
const ATTRS: [&str; 4] = ["A", "B", "C", "D"];
/// Values per attribute domain (`A_0` … `A_63`).
const DOMAIN: usize = 64;
const NULL_DENSITY: f64 = 0.1;
const NEC_SHARE: f64 = 0.1;
const PLANTED_SHARE: f64 = 0.05;
/// Mutations per `ingest` transaction (and per preparation
/// transaction of `read` and `mixed`).
const INGEST_TX: usize = 16;
/// `select`s per `mixed` round.
const MIXED_SELECTS: usize = 8;
/// A `semantics` audit every this many `ingest` transactions.
const INGEST_AUDIT_EVERY: usize = 4;
/// A `semantics` audit every this many `mixed` rounds.
const MIXED_AUDIT_EVERY: usize = 8;
/// The group-commit width `fdi serve` uses by default.
const MAX_BATCH: usize = 64;

/// The benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16-mutation transactions on a 5·10³-row table created from a
    /// description, one `select` after each commit, an audit every 4th.
    Ingest,
    /// `select`s on one recovered epoch of a 2·10⁴-row table, then a
    /// short tail of 3-op transactions and audits.
    Read,
    /// Rounds of a 2-op transaction and 8 `select`s on a recovered
    /// 10⁴-row table; every 8th round adds a modify and an audit.
    Mixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "read" => Some(Workload::Read),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Read => "read",
            Workload::Mixed => "mixed",
        }
    }

    /// Whether the server starts by recovering a prepared journal.
    pub fn recovers(self) -> bool {
        self != Workload::Ingest
    }
}

/// Sizes of one run: a full run scales its request counts with the
/// measured seconds; a smoke run is tiny.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Base table rows.
    pub rows: usize,
    /// Journaled mutations before timing (`read`, `mixed`).
    pub prep_ops: usize,
    /// `ingest` transactions, `read` selects or `mixed` rounds.
    pub units: usize,
    /// `read` only: 3-op transactions after the selects.
    pub tail_tx: usize,
}

impl Shape {
    /// The shape of a run of `workload` lasting about `seconds` on a
    /// 2-core host (fixed work, not a fixed duration).
    pub fn full(workload: Workload, seconds: u64) -> Shape {
        let s = seconds.max(1) as usize;
        match workload {
            Workload::Ingest => Shape {
                rows: 5_000,
                prep_ops: 0,
                units: 16 * s,
                tail_tx: 0,
            },
            Workload::Read => Shape {
                rows: 20_000,
                prep_ops: 64,
                units: 150 * s,
                tail_tx: 48,
            },
            Workload::Mixed => Shape {
                rows: 10_000,
                prep_ops: 96,
                units: 30 * s,
                tail_tx: 0,
            },
        }
    }

    /// The smoke-test shape: about 10² rows and a few requests.
    pub fn smoke(workload: Workload) -> Shape {
        match workload {
            Workload::Ingest => Shape {
                rows: 100,
                prep_ops: 0,
                units: 8,
                tail_tx: 0,
            },
            Workload::Read => Shape {
                rows: 100,
                prep_ops: 8,
                units: 12,
                tail_tx: 3,
            },
            Workload::Mixed => Shape {
                rows: 100,
                prep_ops: 8,
                units: 9,
                tail_tx: 0,
            },
        }
    }
}

/// One protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `insert <tokens…>`.
    Insert(Vec<String>),
    /// `delete <pos>` (1-based display position).
    Delete(usize),
    /// `modify <pos> <attr> <token>`.
    Modify {
        /// 1-based display position.
        pos: usize,
        /// Attribute name.
        attr: String,
        /// New cell token.
        token: String,
    },
    /// `commit`.
    Commit,
    /// `select <attr> <value>`.
    Select {
        /// Attribute name.
        attr: String,
        /// Constant.
        value: String,
    },
    /// `semantics`.
    Audit,
}

/// What a request is, for latency bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// An `insert`.
    Insert,
    /// A `delete`.
    Delete,
    /// A `modify`.
    Modify,
    /// A `commit`.
    Commit,
    /// A `select`.
    Select,
    /// A `semantics` audit.
    Audit,
}

impl Class {
    /// Whether the class is a mutation (staged until `commit`).
    pub fn is_mutation(self) -> bool {
        matches!(self, Class::Insert | Class::Delete | Class::Modify)
    }
}

impl Request {
    /// The protocol line, newline included.
    pub fn line(&self) -> String {
        match self {
            Request::Insert(tokens) => format!("insert {}\n", tokens.join(" ")),
            Request::Delete(pos) => format!("delete {pos}\n"),
            Request::Modify { pos, attr, token } => format!("modify {pos} {attr} {token}\n"),
            Request::Commit => "commit\n".to_string(),
            Request::Select { attr, value } => format!("select {attr} {value}\n"),
            Request::Audit => "semantics\n".to_string(),
        }
    }

    /// The request's class.
    pub fn class(&self) -> Class {
        match self {
            Request::Insert(_) => Class::Insert,
            Request::Delete(_) => Class::Delete,
            Request::Modify { .. } => Class::Modify,
            Request::Commit => Class::Commit,
            Request::Select { .. } => Class::Select,
            Request::Audit => Class::Audit,
        }
    }
}

/// The oracle's answer to one request.
#[derive(Debug, Clone)]
pub enum Expected {
    /// The mutation is accepted; `pending` ops then await commit.
    Staged {
        /// Accepted ops since the last publication.
        pending: u64,
    },
    /// The mutation is rejected with this reason.
    Rejected(String),
    /// The commit publishes this epoch.
    Published {
        /// Epoch sequence number.
        seq: u64,
        /// Accepted ops since the journal's genesis.
        ops_applied: u64,
    },
    /// The select's answer sets, as row ids and as the reply text.
    Selected {
        /// Sure answers.
        sure: Vec<RowId>,
        /// Maybe answers.
        maybe: Vec<RowId>,
        /// The reply line.
        text: String,
    },
    /// The audit's report text.
    Audit(String),
}

impl Expected {
    /// The exact reply `fdi serve` must print (without the final
    /// newline for one-line replies).
    pub fn text(&self) -> String {
        match self {
            Expected::Staged { pending } => format!("staged ({pending} op(s) await commit)"),
            Expected::Rejected(why) => format!("rejected: {why}"),
            Expected::Published { seq, ops_applied } => {
                format!("published epoch {seq} ({ops_applied} op(s) applied, durable)")
            }
            Expected::Selected { text, .. } => text.clone(),
            Expected::Audit(text) => text.clone(),
        }
    }
}

/// One run's inputs and expected transcript.
#[derive(Debug)]
pub struct Script {
    /// The workload.
    pub workload: Workload,
    /// The description file `fdi serve` creates the table from.
    pub description: String,
    /// The timed requests.
    pub requests: Vec<Request>,
    /// The oracle's reply to each request.
    pub expected: Vec<Expected>,
    /// The exact reply to the closing `epoch` request.
    pub final_epoch: String,
    /// Sequence number of the last published epoch.
    pub final_seq: u64,
    /// Accepted ops since genesis at the end.
    pub final_ops: u64,
    /// Accepted mutations in the timed phase.
    pub accepted: u64,
    /// Rejected mutations in the timed phase.
    pub rejected: u64,
    /// The deterministic `fdi-obs` counters the served session and the
    /// replay must both end with (after the closing `epoch` request).
    pub counts: Vec<(&'static str, u64)>,
    /// Why the final state is not weakly satisfiable, if it is not.
    pub not_weak: Option<String>,
}

/// The relation schema: `fdi-gen`'s uniform schema of four attributes
/// over 64-value domains, which is also what `fdi serve` builds from
/// the description.
fn schema() -> Arc<Schema> {
    fdi_gen::schema_for(&WorkloadSpec {
        attrs: ATTRS.len(),
        domain: DOMAIN,
        ..WorkloadSpec::default()
    })
}

/// The serving configuration `fdi serve` runs with by default.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        checkpoint_every: None,
    }
}

/// Parses the instance section of a generated description the way
/// `fdi serve` does, and opens the maintained database.
pub fn database_from(description: &str) -> Database {
    let schema = schema();
    let fd_text = section(description, "%fds");
    let fds = FdSet::parse(&schema, &fd_text).expect("generated FDs parse");
    let rows = section(description, "%instance");
    let instance = Instance::parse(schema, &rows).expect("generated rows parse");
    Database::new(instance, fds, Policy::default()).expect("generated base is weakly satisfiable")
}

/// The lines of one `%section` of a description.
fn section(description: &str, name: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in description.lines() {
        if line.starts_with('%') {
            inside = line == name;
        } else if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The FD-following mutation generator. It keeps, for every live row
/// in display order, the complete tuple of the classically satisfying
/// table the row was drawn from: inserting copies of those tuples
/// (with fresh nulls poked in) and modifying cells to their tuple's
/// constant or to a fresh null can never break weak satisfiability,
/// because the tuples themselves are a witness completion. Planted
/// inserts copy a live row that is constant on some FD's attributes
/// and change its dependent constant, which no completion can satisfy.
struct Generator {
    rng: StdRng,
    /// The classically satisfying complete tuples, as tokens.
    pool: Vec<Vec<String>>,
    /// Per live row, in display order: its tuple in `pool`.
    truth: Vec<usize>,
    /// Live row count the insert/delete choice steers back to.
    target: usize,
    /// The FD chain's columns: `chain[k] → chain[k + 1]`.
    chain: [usize; 4],
}

impl Generator {
    fn live(&self) -> usize {
        self.truth.len()
    }

    fn fresh_insert(&mut self) -> (Request, usize) {
        let pick = self.rng.gen_range(0..self.pool.len());
        let tokens = poke(&mut self.rng, &self.pool[pick], &self.chain, 0.0);
        (Request::Insert(tokens), pick)
    }

    /// An insert that must be rejected: a copy of a live row that is
    /// constant on an FD's attributes, with another dependent constant.
    fn planted_insert(&mut self, db: &Database) -> Option<Request> {
        let instance = db.instance();
        let rows: Vec<RowId> = instance.row_ids().collect();
        for _ in 0..64 {
            let k = self.rng.gen_range(0..self.chain.len() - 1);
            let (lhs, rhs) = (self.chain[k], self.chain[k + 1]);
            let pos = self.rng.gen_range(0..rows.len());
            let tuple = instance.tuple(rows[pos]);
            let constant = |col: usize| tuple.get(fdi_relation::AttrId(col as u16)).as_const();
            if constant(lhs).is_none() || constant(rhs).is_none() {
                continue;
            }
            let mut tokens: Vec<String> = (0..ATTRS.len())
                .map(|col| match constant(col) {
                    Some(sym) => instance.symbols().resolve(sym).to_string(),
                    None => self.pool[self.truth[pos]][col].clone(),
                })
                .collect();
            let current = &tokens[rhs];
            let k: usize = current
                .rsplit('_')
                .next()
                .and_then(|n| n.parse().ok())
                .expect("generated constants end in their index");
            let other = (k + self.rng.gen_range(1..DOMAIN)) % DOMAIN;
            tokens[rhs] = format!("{}_{other}", ATTRS[rhs]);
            return Some(Request::Insert(tokens));
        }
        None
    }

    /// An insert and the pool tuple it copies (`None` when planted).
    fn insert(&mut self, db: &Database, planted: bool) -> (Request, Option<usize>) {
        if planted && self.rng.gen_bool(PLANTED_SHARE) {
            if let Some(req) = self.planted_insert(db) {
                return (req, None);
            }
        }
        let (req, pick) = self.fresh_insert();
        (req, Some(pick))
    }

    fn delete(&mut self) -> Request {
        Request::Delete(self.rng.gen_range(1..=self.live()))
    }

    /// Half the modifies fill a null with its row's constant, half
    /// null out a constant on the chain's root (the only column whose
    /// nulls propagation cannot fill), so the null density stays put.
    fn modify(&mut self, db: &Database) -> Request {
        let instance = db.instance();
        if self.rng.gen_bool(0.5) {
            let nulls: Vec<(usize, usize)> = instance
                .tuples()
                .enumerate()
                .flat_map(|(pos, t)| {
                    t.values()
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| v.is_null())
                        .map(move |(col, _)| (pos, col))
                })
                .collect();
            if let Some(&(pos, col)) = nulls.choose(&mut self.rng) {
                return Request::Modify {
                    pos: pos + 1,
                    attr: ATTRS[col].to_string(),
                    token: self.pool[self.truth[pos]][col].clone(),
                };
            }
        }
        let pos = self.rng.gen_range(0..self.live());
        Request::Modify {
            pos: pos + 1,
            attr: ATTRS[self.chain[0]].to_string(),
            token: "-".to_string(),
        }
    }

    /// One `ingest`-style mutation: 20% modify, otherwise an insert or
    /// a delete, whichever steers the live count back to the target.
    fn mutation(&mut self, db: &Database, planted: bool) -> (Request, Option<usize>) {
        if self.rng.gen_bool(0.2) {
            return (self.modify(db), None);
        }
        let insert = match self.live().cmp(&self.target) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.rng.gen_bool(0.5),
        };
        if insert {
            self.insert(db, planted)
        } else {
            (self.delete(), None)
        }
    }

    /// Updates the display-order model after an accepted mutation.
    fn note(&mut self, req: &Request, pick: Option<usize>) {
        match req {
            Request::Insert(_) => self
                .truth
                .push(pick.expect("only planted inserts lack a pool tuple, and they are rejected")),
            Request::Delete(pos) => {
                self.truth.remove(pos - 1);
            }
            _ => {}
        }
    }
}

/// Applies one mutation request to a database the way `fdi serve`
/// resolves it, returning `Ok(())` if accepted and the rejection text
/// otherwise.
fn apply(db: &mut Database, req: &Request) -> Result<(), String> {
    let instance = db.instance();
    let row_at = |pos: usize| instance.row_ids().nth(pos - 1).expect("generated in range");
    let result = match req {
        Request::Insert(tokens) => {
            let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            db.insert(&refs)
        }
        Request::Delete(pos) => {
            let row = row_at(*pos);
            db.delete(row)
        }
        Request::Modify { pos, attr, token } => {
            let row = row_at(*pos);
            let attr = instance.schema().attr_id(attr).expect("known attribute");
            db.modify(row, attr, token)
        }
        _ => unreachable!("only mutations are applied"),
    };
    result.map(|_| ()).map_err(|e| e.to_string())
}

/// The serving op `fdi serve` stages for a mutation request, with the
/// display position and attribute name resolved against `db` as the
/// CLI resolves them.
pub fn serve_op(db: &Database, req: &Request) -> ServeOp {
    let instance = db.instance();
    let row_at = |pos: usize| instance.row_ids().nth(pos - 1).expect("generated in range");
    match req {
        Request::Insert(tokens) => ServeOp::Insert(tokens.clone()),
        Request::Delete(pos) => ServeOp::Delete(row_at(*pos)),
        Request::Modify { pos, attr, token } => ServeOp::Modify {
            row: row_at(*pos),
            attr: instance.schema().attr_id(attr).expect("known attribute"),
            token: token.clone(),
        },
        _ => unreachable!("only mutations are staged"),
    }
}

/// The three FDs over a seed-chosen attribute order: the chain
/// `c0 → c1`, `c1 → c2`, `c2 → c3`. The shape is fixed so that seeds
/// change the data, not the cost structure. Only `c0` is never a
/// dependent, so only its nulls survive propagation: a quarter of the
/// uniformly drawn selects carry its many maybe-answers, which keeps
/// the select median inside one mode of the latency distribution.
fn fd_text(chain: &[usize; 4]) -> String {
    let mut text = String::new();
    for pair in chain.windows(2) {
        let _ = writeln!(text, "{} -> {}", ATTRS[pair[0]], ATTRS[pair[1]]);
    }
    text
}

/// The classically satisfying complete table (the generator's pool)
/// and the description with 10% nulls poked in, a tenth of which share
/// a marked null with nulls that replaced the same constant.
///
/// Each dependent column is a random permutation of its determinant,
/// so the complete table satisfies the chain by construction and every
/// column has 64 equally common values whatever the seed. (Repairing
/// random rows instead, as `fdi_gen::satisfiable_instance` does, merges
/// every 64-value dependent column into a single constant at these
/// sizes, and a constant column turns the strong convention's pairwise
/// TEST-FDs fallback into a full O(n²) scan on some seeds only.)
fn base(rng: &mut StdRng, rows: usize) -> (Vec<Vec<String>>, String, [usize; 4]) {
    let mut chain = [0, 1, 2, 3];
    chain.shuffle(rng);
    let maps: Vec<Vec<usize>> = (1..chain.len())
        .map(|_| {
            let mut map: Vec<usize> = (0..DOMAIN).collect();
            map.shuffle(rng);
            map
        })
        .collect();
    let pool: Vec<Vec<String>> = (0..rows)
        .map(|_| {
            let mut values = [0usize; ATTRS.len()];
            values[chain[0]] = rng.gen_range(0..DOMAIN);
            for (pair, map) in chain.windows(2).zip(&maps) {
                values[pair[1]] = map[values[pair[0]]];
            }
            values
                .iter()
                .zip(ATTRS)
                .map(|(v, attr)| format!("{attr}_{v}"))
                .collect()
        })
        .collect();
    let mut desc = String::from("%schema\nrelation R\n");
    for attr in ATTRS {
        let _ = write!(desc, "attr {attr}");
        for k in 0..DOMAIN {
            let _ = write!(desc, " {attr}_{k}");
        }
        desc.push('\n');
    }
    desc.push_str("%fds\n");
    desc.push_str(&fd_text(&chain));
    desc.push_str("%instance\n");
    for tuple in &pool {
        desc.push_str(&poke(rng, tuple, &chain, NEC_SHARE).join(" "));
        desc.push('\n');
    }
    (pool, desc, chain)
}

/// A complete tuple with each cell nulled with probability 10%; a
/// null joins the marked null of its column and constant with
/// probability `nec_share`. The root of the FD chain and its dependent
/// are never both null, so propagation fills every null off the root:
/// the strong convention's pairwise TEST-FDs fallback then runs on the
/// root FD alone, where it stops at the first null.
fn poke(rng: &mut StdRng, tuple: &[String], chain: &[usize; 4], nec_share: f64) -> Vec<String> {
    let mut cells: Vec<String> = tuple
        .iter()
        .map(|token| {
            if !rng.gen_bool(NULL_DENSITY) {
                token.clone()
            } else if rng.gen_bool(nec_share) {
                format!("?n{token}")
            } else {
                "-".to_string()
            }
        })
        .collect();
    let (root, second) = (chain[0], chain[1]);
    let is_null = |c: &str| c == "-" || c.starts_with('?');
    if is_null(&cells[root]) && is_null(&cells[second]) {
        cells[second] = tuple[second].clone();
    }
    cells
}

/// Display positions (1-based) of every live row, by slot.
fn positions(instance: &Instance) -> Vec<u32> {
    let mut out = vec![0u32; instance.slot_bound()];
    for (i, row) in instance.row_ids().enumerate() {
        out[row.index()] = i as u32 + 1;
    }
    out
}

/// The oracle's `select` reply: the interpreted evaluator, rendered as
/// `fdi serve` renders answers (1-based display positions).
fn oracle_select(db: &Database, attr: &str, value: &str, pos: &[u32], seq: u64) -> Expected {
    let q = Query::eq_text(db.instance(), attr, value).expect("generated constants exist");
    let sel = query::select(&q, db.instance()).expect("selection evaluates");
    let render = |rows: &[RowId]| {
        rows.iter()
            .map(|r| pos[r.index()].to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let text = format!(
        "sure: [{}]  maybe: [{}]  (epoch {seq})",
        render(&sel.sure),
        render(&sel.maybe)
    );
    Expected::Selected {
        sure: sel.sure,
        maybe: sel.maybe,
        text,
    }
}

/// The oracle's `epoch` reply for a database state. The fingerprint is
/// what `fdi-serve` stamps an epoch with: the CRC-32
/// of the instance's encoded state.
fn epoch_line(db: &Database, seq: u64, ops: u64) -> String {
    let mut state = Vec::new();
    db.instance().encode_state(&mut state);
    let fingerprint = fdi_store::crc::crc32(&state);
    format!("epoch {seq} ({ops} op(s) applied, fingerprint {fingerprint:016x})")
}

/// Oracle bookkeeping while the script is generated.
struct Oracle {
    db: Database,
    seq: u64,
    ops: u64,
    pending: u64,
    accepted: u64,
    rejected: u64,
    requests: Vec<Request>,
    expected: Vec<Expected>,
    /// Display positions and select answers of the current epoch.
    positions: Option<Vec<u32>>,
    answers: HashMap<(String, String), Expected>,
    /// Modelled counters: journal syncs, snapshot reads, plan-cache
    /// traffic (keys compiled on the current epoch).
    syncs: u64,
    snapshot_reads: u64,
    plan_hits: u64,
    plan_misses: u64,
    plans: HashSet<(String, String)>,
}

impl Oracle {
    fn mutate(&mut self, gen: &mut Generator, (req, pick): (Request, Option<usize>)) {
        match apply(&mut self.db, &req) {
            Ok(()) => {
                self.pending += 1;
                if self.pending.is_multiple_of(MAX_BATCH as u64) {
                    self.syncs += 1; // the group commit fills up and flushes
                }
                self.accepted += 1;
                self.ops += 1;
                gen.note(&req, pick);
                self.expected.push(Expected::Staged {
                    pending: self.pending,
                });
            }
            Err(why) => {
                self.rejected += 1;
                self.expected.push(Expected::Rejected(why));
            }
        }
        self.positions = None;
        self.answers.clear();
        self.requests.push(req);
    }

    fn commit(&mut self) {
        if !self.pending.is_multiple_of(MAX_BATCH as u64) {
            self.syncs += 1; // an empty batch appends and syncs nothing
        }
        self.plans.clear();
        self.seq += 1;
        self.pending = 0;
        self.requests.push(Request::Commit);
        self.expected.push(Expected::Published {
            seq: self.seq,
            ops_applied: self.ops,
        });
        // a new epoch: its plan cache and positions start over
        self.positions = None;
        self.answers.clear();
    }

    fn select(&mut self, rng: &mut StdRng) {
        let attr = ATTRS[rng.gen_range(0..ATTRS.len())].to_string();
        let value = format!("{attr}_{}", rng.gen_range(0..DOMAIN));
        let key = (attr.clone(), value.clone());
        self.snapshot_reads += 1;
        if self.plans.insert(key.clone()) {
            self.plan_misses += 1;
        } else {
            self.plan_hits += 1;
        }
        let expected = match self.answers.get(&key) {
            Some(e) => e.clone(),
            None => {
                let pos = self
                    .positions
                    .get_or_insert_with(|| positions(self.db.instance()));
                let e = oracle_select(&self.db, &attr, &value, pos, self.seq);
                self.answers.insert(key, e.clone());
                e
            }
        };
        self.requests.push(Request::Select { attr, value });
        self.expected.push(expected);
    }

    fn audit(&mut self) {
        self.snapshot_reads += 1;
        let instance = self.db.instance();
        let cmp = semantics::compare(instance, self.db.fds());
        let text = semantics::render_comparison(&cmp, self.db.fds(), instance);
        self.requests.push(Request::Audit);
        self.expected.push(Expected::Audit(text));
    }
}

/// Builds the script of one run. For `read` and `mixed` the prepared
/// journal is written to `prepared` (genesis plus `prep_ops` journaled
/// mutations, committed 16 at a time as `fdi serve` would), and the
/// oracle starts from that journal's recovery.
pub fn build(workload: Workload, seed: u64, shape: Shape, prepared: &Path) -> Script {
    let salt = match workload {
        Workload::Ingest => 0x001a_6e57,
        Workload::Read => 0x4ead,
        Workload::Mixed => 0x0031_13ed,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    let (pool, description, chain) = base(&mut rng, shape.rows);
    let mut gen = Generator {
        rng: StdRng::seed_from_u64(rng.gen()),
        truth: (0..pool.len()).collect(),
        target: pool.len(),
        pool,
        chain,
    };
    let mut prep_accepted = 0;
    let db = if workload.recovers() {
        let _ = std::fs::remove_file(prepared);
        let storage = FileStorage::open(prepared).expect("prepared journal opens");
        let (mut writer, _reader) = Writer::create(
            database_from(&description),
            storage,
            serve_config(),
            Executor::with_threads(1),
        )
        .expect("prepared journal is created");
        for i in 0..shape.prep_ops {
            let (req, pick) = gen.mutation(writer.db(), false);
            let op = serve_op(writer.db(), &req);
            match writer.stage(&op).expect("preparation journal writes") {
                Staged::Rejected(e) => panic!("a preparation op was rejected: {e}"),
                Staged::Applied(_) | Staged::Compacted(_) => gen.note(&req, pick),
            }
            if (i + 1) % INGEST_TX == 0 {
                writer.publish().expect("preparation commits");
            }
        }
        writer.publish().expect("preparation commits");
        prep_accepted = writer.ops_applied();
        drop(writer);
        let storage = FileStorage::open(prepared).expect("prepared journal reopens");
        Journal::recover(storage)
            .expect("prepared journal recovers")
            .db
    } else {
        database_from(&description)
    };
    let mut oracle = Oracle {
        db,
        seq: 0,
        ops: prep_accepted,
        pending: 0,
        accepted: 0,
        rejected: 0,
        requests: Vec::new(),
        expected: Vec::new(),
        positions: None,
        answers: HashMap::new(),
        syncs: 0,
        snapshot_reads: 1, // the session greeting reads the epoch
        plan_hits: 0,
        plan_misses: 0,
        plans: HashSet::new(),
    };
    let mut pick_rng = StdRng::seed_from_u64(gen.rng.gen());
    match workload {
        Workload::Ingest => {
            for tx in 0..shape.units {
                for _ in 0..INGEST_TX {
                    let mutation = gen.mutation(&oracle.db, true);
                    oracle.mutate(&mut gen, mutation);
                }
                oracle.commit();
                oracle.select(&mut pick_rng);
                if (tx + 1) % INGEST_AUDIT_EVERY == 0 {
                    oracle.audit();
                }
            }
        }
        Workload::Read => {
            for _ in 0..shape.units {
                oracle.select(&mut pick_rng);
            }
            for tx in 0..shape.tail_tx {
                round_tx(&mut oracle, &mut gen, true);
                if tx % 2 == 1 {
                    oracle.audit();
                }
            }
        }
        Workload::Mixed => {
            for round in 0..shape.units {
                let audited = (round + 1) % MIXED_AUDIT_EVERY == 0;
                round_tx(&mut oracle, &mut gen, audited);
                for _ in 0..MIXED_SELECTS {
                    oracle.select(&mut pick_rng);
                }
                if audited {
                    oracle.audit();
                }
            }
        }
    }
    let final_epoch = epoch_line(&oracle.db, oracle.seq, oracle.ops);
    let not_weak = testfd::check(oracle.db.instance(), oracle.db.fds(), Weak)
        .err()
        .map(|v| v.to_string());
    let counts = vec![
        ("ops_applied", oracle.accepted),
        ("ops_rejected", oracle.rejected),
        ("journal_ops_committed", oracle.accepted),
        ("journal_syncs", oracle.syncs),
        ("epochs_published", oracle.seq),
        // plus the closing `epoch` request
        ("snapshot_reads", oracle.snapshot_reads + 1),
        ("plan_cache_hits", oracle.plan_hits),
        ("plan_cache_misses", oracle.plan_misses),
    ];
    Script {
        workload,
        description,
        requests: oracle.requests,
        expected: oracle.expected,
        final_epoch,
        final_seq: oracle.seq,
        final_ops: oracle.ops,
        accepted: oracle.accepted,
        rejected: oracle.rejected,
        counts,
        not_weak,
    }
}

/// A small transaction: one insert (5% planted to be rejected), a
/// modify if asked, one delete, and the commit.
fn round_tx(oracle: &mut Oracle, gen: &mut Generator, modify: bool) {
    let insert = gen.insert(&oracle.db, true);
    oracle.mutate(gen, insert);
    if modify {
        let modify = gen.modify(&oracle.db);
        oracle.mutate(gen, (modify, None));
    }
    let delete = gen.delete();
    oracle.mutate(gen, (delete, None));
    oracle.commit();
}
