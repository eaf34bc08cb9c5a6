//! The in-process replay: the same script through the public library
//! calls `fdi serve`'s protocol layer makes, in the same order, on a
//! `FileStorage` journal in the same kind of directory.
//!
//! Traced, each call is wrapped in a span (two `Instant` reads, kept
//! in memory); untraced, nothing but the whole loop is timed. Both run
//! under an enabled `fdi_obs::Recorder` installed exactly as `fdi
//! serve` installs its own, so their counters must equal the served
//! session's. The row-position lookups and reply rendering the CLI
//! does around those calls are not spanned: the difference between a
//! served request and its spans is the CLI's share.

use crate::probe::Probe;
use crate::workload::{self, Expected, Request, Script};
use fdi_core::query::Query;
use fdi_core::semantics::{self, Weak};
use fdi_core::testfd;
use fdi_exec::Executor;
use fdi_obs::{Counter, Hist, MetricsSnapshot, Recorder};
use fdi_serve::{Staged, Writer};
use fdi_store::{FileStorage, Journal};
use std::path::Path;
use std::time::Instant;

/// The public calls the replay times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Writer::stage`.
    Stage,
    /// `Writer::publish`.
    Publish,
    /// `Reader::snapshot`.
    Snapshot,
    /// `Query::eq_text`.
    Parse,
    /// `Epoch::select_recorded`.
    Select,
    /// `semantics::compare`.
    Compare,
    /// `semantics::render_comparison`.
    Render,
    /// `Journal::recover` on the journal the run starts from (set-up,
    /// not a request).
    Recover,
}

impl Layer {
    /// The span name written to the spans file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Stage => "Writer::stage",
            Layer::Publish => "Writer::publish",
            Layer::Snapshot => "Reader::snapshot",
            Layer::Parse => "Query::eq_text",
            Layer::Select => "Epoch::select_recorded",
            Layer::Compare => "semantics::compare",
            Layer::Render => "semantics::render_comparison",
            Layer::Recover => "Journal::recover",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the request that made the call (`None` for set-up).
    pub request: Option<usize>,
    /// The call.
    pub layer: Layer,
    /// Start, in seconds since the replay began.
    pub start_s: f64,
    /// Duration in seconds, scaled to the reference host speed.
    pub secs: f64,
}

/// Spans, when tracing is on, as (request, layer, start, raw seconds).
struct Tracer {
    on: bool,
    spans: Vec<(Option<usize>, Layer, Instant, f64)>,
}

impl Tracer {
    fn time<T>(&mut self, request: Option<usize>, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.spans.push((request, layer, start, secs));
        out
    }
}

/// What one replay measured and found.
#[derive(Debug)]
pub struct Replay {
    /// Time of the request loop, scaled to the reference host speed.
    pub wall_s: f64,
    /// Spans (empty when untraced).
    pub spans: Vec<Span>,
    /// The recorder's final snapshot.
    pub metrics: MetricsSnapshot,
    /// Disagreements with the oracle transcript.
    pub mismatches: Vec<String>,
    /// Live rows scanned by the selects, and answer rows they returned
    /// (sure plus maybe).
    pub rows_scanned: u64,
    /// See [`Replay::rows_scanned`].
    pub answer_rows: u64,
    /// Ops `Journal::recover` replayed from the start journal.
    pub recovered_ops: u64,
}

impl Replay {
    /// The cross-checked counters, in the script's order.
    pub fn counts(&self, script: &Script) -> Vec<(&'static str, u64)> {
        script
            .counts
            .iter()
            .map(|&(name, _)| {
                let counter = Counter::ALL
                    .iter()
                    .copied()
                    .find(|c| c.name() == name)
                    .expect("cross-checked counters exist");
                (name, self.metrics.counter(counter))
            })
            .collect()
    }

    /// Mean of an `fdi-obs` histogram, in milliseconds.
    pub fn hist_mean_ms(&self, hist: Hist) -> f64 {
        let h = self.metrics.hist(hist);
        if h.count == 0 {
            0.0
        } else {
            h.sum as f64 / h.count as f64 / 1e6
        }
    }
}

/// Replays `script` on a fresh journal at `journal` (a copy of
/// `prepared` when the workload recovers).
pub fn run(script: &Script, journal: &Path, prepared: &Path, traced: bool) -> Replay {
    let _ = std::fs::remove_file(journal);
    let mut probe = Probe::start();
    let mut tracer = Tracer {
        on: traced,
        spans: Vec::new(),
    };
    let exec = || Executor::with_threads(1);
    let mut recovered_ops = 0;
    let (mut writer, mut reader) = if script.workload.recovers() {
        std::fs::copy(prepared, journal).expect("journal copy");
        let storage = FileStorage::open(journal).expect("journal opens");
        Writer::recover(storage, workload::serve_config(), exec()).expect("journal recovers")
    } else {
        let storage = FileStorage::open(journal).expect("journal opens");
        let db = workload::database_from(&script.description);
        Writer::create(db, storage, workload::serve_config(), exec()).expect("journal is created")
    };
    if traced {
        // recovery of the journal the run starts from (on `ingest`, the
        // genesis snapshot alone), on a copy
        let start = journal.with_extension("start");
        std::fs::copy(journal, &start).expect("journal copy");
        let storage = FileStorage::open(&start).expect("journal opens");
        let recovered = tracer.time(None, Layer::Recover, || Journal::recover(storage));
        recovered_ops = recovered.expect("the start journal recovers").ops.len() as u64;
        std::fs::remove_file(&start).expect("journal copy removed");
    }
    let rec = Recorder::enabled();
    writer.set_recorder(rec.clone());
    reader.set_recorder(rec.clone());
    let select_exec = exec();
    let mut mismatches = Vec::new();
    let mut mismatch = |i: usize, what: String| {
        if mismatches.len() < 8 {
            mismatches.push(format!("request {i}: {what}"));
        }
    };
    let (mut rows_scanned, mut answer_rows) = (0u64, 0u64);
    // the loop's time, in segments between host-speed bursts
    let mut segments = Vec::new();
    let mut segment = Instant::now();
    let mut in_tx = false;
    let _greeting = reader.snapshot();
    for (i, (req, want)) in script.requests.iter().zip(&script.expected).enumerate() {
        if !in_tx && probe.due() {
            segments.push((segment, segment.elapsed().as_secs_f64()));
            probe.sample();
            segment = Instant::now();
        }
        in_tx = req.class().is_mutation();
        let at = Some(i);
        match req {
            Request::Insert(_) | Request::Delete(_) | Request::Modify { .. } => {
                let op = workload::serve_op(writer.db(), req);
                let staged = tracer.time(at, Layer::Stage, || writer.stage(&op));
                let got = match staged.expect("journal writes") {
                    Staged::Applied(_) | Staged::Compacted(_) => Expected::Staged {
                        pending: writer.ops_applied()
                            - writer.published_log().last().map_or(0, |s| s.ops_applied),
                    },
                    Staged::Rejected(e) => Expected::Rejected(e.to_string()),
                };
                if got.text() != want.text() {
                    mismatch(i, format!("got {:?}, want {:?}", got.text(), want.text()));
                }
            }
            Request::Commit => {
                let epoch = tracer.time(at, Layer::Publish, || writer.publish());
                let epoch = epoch.expect("publish succeeds");
                let got = Expected::Published {
                    seq: epoch.seq(),
                    ops_applied: epoch.ops_applied(),
                };
                if got.text() != want.text() {
                    mismatch(i, format!("got {:?}, want {:?}", got.text(), want.text()));
                }
            }
            Request::Select { attr, value } => {
                let epoch = tracer.time(at, Layer::Snapshot, || reader.snapshot());
                let query = tracer.time(at, Layer::Parse, || {
                    Query::eq_text(epoch.db().instance(), attr, value)
                });
                let query = query.expect("generated constants exist");
                let selection = tracer.time(at, Layer::Select, || {
                    epoch.select_recorded(&query, &select_exec, &rec)
                });
                let selection = selection.expect("selection evaluates");
                rows_scanned += epoch.db().instance().len() as u64;
                answer_rows += (selection.sure.len() + selection.maybe.len()) as u64;
                match want {
                    Expected::Selected { sure, maybe, .. }
                        if *sure == selection.sure && *maybe == selection.maybe => {}
                    _ => mismatch(i, format!("select {attr} {value} answers differ")),
                }
            }
            Request::Audit => {
                let epoch = tracer.time(at, Layer::Snapshot, || reader.snapshot());
                let db = epoch.db();
                let cmp = tracer.time(at, Layer::Compare, || {
                    semantics::compare(db.instance(), db.fds())
                });
                let text = tracer.time(at, Layer::Render, || {
                    semantics::render_comparison(&cmp, db.fds(), db.instance())
                });
                if text != want.text() {
                    mismatch(i, "semantics report differs".to_string());
                }
            }
        }
    }
    segments.push((segment, segment.elapsed().as_secs_f64()));
    probe.sample();
    let wall_s = segments
        .iter()
        .map(|&(at, secs)| probe.scale(at, secs))
        .sum();
    let spans = tracer
        .spans
        .iter()
        .map(|&(request, layer, start, secs)| Span {
            request,
            layer,
            start_s: probe.at(start),
            secs: probe.scale(start, secs),
        })
        .collect();
    // the closing `epoch` request
    let epoch = reader.snapshot();
    let line = format!(
        "epoch {} ({} op(s) applied, fingerprint {:016x})",
        epoch.seq(),
        epoch.ops_applied(),
        epoch.fingerprint()
    );
    let n = script.requests.len();
    if line != script.final_epoch {
        mismatch(n, format!("got {line:?}, want {:?}", script.final_epoch));
    }
    if let Err(v) = testfd::check(epoch.db().instance(), epoch.db().fds(), Weak) {
        mismatch(
            n,
            format!("the served state is not weakly satisfiable: {v}"),
        );
    }
    Replay {
        wall_s,
        spans,
        metrics: rec.snapshot(),
        mismatches,
        rows_scanned,
        answer_rows,
        recovered_ops,
    }
}
