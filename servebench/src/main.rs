//! End-to-end benchmark of `fdi serve`.
//!
//! ```text
//! servebench --fdi <path> --workload <ingest|read|mixed> --seed <n>
//!            --seconds <s> --trace <0|1> [--smoke] [--workdir <dir>]
//! ```
//!
//! One run generates its inputs from the seed, starts the release
//! `fdi serve` several times to time its set-up, serves the generated
//! request script from one closed-loop client, and checks every reply
//! against an oracle transcript computed in-process. With `--trace 0`
//! it prints the end-to-end metrics; with `--trace 1` it also replays
//! the script in-process through the same library calls, once untraced
//! and once with a span around each call, and prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Progress and the
//! human-readable layer table go to standard error.
//!
//! Work per run is fixed by the seed and `--seconds` (request counts
//! scale with it), not by a clock, so a faster build does the same
//! work in less time and the table size stays stationary.

mod probe;
mod replay;
mod report;
mod served;
mod workload;

use replay::{Layer, Replay};
use report::{median, Metrics};
use served::{Files, Served};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Class, Expected, Script, Shape, Workload};

/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    fdi: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut fdi = None;
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut smoke = false;
    let mut workdir = PathBuf::from(".bench_build/servebench");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--fdi" => fdi = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--workdir" => workdir = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        fdi: fdi.ok_or("--fdi is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        workdir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match probe::pin_to_one_cpu() {
        Some(cpu) => eprintln!("servebench: pinned to CPU {cpu}"),
        None => eprintln!("servebench: could not pin to one CPU; timings will be noisier"),
    }
    let dir = args.workdir.join(format!(
        "run-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let shape = if args.smoke {
        Shape::smoke(args.workload)
    } else {
        Shape::full(args.workload, args.seconds)
    };
    let description = dir.join("base.fdi");
    let prepared = dir.join("prepared.journal");
    let clock = std::time::Instant::now();
    let script = workload::build(args.workload, args.seed, shape, &prepared);
    let built = clock.elapsed().as_secs_f64();
    std::fs::write(&description, &script.description).map_err(|e| e.to_string())?;
    eprintln!(
        "servebench: {} seed {}: {} rows, {} requests ({} accepted, {} rejected mutations)",
        args.workload.name(),
        args.seed,
        shape.rows,
        script.requests.len(),
        script.accepted,
        script.rejected
    );
    let files = Files {
        fdi: &args.fdi,
        description: &description,
        prepared: &prepared,
        dir,
    };
    let setups = if args.smoke { 2 } else { SETUPS };
    let served = served::run(&script, &files, setups).map_err(|e| format!("fdi serve: {e}"))?;
    eprintln!(
        "servebench: script and oracle {built:.2} s, served session {:.2} s",
        clock.elapsed().as_secs_f64() - built
    );
    let mut failed = served.failed;
    for f in &served.failures {
        eprintln!("servebench: FAILED {f}");
    }
    // the served state is the oracle's (the closing `epoch` fingerprint
    // matched), so the oracle's final check speaks for it
    if let Some(violation) = &script.not_weak {
        failed += 1;
        eprintln!("servebench: FAILED the served state is not weakly satisfiable: {violation}");
    }
    let metrics = if args.trace {
        let journal = dir.join("replay.journal");
        let plain = replay::run(&script, &journal, &prepared, false);
        let traced = replay::run(&script, &journal, &prepared, true);
        for r in [&plain, &traced] {
            failed += r.mismatches.len() as u64;
            for m in &r.mismatches {
                eprintln!("servebench: REPLAY MISMATCH {m}");
            }
            for (&(name, want), (_, got)) in script.counts.iter().zip(r.counts(&script)) {
                if got != want {
                    failed += 1;
                    eprintln!("servebench: FAILED count {name}: replay {got}, oracle {want}");
                }
            }
        }
        let spans_file = args
            .workdir
            .join(format!("spans-{}.tsv", args.workload.name()));
        write_spans(&spans_file, &script, &traced).map_err(|e| e.to_string())?;
        eprintln!("{}", end_to_end(&script, &served).table());
        layers(&script, &served, &plain, &traced)
    } else {
        let metrics = end_to_end(&script, &served);
        eprintln!("servebench: set-up seconds {:?}", served.setup_s);
        eprintln!("{}", metrics.table());
        metrics
    };
    // the timed requests plus the closing `epoch`, `metrics json` and
    // `quit`; every check belongs to one of them, and a request that
    // fails several checks counts once
    let attempted = script.requests.len() as u64 + 3;
    Ok(metrics.json(failed == 0, attempted, failed.min(attempted)))
}

/// The end-to-end metrics of the served session.
fn end_to_end(script: &Script, served: &Served) -> Metrics {
    let class_ms = |class: Class| -> Vec<f64> {
        script
            .requests
            .iter()
            .zip(&served.latency_s)
            .filter(|(r, _)| r.class() == class)
            .filter_map(|(_, s)| s.map(|s| s * 1e3))
            .collect()
    };
    let commits: Vec<f64> = served.tx_s.iter().map(|&(_, s)| s * 1e3).collect();
    let selects = class_ms(Class::Select);
    let audits = class_ms(Class::Audit);
    let (mut ops, mut busy) = (0usize, 0.0);
    for (r, s) in script.requests.iter().zip(&served.latency_s) {
        if let Some(s) = s {
            busy += s;
            ops += usize::from(r.class() != Class::Commit);
        }
    }
    let mut m = Metrics::default();
    m.push("setup_s", median(&served.setup_s), "s");
    m.push("ops_per_s", ops as f64 / busy, "1/s");
    m.push("commit_p50_ms", median(&commits), "ms");
    m.push("select_p50_ms", median(&selects), "ms");
    m.push("audit_p50_ms", median(&audits), "ms");
    m.push("peak_rss_mb", served.peak_rss_kb as f64 / 1024.0, "MB");
    m.push(
        "journal_bytes_per_op",
        served.journal_growth as f64 / script.accepted.max(1) as f64,
        "B",
    );
    eprintln!(
        "servebench: {} commits, {} selects, {} audits; {:.3} s of round trips \
         ({:.3} s unscaled, median burst {:.3} ms)",
        commits.len(),
        selects.len(),
        audits.len(),
        busy,
        served.raw_busy_s,
        served.burst_s * 1e3
    );
    m
}

/// Per request: the summed (scaled) span seconds of the traced replay.
fn span_sums(script: &Script, traced: &Replay) -> Vec<f64> {
    let mut sums = vec![0.0; script.requests.len()];
    for s in &traced.spans {
        if let Some(i) = s.request {
            sums[i] += s.secs;
        }
    }
    sums
}

/// The per-layer metrics.
fn layers(script: &Script, served: &Served, plain: &Replay, traced: &Replay) -> Metrics {
    use fdi_obs::{Counter, Hist};
    // medians of one call's spans, optionally for one request class and
    // for accepted (staged) mutations only
    let span_median = |layer: Layer, class: Option<Class>, staged: bool| -> f64 {
        let secs: Vec<f64> = traced
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .filter(|s| match (s.request, class) {
                (Some(i), Some(c)) => {
                    script.requests[i].class() == c
                        && (!staged || matches!(script.expected[i], Expected::Staged { .. }))
                }
                (_, None) => true,
                (None, Some(_)) => false,
            })
            .map(|s| s.secs)
            .collect();
        median(&secs)
    };
    let sums = span_sums(script, traced);
    // served minus replayed, per transaction and per request class
    let mut cli_commit = Vec::new();
    let mut first = 0;
    for &(commit, secs) in &served.tx_s {
        let replayed: f64 = (first..=commit)
            .filter(|&j| script.requests[j].class().is_mutation() || j == commit)
            .map(|j| sums[j])
            .sum();
        cli_commit.push((secs - replayed) * 1e3);
        first = commit + 1;
    }
    let cli_of = |class: Class| -> Vec<f64> {
        (0..script.requests.len())
            .filter(|&i| script.requests[i].class() == class)
            .filter_map(|i| served.latency_s[i].map(|s| (s - sums[i]) * 1e3))
            .collect()
    };
    // shares of the served round-trip time, by where the replay spent it
    let served_total: f64 = served.latency_s.iter().flatten().sum();
    let share = |pick: &dyn Fn(&replay::Span) -> bool| -> f64 {
        let t: f64 = traced
            .spans
            .iter()
            .filter(|s| s.request.is_some() && pick(s))
            .map(|s| s.secs)
            .sum();
        t / served_total
    };
    let class_of = |s: &replay::Span| script.requests[s.request.expect("request span")].class();
    let stage_share = share(&|s| s.layer == Layer::Stage);
    let publish_share = share(&|s| s.layer == Layer::Publish);
    let query_share = share(&|s| class_of(s) == Class::Select);
    let audit_share = share(&|s| class_of(s) == Class::Audit);
    let cli_share = 1.0 - stage_share - publish_share - query_share - audit_share;

    let rec = &traced.metrics;
    let (applied, rejected) = (
        rec.counter(Counter::OpsApplied),
        rec.counter(Counter::OpsRejected),
    );
    // equal to the oracle's: the counters are cross-checked exactly
    let rejected_share = rejected as f64 / (applied + rejected).max(1) as f64;
    let ratio = |hit: Counter, miss: Counter| {
        let (h, m) = (rec.counter(hit), rec.counter(miss));
        h as f64 / (h + m).max(1) as f64
    };
    let ms = 1e3;
    let us = 1e6;
    let mut m = Metrics::default();
    m.push(
        "stage.insert_ms",
        ms * span_median(Layer::Stage, Some(Class::Insert), true),
        "ms",
    );
    m.push(
        "stage.modify_ms",
        ms * span_median(Layer::Stage, Some(Class::Modify), true),
        "ms",
    );
    m.push(
        "stage.delete_us",
        us * span_median(Layer::Stage, Some(Class::Delete), true),
        "us",
    );
    m.push("stage.rejected_share", rejected_share, "ratio");
    m.push(
        "publish.ms",
        ms * span_median(Layer::Publish, None, false),
        "ms",
    );
    m.push(
        "publish.sync_ms",
        traced.hist_mean_ms(Hist::JournalSyncNanos),
        "ms",
    );
    m.push(
        "publish.recorded_ms",
        traced.hist_mean_ms(Hist::PublishNanos),
        "ms",
    );
    m.push(
        "snapshot.us",
        us * span_median(Layer::Snapshot, None, false),
        "us",
    );
    m.push(
        "query.parse_us",
        us * span_median(Layer::Parse, None, false),
        "us",
    );
    m.push(
        "query.select_ms",
        ms * span_median(Layer::Select, None, false),
        "ms",
    );
    m.push(
        "query.plan_hit_ratio",
        ratio(Counter::PlanCacheHits, Counter::PlanCacheMisses),
        "ratio",
    );
    m.push(
        "query.memo_hit_ratio",
        ratio(Counter::MemoHits, Counter::MemoMisses),
        "ratio",
    );
    m.push(
        "query.rows_per_answer",
        traced.rows_scanned as f64 / traced.answer_rows.max(1) as f64,
        "rows",
    );
    m.push(
        "audit.compare_ms",
        ms * span_median(Layer::Compare, None, false),
        "ms",
    );
    m.push(
        "audit.render_ms",
        ms * span_median(Layer::Render, None, false),
        "ms",
    );
    m.push(
        "recover.ms",
        ms * span_median(Layer::Recover, None, false),
        "ms",
    );
    m.push("recover.replayed_ops", traced.recovered_ops as f64, "count");
    m.push("cli.commit_ms", median(&cli_commit), "ms");
    m.push("cli.select_ms", median(&cli_of(Class::Select)), "ms");
    m.push("cli.audit_ms", median(&cli_of(Class::Audit)), "ms");
    m.push("cli.share", cli_share, "ratio");
    m.push("share.stage", stage_share, "ratio");
    m.push("share.publish", publish_share, "ratio");
    m.push("share.query", query_share, "ratio");
    m.push("share.audit", audit_share, "ratio");
    m.push(
        "trace.overhead_share",
        traced.wall_s / plain.wall_s - 1.0,
        "ratio",
    );
    m.push("host.burst_ms", served.burst_s * 1e3, "ms");
    for &(name, value) in &served.counts {
        m.push(&format!("count.{name}"), value as f64, "count");
    }
    eprintln!("{}", m.table());
    m
}

/// Writes the traced replay's spans, one per line:
/// `request  class  layer  start_ns  dur_ns` (durations scaled).
fn write_spans(path: &Path, script: &Script, traced: &Replay) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::from("request\tclass\tlayer\tstart_ns\tdur_ns\n");
    for s in &traced.spans {
        let (req, class) = match s.request {
            Some(i) => (i.to_string(), format!("{:?}", script.requests[i].class())),
            None => ("-".to_string(), "Setup".to_string()),
        };
        let _ = writeln!(
            out,
            "{req}\t{class}\t{}\t{}\t{}",
            s.layer.name(),
            (s.start_s * 1e9) as u64,
            (s.secs * 1e9) as u64
        );
    }
    std::fs::write(path, out)
}
