//! The end-to-end client: one closed loop over `fdi serve`'s stdin
//! protocol, one request in flight, every reply checked against the
//! oracle transcript.
//!
//! The server runs with `FDI_THREADS=1`, so client and server are the
//! two busy threads of a 2-core host. The client times each request
//! from its first written byte to the last byte of its reply; a
//! transaction is timed from the first byte of its first mutation to
//! its `published epoch` line (durable and visible). A watchdog kills
//! a server that stops answering, so a hang becomes missing replies.

use crate::probe::Probe;
use crate::workload::{Class, Expected, Script};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A server that has not answered for this long is killed.
const WATCHDOG: Duration = Duration::from_secs(120);

/// One `fdi serve` process.
struct Server {
    child: Arc<Mutex<Child>>,
    pid: u32,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    watchdog: Option<(Sender<()>, JoinHandle<()>)>,
}

impl Server {
    /// Starts `fdi serve <journal> [description]` and waits for its
    /// greeting; returns the server and the spawn-to-greeting time.
    fn start(fdi: &Path, journal: &Path, description: Option<&Path>) -> io::Result<(Server, f64)> {
        let started = Instant::now();
        let mut command = Command::new(fdi);
        command.arg("serve").arg(journal);
        if let Some(desc) = description {
            command.arg(desc);
        }
        let mut child = command
            .env("FDI_THREADS", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let child = Arc::new(Mutex::new(child));
        let (tx, rx) = mpsc::channel::<()>();
        let watched = Arc::clone(&child);
        let handle = std::thread::spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(WATCHDOG) {
                let _ = watched.lock().expect("child lock").kill();
            }
        });
        let mut server = Server {
            child,
            pid,
            stdin,
            stdout,
            watchdog: Some((tx, handle)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            if server.stdout.read_line(&mut line)? == 0 {
                server.stop();
                return Err(io::Error::other("fdi serve exited before its greeting"));
            }
            if line.starts_with("serving epoch") {
                break;
            }
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// Sends one request line and reads a reply of `lines` lines into
    /// `reply`. `Ok(false)` means the server closed its output.
    fn request(&mut self, line: &str, lines: usize, reply: &mut String) -> io::Result<bool> {
        reply.clear();
        if let Err(e) = self.stdin.write_all(line.as_bytes()) {
            return match e.kind() {
                io::ErrorKind::BrokenPipe => Ok(false),
                _ => Err(e),
            };
        }
        for _ in 0..lines {
            if self.stdout.read_line(reply)? == 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Peak resident set of the server, in kB.
    fn peak_rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid)).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Sends `quit`, returns the closing line and the exit status.
    fn quit(mut self) -> io::Result<(String, ExitStatus)> {
        let mut closing = String::new();
        let _ = self.request("quit\n", 1, &mut closing);
        let status = self.wait()?;
        Ok((closing.trim_end().to_string(), status))
    }

    /// Waits for the process to end, then stops the watchdog.
    fn wait(&mut self) -> io::Result<ExitStatus> {
        let status = loop {
            if let Some(status) = self.child.lock().expect("child lock").try_wait()? {
                break status;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        if let Some((tx, handle)) = self.watchdog.take() {
            let _ = tx.send(());
            let _ = handle.join();
        }
        Ok(status)
    }

    /// Kills the process and waits for it.
    fn stop(&mut self) {
        let _ = self.child.lock().expect("child lock").kill();
        let _ = self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.watchdog.is_some() {
            self.stop();
        }
    }
}

/// What the served session measured and found. Times are scaled to
/// the reference host speed (see [`crate::probe`]).
#[derive(Debug, Default)]
pub struct Served {
    /// Spawn-to-greeting seconds of every start.
    pub setup_s: Vec<f64>,
    /// Per request: round-trip seconds (`None` if it failed).
    pub latency_s: Vec<Option<f64>>,
    /// Per commit request index: seconds from the first byte of the
    /// transaction to its `published epoch` line.
    pub tx_s: Vec<(usize, f64)>,
    /// Unscaled sum of the request round trips, seconds.
    pub raw_busy_s: f64,
    /// Median reference burst of the timed phase, seconds.
    pub burst_s: f64,
    /// Requests that got a wrong or no reply, plus failed end checks.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// The deterministic counters of `metrics json`, in script order.
    pub counts: Vec<(&'static str, u64)>,
    /// Server peak RSS, kB.
    pub peak_rss_kb: u64,
    /// Journal bytes written during the timed phase.
    pub journal_growth: u64,
}

impl Served {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Where a run keeps its files.
pub struct Files<'a> {
    /// The `fdi` binary.
    pub fdi: &'a Path,
    /// The description file.
    pub description: &'a Path,
    /// The prepared journal (`read`, `mixed`).
    pub prepared: &'a Path,
    /// The run directory.
    pub dir: &'a Path,
}

/// A fresh journal for start `k`: empty, or a copy of the prepared one.
fn fresh_journal(script: &Script, files: &Files, k: usize) -> io::Result<std::path::PathBuf> {
    let path = files.dir.join(format!("served-{k}.journal"));
    let _ = std::fs::remove_file(&path);
    if script.workload.recovers() {
        std::fs::copy(files.prepared, &path)?;
    }
    Ok(path)
}

/// Starts the server `setups` times (timing each start), serves the
/// script on the last one, then checks its closing state.
pub fn run(script: &Script, files: &Files, setups: usize) -> io::Result<Served> {
    let mut out = Served {
        latency_s: vec![None; script.requests.len()],
        ..Served::default()
    };
    let description = (!script.workload.recovers()).then_some(files.description);
    let mut server = None;
    let mut journal = std::path::PathBuf::new();
    let mut probe = Probe::start();
    for k in 0..setups.max(1) {
        journal = fresh_journal(script, files, k)?;
        probe.sample();
        let spawned = Instant::now();
        let (started, secs) = Server::start(files.fdi, &journal, description)?;
        probe.sample();
        out.setup_s.push(probe.scale(spawned, secs));
        if k + 1 < setups {
            let (_, status) = started.quit()?;
            if !status.success() {
                out.fail(format!("set-up start {k} exited with {status}"));
            }
        } else {
            server = Some(started);
        }
    }
    let mut server = server.expect("at least one start");
    let size = |path: &Path| std::fs::metadata(path).map_or(0, |m| m.len());
    let journal_before = size(&journal);
    serve(script, &mut server, &mut out)?;
    close(script, server, &mut out)?;
    out.journal_growth = size(&journal).saturating_sub(journal_before);
    Ok(out)
}

/// The timed phase: every request is timed raw, then scaled by the
/// host speed the probe saw around it.
fn serve(script: &Script, server: &mut Server, out: &mut Served) -> io::Result<()> {
    let mut reply = String::new();
    let mut tx_start: Option<Instant> = None;
    let mut timed: Vec<Option<(Instant, f64)>> = vec![None; script.requests.len()];
    let mut probe = Probe::start();
    for (i, (req, want)) in script.requests.iter().zip(&script.expected).enumerate() {
        if tx_start.is_none() {
            probe.maybe_sample();
        }
        let line = req.line();
        let want_text = want.text();
        let lines = match want {
            Expected::Audit(text) => text.lines().count(),
            _ => 1,
        };
        let sent = Instant::now();
        if req.class().is_mutation() {
            tx_start.get_or_insert(sent);
        }
        if !server.request(&line, lines, &mut reply)? {
            out.fail(format!(
                "request {i} ({}): no reply, server gone",
                line.trim_end()
            ));
            out.failed += (script.requests.len() - i - 1) as u64;
            break;
        }
        let done = Instant::now();
        let got = if lines == 1 {
            reply.trim_end_matches('\n')
        } else {
            reply.as_str()
        };
        if got != want_text {
            out.fail(format!(
                "request {i} ({}): got {:?}, want {:?}",
                line.trim_end(),
                truncate(got),
                truncate(&want_text)
            ));
            continue;
        }
        timed[i] = Some((sent, (done - sent).as_secs_f64()));
        if req.class() == Class::Commit {
            if let Some(first) = tx_start.take() {
                out.tx_s.push((i, (done - first).as_secs_f64()));
            }
        }
    }
    probe.sample();
    for (i, t) in timed.iter().enumerate() {
        if let Some((sent, secs)) = *t {
            out.raw_busy_s += secs;
            out.latency_s[i] = Some(probe.scale(sent, secs));
        }
    }
    for (i, secs) in &mut out.tx_s {
        let (sent, _) = timed[*i].expect("a timed commit");
        *secs = probe.scale(sent, *secs);
    }
    out.burst_s = probe.median_burst();
    Ok(())
}

/// The closing checks: the final `epoch`, `metrics json`, peak RSS,
/// `quit` and the exit status.
fn close(script: &Script, mut server: Server, out: &mut Served) -> io::Result<()> {
    let mut reply = String::new();
    if !server.request("epoch\n", 1, &mut reply)? || reply.trim_end() != script.final_epoch {
        out.fail(format!(
            "closing epoch: got {:?}, want {:?}",
            reply.trim_end(),
            script.final_epoch
        ));
    }
    if !server.request("metrics json\n", 1, &mut reply)? {
        out.fail("metrics json: no reply".to_string());
    }
    for &(name, want) in &script.counts {
        match counter(&reply, name) {
            Some(got) => {
                out.counts.push((name, got));
                if got != want {
                    out.fail(format!("count {name}: server {got}, oracle {want}"));
                }
            }
            None => out.fail(format!("count {name}: missing from metrics json")),
        }
    }
    out.peak_rss_kb = server.peak_rss_kb().unwrap_or(0);
    let (closing, status) = server.quit()?;
    let want = format!(
        "session closed at epoch {} ({} op(s) durable)",
        script.final_seq + 1,
        script.final_ops
    );
    if closing != want {
        out.fail(format!("closing line: got {closing:?}, want {want:?}"));
    }
    if !status.success() {
        out.fail(format!("fdi serve exited with {status}"));
    }
    Ok(())
}

/// `"name":value` from the `counters` object of a `metrics json` line.
pub fn counter(json: &str, name: &str) -> Option<u64> {
    let counters = &json[json.find("\"counters\":{")?..];
    let counters = &counters[..counters.find('}')?];
    let key = format!("\"{name}\":");
    let at = counters.find(&key)? + key.len();
    let digits: String = counters[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn truncate(text: &str) -> String {
    text.chars().take(160).collect()
}
