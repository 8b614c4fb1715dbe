//! `service`: a real `pres serve` child, driven open loop over loopback.
//!
//! One generator thread submits on its own connection at fixed intervals;
//! a collector thread on a second connection waits for each job to finish
//! and fetches its certificate. Latency runs from an arrival's due time to
//! its certificate being in hand, so a stall also counts against the
//! arrivals queued behind it. Certificates are checked after the window.

use crate::host;
use crate::inputs::{self, Arrival, Input};
use crate::metrics::Values;
use crate::run::{BlockStart, Combine, Measured, OpSample};
use crate::stats::{percentile, ratio};
use crate::trace::Tracer;
use pres_core::certificate::Certificate;
use pres_core::program::Program;
use pres_core::Pres;
use pres_svc::{Client, JobStatus, SubmitReceipt};
use pres_tvm::prelude::*;
use std::collections::VecDeque;
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Offered load: about a sixth of what one job worker sustains on this mix
/// on a 2-CPU host; at half of it the p90 latency followed the seeded
/// arrival order by ±30 % (see NOTES.md).
pub const OFFERED_RATE_PER_S: f64 = 26.0;

/// A run whose generator fell further behind than this at p90 is invalid
/// (see [`context`]): it no longer offered the stated load.
pub const LATE_BOUND_MS: f64 = 25.0;

/// The window is cut into this many time slices (blocks, see `run.rs`).
const SLICES: usize = 5;

/// Extra windows, each on a fresh daemon, a run may offer when too few
/// slices of the last one were free of CPU steal.
pub const RETRIES: usize = 3;

/// Every this many fresh arrivals, one certificate is also minted in
/// process and byte-compared with the daemon's.
const SAMPLE_EVERY: usize = 8;

/// How long after the last arrival the collector waits for stragglers.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Collector poll interval while the oldest job is still running.
const POLL: Duration = Duration::from_millis(1);

/// A `pres serve` child on an ephemeral loopback port.
pub struct Daemon {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    /// `host:port` the daemon listens on.
    pub addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Starts the daemon with one job worker and waits until it listens.
    pub fn start(pres: &Path, dir: PathBuf) -> Result<Daemon, String> {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut child = Command::new(pres)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--job-workers", "1"])
            .args(["--log-interval-secs", "0", "--data-dir"])
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pres.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child: Some(child),
            stdout: None,
            addr: String::new(),
            dir,
        };
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading daemon banner: {e}"))?;
        daemon.addr = line
            .strip_prefix("pres-svc listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected daemon banner: {line:?}"))?
            .to_string();
        daemon.stdout = Some(stdout);
        Ok(daemon)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Connects a client.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Asks the daemon to drain and waits for it to exit (killing it after
    /// a grace period), then removes its data directory.
    pub fn stop(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        if matches!(child.try_wait(), Ok(None)) {
            let _ = child.kill();
        }
        let _ = child.wait();
        if let Some(mut out) = self.stdout.take() {
            let _ = out.read_to_end(&mut Vec::new());
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The fresh sketch pool, the arrival schedule and the running daemon.
pub struct Setup {
    /// Bug ids, indexed like `programs`.
    pub names: Vec<&'static str>,
    /// The corpus programs.
    pub programs: Vec<Box<dyn Program>>,
    /// Fresh sketches, in submission order.
    pub inputs: Vec<Input>,
    /// The arrival schedule.
    pub arrivals: Vec<Arrival>,
    /// The daemon under test.
    pub daemon: Daemon,
    /// Executor for recording and for the in-process checks.
    pub pool: VthreadPool,
}

/// Records a fresh pool for about `seconds` of arrivals (whole failing
/// runs per bug, so the window is rounded) and starts a daemon in `dir`.
pub fn setup(seed: u64, seconds: f64, pres: &Path, dir: PathBuf) -> Result<Setup, String> {
    let (names, programs) = inputs::bug_programs();
    let pool = VthreadPool::new(8);
    let per_bug = inputs::service_runs_per_bug(OFFERED_RATE_PER_S * seconds, programs.len());
    let failing = inputs::find_failing(&programs, per_bug, &pool)?;
    let inputs = inputs::service_plan(seed, &failing)
        .into_iter()
        .map(|run| inputs::record_bug_run(run, &programs, &pool))
        .collect::<Result<Vec<_>, _>>()?;
    let arrivals = inputs::arrivals(seed, inputs.len());
    let daemon = Daemon::start(pres, dir)?;
    daemon
        .connect()?
        .stats()
        .map_err(|e| format!("daemon STATS: {e}"))?;
    Ok(Setup {
        names,
        programs,
        inputs,
        arrivals,
        daemon,
        pool,
    })
}

impl Setup {
    /// Replaces the daemon with a fresh one (empty store and journal) in
    /// `dir`, so that the same arrivals can be offered again.
    pub fn restart(&mut self, pres: &Path, dir: PathBuf) -> Result<(), String> {
        self.daemon.stop();
        self.daemon = Daemon::start(pres, dir)?;
        Ok(())
    }
}

/// What must be identical between two set-ups of one seed.
pub fn fingerprint(s: &Setup) -> u64 {
    inputs::digest(&(
        s.inputs.iter().map(|i| &i.bytes).collect::<Vec<_>>(),
        &s.arrivals,
    ))
}

/// One numeric STATS field.
fn stat(text: &str, key: &str) -> Result<f64, String> {
    text.lines()
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(key)).then(|| it.next()).flatten()
        })
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no numeric '{key}' in STATS"))
}

/// An acknowledged arrival, handed from the generator to the collector.
struct Acked {
    index: usize,
    due: Instant,
    submitted: Instant,
    acked: Instant,
    receipt: Result<SubmitReceipt, String>,
}

/// An arrival's full story.
struct Done {
    acked: Acked,
    finished: Instant,
    fetched: Instant,
    outcome: Result<(JobStatus, Vec<u8>), String>,
}

/// Submits every arrival at its due time; returns the readings that start
/// each slice of `slice` arrivals.
fn generate(
    s: &Setup,
    t0: Instant,
    slice: usize,
    tx: mpsc::Sender<Acked>,
) -> Result<Vec<BlockStart>, String> {
    let mut client = s.daemon.connect()?;
    let gap = Duration::from_secs_f64(1.0 / OFFERED_RATE_PER_S);
    let mut starts = Vec::with_capacity(SLICES);
    for (index, arrival) in s.arrivals.iter().enumerate() {
        let due = t0 + gap * index as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        if index % slice == 0 {
            starts.push(BlockStart::now(index, Some(s.daemon.pid()))?);
        }
        let input = match *arrival {
            Arrival::Fresh(i) | Arrival::Resubmit(i) => &s.inputs[i],
        };
        let submitted = Instant::now();
        let receipt = client
            .submit(s.names[input.run.bug], &input.bytes)
            .map_err(|e| format!("submit: {e}"));
        let acked = Instant::now();
        let failed = receipt.is_err();
        let _ = tx.send(Acked {
            index,
            due,
            submitted,
            acked,
            receipt,
        });
        if failed {
            // The connection's state is unknown; later arrivals would only
            // repeat the error.
            break;
        }
    }
    Ok(starts)
}

fn finish(
    client: &mut Client,
    job: u64,
    status: JobStatus,
) -> Result<(JobStatus, Vec<u8>), String> {
    match status {
        JobStatus::Succeeded { .. } => client
            .fetch_certificate(job)
            .map(|cert| (status, cert))
            .map_err(|e| format!("fetch: {e}")),
        other => Err(format!("job ended {other}")),
    }
}

fn collect(s: &Setup, rx: mpsc::Receiver<Acked>, t0: Instant) -> Result<Vec<Done>, String> {
    let mut client = s.daemon.connect()?;
    let mut pending: VecDeque<Acked> = VecDeque::new();
    let mut done = Vec::with_capacity(s.arrivals.len());
    let mut generator_done = false;
    let window_end = t0 + Duration::from_secs_f64(s.arrivals.len() as f64 / OFFERED_RATE_PER_S);
    loop {
        // Take new arrivals; when idle, wait one poll interval for one.
        loop {
            match rx.try_recv() {
                Ok(a) => pending.push_back(a),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    generator_done = true;
                    break;
                }
            }
        }
        if generator_done && pending.is_empty() {
            break;
        }
        // Jobs run FIFO on one worker, so only the oldest fresh job needs
        // polling; re-submits can finish early and are polled every round.
        let mut progressed = false;
        let mut blocked = false;
        let mut keep = VecDeque::with_capacity(pending.len());
        while let Some(a) = pending.pop_front() {
            let receipt = match &a.receipt {
                Ok(r) => *r,
                Err(e) => {
                    let e = e.clone();
                    let now = Instant::now();
                    done.push(Done {
                        acked: a,
                        finished: now,
                        fetched: now,
                        outcome: Err(e),
                    });
                    continue;
                }
            };
            if blocked && receipt.fresh_job {
                keep.push_back(a);
                continue;
            }
            match client
                .status(receipt.job)
                .map_err(|e| format!("status: {e}"))?
            {
                Some(status) if status.is_terminal() => {
                    let finished = Instant::now();
                    let outcome = finish(&mut client, receipt.job, status);
                    done.push(Done {
                        acked: a,
                        finished,
                        fetched: Instant::now(),
                        outcome,
                    });
                    progressed = true;
                }
                Some(_) => {
                    blocked |= receipt.fresh_job;
                    keep.push_back(a);
                }
                None => {
                    let now = Instant::now();
                    done.push(Done {
                        acked: a,
                        finished: now,
                        fetched: now,
                        outcome: Err(format!("daemon forgot job {}", receipt.job)),
                    });
                }
            }
        }
        pending = keep;
        if generator_done && Instant::now() > window_end + DRAIN_LIMIT {
            for a in pending.drain(..) {
                let now = Instant::now();
                done.push(Done {
                    acked: a,
                    finished: now,
                    fetched: now,
                    outcome: Err("not finished within the drain limit".into()),
                });
            }
        }
        if !progressed {
            thread::sleep(POLL);
        }
    }
    Ok(done)
}

/// Each fresh job's time on the single FIFO worker, as the client sees it:
/// from when it could start (its ACK, or the previous fresh job's end) to
/// its terminal status. The daemon's own histogram has order-of-magnitude
/// buckets only.
fn job_ms(s: &Setup, done: &[Done]) -> Vec<f64> {
    let mut previous: Option<Instant> = None;
    done.iter()
        .filter(|d| matches!(s.arrivals[d.acked.index], Arrival::Fresh(_)))
        .map(|d| {
            let start = previous.map_or(d.acked.acked, |p| p.max(d.acked.acked));
            previous = Some(d.finished);
            d.finished.saturating_duration_since(start).as_secs_f64() * 1e3
        })
        .collect()
}

/// Checks one fetched certificate: it decodes, names the input's program,
/// promises the production failure, and replays to it.
fn verify(s: &Setup, input: &Input, cert: &[u8]) -> Result<Certificate, String> {
    let program = s.programs[input.run.bug].as_ref();
    let cert = Certificate::decode(cert).map_err(|e| format!("certificate decode: {e}"))?;
    let target = &input.recorded.sketch.meta.failure_signature;
    if cert.expected_signature != *target {
        return Err(format!(
            "certificate promises '{}', production failed with '{target}'",
            cert.expected_signature
        ));
    }
    cert.replay(program).map_err(|e| format!("replay: {e}"))?;
    Ok(cert)
}

/// Offers the arrival schedule, then verifies every certificate.
pub fn measure(s: &Setup, tracer: &mut Tracer) -> Result<Measured, String> {
    let pid = Some(s.daemon.pid());
    // A fresh connection each time: the daemon drops idle ones.
    let stats = || {
        s.daemon
            .connect()?
            .stats()
            .map_err(|e| format!("STATS: {e}"))
    };
    let before = stats()?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let slice = s.arrivals.len().div_ceil(SLICES);
    let (tx, rx) = mpsc::channel();
    let (generated, collected) = thread::scope(|scope| {
        let g = scope.spawn(|| generate(s, t0, slice, tx));
        let c = scope.spawn(|| collect(s, rx, t0));
        (
            g.join().expect("generator thread panicked"),
            c.join().expect("collector thread panicked"),
        )
    });
    let mut starts = generated?;
    let mut done = collected?;
    done.sort_by_key(|d| d.acked.index);
    starts.push(BlockStart::now(s.arrivals.len(), pid)?);
    let after = stats()?;
    let mut m = Measured {
        peak_rss_mb: host::peak_rss_mb(pid)?,
        blocks: starts.windows(2).map(|w| w[0].until(&w[1])).collect(),
        combine: Combine::Pooled,
        ..Measured::default()
    };
    for input in &s.inputs {
        m.record.add(&input.recorded, input.bytes.len());
    }
    let mut late_ms = Vec::with_capacity(done.len());
    let (mut submit_ms, mut wait_ms, mut fetch_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut resubmits, mut cert_bytes, mut sampled) = (0u64, 0u64, 0u64);
    for d in &done {
        let a = &d.acked;
        let arrival = s.arrivals[a.index];
        let input = match arrival {
            Arrival::Fresh(i) | Arrival::Resubmit(i) => &s.inputs[i],
        };
        let op = a.index as u64;
        let root = tracer.record("service.arrival", op, None, a.due, d.fetched);
        tracer.record("svc.submit", op, root, a.submitted, a.acked);
        tracer.record("svc.wait", op, root, a.acked, d.finished);
        tracer.record("svc.fetch", op, root, d.finished, d.fetched);
        late_ms.push((a.submitted - a.due).as_secs_f64() * 1e3);
        submit_ms.push((a.acked - a.submitted).as_secs_f64() * 1e3);
        wait_ms.push((d.finished - a.acked).as_secs_f64() * 1e3);
        fetch_ms.push((d.fetched - d.finished).as_secs_f64() * 1e3);

        let mut check = || -> Result<(), String> {
            let (status, cert) = d.outcome.as_ref().map_err(Clone::clone)?;
            let receipt = a.receipt.as_ref().map_err(Clone::clone)?;
            let parsed = verify(s, input, cert)?;
            match arrival {
                Arrival::Resubmit(_) => {
                    resubmits += 1;
                    if receipt.fresh_job {
                        return Err("re-submit did not join the earlier job".into());
                    }
                }
                Arrival::Fresh(i) => {
                    if !receipt.fresh_job {
                        return Err("fresh sketch joined an existing job".into());
                    }
                    if let JobStatus::Succeeded { attempts, .. } = status {
                        m.attempts += u64::from(*attempts);
                    }
                    m.certs += 1;
                    cert_bytes += cert.len() as u64;
                    if i % SAMPLE_EVERY == 0 {
                        sampled += 1;
                        let program = s.programs[input.run.bug].as_ref();
                        let local = Pres::new(input.run.mechanism)
                            .reproduce(program, &input.recorded)
                            .certificate
                            .ok_or("in-process reproduction failed")?;
                        if local.encode() != *cert || local != parsed {
                            return Err(
                                "daemon certificate differs from in-process Pres::reproduce".into(),
                            );
                        }
                    }
                }
            }
            Ok(())
        };
        let ok = match check() {
            Ok(()) => true,
            Err(e) => {
                m.failures.push(format!(
                    "arrival {} ({} seed {} {} ring={} {:?}): {e}",
                    a.index,
                    s.names[input.run.bug],
                    input.run.seed,
                    input.run.mechanism.name(),
                    input.run.ring,
                    arrival
                ));
                false
            }
        };
        m.ops.push(OpSample {
            ok,
            ack_s: (a.acked - a.submitted).as_secs_f64(),
            latency_s: (d.fetched - a.due).as_secs_f64(),
        });
    }
    // Arrivals the generator never sent (it stops after a failed submit)
    // still count as attempted.
    for _ in done.len()..s.arrivals.len() {
        m.ops.push(OpSample {
            ok: false,
            ack_s: 0.0,
            latency_s: 0.0,
        });
        m.failures.push("arrival never submitted".into());
    }

    let delta = |k: &str| -> Result<f64, String> { Ok(stat(&after, k)? - stat(&before, k)?) };
    let submits = delta("submits")?;
    let dedup = delta("dedup_hits")?;
    if dedup as u64 != resubmits || resubmits as usize != s.arrivals.len() - s.inputs.len() {
        m.failures.push(format!(
            "dedup share off design: {dedup} dedup hits, {resubmits} verified re-submits, {} designed",
            s.arrivals.len() - s.inputs.len()
        ));
    }
    let late_p90 = percentile(&late_ms, 90.0).unwrap_or(0.0);
    let hits = delta("sketch_cache_hits")?;
    let misses = delta("sketch_cache_misses")?;
    let syncs = delta("journal_syncs")?;
    let mut l = Values::default();
    let p50 = |xs: &[f64]| percentile(xs, 50.0).unwrap_or(0.0);
    l.set("svc.client.submit_ms", p50(&submit_ms));
    l.set("svc.client.wait_ms", p50(&wait_ms));
    l.set("svc.client.fetch_ms", p50(&fetch_ms));
    l.set("svc.journal.syncs_per_submit", ratio(syncs, submits));
    l.set(
        "svc.journal.mean_cohort",
        ratio(delta("journal_records")?, syncs),
    );
    l.set("svc.cache.hit_share", ratio(hits, hits + misses));
    l.set("svc.queue.dedup_share", ratio(dedup, submits));
    l.set("svc.queue.job_ms.p50", p50(&job_ms(s, &done)));
    l.set("gen.late_ms.p90", late_p90);
    m.layers = l;
    m.exact = vec![
        ("arrivals", s.arrivals.len() as u64),
        ("fresh_attempts", m.attempts),
        ("fresh_certs", m.certs),
        ("fresh_cert_bytes", cert_bytes),
        ("resubmits", resubmits),
        ("sampled_in_process", sampled),
        ("input_entries", m.record.entries),
        ("input_bytes", m.record.bytes),
        ("input_native_makespan", m.record.native_makespan),
        ("input_recorded_makespan", m.record.recorded_makespan),
    ];
    Ok(m)
}

/// The service layers for a workload that does not run the daemon itself:
/// `inputs` offered to a fresh daemon in `dir` as in [`measure`], with the
/// same re-submit share. Any failed check fails the probe.
pub fn probe(
    seed: u64,
    names: Vec<&'static str>,
    programs: Vec<Box<dyn Program>>,
    inputs: Vec<Input>,
    pres: &Path,
    dir: PathBuf,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let s = Setup {
        names,
        programs,
        arrivals: inputs::arrivals(seed, inputs.len()),
        inputs,
        daemon: Daemon::start(pres, dir)?,
        pool: VthreadPool::new(8),
    };
    let m = measure(&s, tracer)?;
    match m.failures.first() {
        Some(f) => Err(format!("service probe: {f}")),
        None => Ok(m.layers),
    }
}

/// The context line's service fields. A run whose generator ran later
/// than [`LATE_BOUND_MS`] at p90 did not offer the stated load: it is
/// marked `"valid": false` (its outputs may still all be correct).
pub fn context(m: &Measured) -> Vec<(&'static str, String)> {
    let late = m.layers.get("gen.late_ms.p90").unwrap_or(0.0);
    vec![
        ("offered_rate_per_s", format!("{OFFERED_RATE_PER_S}")),
        ("generator_late_ms_p90", format!("{late}")),
        ("late_bound_ms", format!("{LATE_BOUND_MS}")),
        ("valid", (late <= LATE_BOUND_MS).to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fields_parse() {
        let text = "submits            12\njournal_mean_cohort 1.50\nlatency_p50        <=4ms\n";
        assert_eq!(stat(text, "submits"), Ok(12.0));
        assert_eq!(stat(text, "journal_mean_cohort"), Ok(1.5));
        assert!(stat(text, "latency_p50").is_err());
        assert!(stat(text, "missing").is_err());
    }
}
