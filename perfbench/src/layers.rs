//! Per-layer probes: each layer's own cost, measured by calling it
//! directly over a sample of the workload's inputs and timing each call as
//! a span.

use crate::host;
use crate::metrics::Values;
use crate::stats::ratio;
use crate::trace::Tracer;
use pres_core::certificate::Certificate;
use pres_core::codec;
use pres_core::explore::{self, ExploreConfig};
use pres_core::feedback;
use pres_core::oracle::StatusOracle;
use pres_core::program::Program;
use pres_core::recorder::{self, RingConfig};
use pres_core::sketch::{Mechanism, Sketch, SketchIndex};
use pres_core::stats::ExploreStats;
use pres_svc::journal::{Journal, Record};
use pres_svc::Store;
use pres_tvm::prelude::*;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inputs probed per workload.
pub const SAMPLE: usize = 24;

/// Minimum wall time of the repeated probes, so that CPU-tick and timer
/// resolution stay small against the total.
const NATIVE_MIN: Duration = Duration::from_millis(600);
const SHORT_MIN: Duration = Duration::from_millis(100);

/// One production run the probes re-execute.
pub struct ProbeItem<'a> {
    /// The program.
    pub program: &'a dyn Program,
    /// Sketching mechanism.
    pub mechanism: Mechanism,
    /// Ring budgets, `None` for a classic recording.
    pub ring: Option<RingConfig>,
    /// Production seed.
    pub seed: u64,
}

fn timed<R>(tracer: &mut Tracer, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    tracer.record(name, op, None, t0, t1);
    (r, (t1 - t0).as_secs_f64())
}

/// Runs `f` over every item, in whole rounds, until `min` has passed.
/// Returns the rounds made.
fn repeat(min: Duration, n: usize, mut f: impl FnMut(usize)) -> u64 {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < min {
        (0..n).for_each(&mut f);
        rounds += 1;
    }
    rounds
}

/// Measures the VM, recorder, codec, index, checkpoint, feedback, store
/// and journal layers over `items`. `scratch` is a directory the store
/// and journal probes may create and remove.
pub fn probe(
    items: &[ProbeItem<'_>],
    pool: &VthreadPool,
    tracer: &mut Tracer,
    scratch: &Path,
) -> Result<Values, String> {
    let mut v = Values::default();
    let cfg = VmConfig::default();
    let n = items.len();

    // VM: native runs.
    let (mut wall, mut picks, mut spawns, mut runs) = (0.0, 0u64, 0u64, 0u64);
    let cpu0 = host::cpu_seconds(None)?;
    let start = Instant::now();
    repeat(NATIVE_MIN, n, |i| {
        let it = &items[i];
        let (out, t) = timed(tracer, "vm.native", i as u64, || {
            crate::inputs::run_native(it.program, it.seed, pool)
        });
        wall += t;
        picks += out.schedule.len() as u64;
        spawns += out.stats.os_spawns;
        runs += 1;
    });
    let elapsed = start.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds(None)? - cpu0;
    v.set("tvm.vm.us_per_pick", ratio(wall * 1e6, picks as f64));
    v.set("tvm.vm.cpu_us_per_pick", ratio(cpu * 1e6, picks as f64));
    v.set("tvm.vm.busy_share", ratio(cpu, elapsed));
    v.set("tvm.vm.native_ms_per_run", ratio(wall * 1e3, runs as f64));
    v.set(
        "tvm.pool.os_spawns_per_run",
        ratio(spawns as f64, runs as f64),
    );

    // Recorder: one recording per item.
    let mut sketches: Vec<(Sketch, Vec<u8>)> = Vec::with_capacity(n);
    let (mut rec_s, mut entries, mut ops, mut epochs, mut ringed) = (0.0, 0u64, 0u64, 0u64, 0u64);
    let (mut snap_bytes, mut snaps) = (0u64, 0u64);
    for (i, it) in items.iter().enumerate() {
        let (run, t) = timed(tracer, "recorder.record", i as u64, || match &it.ring {
            Some(ring) => recorder::record_ring_pooled(
                it.program,
                it.mechanism,
                ring.clone(),
                &cfg,
                it.seed,
                pool,
            ),
            None => recorder::record_pooled(it.program, it.mechanism, &cfg, it.seed, pool),
        });
        rec_s += t;
        entries += run.sketch.entries.len() as u64;
        ops += run.sketch.meta.total_ops;
        let bytes = codec::encode_sketch(&run.sketch);
        if let Some(cp) = &run.sketch.checkpoint {
            ringed += 1;
            epochs += cp.dropped_epochs + cp.epochs.len() as u64;
            if !cp.is_genesis() {
                let seg = codec::checkpoint_segment_bytes(&bytes)
                    .map_err(|e| format!("checkpoint segment: {e}"))?;
                snap_bytes += seg.unwrap_or(0);
                snaps += 1;
            }
        }
        sketches.push((run.sketch, bytes));
    }
    v.set("core.recorder.ms_per_run", ratio(rec_s * 1e3, n as f64));
    v.set(
        "core.recorder.entries_per_kop",
        ratio(entries as f64 * 1e3, ops as f64),
    );
    v.set(
        "core.recorder.epochs_per_run",
        ratio(epochs as f64, ringed as f64),
    );
    v.set("tvm.snapshot.bytes", ratio(snap_bytes as f64, snaps as f64));

    // Codec and sketch index.
    let total_bytes: usize = sketches.iter().map(|(_, b)| b.len()).sum();
    let (mut enc_s, mut dec_s) = (0.0, 0.0);
    let rounds = repeat(SHORT_MIN, n, |i| {
        let (sketch, bytes) = &sketches[i];
        enc_s += timed(tracer, "codec.encode", i as u64, || {
            codec::encode_sketch(sketch)
        })
        .1;
        dec_s += timed(tracer, "codec.decode", i as u64, || {
            codec::decode_sketch(bytes)
        })
        .1;
    });
    let kib = total_bytes as f64 / 1024.0 * rounds as f64;
    v.set("core.codec.encode_us_per_kib", ratio(enc_s * 1e6, kib));
    v.set("core.codec.decode_us_per_kib", ratio(dec_s * 1e6, kib));
    v.set(
        "core.codec.bytes_per_entry",
        ratio(total_bytes as f64, entries as f64),
    );
    let mut index_s = 0.0;
    let rounds = repeat(SHORT_MIN, n, |i| {
        index_s += timed(tracer, "sketch.index", i as u64, || {
            SketchIndex::new(&sketches[i].0)
        })
        .1;
    });
    v.set(
        "core.sketch.index_us",
        ratio(index_s * 1e6, (rounds * n as u64) as f64),
    );

    // Checkpoint verification of the rotated ring flushes.
    let (mut ckpt_s, mut ckpts) = (0.0, 0u64);
    for (i, it) in items.iter().enumerate() {
        let sketch = &sketches[i].0;
        if let Some(cp) = sketch.checkpoint.as_deref().filter(|cp| !cp.is_genesis()) {
            let (ok, t) = timed(tracer, "recorder.verify_checkpoint", i as u64, || {
                recorder::verify_checkpoint(it.program, cp, it.mechanism, &cfg, Some(pool))
            });
            ok.map_err(|e| format!("{}: checkpoint: {e}", it.program.name()))?;
            ckpt_s += t;
            ckpts += 1;
        }
    }
    v.set(
        "core.explore.checkpoint_ms",
        ratio(ckpt_s * 1e3, ckpts as f64),
    );

    // Feedback extraction over a fully traced run of each input.
    let (mut fb_s, mut candidates) = (0.0, 0u64);
    for (i, it) in items.iter().enumerate() {
        let out = recorder::run_traced(it.program, &cfg, it.seed);
        let (c, t) = timed(tracer, "feedback.candidates", i as u64, || {
            feedback::candidates(&out.trace)
        });
        fb_s += t;
        candidates += c.len() as u64;
    }
    v.set("core.feedback.candidates_us", ratio(fb_s * 1e6, n as f64));
    v.set(
        "core.feedback.candidates_per_trace",
        ratio(candidates as f64, n as f64),
    );

    // Store and journal, in process, on a scratch directory.
    let _ = fs::remove_dir_all(scratch);
    let result = store_and_journal(&sketches, items, tracer, scratch, &mut v);
    let _ = fs::remove_dir_all(scratch);
    result?;
    Ok(v)
}

/// Measures exploration and certificates: reproduces each recorded
/// failure, then decodes and replays every minted certificate.
pub fn probe_reproduction(
    cases: &[(&dyn Program, &Sketch)],
    pool: &VthreadPool,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let mut v = Values::default();
    let cfg = VmConfig::default();
    let (mut explore_s, mut attempts, mut wasted) = (0.0, 0u64, 0u64);
    let mut certs: Vec<(usize, Certificate)> = Vec::new();
    for (i, &(program, sketch)) in cases.iter().enumerate() {
        let index = Arc::new(SketchIndex::new(sketch));
        let oracle = StatusOracle::new(&sketch.meta.failure_signature);
        let (rep, t) = timed(tracer, "explore.reproduce", i as u64, || {
            explore::reproduce_with_index(
                program,
                &index,
                &oracle,
                &cfg,
                &ExploreConfig::default(),
                Some(pool),
            )
        });
        explore_s += t;
        attempts += u64::from(rep.attempts);
        wasted += ExploreStats::of(&rep).wasted_attempts();
        let cert = rep
            .certificate
            .ok_or_else(|| format!("{}: probe did not reproduce", program.name()))?;
        certs.push((i, cert));
    }
    v.set(
        "core.explore.ms_per_attempt",
        ratio(explore_s * 1e3, attempts as f64),
    );
    v.set(
        "core.explore.wasted_share",
        ratio(wasted as f64, attempts as f64),
    );

    let encoded: Vec<Vec<u8>> = certs.iter().map(|(_, c)| c.encode()).collect();
    let cert_bytes: usize = encoded.iter().map(Vec::len).sum();
    let mut cdec_s = 0.0;
    let rounds = repeat(SHORT_MIN, certs.len(), |i| {
        cdec_s += timed(tracer, "certificate.decode", i as u64, || {
            Certificate::decode(&encoded[i])
        })
        .1;
    });
    let mut replay_s = 0.0;
    for (i, cert) in &certs {
        let (r, t) = timed(tracer, "certificate.replay", *i as u64, || {
            cert.replay(cases[*i].0)
        });
        r.map_err(|e| format!("probe replay: {e}"))?;
        replay_s += t;
    }
    let nc = certs.len() as f64;
    v.set("core.certificate.replay_ms", ratio(replay_s * 1e3, nc));
    v.set("core.certificate.bytes", ratio(cert_bytes as f64, nc));
    v.set(
        "core.certificate.decode_us",
        ratio(cdec_s * 1e6, rounds as f64 * nc),
    );
    Ok(v)
}

fn store_and_journal(
    sketches: &[(Sketch, Vec<u8>)],
    items: &[ProbeItem<'_>],
    tracer: &mut Tracer,
    scratch: &Path,
    v: &mut Values,
) -> Result<(), String> {
    fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
        move |e| format!("{what}: {e}")
    }
    let (store, _) = Store::open(scratch.join("store")).map_err(io("store open"))?;
    let (journal, _) = Journal::open(scratch.join("journal")).map_err(io("journal open"))?;
    let (mut put_s, mut get_s, mut append_s) = (0.0, 0.0, 0.0);
    for (i, (_, bytes)) in sketches.iter().enumerate() {
        let op = i as u64;
        let (put, t) = timed(tracer, "store.put", op, || store.put(bytes));
        let (digest, _) = put.map_err(io("store put"))?;
        put_s += t;
        let (got, t) = timed(tracer, "store.get", op, || store.get(&digest));
        if got.map_err(io("store get"))?.as_deref() != Some(bytes.as_slice()) {
            return Err("store returned different bytes".into());
        }
        get_s += t;
        let record = Record::Submit {
            job: op,
            bug: items[i].program.name(),
            sketch: digest,
        };
        let (appended, t) = timed(tracer, "journal.append", op, || journal.append(&record));
        appended.map_err(io("journal append"))?;
        append_s += t;
    }
    let n = sketches.len() as f64;
    v.set("svc.store.put_ms", ratio(put_s * 1e3, n));
    v.set("svc.store.get_ms", ratio(get_s * 1e3, n));
    v.set("svc.journal.append_ms", ratio(append_s * 1e3, n));
    Ok(())
}
