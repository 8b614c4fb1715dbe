//! `record`: the writing side, closed loop, one thread, in process.
//!
//! Each operation records one production run of a bug-free application
//! under an always-on ring and encodes the flushed window; the sketch must
//! survive a decode unchanged.

use crate::inputs::{self, AppRun, RecordTotals};
use crate::run::Measured;
use crate::trace::Tracer;
use pres_core::codec;
use pres_core::program::Program;
use pres_core::recorder::{self, RecordedRun, RingConfig};
use pres_tvm::prelude::*;
use std::time::Instant;

/// The applications, the operation list and the warm executor.
pub struct Setup {
    /// The bug-free applications.
    pub programs: Vec<Box<dyn Program>>,
    /// The operation list.
    pub plan: Vec<AppRun>,
    /// Digest of each operation's native schedule, from the set-up's own
    /// native run: recording must reproduce it.
    pub native: Vec<u64>,
    /// One pool serves every VM run of the process.
    pub pool: VthreadPool,
}

/// The ring an operation records under.
pub fn ring_of(run: &AppRun) -> RingConfig {
    if run.window {
        inputs::window_ring()
    } else {
        RingConfig::default()
    }
}

/// Instantiates the applications and runs every operation's production
/// run once natively, which also grows the pool to its working width.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let programs = inputs::app_programs();
    let pool = VthreadPool::new(8);
    let plan = inputs::record_plan(seed, programs.len());
    let native = plan
        .iter()
        .map(|r| {
            inputs::digest(&inputs::run_native(programs[r.app].as_ref(), r.seed, &pool).schedule)
        })
        .collect();
    Ok(Setup {
        programs,
        plan,
        native,
        pool,
    })
}

/// What must be identical between two set-ups of one seed.
pub fn fingerprint(s: &Setup) -> u64 {
    inputs::digest(&(&s.plan, &s.native))
}

fn one(
    s: &Setup,
    run: &AppRun,
    native: u64,
    op: u64,
    tracer: &mut Tracer,
) -> Result<(RecordedRun, usize, Instant), String> {
    let program = s.programs[run.app].as_ref();
    let root = tracer.begin("record.op", op, None);
    let span = tracer.begin("recorder.record_ring", op, root);
    let recorded = recorder::record_ring_pooled(
        program,
        run.mechanism,
        ring_of(run),
        &VmConfig::default(),
        run.seed,
        &s.pool,
    );
    tracer.end(span);
    let ack = Instant::now();
    let span = tracer.begin("codec.encode", op, root);
    let bytes = codec::encode_sketch(&recorded.sketch);
    tracer.end(span);
    let span = tracer.begin("codec.decode", op, root);
    let back = codec::decode_sketch(&bytes);
    tracer.end(span);
    tracer.end(root);
    if recorded.failed() {
        return Err(format!("bug-free run failed: {}", recorded.outcome.status));
    }
    if recorded.outcome.schedule != recorded.native.schedule {
        return Err("recording changed the schedule".into());
    }
    if inputs::digest(&recorded.native.schedule) != native {
        return Err("native run differs from the set-up's run of the same seed".into());
    }
    match back {
        Ok(back) if back == recorded.sketch => Ok((recorded, bytes.len(), ack)),
        Ok(_) => Err("decode(encode(sketch)) != sketch".into()),
        Err(e) => Err(format!("decode: {e}")),
    }
}

/// Measures whole passes over the operation list (see
/// [`Measured::closed_loop`]); every pass must record the same totals.
pub fn measure(s: &Setup, seconds: f64, tracer: &mut Tracer) -> Result<Measured, String> {
    let mut m = Measured::default();
    m.record = m.closed_loop(
        s.plan.len(),
        seconds,
        |i, op, totals: &mut RecordTotals| {
            let (recorded, encoded, ack) = one(s, &s.plan[i], s.native[i], op, tracer)?;
            totals.add(&recorded, encoded);
            Ok(ack)
        },
        |i| {
            let run = &s.plan[i];
            let mechanism = run.mechanism.name();
            let program = s.programs[run.app].name();
            format!(
                "{program} seed {} {mechanism} window={}",
                run.seed, run.window
            )
        },
    )?;
    // One recording run per flushed sketch; no certificates are minted.
    m.attempts = m.verified();
    m.certs = m.verified();
    m.exact = vec![
        ("entries_per_pass", m.record.entries),
        ("picks_per_pass", m.record.picks),
        ("ops_per_pass", m.record.ops),
        ("flush_bytes_per_pass", m.record.bytes),
        ("native_makespan_per_pass", m.record.native_makespan),
        ("recorded_makespan_per_pass", m.record.recorded_makespan),
    ];
    Ok(m)
}
