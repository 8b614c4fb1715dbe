//! `diagnose`: the reading side, closed loop, one thread, in process.
//!
//! Each operation takes one recorded failing production run's encoded
//! sketch through decode, index, feedback-guided exploration (one worker),
//! certificate encode/decode and a replay to the target failure.

use crate::inputs::{self, Input};
use crate::run::Measured;
use crate::trace::{SpanId, Tracer};
use pres_core::certificate::Certificate;
use pres_core::codec;
use pres_core::explore::{self, ExploreConfig};
use pres_core::oracle::StatusOracle;
use pres_core::program::Program;
use pres_core::sketch::SketchIndex;
use pres_tvm::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Recorded inputs and the warm executor they run on.
pub struct Setup {
    /// Bug ids, indexed like `programs`.
    pub names: Vec<&'static str>,
    /// The corpus programs.
    pub programs: Vec<Box<dyn Program>>,
    /// The operation list.
    pub inputs: Vec<Input>,
    /// One pool serves every VM run of the process.
    pub pool: VthreadPool,
}

/// Finds failing production runs and records them.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let (names, programs) = inputs::bug_programs();
    let pool = VthreadPool::new(8);
    let failing = inputs::find_failing(&programs, inputs::DIAGNOSE_RUNS_PER_BUG, &pool)?;
    let inputs = inputs::diagnose_plan(seed, &failing)
        .into_iter()
        .map(|run| inputs::record_bug_run(run, &programs, &pool))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        names,
        programs,
        inputs,
        pool,
    })
}

/// What must be identical between two set-ups of one seed.
pub fn fingerprint(s: &Setup) -> u64 {
    inputs::digest(&s.inputs.iter().map(|i| &i.bytes).collect::<Vec<_>>())
}

struct OpResult {
    attempts: u64,
    cert_picks: u64,
    ack: Instant,
}

fn one(s: &Setup, input: &Input, op: u64, tracer: &mut Tracer) -> Result<OpResult, String> {
    let root = tracer.begin("diagnose.op", op, None);
    let result = steps(s, input, op, root, tracer);
    tracer.end(root);
    result
}

fn steps(
    s: &Setup,
    input: &Input,
    op: u64,
    root: SpanId,
    tracer: &mut Tracer,
) -> Result<OpResult, String> {
    let program = s.programs[input.run.bug].as_ref();
    let span = tracer.begin("codec.decode", op, root);
    let sketch = codec::decode_sketch(&input.bytes).map_err(|e| format!("decode: {e}"))?;
    tracer.end(span);
    let span = tracer.begin("sketch.index", op, root);
    let index = Arc::new(SketchIndex::new(&sketch));
    tracer.end(span);
    let target = &sketch.meta.failure_signature;
    let span = tracer.begin("explore.reproduce", op, root);
    let rep = explore::reproduce_with_index(
        program,
        &index,
        &StatusOracle::new(target),
        &VmConfig::default(),
        &ExploreConfig::default(),
        Some(&s.pool),
    );
    tracer.end(span);
    let ack = Instant::now();
    if let Some(cp) = rep.checkpoint.as_ref().filter(|c| !c.verified) {
        return Err(format!("checkpoint not verified: {:?}", cp.detail));
    }
    let cert = rep
        .certificate
        .ok_or_else(|| format!("not reproduced in {} attempts", rep.attempts))?;
    let span = tracer.begin("certificate.encode", op, root);
    let bytes = cert.encode();
    tracer.end(span);
    let span = tracer.begin("certificate.decode", op, root);
    let back = Certificate::decode(&bytes).map_err(|e| format!("certificate decode: {e}"))?;
    tracer.end(span);
    if back != cert {
        return Err("certificate changed across encode/decode".into());
    }
    if back.expected_signature != *target {
        return Err(format!(
            "certificate promises '{}', production failed with '{target}'",
            back.expected_signature
        ));
    }
    let span = tracer.begin("certificate.replay", op, root);
    let replayed = back.replay(program);
    tracer.end(span);
    replayed.map_err(|e| format!("replay: {e}"))?;
    Ok(OpResult {
        attempts: u64::from(rep.attempts),
        cert_picks: back.schedule.len() as u64,
        ack,
    })
}

/// Measures whole passes over the operation list (see
/// [`Measured::closed_loop`]).
pub fn measure(s: &Setup, seconds: f64, tracer: &mut Tracer) -> Result<Measured, String> {
    let mut m = Measured::default();
    for input in &s.inputs {
        m.record.add(&input.recorded, input.bytes.len());
    }
    let (attempts, certs, picks) = m.closed_loop(
        s.inputs.len(),
        seconds,
        |i, op, (attempts, certs, picks): &mut (u64, u64, u64)| {
            let r = one(s, &s.inputs[i], op, tracer)?;
            *attempts += r.attempts;
            *certs += 1;
            *picks += r.cert_picks;
            Ok(r.ack)
        },
        |i| {
            let run = &s.inputs[i].run;
            let mechanism = run.mechanism.name();
            format!(
                "{} seed {} {mechanism} ring={}",
                s.names[run.bug], run.seed, run.ring
            )
        },
    )?;
    m.attempts = attempts;
    m.certs = certs;
    m.exact = vec![
        ("attempts_per_pass", attempts),
        ("certs_per_pass", certs),
        ("cert_picks_per_pass", picks),
        ("input_entries", m.record.entries),
        ("input_picks", m.record.picks),
        ("input_bytes", m.record.bytes),
        ("input_native_makespan", m.record.native_makespan),
        ("input_recorded_makespan", m.record.recorded_makespan),
    ];
    Ok(m)
}
