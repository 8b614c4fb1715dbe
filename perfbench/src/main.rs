//! The PRES end-to-end benchmark.
//!
//! ```text
//! perfbench --workload diagnose|record|service --seed N --seconds S --trace 0|1
//!           --pres PATH --out DIR
//! ```
//!
//! With `--trace 0` it sets up the workload several times (the median is
//! `setup_s`), measures whole passes of its seeded operation list for `S`
//! seconds, checks every output, and prints the end-to-end metrics. With
//! `--trace 1` it measures an untraced and a traced half-length pass, then
//! probes each layer over the workload's inputs, and prints the per-layer
//! metrics and the tracing overhead. Spans go to `DIR`. The last line of
//! standard output is the result; the lines before it give the host, the
//! exact counters and every failed operation. `run.py` builds and drives
//! this binary; see NOTES.md.

mod diagnose;
mod host;
mod inputs;
mod layers;
mod metrics;
mod record;
mod run;
mod service;
mod stats;
mod trace;

use inputs::BugRun;
use layers::ProbeItem;
use metrics::{Values, END_TO_END, OVERHEAD_PREFIX};
use pres_core::program::Program;
use pres_core::sketch::{Mechanism, Sketch};
use pres_tvm::pool::VthreadPool;
use run::Measured;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pres: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut pres, mut out) =
        (None, None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--pres" => pres = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        pres: pres.ok_or("--pres is required")?,
        out: out.ok_or("--out is required")?,
    })
}

/// Everything one measured run of a workload produced.
struct Outcome {
    setup_s: f64,
    measured: Measured,
    probes: Option<Values>,
    context: Vec<(&'static str, String)>,
}

/// Sets up [`SETUPS`] times, timing each and requiring identical inputs
/// every time; keeps the last set-up.
fn set_up<S>(
    mut make: impl FnMut(usize) -> Result<S, String>,
    fingerprint: impl Fn(&S) -> u64,
) -> Result<(f64, S), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<(u64, S)> = None;
    for k in 0..SETUPS {
        let previous = kept.take().map(|(fp, _)| fp);
        let t0 = Instant::now();
        let s = make(k)?;
        times.push(t0.elapsed().as_secs_f64());
        let fp = fingerprint(&s);
        if previous.is_some_and(|p| p != fp) {
            return Err(format!(
                "determinism tripwire: set-up {k} generated different inputs from set-up {}",
                k - 1
            ));
        }
        kept = Some((fp, s));
    }
    let (_, s) = kept.expect("at least one set-up");
    Ok((stats::median(&times).expect("set-up times"), s))
}

/// Runs a workload and notes the host's CPU steal share over the run.
fn run_workload(
    args: &Args,
    seconds: f64,
    tracer: &mut Tracer,
    probe: bool,
) -> Result<Outcome, String> {
    let (steal0, total0) = host::steal_ticks()?;
    let mut o = run_workload_inner(args, seconds, tracer, probe)?;
    let (steal1, total1) = host::steal_ticks()?;
    let share = stats::ratio((steal1 - steal0) as f64, (total1 - total0) as f64);
    o.context.push(("steal_share", format!("{share:.4}")));
    Ok(o)
}

fn run_workload_inner(
    args: &Args,
    seconds: f64,
    tracer: &mut Tracer,
    probe: bool,
) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "diagnose" => {
            let (setup_s, s) = set_up(|_| diagnose::setup(args.seed), diagnose::fingerprint)?;
            let measured = diagnose::measure(&s, seconds, tracer)?;
            let runs: Vec<BugRun> = s.inputs.iter().map(|i| i.run).collect();
            let probes = probe
                .then(|| probe_bug_runs(args, &s.programs, &runs, &s.pool, tracer, true))
                .transpose()?;
            Ok(Outcome {
                setup_s,
                measured,
                probes,
                context: Vec::new(),
            })
        }
        "record" => {
            let (setup_s, s) = set_up(|_| record::setup(args.seed), record::fingerprint)?;
            let measured = record::measure(&s, seconds, tracer)?;
            let probes = probe
                .then(|| -> Result<Values, String> {
                    let items: Vec<ProbeItem> = s
                        .plan
                        .iter()
                        .take(layers::SAMPLE)
                        .map(|r| ProbeItem {
                            program: s.programs[r.app].as_ref(),
                            mechanism: r.mechanism,
                            ring: Some(record::ring_of(r)),
                            seed: r.seed,
                        })
                        .collect();
                    let mut v = layers::probe(&items, &s.pool, tracer, &scratch(args))?;
                    // Bug-free runs have nothing to reproduce: the
                    // reproduction and service layers are probed on the
                    // first failing run of each corpus bug.
                    v.merge(&probe_failing(
                        args,
                        &corpus_runs(&s.pool)?,
                        &s.pool,
                        tracer,
                        true,
                    )?);
                    Ok(v)
                })
                .transpose()?;
            Ok(Outcome {
                setup_s,
                measured,
                probes,
                context: Vec::new(),
            })
        }
        "service" => {
            let dir = |k: usize| args.out.join(format!("svc-{}-{k}", std::process::id()));
            let (setup_s, mut s) = set_up(
                |k| service::setup(args.seed, seconds, &args.pres, dir(k)),
                service::fingerprint,
            )?;
            let mut measured = service::measure(&s, tracer)?;
            let mut windows = 1;
            while !measured.settled() && windows <= service::RETRIES {
                s.restart(&args.pres, dir(SETUPS + windows))?;
                measured = service::measure(&s, tracer)?;
                windows += 1;
            }
            let mut context = service::context(&measured);
            context.push(("windows", windows.to_string()));
            let runs: Vec<BugRun> = s.inputs.iter().map(|i| i.run).collect();
            // The window itself measured the service layers.
            let probes = probe
                .then(|| probe_bug_runs(args, &s.programs, &runs, &s.pool, tracer, false))
                .transpose()?;
            Ok(Outcome {
                setup_s,
                measured,
                probes,
                context,
            })
        }
        other => Err(format!(
            "unknown workload '{other}' (diagnose, record, service)"
        )),
    }
}

/// Scratch directory of the in-process store and journal probes.
fn scratch(args: &Args) -> PathBuf {
    args.out.join(format!("probe-{}", std::process::id()))
}

/// The first failing production run of every corpus bug, under SYNC.
fn corpus_runs(pool: &VthreadPool) -> Result<Vec<BugRun>, String> {
    let (_, programs) = inputs::bug_programs();
    Ok(inputs::find_failing(&programs, 1, pool)?
        .into_iter()
        .enumerate()
        .map(|(bug, seeds)| BugRun {
            bug,
            seed: seeds[0],
            mechanism: Mechanism::Sync,
            ring: false,
        })
        .collect())
}

/// Every layer probe over the first [`layers::SAMPLE`] of a workload's
/// failing runs; `service_layers` adds the daemon probe.
fn probe_bug_runs(
    args: &Args,
    programs: &[Box<dyn Program>],
    runs: &[BugRun],
    pool: &VthreadPool,
    tracer: &mut Tracer,
    service_layers: bool,
) -> Result<Values, String> {
    let runs = &runs[..runs.len().min(layers::SAMPLE)];
    let items: Vec<ProbeItem> = runs
        .iter()
        .map(|run| ProbeItem {
            program: programs[run.bug].as_ref(),
            mechanism: run.mechanism,
            ring: run.ring.then(inputs::window_ring),
            seed: run.seed,
        })
        .collect();
    let mut v = layers::probe(&items, pool, tracer, &scratch(args))?;
    v.merge(&probe_failing(args, runs, pool, tracer, service_layers)?);
    Ok(v)
}

/// Records `runs` afresh, probes reproduction and certificates over them
/// and, with `service_layers`, offers them to a fresh daemon.
fn probe_failing(
    args: &Args,
    runs: &[BugRun],
    pool: &VthreadPool,
    tracer: &mut Tracer,
    service_layers: bool,
) -> Result<Values, String> {
    let (names, programs) = inputs::bug_programs();
    let recorded = runs
        .iter()
        .map(|run| inputs::record_bug_run(*run, &programs, pool))
        .collect::<Result<Vec<_>, _>>()?;
    let cases: Vec<(&dyn Program, &Sketch)> = recorded
        .iter()
        .map(|i| (programs[i.run.bug].as_ref(), &i.recorded.sketch))
        .collect();
    let mut v = layers::probe_reproduction(&cases, pool, tracer)?;
    if service_layers {
        let dir = args.out.join(format!("svc-probe-{}", std::process::id()));
        let svc = service::probe(
            args.seed, names, programs, recorded, &args.pres, dir, tracer,
        )?;
        v.merge(&svc);
    }
    Ok(v)
}

fn end_to_end(o: &Outcome) -> Values {
    let mut v = o.measured.end_to_end();
    v.set("setup_s", o.setup_s);
    v
}

/// Prints the lines that precede the result: host context, exact
/// counters, failures.
fn report(args: &Args, o: &Outcome) {
    let mut ctx = vec![
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    ctx.extend(o.context.iter().cloned());
    ctx.push(("blocks", o.measured.blocks.len().to_string()));
    ctx.push(("clean_blocks", o.measured.clean_blocks().to_string()));
    println!("context {}", host::context_json(&ctx));
    let exact: Vec<String> = o
        .measured
        .exact
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("exact {{{}}}", exact.join(", "));
    for f in &o.measured.failures {
        println!("failure {f}");
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    if !args.trace {
        let o = run_workload(&args, args.seconds, &mut Tracer::new(false), false)?;
        report(&args, &o);
        let names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        let m = &o.measured;
        let line = metrics::result_line(
            m.failures.is_empty(),
            m.ops.len() as u64,
            m.ops.len() as u64 - m.verified(),
            &names,
            &end_to_end(&o),
        )?;
        println!("{line}");
        return Ok(());
    }

    let half = args.seconds / 2.0;
    let plain = run_workload(&args, half, &mut Tracer::new(false), false)?;
    let mut tracer = Tracer::new(true);
    let traced = run_workload(&args, half, &mut tracer, true)?;
    report(&args, &traced);
    for f in &plain.measured.failures {
        println!("failure (untraced pass) {f}");
    }

    let mut v = Values::default();
    v.merge(&traced.measured.layers);
    v.merge(traced.probes.as_ref().expect("traced run probes"));
    let (base, with) = (end_to_end(&plain), end_to_end(&traced));
    for (name, _) in END_TO_END {
        let (b, w) = (base.get(name).unwrap_or(0.0), with.get(name).unwrap_or(0.0));
        v.set(
            &format!("{OVERHEAD_PREFIX}{name}"),
            stats::ratio((w - b) * 100.0, b),
        );
    }

    let spans = args
        .out
        .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    fs::write(&spans, tracer.to_tsv()).map_err(|e| format!("{}: {e}", spans.display()))?;
    for (name, t) in tracer.totals() {
        println!(
            "span {name} count={} total_ms={:.3} self_ms={:.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }

    let ops = (plain.measured.ops.len() + traced.measured.ops.len()) as u64;
    let verified = plain.measured.verified() + traced.measured.verified();
    let correct = plain.measured.failures.is_empty() && traced.measured.failures.is_empty();
    let line = metrics::result_line(
        correct,
        ops,
        ops - verified,
        &metrics::per_layer_names(),
        &v,
    )?;
    println!("{line}");
    Ok(())
}
