//! Operation lists, generated from the workload seed.
//!
//! The program under test only ever receives what these functions
//! produce: production seeds, mechanisms, ring budgets and the sketches
//! recorded from them. The same seed yields the same list, byte for byte.
//!
//! For `diagnose` and `service` the recordings are the same for every seed
//! (the first failing seeds of each bug, each mechanism, a fixed share
//! under the window ring); the seed decides their order and which
//! sketches are re-submitted. Attempts per input range from 1 to ~30 and a
//! rotated ring changes the work, so a seed-drawn set of recordings would
//! move mean attempts and tail latency by more than any bound worth gating
//! on (see NOTES.md). For `record` the seed draws every production seed.

use pres_apps::registry::{all_apps, all_bugs, WorkloadScale};
use pres_core::codec;
use pres_core::program::Program;
use pres_core::recorder::{self, RecordedRun, RingConfig};
use pres_core::sketch::Mechanism;
use pres_tvm::prelude::*;
use pres_tvm::rng::ChaCha8Rng;
use std::hash::{DefaultHasher, Hash, Hasher};

/// The sparse mechanisms the paper deploys in production.
pub const SPARSE: [Mechanism; 4] = [
    Mechanism::Sys,
    Mechanism::Sync,
    Mechanism::Func,
    Mechanism::BbN(4),
];

/// Failing production runs per bug in a `diagnose` list.
pub const DIAGNOSE_RUNS_PER_BUG: usize = 3;

/// One `service` arrival in this many re-submits an earlier sketch.
pub const DEDUP_EVERY: usize = 5;

/// `record` production seeds are drawn below this.
const SEED_SPACE: u64 = 1 << 32;

/// Native runs tried per bug before the failing-seed search gives up.
const SEARCH_CAP: u64 = 20_000;

/// The bounded always-on ring: two epochs of 64 entries.
pub fn window_ring() -> RingConfig {
    RingConfig {
        epoch_entries: 64,
        epoch_cost: 0,
        ring_epochs: 2,
    }
}

/// A stable 64-bit digest of `t`, for comparing set-ups of one seed.
pub fn digest<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

fn rng(seed: u64, salt: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ salt)
}

fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// One production run to record from a corpus bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BugRun {
    /// Index into `all_bugs()`.
    pub bug: usize,
    /// Failing production seed.
    pub seed: u64,
    /// Sketching mechanism.
    pub mechanism: Mechanism,
    /// Recorded under [`window_ring`] instead of classically.
    pub ring: bool,
}

/// One production run to record from a bug-free application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppRun {
    /// Index into `all_apps()`.
    pub app: usize,
    /// Production seed.
    pub seed: u64,
    /// Sketching mechanism.
    pub mechanism: Mechanism,
    /// Recorded under [`window_ring`] (else under the default ring).
    pub window: bool,
}

/// One `service` arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arrival {
    /// The next unsubmitted sketch of the fresh pool.
    Fresh(usize),
    /// Re-submits the fresh sketch with this index (already submitted).
    Resubmit(usize),
}

/// The `diagnose` list: every bug × its failing seeds × every sparse
/// mechanism, a fixed third of them under the window ring, in seeded order.
pub fn diagnose_plan(seed: u64, failing: &[Vec<u64>]) -> Vec<BugRun> {
    let mut out = Vec::new();
    for (bug, seeds) in failing.iter().enumerate() {
        for (k, &s) in seeds.iter().enumerate() {
            for (m, &mechanism) in SPARSE.iter().enumerate() {
                out.push(BugRun {
                    bug,
                    seed: s,
                    mechanism,
                    ring: (bug + k + m) % 3 == 0,
                });
            }
        }
    }
    shuffle(&mut out, &mut rng(seed, 0xd1a6));
    out
}

/// Failing runs per bug in a `service` pool offering `arrivals`: each
/// failing run yields one sketch per sparse mechanism and ring mode, and
/// one arrival in [`DEDUP_EVERY`] re-submits.
pub fn service_runs_per_bug(arrivals: f64, bugs: usize) -> usize {
    let fresh = arrivals * (DEDUP_EVERY - 1) as f64 / DEDUP_EVERY as f64;
    ((fresh / (bugs * SPARSE.len() * 2) as f64).round() as usize).max(1)
}

/// The `service` fresh pool: every bug × failing seed × sparse mechanism
/// × ring mode, in shuffled order.
pub fn service_plan(seed: u64, failing: &[Vec<u64>]) -> Vec<BugRun> {
    let mut r = rng(seed, 0x5e7c);
    let mut out = Vec::new();
    for (bug, seeds) in failing.iter().enumerate() {
        for &s in seeds {
            for &mechanism in &SPARSE {
                for ring in [false, true] {
                    out.push(BugRun {
                        bug,
                        seed: s,
                        mechanism,
                        ring,
                    });
                }
            }
        }
    }
    shuffle(&mut out, &mut r);
    out
}

/// Arrivals submitting each of `fresh` sketches once, in order, with every
/// [`DEDUP_EVERY`]-th arrival re-submitting a seed-chosen earlier one; the
/// last group is completed, so the re-submit share is exact.
pub fn arrivals(seed: u64, fresh: usize) -> Vec<Arrival> {
    let mut r = rng(seed, 0xa771);
    let mut out = Vec::with_capacity(fresh + fresh / (DEDUP_EVERY - 1));
    let mut submitted = 0;
    while submitted < fresh || out.len() % DEDUP_EVERY != 0 {
        if out.len() % DEDUP_EVERY == DEDUP_EVERY - 1 || submitted == fresh {
            out.push(Arrival::Resubmit(r.gen_range(0..submitted)));
        } else {
            out.push(Arrival::Fresh(submitted));
            submitted += 1;
        }
    }
    out
}

/// The `record` list: every application × mechanism, half under the
/// default ring and half under the window ring, shuffled.
pub fn record_plan(seed: u64, apps: usize) -> Vec<AppRun> {
    let mut r = rng(seed, 0x7ec0);
    let mut out = Vec::new();
    for app in 0..apps {
        for mechanism in Mechanism::all() {
            for window in [false, true] {
                out.push(AppRun {
                    app,
                    seed: r.gen_range(0..SEED_SPACE),
                    mechanism,
                    window,
                });
            }
        }
    }
    shuffle(&mut out, &mut r);
    out
}

/// One native (unrecorded) run on the pool.
pub fn run_native(program: &dyn Program, seed: u64, pool: &VthreadPool) -> RunOutcome {
    let cfg = VmConfig {
        trace_mode: TraceMode::Off,
        world: program.world(),
        ..VmConfig::default()
    };
    let body = program.root();
    run_with_pool(
        cfg,
        program.resources(),
        &mut RandomScheduler::new(seed),
        &mut NullObserver,
        pool,
        move |ctx| body(ctx),
    )
}

/// The first `count` failing production seeds of each bug.
pub fn find_failing(
    programs: &[Box<dyn Program>],
    count: usize,
    pool: &VthreadPool,
) -> Result<Vec<Vec<u64>>, String> {
    programs
        .iter()
        .map(|program| {
            let mut found = Vec::with_capacity(count);
            for s in 0..SEARCH_CAP {
                if found.len() == count {
                    break;
                }
                if run_native(program.as_ref(), s, pool).status.is_failed() {
                    found.push(s);
                }
            }
            if found.len() < count {
                return Err(format!(
                    "{}: {} of {count} failing seeds in {SEARCH_CAP} runs",
                    program.name(),
                    found.len()
                ));
            }
            Ok(found)
        })
        .collect()
}

/// The 13 corpus bugs, instantiated once.
pub fn bug_programs() -> (Vec<&'static str>, Vec<Box<dyn Program>>) {
    all_bugs().into_iter().map(|b| (b.id, b.program())).unzip()
}

/// The 11 bug-free applications at the standard scale.
pub fn app_programs() -> Vec<Box<dyn Program>> {
    all_apps()
        .into_iter()
        .map(|a| a.workload(WorkloadScale::Standard))
        .collect()
}

/// A recorded failing production run, ready to be diagnosed.
pub struct Input {
    /// What was recorded.
    pub run: BugRun,
    /// The recording (sketch plus native and recorded outcomes).
    pub recorded: RecordedRun,
    /// The encoded sketch: the bytes the program is handed.
    pub bytes: Vec<u8>,
}

/// Records one failing production run and checks that its sketch
/// survives the codec.
pub fn record_bug_run(
    run: BugRun,
    programs: &[Box<dyn Program>],
    pool: &VthreadPool,
) -> Result<Input, String> {
    let program = programs[run.bug].as_ref();
    let cfg = VmConfig::default();
    let recorded = if run.ring {
        recorder::record_ring_pooled(program, run.mechanism, window_ring(), &cfg, run.seed, pool)
    } else {
        recorder::record_pooled(program, run.mechanism, &cfg, run.seed, pool)
    };
    if !recorded.failed() {
        return Err(format!(
            "{} seed {}: recorded run did not fail",
            program.name(),
            run.seed
        ));
    }
    let bytes = codec::encode_sketch(&recorded.sketch);
    match codec::decode_sketch(&bytes) {
        Ok(back) if back == recorded.sketch => {}
        Ok(_) => {
            return Err(format!(
                "{}: decode(encode(sketch)) != sketch",
                program.name()
            ))
        }
        Err(e) => return Err(format!("{}: decode: {e}", program.name())),
    }
    Ok(Input {
        run,
        recorded,
        bytes,
    })
}

/// Exact totals over recorded inputs: the paper's recording overhead and
/// the sketch bytes per 1000 VM operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordTotals {
    /// Summed native makespans (virtual time).
    pub native_makespan: u64,
    /// Summed recorded makespans.
    pub recorded_makespan: u64,
    /// Summed encoded sketch bytes.
    pub bytes: u64,
    /// Summed VM operations.
    pub ops: u64,
    /// Summed sketch entries.
    pub entries: u64,
    /// Summed scheduler picks.
    pub picks: u64,
}

impl RecordTotals {
    /// Adds one recording.
    pub fn add(&mut self, run: &RecordedRun, encoded: usize) {
        self.native_makespan += run.native.time.makespan;
        self.recorded_makespan += run.outcome.time.makespan;
        self.bytes += encoded as u64;
        self.ops += run.sketch.meta.total_ops;
        self.entries += run.sketch.entries.len() as u64;
        self.picks += run.outcome.schedule.len() as u64;
    }

    /// Virtual-time recording overhead, percent.
    pub fn overhead_pct(&self) -> f64 {
        (self.recorded_makespan as f64 / self.native_makespan as f64 - 1.0) * 100.0
    }

    /// Encoded bytes per 1000 VM operations.
    pub fn bytes_per_kop(&self) -> f64 {
        self.bytes as f64 * 1000.0 / self.ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_failing(per_bug: usize) -> Vec<Vec<u64>> {
        (0..13u64)
            .map(|b| (0..per_bug as u64).map(|k| b * 100 + k * 7).collect())
            .collect()
    }

    #[test]
    fn plans_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(record_plan(1, 11), record_plan(1, 11));
        assert_ne!(record_plan(1, 11), record_plan(2, 11));
        let f = fake_failing(DIAGNOSE_RUNS_PER_BUG);
        assert_eq!(diagnose_plan(1, &f), diagnose_plan(1, &f));
        assert_ne!(diagnose_plan(1, &f), diagnose_plan(2, &f));
        assert_eq!(service_plan(1, &f), service_plan(1, &f));
        assert_ne!(service_plan(1, &f), service_plan(2, &f));
        assert_eq!(arrivals(1, 400), arrivals(1, 400));
        assert_ne!(arrivals(1, 400), arrivals(2, 400));
    }

    #[test]
    fn record_plan_covers_every_cell_once() {
        let plan = record_plan(3, 11);
        assert_eq!(plan.len(), 11 * 6 * 2);
        assert_eq!(plan.iter().filter(|r| r.window).count(), 66);
        for app in 0..11 {
            for m in Mechanism::all() {
                assert_eq!(
                    plan.iter()
                        .filter(|r| r.app == app && r.mechanism == m)
                        .count(),
                    2
                );
            }
        }
    }

    #[test]
    fn diagnose_plan_is_stratified_with_a_third_under_the_ring() {
        let f = fake_failing(DIAGNOSE_RUNS_PER_BUG);
        let plan = diagnose_plan(5, &f);
        assert_eq!(plan.len(), 13 * DIAGNOSE_RUNS_PER_BUG * SPARSE.len());
        assert_eq!(plan.iter().filter(|r| r.ring).count(), plan.len() / 3);
        for bug in 0..13 {
            assert_eq!(plan.iter().filter(|r| r.bug == bug).count(), 12);
            assert_eq!(plan.iter().filter(|r| r.bug == bug && r.ring).count(), 4);
        }
    }

    #[test]
    fn service_pool_is_distinct_and_arrivals_hit_the_designed_dedup_share() {
        let per_bug = service_runs_per_bug(650.0, 13);
        assert_eq!(per_bug, 5);
        let f = fake_failing(per_bug);
        let pool = service_plan(9, &f);
        assert_eq!(pool.len(), 13 * per_bug * 8);
        let mut uniq = pool.clone();
        uniq.sort_by_key(|r| (r.bug, r.seed, r.mechanism, r.ring));
        uniq.dedup();
        assert_eq!(uniq.len(), pool.len());

        let a = arrivals(9, pool.len());
        let resubmits = a
            .iter()
            .filter(|x| matches!(x, Arrival::Resubmit(_)))
            .count();
        assert_eq!(a.len(), 650);
        assert_eq!(resubmits * DEDUP_EVERY, a.len());
        let mut submitted = 0;
        for x in a {
            match x {
                Arrival::Fresh(i) => {
                    assert_eq!(i, submitted);
                    submitted += 1;
                }
                Arrival::Resubmit(i) => assert!(i < submitted),
            }
        }
        assert_eq!(submitted, pool.len());
    }
}
