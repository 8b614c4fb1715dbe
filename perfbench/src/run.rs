//! What one measured run of a workload yields, and the end-to-end metrics
//! computed from it.
//!
//! A run is cut into blocks: one pass over the operation list for the
//! closed loops, a time slice of the arrivals for `service`. A closed loop
//! reports the median block, so a host stall that slows one pass does not
//! move the result; `service` pools its slices, whose work differs.
//! Blocks measured while the hypervisor gave this machine's CPUs to
//! someone else (CPU steal) are set aside when enough undisturbed ones
//! exist; a closed loop runs extra passes, and `service` extra windows,
//! to collect them.

use crate::host;
use crate::inputs::RecordTotals;
use crate::metrics::Values;
use crate::stats::{median, percentile, ratio};
use std::fmt::Debug;
use std::ops::Range;
use std::time::Instant;

/// A block whose host-wide CPU steal share exceeds this is disturbed: at
/// 2–4 % steal, `service` latency already read ~20 % high, while calm
/// blocks stay under 0.6 %.
pub const STEAL_MAX: f64 = 0.02;

/// Undisturbed blocks a closed loop collects before it stops.
pub const MIN_CLEAN: usize = 5;

/// A closed loop short of [`MIN_CLEAN`] undisturbed passes keeps going up
/// to this many times its time, so that a host slowdown of up to half a
/// minute is waited out rather than measured.
pub const EXTEND: f64 = 4.0;

/// One operation's outcome and timings.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Whether every output check passed.
    pub ok: bool,
    /// Seconds from the operation's start (its due time, open loop) to the
    /// first answer: the durable ACK for `service`, the returned result
    /// for the in-process workloads.
    pub ack_s: f64,
    /// Seconds from the operation's start (its due time) to its verified
    /// result.
    pub latency_s: f64,
}

/// A contiguous share of a run's operations.
#[derive(Debug, Clone)]
pub struct Block {
    /// Indices into [`Measured::ops`].
    pub ops: Range<usize>,
    /// Wall seconds the block took.
    pub wall_s: f64,
    /// CPU seconds (user + system, all threads) the working process
    /// spent in the block: this one, or the daemon child.
    pub cpu_s: f64,
    /// Host-wide share of CPU time stolen by the hypervisor meanwhile.
    pub steal: f64,
}

/// Readings at the start of a block.
pub struct BlockStart {
    op: usize,
    at: Instant,
    cpu: f64,
    steal: (u64, u64),
}

impl BlockStart {
    /// Starts a block at operation `op`; `pid` is the working process
    /// (`None` = this one).
    pub fn now(op: usize, pid: Option<u32>) -> Result<Self, String> {
        Ok(BlockStart {
            op,
            at: Instant::now(),
            cpu: host::cpu_seconds(pid)?,
            steal: host::steal_ticks()?,
        })
    }

    /// The block from this reading to a later one, which starts the next
    /// block.
    pub fn until(&self, next: &BlockStart) -> Block {
        Block {
            ops: self.op..next.op,
            wall_s: (next.at - self.at).as_secs_f64(),
            cpu_s: next.cpu - self.cpu,
            steal: ratio(
                (next.steal.0 - self.steal.0) as f64,
                (next.steal.1 - self.steal.1) as f64,
            ),
        }
    }
}

/// How a run's blocks combine into its timing metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// The median of the per-block values: for blocks doing identical
    /// work (closed-loop passes).
    #[default]
    Median,
    /// One value over the pooled operations: for blocks doing different
    /// work (slices of an open loop).
    Pooled,
}

/// A measured run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every attempted operation, failed ones included.
    pub ops: Vec<OpSample>,
    /// The blocks the operations fall in, in order.
    pub blocks: Vec<Block>,
    /// How the blocks combine.
    pub combine: Combine,
    /// Peak RSS of the working process, MiB.
    pub peak_rss_mb: f64,
    /// Exploration attempts behind the minted certificates.
    pub attempts: u64,
    /// Certificates minted (for `record`, which mints none, the sketches
    /// flushed: one recording run each).
    pub certs: u64,
    /// Exact recording totals over the inputs.
    pub record: RecordTotals,
    /// Counters that must repeat exactly for a seed, by name.
    pub exact: Vec<(&'static str, u64)>,
    /// Failed operations, each with its input.
    pub failures: Vec<String>,
    /// Per-layer values the run itself measured.
    pub layers: Values,
}

impl Measured {
    /// Operations whose outputs all verified.
    pub fn verified(&self) -> u64 {
        self.ops.iter().filter(|o| o.ok).count() as u64
    }

    /// Blocks measured with no more than [`STEAL_MAX`] CPU steal.
    pub fn clean_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.steal <= STEAL_MAX).count()
    }

    /// Whether a closed loop started `elapsed` seconds ago has measured
    /// enough: its `seconds`, with [`MIN_CLEAN`] undisturbed passes or
    /// [`EXTEND`] times its `seconds` without.
    pub fn enough(&self, elapsed: f64, seconds: f64) -> bool {
        !self.blocks.is_empty()
            && elapsed >= seconds
            && (self.clean_blocks() >= MIN_CLEAN || elapsed >= EXTEND * seconds)
    }

    /// Whether enough blocks are undisturbed to compute the timing
    /// metrics from them alone: [`MIN_CLEAN`], or half of the blocks.
    pub fn settled(&self) -> bool {
        self.clean_blocks() >= MIN_CLEAN.min(self.blocks.len().div_ceil(2))
    }

    /// The blocks the timing metrics use: the undisturbed ones when there
    /// are [`MIN_CLEAN`] of them or they are at least half, else all.
    fn chosen(&self) -> Vec<&Block> {
        let clean = self.settled();
        self.blocks
            .iter()
            .filter(|b| !clean || b.steal <= STEAL_MAX)
            .collect()
    }

    /// `f(block, its operations)` over the chosen blocks, combined.
    fn per_block(&self, f: impl Fn(&Block, &[OpSample]) -> f64) -> f64 {
        let chosen = self.chosen();
        match self.combine {
            Combine::Median => {
                let xs: Vec<f64> = chosen
                    .iter()
                    .map(|b| f(b, &self.ops[b.ops.clone()]))
                    .collect();
                median(&xs).unwrap_or(0.0)
            }
            Combine::Pooled => {
                let ops: Vec<OpSample> = chosen
                    .iter()
                    .flat_map(|b| self.ops[b.ops.clone()].iter().cloned())
                    .collect();
                let pooled = Block {
                    ops: 0..ops.len(),
                    wall_s: chosen.iter().map(|b| b.wall_s).sum(),
                    cpu_s: chosen.iter().map(|b| b.cpu_s).sum(),
                    steal: 0.0,
                };
                f(&pooled, &ops)
            }
        }
    }

    /// Runs whole passes over `n` operations until [`Measured::enough`].
    /// `op(i, id, counters)` runs operation `i` (numbered `id` across
    /// passes), adds to the pass's exact counters, and returns when its
    /// first answer came; an error fails the operation and is listed after
    /// `describe(i)`. Every pass must repeat the first pass's counters,
    /// which are returned.
    pub fn closed_loop<C: Default + PartialEq + Debug>(
        &mut self,
        n: usize,
        seconds: f64,
        mut op: impl FnMut(usize, u64, &mut C) -> Result<Instant, String>,
        describe: impl Fn(usize) -> String,
    ) -> Result<C, String> {
        let start = Instant::now();
        let mut first: Option<C> = None;
        let mut pass = 0;
        while !self.enough(start.elapsed().as_secs_f64(), seconds) {
            let mut counters = C::default();
            let block = BlockStart::now(self.ops.len(), None)?;
            for i in 0..n {
                let t0 = Instant::now();
                let result = op(i, (pass * n + i) as u64, &mut counters);
                let latency_s = t0.elapsed().as_secs_f64();
                let ack_s = match result {
                    Ok(ack) => Some((ack - t0).as_secs_f64()),
                    Err(e) => {
                        self.failures.push(format!("{}: {e}", describe(i)));
                        None
                    }
                };
                self.ops.push(OpSample {
                    ok: ack_s.is_some(),
                    ack_s: ack_s.unwrap_or(latency_s),
                    latency_s,
                });
            }
            self.blocks
                .push(block.until(&BlockStart::now(self.ops.len(), None)?));
            match &first {
                None => first = Some(counters),
                Some(f) if *f != counters => {
                    return Err(format!(
                        "determinism tripwire: pass {pass} gave {counters:?}, pass 0 gave {f:?}"
                    ))
                }
                Some(_) => {}
            }
            pass += 1;
        }
        self.peak_rss_mb = host::peak_rss_mb(None)?;
        Ok(first.unwrap_or_default())
    }

    /// The end-to-end metrics of this run (all but `setup_s`).
    pub fn end_to_end(&self) -> Values {
        let ms = |ops: &[OpSample], f: fn(&OpSample) -> f64, p: f64| {
            let xs: Vec<f64> = ops.iter().map(|o| f(o) * 1e3).collect();
            percentile(&xs, p).unwrap_or(0.0)
        };
        let ok = |ops: &[OpSample]| ops.iter().filter(|o| o.ok).count() as f64;
        let mut v = Values::default();
        v.set(
            "ok_share",
            ratio(self.verified() as f64, self.ops.len() as f64),
        );
        v.set(
            "rate_per_s",
            self.per_block(|b, ops| ratio(ok(ops), b.wall_s)),
        );
        v.set(
            "latency_ms.p50",
            self.per_block(|_, ops| ms(ops, |o| o.latency_s, 50.0)),
        );
        v.set(
            "latency_ms.p90",
            self.per_block(|_, ops| ms(ops, |o| o.latency_s, 90.0)),
        );
        v.set(
            "ack_ms.p50",
            self.per_block(|_, ops| ms(ops, |o| o.ack_s, 50.0)),
        );
        v.set(
            "ack_ms.p90",
            self.per_block(|_, ops| ms(ops, |o| o.ack_s, 90.0)),
        );
        v.set(
            "cpu_ms_per_op",
            self.per_block(|b, ops| ratio(b.cpu_s * 1e3, ops.len() as f64)),
        );
        v.set("peak_rss_mb", self.peak_rss_mb);
        v.set(
            "attempts_per_cert",
            ratio(self.attempts as f64, self.certs as f64),
        );
        v.set("sim_overhead_pct", self.record.overhead_pct());
        v.set("flush_bytes_per_kop", self.record.bytes_per_kop());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(ms: f64) -> OpSample {
        OpSample {
            ok: true,
            ack_s: ms / 2e3,
            latency_s: ms / 1e3,
        }
    }

    #[test]
    fn timing_metrics_are_median_blocks() {
        let mut m = Measured::default();
        // Three blocks of two operations; the middle one stalled.
        for ms in [1.0, 3.0, 40.0, 60.0, 2.0, 4.0] {
            m.ops.push(op(ms));
        }
        for (i, (wall, cpu)) in [(0.004, 0.002), (0.1, 0.05), (0.006, 0.004)]
            .into_iter()
            .enumerate()
        {
            m.blocks.push(Block {
                ops: 2 * i..2 * i + 2,
                wall_s: wall,
                cpu_s: cpu,
                steal: 0.0,
            });
        }
        let v = m.end_to_end();
        // Block p50s are 2, 50, 3 ms: the median block reads 3.
        assert_eq!(v.get("latency_ms.p50"), Some(3.0));
        assert_eq!(v.get("ack_ms.p50"), Some(1.5));
        // Block rates 500, 20, 333.3/s; CPU 1, 25, 2 ms per op.
        assert!((v.get("rate_per_s").unwrap() - 2.0 / 0.006).abs() < 1e-9);
        assert_eq!(v.get("cpu_ms_per_op"), Some(2.0));
        assert_eq!(v.get("ok_share"), Some(1.0));
    }

    #[test]
    fn pooled_blocks_share_one_percentile() {
        let mut m = Measured {
            combine: Combine::Pooled,
            ..Measured::default()
        };
        for ms in [1.0, 3.0, 40.0, 60.0, 2.0, 4.0] {
            m.ops.push(op(ms));
        }
        for i in 0..3 {
            m.blocks.push(Block {
                ops: 2 * i..2 * i + 2,
                wall_s: 1.0,
                cpu_s: 0.003,
                steal: if i == 1 { 0.2 } else { 0.0 },
            });
        }
        // Two of three slices are clean: the stolen one is set aside.
        let v = m.end_to_end();
        assert_eq!(v.get("latency_ms.p50"), Some(2.5));
        assert_eq!(v.get("rate_per_s"), Some(2.0));
        assert!((v.get("cpu_ms_per_op").unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn disturbed_blocks_are_set_aside_once_enough_are_clean() {
        fn push(m: &mut Measured, ms: f64, steal: f64) {
            let i = m.ops.len();
            m.ops.push(op(ms));
            m.blocks.push(Block {
                ops: i..i + 1,
                wall_s: ms / 1e3,
                cpu_s: 0.0,
                steal,
            });
        }
        let mut m = Measured::default();
        for _ in 0..MIN_CLEAN {
            push(&mut m, 10.0, 0.3);
        }
        for _ in 0..MIN_CLEAN - 1 {
            push(&mut m, 2.0, 0.0);
        }
        // Too few clean blocks: every block counts, and the run goes on.
        assert_eq!(m.end_to_end().get("latency_ms.p50"), Some(10.0));
        assert!(!m.enough(1.5, 1.0));
        assert!(!m.settled());
        assert!(m.enough(EXTEND, 1.0));
        push(&mut m, 2.0, STEAL_MAX);
        assert_eq!(m.end_to_end().get("latency_ms.p50"), Some(2.0));
        assert!(m.enough(1.0, 1.0));
        assert!(!m.enough(0.5, 1.0));
    }
}
