//! Seeded I/O fault catalog for the checkpoint layer.
//!
//! Where [`crate::InjectionPlan`] corrupts *datasets*, an [`IoFaultPlan`]
//! corrupts *storage operations*: the transient `EIO`/`ENOSPC` blips, torn
//! writes and mid-run process kills surveyed in large-scale storage-failure
//! studies (see PAPERS.md). The plan is consumed by `dcfail-ckpt`'s
//! `ChaosFs`, which asks [`IoFaultInjector::decide`] before every filesystem
//! call it forwards.
//!
//! Determinism contract: decisions are a pure function of `(plan, op
//! index)`. Every transient draw and every torn-write truncation point comes
//! from a `StreamRng` forked on the operation index, so the same plan
//! replayed over the same operation sequence injects the same faults — the
//! crash-matrix harness in `repro crashtest` depends on this to make
//! kill-at-op-K sweeps reproducible.

use dcfail_stats::rng::StreamRng;

/// The storage-fault shapes the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Transient read/write error (`EIO`-shaped): the operation fails but
    /// retrying it may succeed. Absorbed by the ckpt retry policy.
    TransientEio,
    /// Transient out-of-space error (`ENOSPC`-shaped): same retry semantics,
    /// distinct label so retry counters can tell the shapes apart.
    TransientEnospc,
    /// The process dies at this operation. If the operation was a write, the
    /// file may be left torn: truncated at a byte offset chosen by the plan.
    Kill {
        /// For writes: keep only this many payload bytes on disk before
        /// dying (`None` = nothing reaches the disk at all).
        torn_keep_bytes: Option<usize>,
    },
}

impl IoFault {
    /// Stable short code for logs and counters.
    pub fn code(&self) -> &'static str {
        match self {
            IoFault::TransientEio => "EIO",
            IoFault::TransientEnospc => "ENOSPC",
            IoFault::Kill { .. } => "KILL",
        }
    }
}

/// A seeded schedule of I/O faults.
///
/// `transient_rate` is the per-operation probability of a transient error;
/// `kill_at_op` hard-kills the run at the given 0-based operation index; and
/// `torn_writes` controls whether a kill landing on a write leaves a
/// truncated file behind (the truncation point is drawn from the seed).
#[derive(Debug, Clone, PartialEq)]
pub struct IoFaultPlan {
    /// Root seed every fault draw forks from.
    pub seed: u64,
    /// Per-operation transient-failure probability in `[0, 1]`.
    pub transient_rate: f64,
    /// 0-based index of the operation at which the run is hard-killed.
    pub kill_at_op: Option<u64>,
    /// Whether a kill on a write leaves a torn (truncated) file.
    pub torn_writes: bool,
}

impl IoFaultPlan {
    /// A plan that never injects anything — the identity schedule.
    pub fn quiet(seed: u64) -> Self {
        IoFaultPlan {
            seed,
            transient_rate: 0.0,
            kill_at_op: None,
            torn_writes: false,
        }
    }

    /// A plan injecting transient errors at `rate` per operation.
    pub fn transient(seed: u64, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "transient rate must be within [0, 1], got {rate}"
        );
        IoFaultPlan {
            seed,
            transient_rate: rate,
            kill_at_op: None,
            torn_writes: false,
        }
    }
}

/// Stateful per-run injector: counts operations and answers, for each one,
/// whether a fault fires. One injector per (attempted) process lifetime.
#[derive(Debug)]
pub struct IoFaultInjector {
    plan: IoFaultPlan,
    rng: StreamRng,
    next_op: u64,
    killed: bool,
    transients: u64,
}

impl IoFaultInjector {
    /// A fresh injector at operation index 0.
    pub fn new(plan: IoFaultPlan) -> Self {
        let rng = StreamRng::new(plan.seed).fork("chaos.io");
        IoFaultInjector {
            plan,
            rng,
            next_op: 0,
            killed: false,
            transients: 0,
        }
    }

    /// Decides the fate of the next operation and advances the op counter.
    ///
    /// `write_len` is `Some(payload length)` for write operations — the only
    /// ones a torn-write kill can truncate. Once a kill fires, every later
    /// operation also reports a kill: a dead process performs no more I/O.
    pub fn decide(&mut self, write_len: Option<usize>) -> Option<IoFault> {
        let op = self.next_op;
        self.next_op += 1;
        if self.killed || self.plan.kill_at_op == Some(op) {
            self.killed = true;
            let torn_keep_bytes = match write_len {
                Some(len) if self.plan.torn_writes && len > 0 => {
                    // Truncate strictly inside the payload so the segment is
                    // genuinely torn, never accidentally complete.
                    Some(self.rng.fork_index("torn", op).below(len))
                }
                _ => None,
            };
            return Some(IoFault::Kill { torn_keep_bytes });
        }
        if self.plan.transient_rate > 0.0 {
            let mut draw = self.rng.fork_index("transient", op);
            if draw.bernoulli(self.plan.transient_rate) {
                self.transients += 1;
                // Alternate deterministically between the two transient
                // shapes so both retry paths get exercised.
                return Some(if draw.bernoulli(0.5) {
                    IoFault::TransientEnospc
                } else {
                    IoFault::TransientEio
                });
            }
        }
        None
    }

    /// Operations decided so far (including faulted ones).
    pub fn ops(&self) -> u64 {
        self.next_op
    }

    /// Transient faults injected so far.
    pub fn transients(&self) -> u64 {
        self.transients
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_faults() {
        let mut inj = IoFaultInjector::new(IoFaultPlan::quiet(42));
        for _ in 0..1000 {
            assert_eq!(inj.decide(Some(64)), None);
        }
        assert_eq!(inj.ops(), 1000);
        assert!(!inj.killed);
    }

    #[test]
    fn decisions_are_reproducible() {
        let plan = IoFaultPlan::transient(7, 0.3);
        let mut a = IoFaultInjector::new(plan.clone());
        let mut b = IoFaultInjector::new(plan);
        for i in 0..500 {
            let len = if i % 3 == 0 { Some(i) } else { None };
            assert_eq!(a.decide(len), b.decide(len));
        }
        assert!(a.transients() > 0, "rate 0.3 over 500 ops must fire");
        assert_eq!(a.transients(), b.transients());
    }

    #[test]
    fn kill_fires_exactly_at_op_and_sticks() {
        let mut inj = IoFaultInjector::new(IoFaultPlan {
            kill_at_op: Some(3),
            torn_writes: true,
            ..IoFaultPlan::quiet(9)
        });
        assert_eq!(inj.decide(None), None);
        assert_eq!(inj.decide(Some(10)), None);
        assert_eq!(inj.decide(None), None);
        let fault = inj.decide(Some(100)).expect("op 3 must kill");
        let IoFault::Kill { torn_keep_bytes } = fault else {
            panic!("expected kill, got {fault:?}");
        };
        let torn = torn_keep_bytes.expect("torn write on a killed write op");
        assert!(torn < 100, "truncation point must be inside the payload");
        // The process is dead: every subsequent op is also a kill, and a
        // non-write kill carries no torn bytes.
        assert!(matches!(
            inj.decide(None),
            Some(IoFault::Kill {
                torn_keep_bytes: None
            })
        ));
        assert!(inj.killed);
    }

    #[test]
    fn transient_shapes_both_occur() {
        let mut inj = IoFaultInjector::new(IoFaultPlan::transient(11, 0.9));
        let mut eio = 0;
        let mut enospc = 0;
        for _ in 0..200 {
            match inj.decide(None) {
                Some(IoFault::TransientEio) => eio += 1,
                Some(IoFault::TransientEnospc) => enospc += 1,
                _ => {}
            }
        }
        assert!(eio > 0 && enospc > 0, "eio={eio} enospc={enospc}");
    }

    #[test]
    #[should_panic(expected = "transient rate must be within")]
    fn transient_rate_is_validated() {
        let _ = IoFaultPlan::transient(1, 1.5);
    }
}
