//! Engine-level fault injection.
//!
//! Where `mc_membench::faults` corrupts *recorded* sweeps, this module
//! perturbs the *simulated machine itself*: individual activities are
//! stalled (a late-starting rank, a driver hiccup before the first
//! message) or slowed down (an overcommitted core whose per-pass overhead
//! balloons). The engine must absorb every such perturbation gracefully —
//! the run completes, the unperturbed activities keep their steady-state
//! rates, and the victim simply streams less. Nothing here may panic.

use crate::engine::Activity;

/// One way to perturb a set of engine [`Activity`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineFault {
    /// Delay the start of activity `victim` by `delay` seconds — a stalled
    /// rank that joins the contention late.
    Stall {
        /// Index of the activity to stall.
        victim: usize,
        /// Additional start delay, seconds.
        delay: f64,
    },
    /// Multiply both *timed* (non-streaming) phases of activity `victim`,
    /// its lead and its tail, by `factor`: a kernel's pass overhead, a
    /// message's handshake and gap. With `factor > 1` the victim spends
    /// more time off the memory system and streams fewer bytes.
    SlowDown {
        /// Index of the activity to slow down.
        victim: usize,
        /// Multiplicative factor on timed-phase durations.
        factor: f64,
    },
}

/// Apply `fault` in place. A `victim` index past the end of `activities`
/// is a no-op: injecting into a smaller scenario than the fault was
/// written for must never panic.
pub fn inject(activities: &mut [Activity], fault: &EngineFault) {
    match *fault {
        EngineFault::Stall { victim, delay } => {
            if let Some(a) = activities.get_mut(victim) {
                a.start += delay.max(0.0);
            }
        }
        EngineFault::SlowDown { victim, factor } => {
            if let Some(a) = activities.get_mut(victim) {
                a.lead *= factor;
                a.tail *= factor;
            }
        }
    }
}

/// Apply every fault in order.
pub fn inject_all(activities: &mut [Activity], faults: &[EngineFault]) {
    for fault in faults {
        inject(activities, fault);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::fabric::{Fabric, StreamSpec};
    use mc_topology::{platforms, NumaId};

    fn scenario() -> Vec<Activity> {
        let numa = NumaId::new(0);
        let mut acts: Vec<Activity> = (0..4)
            .map(|i| Activity {
                spec: StreamSpec::CpuWrite { numa },
                unit_bytes: 64e6,
                lead: 0.0,
                tail: 2e-6,
                start: i as f64 * 1e-5,
            })
            .collect();
        acts.push(Activity {
            spec: StreamSpec::DmaRecv { numa },
            unit_bytes: 64e6,
            lead: 4e-6,
            tail: 1e-6,
            start: 0.0,
        });
        acts
    }

    #[test]
    fn stalled_activity_streams_less_and_run_completes() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let engine = Engine::new(&f);
        let clean = scenario();
        let mut faulty = scenario();
        inject(
            &mut faulty,
            &EngineFault::Stall {
                victim: 0,
                delay: 0.05,
            },
        );
        let base = engine.run(&clean, 0.0, 0.1);
        let got = engine.run(&faulty, 0.0, 0.1);
        assert!(got.activities[0].total_bytes < base.activities[0].total_bytes * 0.7);
        // The other activities keep running; the run reaches its horizon.
        assert!(got.activities[4].total_bytes > 0.0);
        assert_eq!(got.window, (0.0, 0.1));
    }

    #[test]
    fn slowdown_reduces_completed_units() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let engine = Engine::new(&f);
        let clean = scenario();
        let mut faulty = scenario();
        inject(
            &mut faulty,
            &EngineFault::SlowDown {
                victim: 4,
                factor: 50.0,
            },
        );
        let base = engine.run(&clean, 0.02, 0.2);
        let got = engine.run(&faulty, 0.02, 0.2);
        assert!(got.activities[4].units_done < base.activities[4].units_done);
        // Compute activities are not the victim and keep their throughput.
        assert!(got.activities[0].bandwidth >= base.activities[0].bandwidth * 0.99);
    }

    #[test]
    fn out_of_range_victim_is_a_no_op() {
        let mut acts = scenario();
        let before = acts.clone();
        inject_all(
            &mut acts,
            &[
                EngineFault::Stall {
                    victim: 99,
                    delay: 1.0,
                },
                EngineFault::SlowDown {
                    victim: 99,
                    factor: 10.0,
                },
            ],
        );
        assert_eq!(acts, before);
    }

    #[test]
    fn negative_stall_delay_never_moves_a_start_earlier() {
        let mut acts = scenario();
        let start_before = acts[1].start;
        inject(
            &mut acts,
            &EngineFault::Stall {
                victim: 1,
                delay: -5.0,
            },
        );
        assert_eq!(acts[1].start, start_before);
    }
}
