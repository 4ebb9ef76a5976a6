//! Rendezvous machinery for virtual-time collectives.
//!
//! Every rank calls the same collectives in the same order (SPMD), so a
//! per-rank sequence number identifies each collective instance. The last
//! rank to arrive runs the `finish` function, which sees every rank's
//! arrival clock and contribution and decides per-rank results and
//! completion clocks.
//!
//! A rank that unwinds can never arrive, so it [aborts](Rendezvous::abort)
//! the rendezvous: every rank waiting in (or later entering) a collective
//! unwinds with [`Aborted`] instead of waiting forever.

use netsim::lock;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

type Slot = Option<Box<dyn Any + Send>>;

struct Round {
    arrived: usize,
    taken: usize,
    clocks: Vec<f64>,
    inputs: Vec<Slot>,
    outputs: Vec<Slot>,
    completion: Vec<f64>,
    done: bool,
}

impl Round {
    fn new(world: usize) -> Self {
        Round {
            arrived: 0,
            taken: 0,
            clocks: vec![0.0; world],
            inputs: (0..world).map(|_| None).collect(),
            outputs: (0..world).map(|_| None).collect(),
            completion: vec![0.0; world],
            done: false,
        }
    }
}

/// The panic payload of a rank unwound by [`Rendezvous::abort`]: it was
/// waiting on a rank that panicked, so the run re-raises that rank's
/// payload, not this one.
pub struct Aborted;

/// Coordination point shared by all ranks of one world.
pub struct Rendezvous {
    world: usize,
    state: Mutex<HashMap<u64, Round>>,
    cv: Condvar,
    aborted: AtomicBool,
    /// Communication seconds charged across all collectives (completion
    /// minus latest arrival, i.e. cost excluding load imbalance).
    comm_s: Mutex<f64>,
}

impl Rendezvous {
    pub fn new(world: usize) -> Self {
        assert!(world >= 1);
        Rendezvous {
            world,
            state: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            comm_s: Mutex::new(0.0),
        }
    }

    /// Give up on every collective: wake the waiting ranks, which unwind
    /// with [`Aborted`], as does any rank entering a collective later.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        // Taking the lock orders the flag before any waiter's next check.
        let _g = lock(&self.state);
        self.cv.notify_all();
    }

    /// Total virtual communication time charged so far.
    pub fn comm_seconds(&self) -> f64 {
        *lock(&self.comm_s)
    }

    /// Enter collective `seq` as `rank` at virtual time `clock`,
    /// contributing `input`. Blocks until all ranks arrive; `finish`
    /// (executed exactly once, by the last arriver) maps arrival clocks and
    /// contributions to per-rank `(results, completion clocks)`. Returns
    /// this rank's result and completion clock.
    ///
    /// # Panics
    /// Panics if ranks disagree on the payload type for the same `seq`
    /// (an SPMD programming error), and unwinds with [`Aborted`] once the
    /// rendezvous is [aborted](Self::abort) before the round completes.
    pub fn exchange<T, R, F>(
        &self,
        seq: u64,
        rank: usize,
        clock: f64,
        input: T,
        finish: F,
    ) -> (R, f64)
    where
        T: Send + 'static,
        R: Send + 'static,
        F: FnOnce(&[f64], Vec<T>) -> (Vec<R>, Vec<f64>),
    {
        let mut g = lock(&self.state);
        {
            let round = g.entry(seq).or_insert_with(|| Round::new(self.world));
            assert!(
                round.inputs[rank].is_none(),
                "rank {rank} entered collective {seq} twice"
            );
            round.clocks[rank] = clock;
            round.inputs[rank] = Some(Box::new(input));
            round.arrived += 1;
        }
        let arrived = g.get(&seq).expect("round exists").arrived;
        if arrived == self.world {
            let round = g.get_mut(&seq).expect("round exists");
            let clocks = round.clocks.clone();
            let inputs: Vec<T> = round
                .inputs
                .iter_mut()
                .map(|slot| {
                    *slot
                        .take()
                        .expect("all inputs present")
                        .downcast::<T>()
                        .expect("SPMD ranks must use one payload type per collective")
                })
                .collect();
            let (outs, completion) = finish(&clocks, inputs);
            assert_eq!(
                outs.len(),
                self.world,
                "finish must return one result per rank"
            );
            assert_eq!(
                completion.len(),
                self.world,
                "finish must return one clock per rank"
            );
            let max_arrival = clocks.iter().copied().fold(0.0, f64::max);
            let max_completion = completion.iter().copied().fold(0.0, f64::max);
            *lock(&self.comm_s) += (max_completion - max_arrival).max(0.0);
            for (slot, out) in round.outputs.iter_mut().zip(outs) {
                *slot = Some(Box::new(out));
            }
            round.completion = completion;
            round.done = true;
            self.cv.notify_all();
        } else {
            while !g.get(&seq).is_some_and(|r| r.done) {
                if self.aborted.load(Ordering::SeqCst) {
                    drop(g);
                    std::panic::resume_unwind(Box::new(Aborted));
                }
                g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        }
        let round = g.get_mut(&seq).expect("round exists");
        let out = *round.outputs[rank]
            .take()
            .expect("result present")
            .downcast::<R>()
            .expect("result type matches");
        let t = round.completion[rank];
        round.taken += 1;
        if round.taken == self.world {
            g.remove(&seq);
        }
        (out, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_rank_round() {
        let r = Rendezvous::new(1);
        let (out, t) = r.exchange(1, 0, 2.0, 5u32, |clocks, inputs| {
            assert_eq!(clocks, &[2.0]);
            (vec![inputs[0] * 2], vec![3.0])
        });
        assert_eq!(out, 10);
        assert_eq!(t, 3.0);
        assert_eq!(r.comm_seconds(), 1.0);
    }

    #[test]
    fn multi_rank_sum() {
        let r = Arc::new(Rendezvous::new(4));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|rank| {
                    let r = Arc::clone(&r);
                    s.spawn(move || {
                        r.exchange(7, rank, rank as f64, rank as u64, |clocks, inputs| {
                            let total: u64 = inputs.iter().sum();
                            let t = clocks.iter().copied().fold(0.0, f64::max) + 0.5;
                            (vec![total; 4], vec![t; 4])
                        })
                    })
                })
                .collect();
            for h in handles {
                let (sum, t) = h.join().unwrap();
                assert_eq!(sum, 6);
                assert_eq!(t, 3.5);
            }
        });
    }

    #[test]
    fn rounds_are_independent() {
        let r = Rendezvous::new(1);
        let (a, _) = r.exchange(1, 0, 0.0, 1u8, |_, i| (i, vec![0.0]));
        let (b, _) = r.exchange(2, 0, 0.0, "two".to_string(), |_, i| (i, vec![0.0]));
        assert_eq!(a, 1);
        assert_eq!(b, "two");
    }
}
