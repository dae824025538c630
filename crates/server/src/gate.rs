//! Admission control: one FIFO gate in front of the engine.
//!
//! A connection thread parses its request, then *executes* it itself once
//! [`Gate::enter`] admits it. At most `threads` requests run at once; up to
//! `queue` more park in arrival order, and the next one is refused at once
//! — the caller answers **503**, so load is shed at the door instead of
//! piling up behind a lock. The policy is deliberately FIFO: queries and
//! imports share one line, so a flood of analytical reads cannot starve
//! writers (and vice versa) — the stress harness asserts exactly this.
//!
//! Built on `std::sync::Mutex` and thread parking only.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

struct State {
    /// Requests holding a place (running, or admitted and about to run).
    running: usize,
    /// Parked waiters, longest first.
    waiting: VecDeque<Thread>,
    /// Waiters admitted so far; a waiter's ticket is its place in that count.
    admitted: u64,
}

/// The admission gate: `threads` places and a line of at most `queue`.
pub struct Gate {
    state: Mutex<State>,
    threads: usize,
    queue: usize,
}

/// A place at the gate; dropping it admits the longest waiter.
pub struct Permit<'a>(&'a Gate);

impl Gate {
    /// A gate with `threads` places and room for `queue` waiters.
    pub fn new(threads: usize, queue: usize) -> Gate {
        Gate {
            state: Mutex::new(State {
                running: 0,
                waiting: VecDeque::new(),
                admitted: 0,
            }),
            threads: threads.max(1),
            queue: queue.max(1),
        }
    }

    /// Take a place, parking behind earlier waiters while all are held;
    /// `None` at once when `queue` requests already wait.
    pub fn enter(&self) -> Option<Permit<'_>> {
        let mut state = self.lock();
        if state.running < self.threads {
            state.running += 1;
            return Some(Permit(self));
        }
        if state.waiting.len() >= self.queue {
            return None;
        }
        let ticket = state.admitted + state.waiting.len() as u64;
        state.waiting.push_back(std::thread::current());
        obs::set(obs::Counter::HttpQueueDepth, state.waiting.len() as u64);
        // A leaving permit hands its place over (`running` stays) and
        // counts this waiter admitted; a spurious wake-up parks again.
        while state.admitted <= ticket {
            drop(state);
            std::thread::park();
            state = self.lock();
        }
        Some(Permit(self))
    }

    /// Requests waiting for a place (for `/stats`).
    pub fn depth(&self) -> usize {
        self.lock().waiting.len()
    }

    /// The state, whole even after a panic elsewhere: no critical section
    /// can panic part-way (`obs::set` is one atomic store).
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        match state.waiting.pop_front() {
            Some(next) => {
                state.admitted += 1;
                obs::set(obs::Counter::HttpQueueDepth, state.waiting.len() as u64);
                next.unpark();
            }
            None => state.running -= 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    /// Wait until `done()` holds; a gate that never lets go fails the test
    /// instead of hanging it.
    fn await_true(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    fn await_depth(gate: &Gate, n: usize) {
        await_true("waiters never parked", || gate.depth() >= n);
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        let gate = Arc::new(Gate::new(1, 8));
        let held = gate.enter().unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let waiters: Vec<_> = (0..3)
            .map(|i| {
                let (entering, order) = (gate.clone(), order.clone());
                let waiter = std::thread::spawn(move || {
                    let _permit = entering.enter().unwrap();
                    order.lock().unwrap().push(i);
                });
                // The next waiter arrives only once this one is in line.
                await_depth(&gate, i + 1);
                waiter
            })
            .collect();
        drop(held);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
        assert_eq!(gate.depth(), 0);
    }

    #[test]
    fn a_full_queue_refuses_without_blocking() {
        let gate = Arc::new(Gate::new(1, 2));
        let held = gate.enter().unwrap();
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let gate = gate.clone();
                std::thread::spawn(move || drop(gate.enter().unwrap()))
            })
            .collect();
        await_depth(&gate, 2);
        let started = Instant::now();
        assert!(gate.enter().is_none());
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(gate.depth(), 2);
        drop(held);
        for w in waiters {
            w.join().unwrap();
        }
    }

    #[test]
    fn a_panicking_request_gives_its_place_back() {
        let gate = Arc::new(Gate::new(2, 8));
        // Each request panics while it holds its place; the unwinding drops
        // the permit. A place the panic kept would park the third for good.
        let panicked: Vec<_> = (0..4)
            .map(|_| {
                let gate = gate.clone();
                std::thread::spawn(move || {
                    let _permit = gate.enter().unwrap();
                    panic!("request failed")
                })
            })
            .collect();
        await_true("a panic kept its place", || {
            panicked.iter().all(|r| r.is_finished())
        });
        // Both places are free again: two requests that each wait for the
        // other to start can only finish when both are admitted at once.
        let barrier = Arc::new(Barrier::new(2));
        let requests: Vec<_> = (0..2)
            .map(|_| {
                let (gate, barrier) = (gate.clone(), barrier.clone());
                std::thread::spawn(move || {
                    let _permit = gate.enter().unwrap();
                    barrier.wait();
                })
            })
            .collect();
        await_true("a place was lost", || {
            requests.iter().all(|r| r.is_finished())
        });
    }
}
