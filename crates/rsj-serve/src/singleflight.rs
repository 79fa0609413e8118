//! Single-flight coalescing: at most one in-flight computation per key.
//!
//! When N requests — `plan`s or `plan_batch` items alike — miss the plan
//! cache on the same
//! [`cache_key`](reservation_strategies::Planner::cache_key)
//! simultaneously, running N identical solver invocations multiplies a
//! thundering herd by the cost of a DP or brute-force sweep. A
//! [`SingleFlight`] group elects the first caller as the **leader** — it
//! runs the computation — and parks the rest as **followers** on a
//! condvar; everyone receives a clone of the leader's result. Because
//! solves are deterministic (a repo-wide invariant), the shared result is
//! bit-identical to what each follower would have computed itself.
//!
//! Followers wait with their own deadline: a follower whose deadline
//! expires before the leader finishes gives up with
//! [`Flighted::TimedOut`] without disturbing the flight. A leader whose
//! closure panics does not wedge its followers — a drop guard publishes
//! the caller-supplied `abandoned` value instead.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

#[derive(Debug)]
struct Flight<V> {
    result: Mutex<Option<V>>,
    done: Condvar,
}

/// How a value came out of [`SingleFlight::run`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Flighted<V> {
    /// This caller was the leader and computed the value itself.
    Led(V),
    /// This caller coalesced onto another caller's in-flight computation.
    Joined(V),
    /// This caller's deadline expired before the leader finished.
    TimedOut,
}

/// A group of keyed in-flight computations (see module docs).
#[derive(Debug, Default)]
pub(crate) struct SingleFlight<V> {
    flights: Mutex<HashMap<String, Arc<Flight<V>>>>,
}

impl<V: Clone> SingleFlight<V> {
    /// An empty group.
    pub(crate) fn new() -> Self {
        Self {
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Runs `compute` for `key`, coalescing with any identical in-flight
    /// call. The leader executes `compute`; followers block (up to
    /// `deadline`, if any) and receive a clone of its result. If the
    /// leader panics, followers receive `abandoned` and the panic
    /// propagates to the leader's caller.
    pub(crate) fn run<F>(
        &self,
        key: &str,
        deadline: Option<Instant>,
        abandoned: V,
        compute: F,
    ) -> Flighted<V>
    where
        F: FnOnce() -> V,
    {
        let (flight, is_leader) = {
            let mut flights = self.flights.lock().expect("singleflight lock");
            match flights.get(key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    flights.insert(key.to_owned(), Arc::clone(&flight));
                    (flight, true)
                }
            }
        };

        if is_leader {
            // The guard publishes a result and retires the flight even if
            // `compute` panics, so followers never hang on a dead leader.
            let mut guard = LeaderGuard {
                group: self,
                key,
                flight: &flight,
                result: Some(abandoned),
            };
            let value = compute();
            guard.result = Some(value.clone());
            drop(guard);
            Flighted::Led(value)
        } else {
            let mut result = flight.result.lock().expect("flight lock");
            loop {
                if let Some(value) = result.as_ref() {
                    return Flighted::Joined(value.clone());
                }
                match deadline {
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Flighted::TimedOut;
                        }
                        let (next, _) = flight
                            .done
                            .wait_timeout(result, deadline - now)
                            .expect("flight lock");
                        result = next;
                    }
                    None => {
                        result = flight.done.wait(result).expect("flight lock");
                    }
                }
            }
        }
    }
}

/// Publishes the leader's result (or the `abandoned` fallback on panic)
/// and removes the key from the group.
struct LeaderGuard<'a, V: Clone> {
    group: &'a SingleFlight<V>,
    key: &'a str,
    flight: &'a Arc<Flight<V>>,
    result: Option<V>,
}

impl<V: Clone> Drop for LeaderGuard<'_, V> {
    fn drop(&mut self) {
        {
            let mut slot = self.flight.result.lock().expect("flight lock");
            *slot = self.result.take();
        }
        self.flight.done.notify_all();
        self.group
            .flights
            .lock()
            .expect("singleflight lock")
            .remove(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn solo_caller_leads_and_flight_retires() {
        let sf = SingleFlight::new();
        assert_eq!(sf.run("k", None, 0, || 42), Flighted::Led(42));
        assert_eq!(sf.flights.lock().unwrap().len(), 0);
    }

    #[test]
    fn concurrent_identical_keys_run_compute_exactly_once() {
        let sf = Arc::new(SingleFlight::new());
        let computed = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (sf, computed, start) =
                    (Arc::clone(&sf), Arc::clone(&computed), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    sf.run("key", None, 0usize, || {
                        // Hold the flight open long enough for the other
                        // callers to join it.
                        std::thread::sleep(Duration::from_millis(50));
                        computed.fetch_add(1, Ordering::SeqCst) + 1
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let leaders = results
            .iter()
            .filter(|r| matches!(r, Flighted::Led(_)))
            .count();
        // With a barrier start and a 50 ms flight, every caller lands in
        // the same flight: one leader, one compute, identical values.
        assert_eq!(computed.load(Ordering::SeqCst), leaders);
        assert_eq!(leaders, 1, "all callers coalesced onto one flight");
        assert!(results
            .iter()
            .all(|r| matches!(r, Flighted::Led(1) | Flighted::Joined(1))));
        assert_eq!(sf.flights.lock().unwrap().len(), 0);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf = SingleFlight::new();
        assert_eq!(sf.run("a", None, 0, || 1), Flighted::Led(1));
        assert_eq!(sf.run("b", None, 0, || 2), Flighted::Led(2));
    }

    #[test]
    fn follower_times_out_without_disturbing_the_flight() {
        let sf = Arc::new(SingleFlight::new());
        let entered = Arc::new(Barrier::new(2));
        let leader = {
            let (sf, entered) = (Arc::clone(&sf), Arc::clone(&entered));
            std::thread::spawn(move || {
                sf.run("k", None, 0, || {
                    entered.wait();
                    std::thread::sleep(Duration::from_millis(120));
                    7
                })
            })
        };
        entered.wait();
        let impatient = sf.run(
            "k",
            Some(Instant::now() + Duration::from_millis(5)),
            0,
            || unreachable!("follower never computes"),
        );
        assert_eq!(impatient, Flighted::TimedOut);
        assert_eq!(leader.join().unwrap(), Flighted::Led(7));
    }

    #[test]
    fn leader_panic_releases_followers_with_the_abandoned_value() {
        let sf = Arc::new(SingleFlight::<i32>::new());
        let entered = Arc::new(Barrier::new(2));
        let leader = {
            let (sf, entered) = (Arc::clone(&sf), Arc::clone(&entered));
            std::thread::spawn(move || {
                sf.run("k", None, -1, || {
                    entered.wait();
                    std::thread::sleep(Duration::from_millis(30));
                    panic!("chaos strikes the leader");
                })
            })
        };
        entered.wait();
        let follower = sf.run("k", None, -1, || unreachable!());
        assert_eq!(follower, Flighted::Joined(-1));
        assert!(leader.join().is_err(), "panic propagates to the leader");
        assert_eq!(sf.flights.lock().unwrap().len(), 0);
    }
}
