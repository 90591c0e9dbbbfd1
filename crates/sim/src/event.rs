//! The event queue and simulation driver.
//!
//! A [`Simulation`] owns a priority queue of timestamped events. An event is
//! a boxed closure that receives `&mut Simulation` and may schedule further
//! events — the classic "process interaction via continuations" style, which
//! keeps component code (queues, links, DMA engines) free of trait
//! boilerplate.
//!
//! Determinism: ties on time are broken by a monotonically increasing
//! sequence number, so two runs of the same model produce identical event
//! orders.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

type Action = Box<dyn FnOnce(&mut Simulation)>;

struct Event {
    time: SimTime,
    seq: u64,
    action: Action,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event simulation.
///
/// ```
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use df_sim::{Simulation, SimDuration};
///
/// let ticks = Rc::new(Cell::new(0));
/// let mut sim = Simulation::new();
/// let counter = ticks.clone();
/// sim.schedule(SimDuration::from_micros(5), move |_| {
///     counter.set(counter.get() + 1);
/// });
/// sim.run();
/// assert_eq!(sim.now().nanos(), 5_000);
/// assert_eq!(ticks.get(), 1);
/// ```
pub struct Simulation {
    now: SimTime,
    queue: BinaryHeap<Event>,
    next_seq: u64,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// An empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `action` to run `delay` after the current instant.
    pub fn schedule<F>(&mut self, delay: SimDuration, action: F)
    where
        F: FnOnce(&mut Simulation) + 'static,
    {
        self.schedule_at(self.now + delay, action)
    }

    /// Schedule `action` at an absolute instant. Instants in the past are
    /// clamped to "now" (the event still runs, immediately).
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F)
    where
        F: FnOnce(&mut Simulation) + 'static,
    {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Event {
            time: at.max(self.now),
            seq,
            action: Box::new(action),
        });
    }

    /// Run a single event if one is pending; returns `false` when the queue
    /// is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "time must be monotonic");
        self.now = ev.time;
        (ev.action)(self);
        true
    }

    /// Run until the event queue drains. Returns the final instant.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        for (label, t) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let order = order.clone();
            sim.schedule(SimDuration::from_nanos(t), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
        assert_eq!(sim.now(), SimTime(30));
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        for label in ["first", "second", "third"] {
            let order = order.clone();
            sim.schedule(SimDuration::from_nanos(7), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_events() {
        let hits = Rc::new(RefCell::new(0u32));
        let mut sim = Simulation::new();
        fn chain(sim: &mut Simulation, hits: Rc<RefCell<u32>>, left: u32) {
            if left == 0 {
                return;
            }
            sim.schedule(SimDuration::from_nanos(1), move |sim| {
                *hits.borrow_mut() += 1;
                chain(sim, hits.clone(), left - 1);
            });
        }
        chain(&mut sim, hits.clone(), 5);
        sim.run();
        assert_eq!(*hits.borrow(), 5);
        assert_eq!(sim.now(), SimTime(5));
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let ran = Rc::new(RefCell::new(false));
        let mut sim = Simulation::new();
        let flag = ran.clone();
        sim.schedule(SimDuration::from_nanos(10), move |sim| {
            // Absolute time 3 is in the past once we're at t=10.
            sim.schedule_at(SimTime(3), move |sim| {
                assert_eq!(sim.now(), SimTime(10));
                *flag.borrow_mut() = true;
            });
        });
        sim.run();
        assert!(*ran.borrow());
    }
}
