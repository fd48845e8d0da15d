//! In-tree bounded MPMC channel (std `Mutex` + `Condvar`), the
//! crossbeam replacement the pipelines run on.
//!
//! The offline build sandbox has no crates.io access, so the per-call
//! reply path in [`crate::pipeline`] uses this ~100-line channel
//! instead of `crossbeam::channel`. Semantics match what the pipelines
//! need:
//!
//! * bounded capacity with blocking `send`/`recv`;
//! * disconnect detection: `send` fails once every `Receiver` is gone,
//!   `recv` fails once the queue is empty and every `Sender` is gone.
//!
//! This is a convoy-prone lock-based queue, not a performance channel —
//! hand-offs here are per *task* (one finished output tile), so the
//! lock cost is noise. Do not use it for per-element traffic.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by [`Sender::send`] when all receivers are gone;
/// carries the unsent value back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the queue is empty and all
/// senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item is pushed or the last sender leaves.
    not_empty: Condvar,
    /// Signalled when an item is popped or the last receiver leaves.
    not_full: Condvar,
    cap: usize,
}

/// Create a bounded channel with capacity `cap` (≥ 1).
#[must_use]
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap >= 1, "capacity must be at least 1");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(cap),
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap,
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Sending half; clonable (multi-producer).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half; clonable (multi-consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Block until there is room, then enqueue. Fails (returning the
    /// value) once every receiver is dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.state.lock().expect("channel poisoned");
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            if st.queue.len() < self.shared.cap {
                st.queue.push_back(value);
                drop(st);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            st = self.shared.not_full.wait(st).expect("channel poisoned");
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().expect("channel poisoned").senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("channel poisoned");
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Block until an item arrives; fails once the queue is empty and
    /// every sender is dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.state.lock().expect("channel poisoned");
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.shared.not_empty.wait(st).expect("channel poisoned");
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared
            .state
            .lock()
            .expect("channel poisoned")
            .receivers += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("channel poisoned");
        st.receivers -= 1;
        if st.receivers == 0 {
            drop(st);
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(
            (0..4).map(|_| rx.recv().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = bounded::<u32>(2);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
        let (tx, rx) = bounded::<u32>(2);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn mpmc_all_items_delivered_once() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 4;
        const PER: usize = 500;
        let (tx, rx) = bounded::<usize>(8);
        let received = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        tx.send(p * PER + i).unwrap();
                    }
                });
            }
            drop(tx);
            for _ in 0..CONSUMERS {
                let rx = rx.clone();
                let received = &received;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while let Ok(v) = rx.recv() {
                        mine.push(v);
                    }
                    received.lock().unwrap().extend(mine);
                });
            }
            drop(rx);
        });
        let mut all = received.into_inner().unwrap();
        all.sort_unstable();
        assert_eq!(all, (0..PRODUCERS * PER).collect::<Vec<_>>());
    }

    #[test]
    fn blocking_send_wakes_on_recv() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(2).unwrap()); // blocks until the recv below
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        });
    }
}
