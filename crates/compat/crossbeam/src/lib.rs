//! Offline stand-in for [`crossbeam`](https://crates.io/crates/crossbeam).
//!
//! Provides `crossbeam::channel` with the subset of the API the workspace
//! uses: multi-producer multi-consumer `unbounded`/`bounded` channels with
//! `send`/`try_send`/`recv`/`try_recv`/`recv_timeout`, clonable endpoints,
//! and disconnect semantics. Built on `Mutex` + `Condvar`; slower than the
//! real lock-free implementation under extreme contention, but with
//! identical semantics, which is what the aggregation engine relies on.

#![deny(missing_docs)]

/// MPMC channels (the `crossbeam-channel` API subset).
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Sending half of a channel. Clonable (multi-producer).
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half of a channel. Clonable (multi-consumer).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// All receivers are gone.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Create a bounded MPMC channel with capacity `cap` (`cap == 0` is
    /// normalised to 1; true rendezvous channels are not needed here).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            match self.state.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
    }

    impl<T> Sender<T> {
        /// Send, blocking while the channel is full.
        ///
        /// # Errors
        ///
        /// Returns [`SendError`] if every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.chan.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state = match self.chan.not_full.wait(state) {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                    }
                    _ => break,
                }
            }
            state.queue.push_back(value);
            drop(state);
            self.chan.not_empty.notify_one();
            Ok(())
        }

        /// Send without blocking.
        ///
        /// # Errors
        ///
        /// Returns [`TrySendError::Full`] at capacity and
        /// [`TrySendError::Disconnected`] if every receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.chan.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.chan.capacity {
                if state.queue.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            state.queue.push_back(value);
            drop(state);
            self.chan.not_empty.notify_one();
            Ok(())
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Receive, blocking while the channel is empty.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] once the channel is empty and every sender
        /// has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.chan.lock();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    drop(state);
                    self.chan.not_full.notify_one();
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = match self.chan.not_empty.wait(state) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        }

        /// Receive without blocking.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when nothing is queued,
        /// [`TryRecvError::Disconnected`] when additionally all senders are
        /// gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.chan.lock();
            if let Some(v) = state.queue.pop_front() {
                drop(state);
                self.chan.not_full.notify_one();
                return Ok(v);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receive, blocking up to `timeout`.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] if nothing arrived in time,
        /// [`RecvTimeoutError::Disconnected`] once the channel is empty and
        /// every sender is gone.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.chan.lock();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    drop(state);
                    self.chan.not_full.notify_one();
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, wait) = match self.chan.not_empty.wait_timeout(state, deadline - now) {
                    Ok(r) => r,
                    Err(poisoned) => poisoned.into_inner(),
                };
                state = guard;
                if wait.timed_out() && state.queue.is_empty() {
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Self {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.lock().receivers += 1;
            Self {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.lock();
            state.senders -= 1;
            let last = state.senders == 0;
            drop(state);
            if last {
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.chan.lock();
            state.receivers -= 1;
            let last = state.receivers == 0;
            drop(state);
            if last {
                self.chan.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Sender").finish_non_exhaustive()
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Receiver").finish_non_exhaustive()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn unbounded_round_trip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.try_recv().unwrap(), 2);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn bounded_backpressure() {
            let (tx, rx) = bounded(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
            assert_eq!(rx.recv().unwrap(), 1);
            tx.try_send(3).unwrap();
        }

        #[test]
        fn blocking_send_resumes() {
            let (tx, rx) = bounded(1);
            tx.send(0u64).unwrap();
            let producer = thread::spawn(move || {
                for i in 1..100u64 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(rx.recv().unwrap());
            }
            producer.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u32>();
            let err = rx.recv_timeout(Duration::from_millis(10)).unwrap_err();
            assert_eq!(err, RecvTimeoutError::Timeout);
        }

        #[test]
        fn mpmc_drains_everything() {
            let (tx, rx) = bounded(16);
            let mut producers = Vec::new();
            for p in 0..4 {
                let tx = tx.clone();
                producers.push(thread::spawn(move || {
                    for i in 0..250 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                }));
            }
            drop(tx);
            let mut consumers = Vec::new();
            for _ in 0..3 {
                let rx = rx.clone();
                consumers.push(thread::spawn(move || {
                    let mut n = 0usize;
                    while rx.recv().is_ok() {
                        n += 1;
                    }
                    n
                }));
            }
            drop(rx);
            producers.into_iter().for_each(|h| h.join().unwrap());
            let total: usize = consumers.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(total, 1000);
        }
    }
}
