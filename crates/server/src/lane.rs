//! The submit lane as a pure state machine, `(lanes, event, now) →
//! action`: no socket and no clock (`now` is a [`Duration`] from any
//! origin the driver picks). `client::submit_streams` drives it over
//! TCP; this module's tests drive it through a seeded discrete-event
//! simulation.

use std::time::Duration;

use crate::client::RetryPolicy;
use crate::ServerError;

/// How the peer answered one frame: queued (it now holds this many
/// pending reports); pushed back, or sent behind a batch that was (send
/// it again); or refused for good, with the error that names the batch.
#[derive(Debug)]
pub(crate) enum Ack {
    Accepted(u64),
    Retryable,
    Refused(ServerError),
}

/// What a driver reports: only time passed (the submit starts, or a
/// backoff ran out), or lane `.0`'s last [`Action::Send`] was written
/// or its last [`Action::Await`] answered, or not.
#[derive(Debug)]
pub(crate) enum Event {
    Tick,
    Written(usize, Result<(), ServerError>),
    Acked(usize, Result<Ack, ServerError>),
}

/// Batch `index` of lane `lane`, and the sequence number it goes out
/// under (`None`: a request/reply frame).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Batch {
    pub lane: usize,
    pub index: usize,
    pub seq: Option<u64>,
}

/// What the driver does next: write a batch, or read the answer to one
/// (its lane's oldest unread), and report what happened; sleep until a
/// time when nothing is in flight and nothing may go out before it, then
/// report a tick; or stop, because every batch of every lane was
/// accepted, or with the first error in lane order and its lane once
/// every ack still readable was read.
#[derive(Debug)]
pub(crate) enum Action {
    Send(Batch),
    Await(Batch),
    SleepUntil(Duration),
    Done,
    Fail(usize, ServerError),
}

/// One connection's share of a submit.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    batches: usize,
    /// Frames allowed in flight.
    window: usize,
    /// The connection's stream cursor when the submit began: batch `b`
    /// goes out as `base + b`. `None` for a request/reply lane.
    base: Option<u64>,
    /// The next batch to send; rewound to `accepted` after a retryable
    /// refusal.
    cursor: usize,
    /// Frames on the wire, batches `cursor - inflight..cursor`.
    inflight: usize,
    /// Batches the peer has accepted, all of them in order.
    accepted: usize,
    /// Retryable refusals of the batch at `accepted` so far.
    attempts: u32,
    /// A retryable refusal came back: the acks of the window behind it
    /// are read before the lane rewinds.
    rewinding: bool,
    /// No frame goes out before this (a backoff after a refusal).
    resume_at: Option<Duration>,
    /// The lane's first error. Once any lane has one, no lane writes.
    error: Option<ServerError>,
    /// Reports pending at the peer after its last accepted batch.
    queued: u64,
}

impl Lane {
    /// A lane of `batches` batches that streams from sequence number
    /// `base` with up to `window` frames in flight. A request/reply lane
    /// (`base: None`) keeps one: its frames carry no sequence number, so
    /// a second could be queued after the first was pushed back.
    pub(crate) fn new(batches: usize, window: usize, base: Option<u64>) -> Self {
        let window = if base.is_some() { window.max(1) } else { 1 };
        Self {
            batches,
            window,
            base,
            ..Self::default()
        }
    }

    fn can_send(&self, now: Duration) -> bool {
        !self.rewinding
            && self.resume_at.is_none_or(|at| at <= now)
            && self.inflight < self.window
            && self.cursor < self.batches
    }

    fn acked(&mut self, ack: Result<Ack, ServerError>, now: Duration, policy: RetryPolicy) {
        let Some(inflight) = self.inflight.checked_sub(1) else {
            return;
        };
        let batch = self.cursor - self.inflight;
        self.inflight = inflight;
        match ack {
            Ok(Ack::Accepted(queued)) => {
                // The peer takes batches only in order.
                self.accepted = batch + 1;
                self.attempts = 0;
                self.queued = queued;
            }
            Ok(Ack::Retryable) => self.rewinding = true,
            Ok(Ack::Refused(e)) => self.fail(e),
            Err(e) => {
                // The connection can no longer be read in step: owe it
                // nothing more.
                self.inflight = 0;
                self.fail(e);
            }
        }
        if !self.rewinding || self.inflight > 0 {
            return;
        }
        // Retry the earliest unaccepted batch, under its own sequence
        // number, once the backoff has passed.
        self.rewinding = false;
        self.cursor = self.accepted;
        if self.error.is_some() || self.cursor == self.batches {
            return;
        }
        if self.attempts >= policy.busy_retries {
            self.fail(ServerError::Busy);
        } else {
            self.resume_at = Some(now + policy.delay(self.cursor, self.attempts));
            self.attempts += 1;
        }
    }

    fn fail(&mut self, e: ServerError) {
        self.error.get_or_insert(e);
    }
}

/// Every lane of one submit.
#[derive(Debug)]
pub(crate) struct Lanes {
    lanes: Vec<Lane>,
    policy: RetryPolicy,
    /// Where the next round-robin scan starts: one past the lane served
    /// last.
    turn: usize,
}

impl Lanes {
    pub(crate) fn new(lanes: Vec<Lane>, policy: RetryPolicy) -> Self {
        Self {
            lanes,
            policy,
            turn: 0,
        }
    }

    fn batch(&self, lane: usize, index: usize) -> Batch {
        let seq = self.lanes[lane].base.map(|base| base + index as u64);
        Batch { lane, index, seq }
    }

    /// Apply `event`, which happened at `now`, and say what to do next.
    ///
    /// Writes come first, round-robin over the lanes, until every window
    /// is full or held by a backoff; then one ack is read, and the lane
    /// it frees writes again. The first error on any lane stops every
    /// write, but every outstanding ack is still read, so each connection
    /// that can still be read ends frame-aligned.
    pub(crate) fn step(&mut self, event: Event, now: Duration) -> Action {
        match event {
            Event::Tick => {}
            Event::Written(lane, Ok(())) => {
                let lane = &mut self.lanes[lane];
                lane.cursor += 1;
                lane.inflight += 1;
            }
            Event::Written(lane, Err(e)) => self.lanes[lane].fail(e),
            Event::Acked(lane, ack) => self.lanes[lane].acked(ack, now, self.policy),
        }
        let stopped = self.lanes.iter().any(|lane| lane.error.is_some());
        let (n, turn) = (self.lanes.len(), self.turn);
        let mut order = (0..n).map(move |k| (turn + k) % n);
        if let Some(i) = order
            .clone()
            .find(|&i| !stopped && self.lanes[i].can_send(now))
        {
            self.turn = i + 1;
            return Action::Send(self.batch(i, self.lanes[i].cursor));
        }
        if let Some(i) = order.find(|&i| self.lanes[i].inflight > 0) {
            self.turn = i + 1;
            let lane = &self.lanes[i];
            return Action::Await(self.batch(i, lane.cursor - lane.inflight));
        }
        let backoffs = self.lanes.iter().filter_map(|lane| lane.resume_at);
        match backoffs.filter(|&at| at > now).min() {
            Some(at) if !stopped => Action::SleepUntil(at),
            _ => {
                let mut lanes = self.lanes.iter_mut().enumerate();
                let first = lanes.find_map(|(i, lane)| lane.error.take().map(|e| (i, e)));
                first.map_or(Action::Done, |(i, e)| Action::Fail(i, e))
            }
        }
    }

    /// Lane `lane`'s stream cursor once the submit is over: one past the
    /// last batch its peer accepted, where the peer's own cursor stands
    /// (`None` for a request/reply lane, which has none).
    pub(crate) fn stream_seq(&self, lane: usize) -> Option<u64> {
        self.batch(lane, self.lanes[lane].accepted).seq
    }

    /// Reports pending at lane `lane`'s peer after its last accepted
    /// batch (`0` until one is).
    pub(crate) fn queued(&self, lane: usize) -> u64 {
        self.lanes[lane].queued
    }
}

#[cfg(test)]
mod tests {
    //! The second driver: a seeded discrete-event simulation.
    //!
    //! Each lane talks to a fake front end over a FIFO connection with
    //! seeded latency. The front end keeps a `next_seq` (streamed lanes) and
    //! a queue capacity that frees at seeded times; it pushes back when
    //! full, may refuse one batch outright, may answer late, and may die
    //! mid-window. Happenings sit on a `(time, seq)` heap, and those due at
    //! the same time run in a seeded shuffle. The client is one thread, as
    //! in `submit_streams`: a write is instant, an `Await` blocks until that
    //! lane's ack has arrived, and a sleep runs the world up to its end.

    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap, VecDeque};

    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::wire::ErrorCode;

    /// Seeds per submit kind and run.
    const SEEDS: u64 = 1_000;
    /// A driver that takes more steps than this has livelocked.
    const MAX_STEPS: usize = 100_000;

    /// Something that happens to one lane's connection or peer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Happening {
        /// The oldest frame in transit reaches the peer.
        Arrive,
        /// The oldest ack in transit reaches the client.
        Deliver,
        /// One unit of the peer's queue capacity frees up.
        Free,
        /// The peer dies: it reads nothing more, and the client reads
        /// end-of-stream once the acks already sent have arrived.
        Die,
    }

    /// A fake front end and the connection to it.
    struct Peer {
        /// Rows the lane must deliver: row `r` is the `r`-th report.
        rows: usize,
        next_seq: u64,
        capacity: u32,
        /// The batch this peer refuses outright, every time it arrives.
        refuse: Option<usize>,
        dead: bool,
        /// Rows queued, in the order the peer took them.
        received: Vec<usize>,
        /// Frames written and not yet arrived: `(batch, seq)`.
        to_peer: VecDeque<(usize, Option<u64>)>,
        /// Acks sent and not yet arrived.
        to_client: VecDeque<Ack>,
        /// Acks arrived and not yet read.
        inbox: VecDeque<Ack>,
        /// Nothing overtakes what was sent ahead of it.
        last_arrive: u64,
        last_deliver: u64,
    }

    impl Peer {
        fn answer(&mut self, batch: usize, seq: Option<u64>, chunk: usize) -> Ack {
            if seq.is_some_and(|seq| seq != self.next_seq) {
                return Ack::Retryable;
            }
            if self.refuse == Some(batch) {
                return Ack::Refused(ServerError::Remote {
                    code: ErrorCode::InvalidRequest,
                    message: format!("batch {batch}"),
                });
            }
            if self.capacity == 0 {
                return Ack::Retryable;
            }
            self.capacity -= 1;
            self.next_seq += u64::from(seq.is_some());
            let start = batch * chunk;
            self.received.extend(start..self.rows.min(start + chunk));
            Ack::Accepted(self.received.len() as u64)
        }
    }

    struct World {
        rng: StdRng,
        /// Virtual microseconds.
        now: u64,
        seq: u64,
        heap: BinaryHeap<Reverse<(u64, u64, usize, Happening)>>,
        peers: Vec<Peer>,
        chunk: usize,
        max_latency_us: u64,
    }

    impl World {
        fn schedule(&mut self, at: u64, lane: usize, what: Happening) {
            self.seq += 1;
            self.heap.push(Reverse((at, self.seq, lane, what)));
        }

        /// One link delay; one in sixteen is an answer that comes late.
        fn latency(&mut self) -> u64 {
            let late = if self.rng.gen_range(0..16u32) == 0 {
                self.rng.gen_range(0..=20_000u64)
            } else {
                0
            };
            self.rng.gen_range(0..=self.max_latency_us) + late
        }

        /// Run everything due at the earliest scheduled time, in a
        /// seeded order. False when nothing is scheduled.
        fn run_instant(&mut self) -> bool {
            let Some(&Reverse((at, ..))) = self.heap.peek() else {
                return false;
            };
            let mut due = Vec::new();
            while let Some(&Reverse((t, _, lane, what))) = self.heap.peek() {
                if t != at {
                    break;
                }
                self.heap.pop();
                due.push((lane, what));
            }
            self.now = at;
            due.shuffle(&mut self.rng);
            for (lane, what) in due {
                self.happen(lane, what);
            }
            true
        }

        fn happen(&mut self, lane: usize, what: Happening) {
            let latency = self.latency();
            let (now, chunk) = (self.now, self.chunk);
            let peer = &mut self.peers[lane];
            match what {
                Happening::Arrive => {
                    let Some((batch, seq)) = peer.to_peer.pop_front() else {
                        return;
                    };
                    if peer.dead {
                        return;
                    }
                    let ack = peer.answer(batch, seq, chunk);
                    peer.to_client.push_back(ack);
                    peer.last_deliver = peer.last_deliver.max(now + latency);
                    let at = peer.last_deliver;
                    self.schedule(at, lane, Happening::Deliver);
                }
                Happening::Deliver => {
                    if let Some(ack) = peer.to_client.pop_front() {
                        peer.inbox.push_back(ack);
                    }
                }
                Happening::Free => peer.capacity += 1,
                Happening::Die => {
                    peer.dead = true;
                    peer.to_peer.clear();
                }
            }
        }

        fn write(&mut self, batch: Batch) -> Result<(), ServerError> {
            if self.peers[batch.lane].dead && self.rng.gen_bool(0.5) {
                return Err(ServerError::Io {
                    op: "write frame",
                    message: "connection reset".to_string(),
                });
            }
            let latency = self.latency();
            let peer = &mut self.peers[batch.lane];
            peer.to_peer.push_back((batch.index, batch.seq));
            peer.last_arrive = peer.last_arrive.max(self.now + latency);
            let at = peer.last_arrive;
            self.schedule(at, batch.lane, Happening::Arrive);
            Ok(())
        }

        /// Block until lane `lane`'s next ack has arrived.
        fn read(&mut self, lane: usize) -> Result<Ack, ServerError> {
            loop {
                let peer = &mut self.peers[lane];
                if let Some(ack) = peer.inbox.pop_front() {
                    return Ok(ack);
                }
                if peer.dead && peer.to_client.is_empty() {
                    return Err(ServerError::Io {
                        op: "read response",
                        message: "connection closed before the reply".to_string(),
                    });
                }
                assert!(self.run_instant(), "lane {lane} awaits an ack nobody sends");
            }
        }

        fn sleep_until(&mut self, at: u64) {
            while self.heap.peek().is_some_and(|&Reverse((t, ..))| t <= at) {
                self.run_instant();
            }
            self.now = self.now.max(at);
        }
    }

    /// One seeded submit, driven to its end with every invariant checked
    /// on the way. Returns the trace: each action and when it was taken.
    fn simulate(seed: u64, streamed: bool) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let chunk = rng.gen_range(1..=3usize);
        let window = rng.gen_range(1..=4usize);
        let policy = RetryPolicy {
            busy_retries: rng.gen_range(0..=4u32),
            busy_backoff_ms: rng.gen_range(0..=2u64),
        };
        let mut world = World {
            rng: StdRng::seed_from_u64(!seed),
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            peers: Vec::new(),
            chunk,
            max_latency_us: rng.gen_range(0..=2_000u64),
        };
        let mut lanes = Vec::new();
        let mut stream_seq = Vec::new();
        for lane in 0..rng.gen_range(1..=4usize) {
            let rows = rng.gen_range(0..=12usize);
            let batches = rows.div_ceil(chunk);
            let base = rng.gen_range(0..100u64);
            let refuse = (batches > 0 && rng.gen_bool(0.2)).then(|| rng.gen_range(0..batches));
            world.peers.push(Peer {
                rows,
                next_seq: base,
                capacity: rng.gen_range(0..=batches as u32),
                refuse,
                dead: false,
                received: Vec::new(),
                to_peer: VecDeque::new(),
                to_client: VecDeque::new(),
                inbox: VecDeque::new(),
                last_arrive: 0,
                last_deliver: 0,
            });
            let mut at = 0;
            for _ in 0..rng.gen_range(0..=batches + 2) {
                at += rng.gen_range(0..=3_000u64);
                world.schedule(at, lane, Happening::Free);
            }
            if rng.gen_bool(0.15) {
                world.schedule(rng.gen_range(0..=5_000u64), lane, Happening::Die);
            }
            stream_seq.push(base);
            lanes.push(Lane::new(batches, window, streamed.then_some(base)));
        }
        let n = lanes.len();
        let window = if streamed { window } else { 1 };
        let mut machine = Lanes::new(lanes, policy);

        let mut trace = Vec::new();
        // Frames written whose ack is unread, and connections whose read
        // failed (the machine owes those nothing more).
        let mut owed = vec![0usize; n];
        let mut broken = vec![false; n];
        // Each lane's first error as the machine recorded it.
        let mut errors: Vec<Option<String>> = vec![None; n];
        let mut resume: Vec<Option<Duration>> = vec![None; n];
        let mut slept: BTreeMap<(usize, usize), Duration> = BTreeMap::new();
        let mut event = Event::Tick;
        let result = loop {
            assert!(trace.len() < MAX_STEPS, "seed {seed}: no end in sight");
            let now = Duration::from_micros(world.now);
            let action = machine.step(event, now);
            trace.push(format!("{} {action:?}", world.now));
            for (i, lane) in machine.lanes.iter().enumerate() {
                if let (None, Some(e)) = (&errors[i], &lane.error) {
                    errors[i] = Some(format!("{e:?}"));
                }
                if lane.resume_at != resume[i] {
                    if let Some(at) = lane.resume_at {
                        *slept.entry((i, lane.cursor)).or_default() += at - now;
                    }
                    resume[i] = lane.resume_at;
                }
            }
            event = match action {
                Action::Send(batch) => {
                    assert!(
                        errors.iter().all(Option::is_none),
                        "seed {seed}: {batch:?} written after an error"
                    );
                    assert_eq!(batch.seq.is_some(), streamed, "seed {seed}: {batch:?}");
                    let written = world.write(batch);
                    if written.is_ok() {
                        owed[batch.lane] += 1;
                        assert!(
                            owed[batch.lane] <= window,
                            "seed {seed}: {} frames in flight on lane {}",
                            owed[batch.lane],
                            batch.lane
                        );
                    }
                    Event::Written(batch.lane, written)
                }
                Action::Await(batch) => {
                    let read = world.read(batch.lane);
                    match read {
                        Ok(_) => owed[batch.lane] -= 1,
                        Err(_) => broken[batch.lane] = true,
                    }
                    Event::Acked(batch.lane, read)
                }
                Action::SleepUntil(at) => {
                    assert!(at > now, "seed {seed}: a sleep into the past");
                    world.sleep_until(at.as_micros() as u64);
                    Event::Tick
                }
                Action::Done => break Ok(()),
                Action::Fail(lane, e) => break Err((lane, e)),
            };
        };

        // What `submit_streams` does with a finished machine.
        for (i, seq) in stream_seq.iter_mut().enumerate() {
            if let Some(next) = machine.stream_seq(i) {
                *seq = next;
            }
        }
        for (i, peer) in world.peers.iter().enumerate() {
            assert!(
                peer.received.iter().enumerate().all(|(k, &row)| k == row),
                "seed {seed}: lane {i}'s peer took {:?}, not an in-order prefix",
                peer.received
            );
            if result.is_ok() {
                assert_eq!(peer.received.len(), peer.rows, "seed {seed}: lane {i}");
            }
            assert!(machine.lanes[i].inflight == 0, "seed {seed}: lane {i}");
            assert!(
                owed[i] == 0 || broken[i],
                "seed {seed}: lane {i} left {} acks unread",
                owed[i]
            );
            if !streamed {
                assert_eq!(machine.stream_seq(i), None, "seed {seed}: lane {i}");
            } else if !peer.dead {
                assert_eq!(
                    stream_seq[i], peer.next_seq,
                    "seed {seed}: lane {i}'s cursor is out of step with its peer's"
                );
            }
        }
        for ((lane, batch), total) in slept {
            assert!(
                total <= policy.max_total_sleep(),
                "seed {seed}: lane {lane} batch {batch} slept {total:?}"
            );
        }
        if let Err((lane, e)) = &result {
            assert!(
                errors[..*lane].iter().all(Option::is_none),
                "seed {seed}: lane {lane}'s error returned over a lower lane's"
            );
            if let Some(first) = &errors[*lane] {
                assert_eq!(
                    first,
                    &format!("{e:?}"),
                    "seed {seed}: not lane {lane}'s first error"
                );
            }
        }
        trace
    }

    fn every_seed_holds(streamed: bool) {
        let mut done = 0;
        for seed in 0..SEEDS {
            let trace = simulate(seed, streamed);
            assert_eq!(
                trace,
                simulate(seed, streamed),
                "seed {seed}: the trace differs"
            );
            done += usize::from(trace.last().is_some_and(|last| last.ends_with("Done")));
        }
        // The seeds reach both endings.
        let failed = SEEDS as usize - done;
        assert!(done > 100 && failed > 100, "{done} done, {failed} failed");
    }

    #[test]
    fn streamed_lanes_deliver_every_row_once_in_order_under_every_seed() {
        every_seed_holds(true);
    }

    #[test]
    fn request_reply_lanes_deliver_every_row_once_in_order_under_every_seed() {
        every_seed_holds(false);
    }
}
