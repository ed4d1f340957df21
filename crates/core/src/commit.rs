//! Group commit: one fsync amortised over many concurrent writers, led
//! by the writers themselves.
//!
//! Every logged write — DDL, DML, each COPY batch — has one commit
//! sequence. The *append* is serialized on the connection (the single
//! writer): the WAL record is written without syncing and the writer
//! takes a [`CommitTicket`] naming the log position its durability
//! requires. The *sync point* comes after the writer lock is released:
//! the session runner redeems the ticket with
//! [`GroupCommitter::wait_durable`] before acknowledging the statement.
//!
//! There is no commit thread. A waiter whose position is not yet durable
//! and that finds no fsync in flight becomes the *leader*: it fsyncs the
//! log once, up to the highest position requested so far, and retires
//! every waiter that flush covered. Writers arriving during the flush
//! park; the first still uncovered leads the next one. A lone writer
//! therefore pays exactly one inline fsync, and N concurrent writers
//! share far fewer. No statement is acknowledged to its client before
//! its WAL record is on stable storage.
//!
//! WAL rotation (a checkpoint) is the epoch boundary: the checkpoint
//! itself makes every previously appended record durable via the
//! snapshot, so tickets from an older epoch are released immediately,
//! the stale file handle is forgotten, and a leader still flushing the
//! old log changes nothing of the new epoch.
//!
//! Whatever made a write durable — a group fsync, a checkpoint, opening
//! the vault, or on a replica the execution of a shipped burst — then
//! publishes the new position on the engine's [`Watermark`], the only
//! durable position there is. That one signal is all the replication
//! shipper and monotonic-read token waiters block on.

use crate::{EngineError, Result};
use sciql_store::wal::WalSyncHandle;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Does WAL position `pos` cover the monotonic-read `token`? Both are
/// `(generation, byte position)`; a later generation covers everything
/// of an earlier one (the checkpoint that started it made it durable).
pub fn covers(pos: (u64, u64), token: (u64, u64)) -> bool {
    pos.0 > token.0 || (pos.0 == token.0 && pos.1 >= token.1)
}

/// What a waiter last saw of a [`Watermark`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Checkpoint generation of the published position.
    pub generation: u64,
    /// WAL byte position within that generation.
    pub pos: u64,
    /// When this position was published.
    pub at: Instant,
    /// Count of [`Watermark::wake`] calls, so a wake between a waiter's
    /// look and its wait is not lost.
    wakes: u64,
}

impl Mark {
    /// `(generation, byte position)`.
    pub fn position(&self) -> (u64, u64) {
        (self.generation, self.pos)
    }
}

/// An engine's published WAL watermark: the `(generation, byte
/// position)` up to which writes are durable (on a primary) or applied
/// (on a replica), plus a condition variable to wait for it to move.
/// Reading it never takes the engine lock.
#[derive(Debug)]
pub struct Watermark {
    state: Mutex<Mark>,
    cv: Condvar,
}

impl Default for Watermark {
    fn default() -> Self {
        Watermark {
            state: Mutex::new(Mark {
                generation: 0,
                pos: 0,
                at: Instant::now(),
                wakes: 0,
            }),
            cv: Condvar::new(),
        }
    }
}

impl Watermark {
    fn lock(&self) -> MutexGuard<'_, Mark> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The published `(generation, byte position)`.
    pub fn get(&self) -> (u64, u64) {
        self.lock().position()
    }

    /// The published position with its publish time, as a starting
    /// point for [`Watermark::wait_past`].
    pub fn mark(&self) -> Mark {
        *self.lock()
    }

    /// Advance to `(generation, pos)` and wake every waiter. A position
    /// at or behind the published one (an older generation, or a lower
    /// byte position in the same one) is ignored, so publishers racing
    /// each other — a group-commit leader, a checkpoint — never move
    /// the watermark backwards.
    pub fn publish(&self, generation: u64, pos: u64) {
        let mut st = self.lock();
        if covers(st.position(), (generation, pos)) {
            return;
        }
        (st.generation, st.pos, st.at) = (generation, pos, Instant::now());
        self.cv.notify_all();
    }

    /// Replace the published position unconditionally and wake every
    /// waiter: a replica installed a new image, which may sit behind the
    /// one it replaced.
    pub fn reset(&self, generation: u64, pos: u64) {
        let mut st = self.lock();
        (st.generation, st.pos, st.at) = (generation, pos, Instant::now());
        self.cv.notify_all();
    }

    /// Wake every waiter without moving the position (a link ended, a
    /// server is shutting down: waiters re-check their own conditions).
    pub fn wake(&self) {
        self.lock().wakes += 1;
        self.cv.notify_all();
    }

    /// Block until the watermark has moved on from `seen` — a new
    /// position or generation — or [`Watermark::wake`] was called since
    /// `seen` was taken, or `deadline` passes. Returns what is published
    /// then.
    pub fn wait_past(&self, seen: Mark, deadline: Instant) -> Mark {
        let mut st = self.lock();
        loop {
            if st.position() != seen.position() || st.wakes != seen.wakes {
                return *st;
            }
            let now = Instant::now();
            if now >= deadline {
                return *st;
            }
            st = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// What a writer owes the disk before its statement may be
/// acknowledged: make `pos` bytes of WAL generation `epoch` durable.
#[derive(Debug)]
pub struct CommitTicket {
    /// Vault generation whose WAL holds the record.
    pub epoch: u64,
    /// Log byte position after the record; durable once any fsync of
    /// this generation covers it.
    pub pos: u64,
    /// Fsync handle on that generation's log file.
    pub handle: WalSyncHandle,
}

#[derive(Debug, Default)]
struct GcState {
    /// Newest vault generation any ticket has named.
    epoch: u64,
    /// Fsync handle for `epoch`'s log (installed by the first writer of
    /// the epoch, dropped on rotation).
    handle: Option<WalSyncHandle>,
    /// Highest position requested in `epoch`.
    requested: u64,
    /// Highest position known durable in `epoch`.
    durable: u64,
    /// Positions of writers parked for `epoch`, in arrival order.
    pending: Vec<u64>,
    /// A leader is fsyncing `epoch`'s log.
    flushing: bool,
    /// A group fsync failed: durability for this epoch cannot be
    /// promised until a checkpoint starts a new one.
    sync_failed: Option<String>,
    /// Fsyncs led in `epoch`.
    #[cfg(test)]
    fsyncs: u64,
}

/// The shared group-commit coordinator: writer registration, leader
/// election for the fsync, and the write-queue admission gate. Every
/// [`crate::Connection`] owns one; a [`crate::SharedEngine`] shares its
/// connection's.
#[derive(Debug)]
pub struct GroupCommitter {
    state: Mutex<GcState>,
    cv: Condvar,
    /// Writers allowed in the commit queue before admission control
    /// refuses new ones with [`EngineError::Busy`] (`0` = unlimited).
    max_queued: AtomicUsize,
    /// Lock-free mirror of `pending.len()` for the admission fast path.
    depth: AtomicUsize,
    /// Where each group fsync publishes the position it made durable.
    watermark: Arc<Watermark>,
}

impl GroupCommitter {
    /// A committer with an unbounded queue, publishing every durable
    /// position on `watermark`.
    pub(crate) fn new(watermark: Arc<Watermark>) -> GroupCommitter {
        GroupCommitter {
            state: Mutex::default(),
            cv: Condvar::new(),
            max_queued: AtomicUsize::new(0),
            depth: AtomicUsize::new(0),
            watermark,
        }
    }

    /// A committer whose queue is full: one writer counts as parked and
    /// nothing will ever release it.
    #[cfg(test)]
    pub(crate) fn saturated() -> GroupCommitter {
        let gc = GroupCommitter::new(Arc::default());
        gc.set_max_queued(1);
        gc.depth.store(1, Ordering::Relaxed);
        gc
    }

    fn lock(&self) -> MutexGuard<'_, GcState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Bound the commit queue: beyond `max_queued` parked writers, new
    /// writes are refused by [`GroupCommitter::admit`] (`0` = unlimited).
    pub(crate) fn set_max_queued(&self, max_queued: usize) {
        self.max_queued.store(max_queued, Ordering::Relaxed);
    }

    /// Writers currently parked in the commit queue.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Admission check for a new write. `Err(Busy)` means the commit
    /// queue is full; nothing has been executed and the client may
    /// simply retry.
    pub fn admit(&self) -> Result<()> {
        let max = self.max_queued.load(Ordering::Relaxed);
        if max > 0 && self.queue_depth() >= max {
            return Err(EngineError::Busy(format!(
                "write queue full ({max} writers pending durability)"
            )));
        }
        Ok(())
    }

    fn set_depth(&self, st: &GcState) {
        self.depth.store(st.pending.len(), Ordering::Relaxed);
        sciql_obs::global()
            .write_queue_depth
            .set(st.pending.len() as i64);
    }

    /// Block until the ticket's WAL position is durable (or its epoch
    /// has been superseded by a checkpoint, which makes it durable by
    /// snapshot), leading the fsync when none is in flight. Called
    /// *after* releasing the connection lock, so concurrent writers pile
    /// onto one fsync instead of serialising.
    pub fn wait_durable(&self, ticket: CommitTicket) -> Result<()> {
        let mut st = self.lock();
        if ticket.epoch > st.epoch {
            // First writer of a new WAL generation: earlier waiters were
            // released by the rotation.
            *st = GcState {
                epoch: ticket.epoch,
                ..GcState::default()
            };
        } else if ticket.epoch < st.epoch {
            // A checkpoint rotated the WAL after this append; the
            // snapshot already made the effect durable.
            return Ok(());
        }
        if st.durable >= ticket.pos {
            // An fsync that started after this append covered it.
            sciql_obs::global().wal_fsyncs_saved.inc();
            return Ok(());
        }
        st.handle.get_or_insert(ticket.handle);
        st.requested = st.requested.max(ticket.pos);
        st.pending.push(ticket.pos);
        self.set_depth(&st);
        loop {
            if st.epoch > ticket.epoch || st.durable >= ticket.pos {
                return Ok(());
            }
            if let Some(why) = &st.sync_failed {
                let err = EngineError::msg(format!("group commit failed: {why}"));
                st.pending.retain(|&p| p != ticket.pos);
                self.set_depth(&st);
                return Err(err);
            }
            st = if st.flushing {
                self.cv.wait(st).unwrap_or_else(|e| e.into_inner())
            } else {
                self.lead(st)
            };
        }
    }

    /// Fsync as the leader: the epoch's log once, up to the highest
    /// requested position, with the state lock dropped meanwhile. Then
    /// publish what became durable, retire every waiter it covered, and
    /// wake the rest — writers that arrived *during* the fsync batch
    /// into the next one, which is the whole trick.
    fn lead<'a>(&'a self, mut st: MutexGuard<'a, GcState>) -> MutexGuard<'a, GcState> {
        let (epoch, target) = (st.epoch, st.requested);
        let handle = st.handle.clone().expect("a parked writer installed it");
        st.flushing = true;
        #[cfg(test)]
        {
            st.fsyncs += 1;
        }
        drop(st);
        let m = sciql_obs::global();
        let t0 = Instant::now();
        let synced = handle.sync();
        m.wal_fsyncs.inc();
        m.wal_fsync_ns.observe(t0.elapsed());
        let mut st = self.lock();
        // A checkpoint that rotated this epoch away released its waiters
        // already; the new epoch's state is not this leader's to touch.
        if st.epoch == epoch {
            st.flushing = false;
            match synced {
                Ok(()) => {
                    st.durable = target;
                    self.watermark.publish(epoch, target);
                    let before = st.pending.len();
                    st.pending.retain(|&p| p > target);
                    // At least the leader itself.
                    let batch = (before - st.pending.len()) as u64;
                    m.group_commits.inc();
                    m.wal_fsyncs_saved.add(batch - 1);
                    m.group_commit_batch.observe_ns(batch);
                    self.set_depth(&st);
                }
                Err(e) => st.sync_failed = Some(e.to_string()),
            }
        }
        self.cv.notify_all();
        st
    }

    /// A checkpoint rotated the WAL into generation `epoch`: everything
    /// appended before it is durable via the snapshot, so release every
    /// parked writer and drop the stale file handle.
    pub fn advance_epoch(&self, epoch: u64) {
        let mut st = self.lock();
        if epoch > st.epoch {
            *st = GcState {
                epoch,
                ..GcState::default()
            };
            self.set_depth(&st);
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn waiter_wakes_on_publish_well_before_its_deadline() {
        let wm = Arc::new(Watermark::default());
        let seen = wm.mark();
        let publisher = {
            let wm = Arc::clone(&wm);
            std::thread::spawn(move || wm.publish(0, 42))
        };
        let t0 = Instant::now();
        let now = wm.wait_past(seen, t0 + Duration::from_secs(2));
        assert_eq!(now.position(), (0, 42));
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "{:?}",
            t0.elapsed()
        );
        publisher.join().unwrap();
    }

    #[test]
    fn waiter_times_out_at_its_deadline() {
        let wm = Watermark::default();
        wm.publish(3, 100);
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(50);
        let now = wm.wait_past(wm.mark(), deadline);
        assert_eq!(now.position(), (3, 100));
        assert!(Instant::now() >= deadline);
        // Publishing behind the watermark neither moves it nor wakes.
        wm.publish(3, 90);
        wm.publish(2, 500);
        assert_eq!(wm.get(), (3, 100));
    }

    #[test]
    fn waiter_sees_a_generation_change() {
        let wm = Arc::new(Watermark::default());
        wm.publish(1, 900);
        let seen = wm.mark();
        let rotate = {
            let wm = Arc::clone(&wm);
            std::thread::spawn(move || wm.publish(2, 8))
        };
        let now = wm.wait_past(seen, Instant::now() + Duration::from_secs(2));
        assert_eq!(now.position(), (2, 8));
        assert!(
            covers(now.position(), (1, 900)),
            "a new generation covers the old"
        );
        rotate.join().unwrap();
        // A replica's new image may sit behind the old one: reset moves back.
        wm.reset(2, 4);
        assert_eq!(wm.get(), (2, 4));
    }

    #[test]
    fn wake_releases_a_waiter_without_moving() {
        let wm = Arc::new(Watermark::default());
        let seen = wm.mark();
        wm.wake();
        let t0 = Instant::now();
        let now = wm.wait_past(seen, t0 + Duration::from_secs(2));
        assert_eq!(now.position(), seen.position());
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    /// A group committer over a fresh WAL file in its own temp dir.
    struct Log {
        dir: std::path::PathBuf,
        wal: sciql_store::wal::WalWriter,
        gc: Arc<GroupCommitter>,
        wm: Arc<Watermark>,
    }

    impl Log {
        fn new(tag: &str) -> Log {
            let dir = std::env::temp_dir().join(format!(
                "sciql-commit-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let wal = sciql_store::wal::WalWriter::create(&dir.join("wal-0.log")).unwrap();
            let wm = Arc::new(Watermark::default());
            let gc = Arc::new(GroupCommitter::new(Arc::clone(&wm)));
            Log { dir, wal, gc, wm }
        }

        /// Append one record and take its ticket, as a writer does.
        fn ticket(&mut self, epoch: u64) -> CommitTicket {
            self.wal.append(b"UPDATE m SET v = 1").unwrap();
            let handle = self.wal.sync_handle().unwrap();
            let pos = self.wal.bytes();
            CommitTicket { epoch, pos, handle }
        }

        fn fsyncs(&self) -> u64 {
            self.gc.lock().fsyncs
        }

        /// Pretend a leader's fsync is in flight, so redeemers park.
        fn hold_flush(&self) {
            self.gc.lock().flushing = true;
        }

        /// Redeem every ticket on its own thread; returns once all of
        /// them are parked in the queue.
        fn park(&self, tickets: Vec<CommitTicket>) -> Vec<std::thread::JoinHandle<Result<()>>> {
            let n = tickets.len();
            let waiters = tickets
                .into_iter()
                .map(|t| {
                    let gc = Arc::clone(&self.gc);
                    std::thread::spawn(move || gc.wait_durable(t))
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.gc.queue_depth() < n {
                assert!(
                    Instant::now() < deadline,
                    "writers led past a flush in flight"
                );
                std::thread::yield_now();
            }
            waiters
        }
    }

    impl Drop for Log {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    #[test]
    fn concurrent_redeemers_share_one_fsync() {
        let mut log = Log::new("group");
        let tickets: Vec<CommitTicket> = (0..8).map(|_| log.ticket(0)).collect();
        let highest = tickets.last().unwrap().pos;
        // Everyone arrives while a flush is in flight; when it ends, the
        // first waiter to wake leads one fsync that covers them all.
        log.hold_flush();
        let waiters = log.park(tickets);
        {
            let mut st = log.gc.lock();
            st.flushing = false;
            log.gc.cv.notify_all();
        }
        for w in waiters {
            w.join().unwrap().unwrap();
        }
        assert_eq!(log.fsyncs(), 1, "one fsync for 8 writers");
        assert!(covers(log.wm.get(), (0, highest)));
        assert_eq!(log.gc.queue_depth(), 0);
    }

    #[test]
    fn a_lone_writer_pays_one_fsync_per_ticket() {
        let mut log = Log::new("lone");
        for n in 1..=3 {
            let t = log.ticket(0);
            let pos = t.pos;
            log.gc.wait_durable(t).unwrap();
            assert_eq!(log.fsyncs(), n);
            assert_eq!(log.wm.get(), (0, pos));
        }
        assert_eq!(log.gc.queue_depth(), 0);
    }

    #[test]
    fn advance_epoch_releases_parked_writers() {
        let mut log = Log::new("epoch");
        let tickets: Vec<CommitTicket> = (0..3).map(|_| log.ticket(0)).collect();
        log.hold_flush();
        let waiters = log.park(tickets);
        // The checkpoint's snapshot made every parked record durable.
        log.gc.advance_epoch(1);
        for w in waiters {
            w.join().unwrap().unwrap();
        }
        assert_eq!(log.gc.queue_depth(), 0);
        assert_eq!(log.fsyncs(), 0, "the rotation, not an fsync, released them");
        // An old-epoch ticket is already durable; a new one leads.
        let stale = log.ticket(0);
        log.gc.wait_durable(stale).unwrap();
        let t = log.ticket(1);
        let pos = t.pos;
        log.gc.wait_durable(t).unwrap();
        assert_eq!(log.fsyncs(), 1);
        assert_eq!(log.wm.get(), (1, pos));
    }
}
