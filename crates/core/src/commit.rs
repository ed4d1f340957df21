//! Group commit: one fsync amortised over many concurrent writers.
//!
//! Under per-statement durability every acknowledged mutation pays its
//! own WAL fsync — correct, but at 64 concurrent writers the disk does
//! 64 identical flushes where one would do. Group commit decouples the
//! *append* (serialized under the engine's connection lock) from the
//! *sync point*: a writer appends its WAL record without syncing, takes
//! a [`CommitTicket`] naming the log position its durability requires,
//! releases the connection lock, and parks on the [`GroupCommitter`].
//! A dedicated commit thread fsyncs the shared log file once and wakes
//! every writer whose position the flush covered. The durability
//! contract is unchanged: no statement is acknowledged to its client
//! before its WAL record is on stable storage.
//!
//! WAL rotation (a checkpoint) is the epoch boundary: the checkpoint
//! itself makes every previously appended record durable via the
//! snapshot, so tickets from an older epoch are released immediately
//! and the committer forgets the stale file handle.
//!
//! Whatever made a write durable — a group fsync, a synchronous append,
//! a checkpoint, or on a replica the execution of a shipped burst — then
//! publishes the new position on the engine's [`Watermark`]. That one
//! signal is all the replication shipper and monotonic-read token
//! waiters block on.

use crate::{EngineError, Result};
use sciql_store::wal::WalSyncHandle;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
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
    /// each other — the group-commit thread, synchronous appends,
    /// checkpoints — never move the watermark backwards.
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
    /// Positions of writers parked for `epoch`, in append order.
    pending: Vec<u64>,
    /// A group fsync failed: durability for this epoch cannot be
    /// promised until a checkpoint starts a new one.
    sync_failed: Option<String>,
    shutdown: bool,
}

/// The shared group-commit coordinator: writer registration, the
/// dedicated fsync thread, and the write-queue admission gate.
#[derive(Debug)]
pub struct GroupCommitter {
    state: Mutex<GcState>,
    cv: Condvar,
    /// Writers allowed in the commit queue before admission control
    /// refuses new ones with [`EngineError::Busy`] (`0` = unlimited).
    max_queued: usize,
    /// Lock-free mirror of `pending.len()` for the admission fast path.
    depth: AtomicUsize,
    /// Where each group fsync publishes the position it made durable.
    watermark: Arc<Watermark>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl GroupCommitter {
    /// Start the committer with its dedicated fsync thread, publishing
    /// every durable position on `watermark`.
    pub fn spawn(max_queued: usize, watermark: Arc<Watermark>) -> Arc<GroupCommitter> {
        let gc = Arc::new(GroupCommitter {
            state: Mutex::new(GcState::default()),
            cv: Condvar::new(),
            max_queued,
            depth: AtomicUsize::new(0),
            watermark,
            thread: Mutex::new(None),
        });
        let worker = Arc::clone(&gc);
        let handle = std::thread::Builder::new()
            .name("sciql-group-commit".into())
            .spawn(move || worker.run())
            .expect("spawn group-commit thread");
        *gc.thread.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
        gc
    }

    /// A committer without an fsync thread whose queue is full: one
    /// writer is parked and nothing will ever release it.
    #[cfg(test)]
    pub(crate) fn saturated() -> Arc<GroupCommitter> {
        Arc::new(GroupCommitter {
            state: Mutex::new(GcState::default()),
            cv: Condvar::new(),
            max_queued: 1,
            depth: AtomicUsize::new(1),
            watermark: Arc::default(),
            thread: Mutex::new(None),
        })
    }

    fn lock(&self) -> MutexGuard<'_, GcState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Writers currently parked in the commit queue.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Admission check for a new write. `Err(Busy)` means the commit
    /// queue is full; nothing has been executed and the client may
    /// simply retry.
    pub fn admit(&self) -> Result<()> {
        if self.max_queued > 0 && self.depth.load(Ordering::Relaxed) >= self.max_queued {
            return Err(EngineError::Busy(format!(
                "write queue full ({} writers pending durability)",
                self.max_queued
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
    /// snapshot). Called *after* releasing the connection lock, so
    /// concurrent writers pile onto one fsync instead of serialising.
    pub fn wait_durable(&self, ticket: CommitTicket) -> Result<()> {
        let mut st = self.lock();
        if ticket.epoch > st.epoch {
            // First writer of a new WAL generation: previous-epoch
            // waiters were already released by the rotation.
            st.epoch = ticket.epoch;
            st.handle = Some(ticket.handle);
            st.requested = ticket.pos;
            st.durable = 0;
            st.sync_failed = None;
            st.pending.clear();
        } else if ticket.epoch == st.epoch {
            st.requested = st.requested.max(ticket.pos);
            if st.handle.is_none() {
                st.handle = Some(ticket.handle);
            }
        } else {
            // A checkpoint rotated the WAL after this append; the
            // snapshot already made the effect durable.
            return Ok(());
        }
        st.pending.push(ticket.pos);
        self.set_depth(&st);
        self.cv.notify_all();
        loop {
            if st.epoch > ticket.epoch || st.durable >= ticket.pos {
                return Ok(());
            }
            if st.shutdown || st.sync_failed.is_some() {
                st.pending.retain(|&p| p != ticket.pos);
                self.set_depth(&st);
                let why = st
                    .sync_failed
                    .clone()
                    .unwrap_or_else(|| "engine shut down before the commit was durable".into());
                return Err(EngineError::msg(format!("group commit failed: {why}")));
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A checkpoint rotated the WAL into generation `epoch`: everything
    /// appended before it is durable via the snapshot, so release every
    /// parked writer and drop the stale file handle.
    pub fn advance_epoch(&self, epoch: u64) {
        let mut st = self.lock();
        if epoch > st.epoch {
            st.epoch = epoch;
            st.handle = None;
            st.requested = 0;
            st.durable = 0;
            st.sync_failed = None;
            st.pending.clear();
            self.set_depth(&st);
            self.cv.notify_all();
        }
    }

    /// Stop the fsync thread (any parked writer is failed, not left
    /// hanging) and join it.
    pub fn stop(&self) {
        {
            let mut st = self.lock();
            st.shutdown = true;
            self.cv.notify_all();
        }
        let handle = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// The dedicated commit thread: whenever writers are parked, fsync
    /// the epoch's log once up to the highest requested position, then
    /// wake everyone that flush covered. Writers arriving *during* the
    /// fsync batch into the next one — that is the whole trick.
    fn run(&self) {
        let m = sciql_obs::global();
        let mut st = self.lock();
        loop {
            if st.shutdown {
                self.cv.notify_all();
                return;
            }
            let work = st.sync_failed.is_none() && st.requested > st.durable && st.handle.is_some();
            if !work {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            let epoch = st.epoch;
            let target = st.requested;
            let handle = st.handle.clone().expect("checked above");
            drop(st);
            let t0 = Instant::now();
            let synced = handle.sync();
            m.wal_fsyncs.inc();
            m.wal_fsync_ns.observe(t0.elapsed());
            st = self.lock();
            if st.epoch == epoch {
                match synced {
                    Ok(()) => {
                        st.durable = st.durable.max(target);
                        self.watermark.publish(epoch, st.durable);
                        let before = st.pending.len();
                        st.pending.retain(|&p| p > target);
                        let batch = (before - st.pending.len()) as u64;
                        if batch > 0 {
                            m.group_commits.inc();
                            m.wal_fsyncs_saved.add(batch - 1);
                            m.group_commit_batch.observe_ns(batch);
                        }
                        self.set_depth(&st);
                    }
                    Err(e) => st.sync_failed = Some(e.to_string()),
                }
            }
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
}
