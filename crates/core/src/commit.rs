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

use crate::{EngineError, Result};
use sciql_store::wal::WalSyncHandle;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

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
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl GroupCommitter {
    /// Start the committer with its dedicated fsync thread.
    pub fn spawn(max_queued: usize) -> Arc<GroupCommitter> {
        let gc = Arc::new(GroupCommitter {
            state: Mutex::new(GcState::default()),
            cv: Condvar::new(),
            max_queued,
            depth: AtomicUsize::new(0),
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

    /// The committer's durability watermark: `(epoch, position)` of the
    /// newest group fsync. Positions appended in older epochs are
    /// durable via the checkpoint snapshot that rotated them away. The
    /// replication shipper combines this with the vault's synchronous
    /// watermark to bound what may be shipped.
    pub fn durable(&self) -> (u64, u64) {
        let st = self.lock();
        (st.epoch, st.durable)
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
