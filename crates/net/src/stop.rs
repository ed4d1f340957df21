//! A stop flag a thread can also wait on: a cheap check for loops, and
//! a backoff (after a failed `accept`, before redialling a primary) that
//! ends the moment someone calls [`Stop::stop`].

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A one-way stop flag with a wakeable wait.
#[derive(Debug, Default)]
pub struct Stop {
    flag: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Stop {
    /// Raise the flag and wake every [`Stop::wait`]er. Idempotent.
    pub fn stop(&self) {
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.flag.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Has [`Stop::stop`] been called?
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Wait up to `timeout`, returning early once stopped. Returns
    /// [`Stop::is_stopped`].
    pub fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while !self.is_stopped() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            guard = self
                .cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        self.is_stopped()
    }
}

/// Pause before accepting again after `accept()` itself failed (say, out
/// of file descriptors), so an accept loop does not spin on the error.
pub(crate) const ACCEPT_RETRY: Duration = Duration::from_millis(20);

/// Unblock a thread parked in `accept()` on `addr` by connecting to it
/// (over loopback when the listener is bound to the unspecified
/// address). The connection is dropped at once; the accept loop checks
/// its stop flag before looking at what it accepted.
pub(crate) fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect(addr).ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_times_out_or_ends_at_stop() {
        let stop = Arc::new(Stop::default());
        assert!(!stop.wait(Duration::from_millis(10)));
        let t0 = Instant::now();
        let stopper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || stop.stop())
        };
        assert!(stop.wait(Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
        stopper.join().unwrap();
    }
}
