//! The per-instruction execution context every primitive receives, and
//! the empty [`Registry`] kept for one out-of-workspace caller.

use gdk::ParConfig;
use std::cell::Cell;

/// Per-instruction execution context handed to every primitive: the
/// parallel-driver configuration plus a channel for reporting how many
/// worker threads the kernel actually used (collected into
/// [`crate::interp::ExecStats`]).
#[derive(Debug)]
pub struct ExecCtx {
    /// Parallel kernel configuration for this instruction. Instructions
    /// whose opcode is not [`crate::Prim::parallel_safe`] receive
    /// [`ParConfig::serial`].
    pub par: ParConfig,
    threads_used: Cell<usize>,
    avoided_intermediates: Cell<usize>,
    avoided_bytes: Cell<usize>,
    tiles_skipped: Cell<usize>,
}

impl ExecCtx {
    /// Context with the given parallel configuration.
    pub fn new(par: ParConfig) -> Self {
        ExecCtx {
            par,
            threads_used: Cell::new(1),
            avoided_intermediates: Cell::new(0),
            avoided_bytes: Cell::new(0),
            tiles_skipped: Cell::new(0),
        }
    }

    /// Context that forces serial execution.
    pub fn serial() -> Self {
        ExecCtx::new(ParConfig::serial())
    }

    /// Record that a kernel ran with `k` worker threads.
    pub fn note_threads(&self, k: usize) {
        self.threads_used.set(self.threads_used.get().max(k));
    }

    /// Worker threads used by the instruction executed under this
    /// context (1 when everything ran serially).
    pub fn threads_used(&self) -> usize {
        self.threads_used.get()
    }

    /// Record that a fused kernel skipped materialising `intermediates`
    /// intermediate results totalling roughly `bytes` bytes (candidate
    /// lists, projected payload BATs). Collected into
    /// [`crate::interp::ExecStats`].
    pub fn note_avoided(&self, intermediates: usize, bytes: usize) {
        self.avoided_intermediates
            .set(self.avoided_intermediates.get() + intermediates);
        self.avoided_bytes.set(self.avoided_bytes.get() + bytes);
    }

    /// `(intermediates, bytes)` this instruction avoided materialising.
    pub fn avoided(&self) -> (usize, usize) {
        (self.avoided_intermediates.get(), self.avoided_bytes.get())
    }

    /// Record that a selection consulted a zone map and skipped `n`
    /// tiles without scanning them.
    pub fn note_tiles_skipped(&self, n: usize) {
        self.tiles_skipped.set(self.tiles_skipped.get() + n);
    }

    /// Tiles skipped by zone-map consultation under this context.
    pub fn tiles_skipped(&self) -> usize {
        self.tiles_skipped.get()
    }
}

impl Default for ExecCtx {
    fn default() -> Self {
        ExecCtx::serial()
    }
}

/// An empty stand-in for the retired primitive registry. Primitives are
/// [`crate::Prim`] opcodes dispatched by [`crate::prims::call`], so nothing
/// in the workspace reads this. It is kept only because the standalone
/// `benchmark/` crate still names it and passes it to
/// [`crate::optimise`]; it goes once that caller drops it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Registry;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_reports_threads() {
        let ctx = ExecCtx::new(ParConfig::with_threads(4));
        assert_eq!(ctx.threads_used(), 1);
        ctx.note_threads(3);
        ctx.note_threads(2);
        assert_eq!(ctx.threads_used(), 3);
        assert_eq!(ExecCtx::serial().par.threads, 1);
    }
}
