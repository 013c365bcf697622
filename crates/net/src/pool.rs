//! A shared pool of reusable wire buffers.
//!
//! Every `S_FT` step serializes a message onto a socket; with a fresh
//! `Vec<u8>` per send, the steady-state hot path allocates on every
//! exchange. [`BufPool`] breaks that cycle: a [`Lease`] hands out a cleared
//! buffer whose *capacity* survives from earlier sends, and dropping the
//! lease returns the buffer for the next one. After the first few messages
//! warm the pool, the encode → frame → write pipeline allocates nothing.
//!
//! The pool is a plain mutex-guarded stack shared by all threads — no
//! thread-locals, so a writer thread that dies never strands capacity, and
//! the lease accounting (exported through `aoft-obs`) can prove the
//! steady-state claim: `outstanding` returns to zero when the machine goes
//! idle.

use std::sync::OnceLock;

use parking_lot::Mutex;

/// Idle buffers kept beyond this count are dropped instead of retained.
const MAX_IDLE: usize = 64;

/// A returned buffer with more capacity than this is dropped rather than
/// retained — one pathological frame must not pin megabytes forever.
const MAX_RETAINED_CAPACITY: usize = 1 << 20;

/// A stack of reusable `Vec<u8>` buffers with lease/return accounting.
#[derive(Debug, Default)]
pub struct BufPool {
    idle: Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    /// An empty pool.
    pub const fn new() -> Self {
        Self {
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Takes a cleared buffer out of the pool, allocating a fresh one only
    /// when the pool is empty. The buffer returns on [`Lease`] drop.
    pub fn lease(&self) -> Lease<'_> {
        let buf = {
            let mut idle = self.idle.lock();
            let buf = idle.pop();
            if let Some(b) = buf.as_ref() {
                aoft_obs::global()
                    .buf_pool_retained_bytes
                    .add(-(b.capacity() as i64));
            }
            buf
        }
        .unwrap_or_default();
        let reg = aoft_obs::global();
        reg.buf_pool_leases.inc();
        reg.buf_pool_outstanding.add(1);
        let now_out = reg.buf_pool_outstanding.get();
        if now_out > reg.buf_pool_high_water.get() {
            reg.buf_pool_high_water.set(now_out);
        }
        Lease {
            pool: self,
            buf: Some(buf),
        }
    }

    fn give_back(&self, mut buf: Vec<u8>) {
        buf.clear();
        if buf.capacity() <= MAX_RETAINED_CAPACITY {
            let mut idle = self.idle.lock();
            if idle.len() < MAX_IDLE {
                aoft_obs::global()
                    .buf_pool_retained_bytes
                    .add(buf.capacity() as i64);
                idle.push(buf);
            }
        }
        aoft_obs::global().buf_pool_outstanding.add(-1);
    }
}

/// The process-wide pool the transport hot path leases from.
pub fn global() -> &'static BufPool {
    static GLOBAL: OnceLock<BufPool> = OnceLock::new();
    GLOBAL.get_or_init(BufPool::new)
}

/// Wire buffers currently leased out of the process-wide pool. Zero once
/// every in-flight frame has been written — the steady-state invariant the
/// pool-reuse test asserts.
pub fn outstanding() -> i64 {
    aoft_obs::global().buf_pool_outstanding.get()
}

/// An exclusive loan of one pool buffer; dereferences to `Vec<u8>` and
/// returns the buffer (cleared, capacity kept) on drop.
#[derive(Debug)]
pub struct Lease<'a> {
    pool: &'a BufPool,
    buf: Option<Vec<u8>>,
}

impl std::ops::Deref for Lease<'_> {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        self.buf.as_ref().expect("buffer present until drop")
    }
}

impl std::ops::DerefMut for Lease<'_> {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.give_back(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_reuses_capacity() {
        let pool = BufPool::new();
        {
            let mut lease = pool.lease();
            lease.extend_from_slice(&[1, 2, 3, 4]);
        }
        let lease = pool.lease();
        assert!(lease.is_empty(), "returned buffers come back cleared");
        assert!(lease.capacity() >= 4, "capacity survives the round trip");
    }

    #[test]
    fn concurrent_leases_get_distinct_buffers() {
        let pool = BufPool::new();
        let mut a = pool.lease();
        let mut b = pool.lease();
        a.push(1);
        b.push(2);
        assert_eq!(a[0], 1);
        assert_eq!(b[0], 2);
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let pool = BufPool::new();
        {
            let mut lease = pool.lease();
            lease.reserve(MAX_RETAINED_CAPACITY + 1);
        }
        assert_eq!(
            pool.lease().capacity(),
            0,
            "a fresh buffer, not the big one"
        );
    }

    #[test]
    fn accounting_balances_after_a_burst() {
        let before = outstanding();
        let pool = global();
        let leases: Vec<_> = (0..8).map(|_| pool.lease()).collect();
        assert_eq!(outstanding(), before + 8);
        drop(leases);
        assert_eq!(outstanding(), before);
        assert!(aoft_obs::global().buf_pool_high_water.get() >= 8);
    }
}
