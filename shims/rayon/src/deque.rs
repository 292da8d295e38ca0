//! A lock-free Chase–Lev work-stealing deque on std atomics only.
//!
//! This is the pending-pal-thread container of the runtime: one deque per
//! worker, owner pushes and pops at the *bottom* (newest end, the LIFO
//! fork/join fast path), thieves take from the *top* (oldest end), which is
//! exactly the LoPRAM §3.1 rule that pending pal-threads are activated "in a
//! manner consistent with order of creation as resources become available".
//! The build container has no network, so this is implemented from scratch
//! (no `crossbeam-deque`), following the algorithm of Chase & Lev, *Dynamic
//! circular work-stealing deque* (SPAA 2005), with the explicit
//! weak-memory orderings of Lê, Pop, Cohen & Zappa Nardelli, *Correct and
//! efficient work-stealing for weak memory models* (PPoPP 2013).
//!
//! # Memory-ordering argument
//!
//! * **`push`** writes the element into the buffer and then publishes it
//!   with a `Release` store to `bottom`.  A thief that observes the new
//!   `bottom` via its `Acquire` load therefore also observes the element
//!   write (release/acquire pairing on `bottom`).
//! * **`steal`** loads `top` (`Acquire`), issues a `SeqCst` fence, loads
//!   `bottom`, reads the element at `top`, and only then claims it with a
//!   `SeqCst` compare-exchange on `top`.  The claim is the linearization
//!   point: exactly one thief (or the owner racing on the last element) can
//!   move `top` from `t` to `t + 1`, so every element is handed out at most
//!   once.
//! * **`pop`** first *reserves* the bottom element by decrementing `bottom`,
//!   then issues a `SeqCst` fence before reading `top`.  The matching
//!   `SeqCst` fence in `steal` (between its `top` and `bottom` loads) makes
//!   this a Dekker-style handshake: either the thief sees the decremented
//!   `bottom` (and gives up on the last element), or the owner sees the
//!   incremented `top` (and races for it with a `SeqCst` CAS).  Without the
//!   two fences both sides could read stale values and hand the same element
//!   out twice.
//! * **Growth** allocates a buffer of twice the capacity, copies the live
//!   range `top..bottom`, and publishes it with a `Release` store.  The old
//!   buffer is *retired*, not freed: a concurrent thief may still hold the
//!   old pointer and read an element from it.  That stale read is harmless —
//!   the bytes at indices `< top` are never overwritten in a retired buffer,
//!   and the thief's subsequent CAS on `top` decides whether its copy is the
//!   authoritative one.  Retired buffers are freed when the deque is
//!   dropped.
//!
//! A value read by a thief that then *loses* the CAS race is [`mem::forget`]
//! ten: ownership stays with whoever wins the race for that index, so no
//! value is ever dropped twice (and none of the runtime's job types have
//! drop glue in the first place).

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::{self, MaybeUninit};
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

/// Initial buffer capacity (elements); must be a power of two.
const MIN_CAP: usize = 32;

/// A fixed-capacity circular buffer.  Never accessed mutably once shared;
/// all element slots are `UnsafeCell`s written by the owner only.
struct Buffer<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: isize,
}

impl<T> Buffer<T> {
    fn new(cap: usize) -> Box<Self> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Buffer {
            slots,
            mask: cap as isize - 1,
        })
    }

    fn cap(&self) -> usize {
        self.slots.len()
    }

    /// Write the slot for logical index `i`.
    ///
    /// # Safety
    /// Owner-only, and `i` must be outside the range any other thread may
    /// concurrently read (i.e. `i == bottom` during `push`, or the copy
    /// target of a growth).
    unsafe fn write(&self, i: isize, value: T) {
        (*self.slots[(i & self.mask) as usize].get()).write(value);
    }

    /// Read (bitwise copy) the slot for logical index `i`.
    ///
    /// # Safety
    /// `i` must have been initialized by a `write` that happens-before this
    /// read.  The caller must ensure at most one reader keeps the value
    /// (CAS on `top`, or owner exclusivity at `bottom`); a losing racer must
    /// `mem::forget` its copy.
    unsafe fn read(&self, i: isize) -> T {
        (*self.slots[(i & self.mask) as usize].get()).assume_init_read()
    }
}

struct Inner<T> {
    /// Oldest live index; thieves advance it with a CAS.
    top: AtomicIsize,
    /// One past the newest live index; owner-only writes.
    bottom: AtomicIsize,
    /// Current buffer (owned raw pointer; retired buffers keep old ones
    /// alive for in-flight thieves).
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers replaced by growth, freed on drop.  Mutex is fine: growth is
    /// rare (amortized) and owner-only; thieves never touch this.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: the deque hands each element to exactly one taker (see module
// docs); raw buffer pointers are managed solely by the owner + drop.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for Inner<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Exclusive access: drop live elements, then all buffers.
        let top = self.top.load(Ordering::Relaxed);
        let bottom = self.bottom.load(Ordering::Relaxed);
        let buf = self.buffer.load(Ordering::Relaxed);
        #[allow(unsafe_code)]
        unsafe {
            for i in top..bottom {
                drop((*buf).read(i));
            }
            drop(Box::from_raw(buf));
        }
        for old in self
            .retired
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
        {
            // Retired buffers hold only stale bitwise copies; the live
            // elements were moved to the current buffer, so free the
            // allocation without dropping slots.
            #[allow(unsafe_code)]
            unsafe {
                drop(Box::from_raw(old));
            }
        }
    }
}

/// Create a new empty deque, returning its owner and thief handles.
pub fn deque<T: Send>() -> (Worker<T>, Stealer<T>) {
    let inner = Arc::new(Inner {
        top: AtomicIsize::new(0),
        bottom: AtomicIsize::new(0),
        buffer: AtomicPtr::new(Box::into_raw(Buffer::new(MIN_CAP))),
        retired: Mutex::new(Vec::new()),
    });
    (
        Worker {
            inner: Arc::clone(&inner),
            _not_sync: PhantomData,
        },
        Stealer { inner },
    )
}

/// The owner end of a Chase–Lev deque: LIFO `push`/`pop` at the bottom.
///
/// There is exactly one `Worker` per deque and it is not `Sync`: `push` and
/// `pop` must stay on one thread at a time (the worker thread the runtime
/// pins it to).
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// Opt out of `Sync`: owner operations are single-threaded.
    _not_sync: PhantomData<*mut ()>,
}

// SAFETY: a Worker may be moved to another thread (that is how the runtime
// hands each spawned worker thread its deque); it just cannot be *shared*.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for Worker<T> {}

impl<T: Send> Worker<T> {
    /// Push `value` onto the bottom (newest end).  Grows the buffer when
    /// full; never blocks thieves.
    pub fn push(&self, value: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buffer.load(Ordering::Relaxed);
        #[allow(unsafe_code)]
        unsafe {
            if b - t >= (*buf).cap() as isize {
                buf = self.grow(b, t, buf);
            }
            (*buf).write(b, value);
        }
        // Publish: pairs with the Acquire load of `bottom` in `steal`.
        inner.bottom.store(b + 1, Ordering::Release);
    }

    /// Pop from the bottom (newest end) — the fork/join fast path.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buffer.load(Ordering::Relaxed);
        // Reserve the bottom element before looking at `top` …
        inner.bottom.store(b, Ordering::Relaxed);
        // … with a full fence so a concurrent thief either sees the
        // reservation or we see its claimed `top` (Dekker handshake with the
        // fence in `steal`).
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t <= b {
            if t == b {
                // Single element left: race thieves for it on `top`.
                let won = inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                inner.bottom.store(b + 1, Ordering::Relaxed);
                if won {
                    #[allow(unsafe_code)]
                    return Some(unsafe { (*buf).read(b) });
                }
                None
            } else {
                // More than one element: the reservation alone is enough.
                #[allow(unsafe_code)]
                Some(unsafe { (*buf).read(b) })
            }
        } else {
            // Deque was empty; undo the reservation.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// `true` when no element is currently visible (owner's view).
    pub fn is_empty(&self) -> bool {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        b <= t
    }

    /// Replace the full buffer with one of twice the capacity, copying the
    /// live range `t..b`.  Returns the new buffer pointer.
    ///
    /// # Safety
    /// Owner-only (single grower), `old` is the current buffer.
    #[allow(unsafe_code)]
    unsafe fn grow(&self, b: isize, t: isize, old: *mut Buffer<T>) -> *mut Buffer<T> {
        let new = Box::into_raw(Buffer::<T>::new((*old).cap() * 2));
        for i in t..b {
            // Bitwise copy: the old buffer keeps stale bytes that in-flight
            // thieves may still read; ownership is decided by `top` CASes.
            let v = (*old).read(i);
            (*new).write(i, v);
        }
        // Publish the new buffer before the `bottom` store that publishes
        // any element written into it.
        self.inner.buffer.store(new, Ordering::Release);
        self.inner
            .retired
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(old);
        new
    }
}

impl<T> std::fmt::Debug for Worker<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker").finish_non_exhaustive()
    }
}

/// The thief end of a Chase–Lev deque: FIFO `steal` from the top (oldest
/// end — §3.1 creation order).  Cloneable and shareable across threads.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Outcome of one [`Stealer::steal`] attempt.
#[derive(Debug)]
pub enum Steal<T> {
    /// No element was visible.
    Empty,
    /// Lost a race (another thief or the owner claimed the element first);
    /// worth retrying immediately.
    Retry,
    /// Stole the oldest element.
    Success(T),
}

impl<T: Send> Stealer<T> {
    /// Try to steal the oldest element.
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        // Pairs with the fence in `pop`: see module docs.
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Read the candidate *before* claiming it — after a successful CAS
        // the owner may reuse the slot.
        let buf = inner.buffer.load(Ordering::Acquire);
        #[allow(unsafe_code)]
        let value = unsafe { (*buf).read(t) };
        if inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(value)
        } else {
            // Someone else owns index `t`; our bitwise copy must not drop.
            mem::forget(value);
            Steal::Retry
        }
    }

    /// `true` when no element is currently visible (racy snapshot).
    pub fn is_empty(&self) -> bool {
        let t = self.inner.top.load(Ordering::Acquire);
        let b = self.inner.bottom.load(Ordering::Acquire);
        b <= t
    }
}

impl<T> std::fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stealer").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::thread;

    fn repeat(default: usize) -> usize {
        std::env::var("LOPRAM_TEST_REPEAT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    #[test]
    fn single_owner_push_pop_is_lifo() {
        let (w, _s) = deque::<u32>();
        assert!(w.pop().is_none());
        for i in 0..10 {
            w.push(i);
        }
        for i in (0..10).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert!(w.pop().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn steal_takes_oldest_first() {
        let (w, s) = deque::<u32>();
        for i in 0..5 {
            w.push(i);
        }
        // Thieves drain in creation (FIFO) order — the §3.1 activation rule.
        for i in 0..5 {
            match s.steal() {
                Steal::Success(v) => assert_eq!(v, i),
                other => panic!("expected Success({i}), got {other:?}"),
            }
        }
        assert!(matches!(s.steal(), Steal::Empty));
    }

    #[test]
    fn buffer_grows_past_initial_capacity() {
        let (w, s) = deque::<usize>();
        let n = MIN_CAP * 8 + 3;
        for i in 0..n {
            w.push(i);
        }
        // Steal a few from the old range, pop the rest: every element comes
        // back exactly once even though the buffer grew several times.
        let mut seen = HashSet::new();
        for _ in 0..5 {
            if let Steal::Success(v) = s.steal() {
                assert!(seen.insert(v));
            }
        }
        while let Some(v) = w.pop() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), n);
    }

    #[test]
    fn interleaved_push_pop_across_growth() {
        let (w, _s) = deque::<usize>();
        // Saw-tooth pattern that repeatedly crosses the growth boundary.
        let mut next = 0usize;
        for round in 0..6 {
            for _ in 0..MIN_CAP + round {
                w.push(next);
                next += 1;
            }
            for _ in 0..MIN_CAP / 2 {
                assert!(w.pop().is_some());
            }
        }
        while w.pop().is_some() {}
        assert!(w.is_empty());
    }

    /// Concurrent steal linearization: with several thieves racing the
    /// owner, every pushed value is taken exactly once — no loss, no
    /// duplication.  Loops under `LOPRAM_TEST_REPEAT` like the runtime
    /// stress suite.
    #[test]
    fn concurrent_steals_take_each_element_exactly_once() {
        const THIEVES: usize = 3;
        for round in 0..repeat(20) {
            let (w, s) = deque::<usize>();
            let n = 500;
            let done = AtomicBool::new(false);
            let stolen_count = AtomicUsize::new(0);
            let mut all: Vec<Vec<usize>> = Vec::new();

            thread::scope(|scope| {
                let mut handles = Vec::new();
                for _ in 0..THIEVES {
                    let s = s.clone();
                    let done = &done;
                    let stolen_count = &stolen_count;
                    handles.push(scope.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            match s.steal() {
                                Steal::Success(v) => {
                                    mine.push(v);
                                    stolen_count.fetch_add(1, Ordering::Relaxed);
                                }
                                Steal::Retry => {}
                                Steal::Empty => {
                                    if done.load(Ordering::Acquire) && s.is_empty() {
                                        break;
                                    }
                                    thread::yield_now();
                                }
                            }
                        }
                        mine
                    }));
                }

                // Owner: push everything, popping now and then to exercise
                // the last-element race.
                let mut popped = Vec::new();
                for i in 0..n {
                    w.push(i);
                    if i % 7 == 0 {
                        if let Some(v) = w.pop() {
                            popped.push(v);
                        }
                    }
                }
                while let Some(v) = w.pop() {
                    popped.push(v);
                }
                done.store(true, Ordering::Release);
                all.push(popped);
                for h in handles {
                    all.push(h.join().unwrap());
                }
            });

            let mut seen = HashSet::new();
            for v in all.iter().flatten() {
                assert!(seen.insert(*v), "round {round}: value {v} taken twice");
            }
            assert_eq!(seen.len(), n, "round {round}: values lost");
        }
    }

    #[test]
    fn values_left_in_deque_are_dropped() {
        // Drop glue runs for elements never taken (Arc strong counts prove it).
        let marker = Arc::new(());
        {
            let (w, _s) = deque::<Arc<()>>();
            for _ in 0..MIN_CAP * 3 {
                w.push(Arc::clone(&marker));
            }
            assert_eq!(Arc::strong_count(&marker), MIN_CAP * 3 + 1);
        }
        assert_eq!(Arc::strong_count(&marker), 1);
    }
}
