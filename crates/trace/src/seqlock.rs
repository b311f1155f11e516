//! The one seqlock slot (DESIGN.md §8a) behind every lock-free record the
//! observability crates publish: trace ring slots, live span stacks,
//! histogram exemplars and journal slots.
//!
//! A [`SeqSlot`] is a version word plus `N` payload words. Odd versions
//! mean a write is in progress; a reader copies the payload between two
//! loads of an even version and keeps the copy only if both agree. Version
//! 0 means the slot was never written (or was [`clear`](SeqSlot::clear)ed)
//! and reads as `None`.
//!
//! Two writer modes, one per slot:
//!
//! * [`write`](SeqSlot::write): the slot has one writer (the owning thread
//!   of a ring or stack, the ticket holder of a journal slot). Publishing
//!   costs a load, two version stores, one Release fence and the payload
//!   stores — no read-modify-write.
//! * [`try_write`](SeqSlot::try_write): several writers race for the slot.
//!   A writer claims it by CAS on an even version and drops its sample when
//!   the slot is held, so a writer never spins or blocks.
//!
//! Mixing the two modes on one slot is not supported: a `write` does not
//! exclude a concurrent `try_write`.

use crate::sync::{fence, AtomicU64, Ordering};

/// A version word and `N` payload words. See the module docs.
pub struct SeqSlot<const N: usize> {
    version: AtomicU64,
    words: [AtomicU64; N],
}

/// The payload words of a [`SeqSlot`], handed to the closures of
/// [`SeqSlot::write`], [`SeqSlot::try_write`] and [`SeqSlot::read`].
///
/// Inside `write`/`try_write` the caller holds the slot: [`get`](Self::get)
/// returns what this writer (or an earlier one) stored. Inside `read` the
/// values may be torn; they are only trusted once `read` returns `Some`.
pub struct SeqWords<'a, const N: usize>(&'a [AtomicU64; N]);

impl<const N: usize> SeqWords<'_, N> {
    /// Payload word `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        // ORDERING: relaxed — the version word orders the payload: a writer
        // reads its own stores, and a reader's copy is validated by the
        // Acquire fence and version recheck in `SeqSlot::read`.
        self.0[i].load(Ordering::Relaxed)
    }

    /// Every payload word, in order.
    #[inline]
    pub fn get_all(&self) -> [u64; N] {
        std::array::from_fn(|i| self.get(i))
    }

    /// Store `vals` into the payload words starting at `start`.
    #[inline]
    pub fn set(&self, start: usize, vals: &[u64]) {
        for (w, &v) in self.0[start..start + vals.len()].iter().zip(vals) {
            // ORDERING: relaxed — ordered after the odd version by the
            // writer's Release fence and published by the Release store of
            // the even version.
            w.store(v, Ordering::Relaxed);
        }
    }
}

impl<const N: usize> Default for SeqSlot<N> {
    fn default() -> Self {
        SeqSlot::new()
    }
}

impl<const N: usize> SeqSlot<N> {
    /// A never-written slot (version 0, payload zeroed).
    pub fn new() -> Self {
        SeqSlot { version: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Single-writer publish: `f` stores the payload (it may read the words
    /// it is about to change). The caller guarantees no other `write` or
    /// `try_write` on this slot runs concurrently.
    #[inline]
    pub fn write<R>(&self, f: impl FnOnce(&SeqWords<'_, N>) -> R) -> R {
        // ORDERING: relaxed — the sole writer reads its own last store.
        let v = self.version.load(Ordering::Relaxed);
        // ORDERING: relaxed — the Release fence below orders this odd
        // version before every payload store.
        self.version.store(v + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let r = f(&SeqWords(&self.words));
        self.version.store(v + 2, Ordering::Release);
        r
    }

    /// Try-lock publish for several writers: claim the slot by CAS from an
    /// even version, run `f`, publish. Returns `false`, without running
    /// `f`, when another writer holds the slot or wins the claim.
    #[inline]
    pub fn try_write(&self, f: impl FnOnce(&SeqWords<'_, N>)) -> bool {
        // ORDERING: relaxed — only seeds the claim CAS below.
        let v = self.version.load(Ordering::Relaxed);
        if v % 2 == 1 {
            return false;
        }
        // ORDERING: relaxed CAS — the claim only excludes other writers;
        // the Release fence below orders the odd version before the payload.
        if self.version.compare_exchange(v, v + 1, Ordering::Relaxed, Ordering::Relaxed).is_err()
        {
            return false;
        }
        fence(Ordering::Release);
        f(&SeqWords(&self.words));
        self.version.store(v + 2, Ordering::Release);
        true
    }

    /// One read attempt: `Some(f(words))` when the slot held one published
    /// payload for the whole of `f`; `None` when it was never written, a
    /// write was in progress, or the version changed. `f` must only copy
    /// (its inputs may be torn); callers choose their own retry count.
    #[inline]
    pub fn read<R>(&self, f: impl FnOnce(&SeqWords<'_, N>) -> R) -> Option<R> {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 == 0 || v1 % 2 == 1 {
            return None;
        }
        let r = f(&SeqWords(&self.words));
        fence(Ordering::Acquire);
        // ORDERING: relaxed — ordered after the copies by the fence above.
        (self.version.load(Ordering::Relaxed) == v1).then_some(r)
    }

    /// Mark the slot never-written: it reads as `None` until the next
    /// publish. Meant for quiescent resets (tests); a concurrent writer may
    /// republish immediately.
    pub fn clear(&self) {
        self.version.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_written_reads_none() {
        let s = SeqSlot::<2>::new();
        assert_eq!(s.read(|w| w.get_all()), None);
        s.write(|w| w.set(0, &[7, 8]));
        assert_eq!(s.read(|w| w.get_all()), Some([7, 8]));
        s.clear();
        assert_eq!(s.read(|w| w.get_all()), None);
    }

    #[test]
    fn write_sees_own_words_and_keeps_the_rest() {
        let s = SeqSlot::<3>::new();
        s.write(|w| w.set(0, &[1, 2, 3]));
        let old = s.write(|w| {
            let old = w.get(1);
            w.set(1, &[old + 10]);
            old
        });
        assert_eq!(old, 2);
        assert_eq!(s.read(|w| w.get_all()), Some([1, 12, 3]));
    }

    #[test]
    fn try_write_claims_only_an_idle_slot() {
        let s = SeqSlot::<1>::new();
        assert!(s.try_write(|w| w.set(0, &[5])));
        // A writer that finds the slot held drops its sample.
        let nested = s.write(|_| s.try_write(|w| w.set(0, &[6])));
        assert!(!nested);
        assert_eq!(s.read(|w| w.get(0)), Some(5));
        // A read that overlaps a write is rejected.
        assert_eq!(s.write(|_| s.read(|w| w.get(0))), None);
    }

    #[test]
    fn concurrent_writer_never_tears_a_read() {
        let s = std::sync::Arc::new(SeqSlot::<4>::new());
        let w = std::sync::Arc::clone(&s);
        let writer = std::thread::spawn(move || {
            for i in 1..=500u64 {
                w.write(|p| p.set(0, &[i, i, i, i]));
            }
        });
        let mut seen = 0;
        while seen < 100 {
            if let Some(words) = s.read(|w| w.get_all()) {
                assert!(words.iter().all(|&x| x == words[0]), "torn read {words:?}");
                seen += 1;
            }
            if writer.is_finished() {
                break;
            }
        }
        writer.join().unwrap();
        assert_eq!(s.read(|w| w.get_all()), Some([500; 4]));
    }
}
