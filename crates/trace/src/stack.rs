//! Live span-stack publication for the continuous profiler (DESIGN.md §12).
//!
//! Every profiled thread owns one [`LiveStackShared`]: a depth word and a
//! fixed array of [`STACK_CAP`] frames in one [`SeqSlot`]. The owning
//! thread is the only writer — a span open/close is one `SeqSlot::write`
//! that stores the new frame (on push) and the depth — and the profiler's
//! sampler thread reads with `SeqSlot::read`, rejecting (and counting)
//! torn snapshots instead of ever blocking the mutatee.
//!
//! With profiling disabled a probe never touches this module; with it
//! enabled the cost per span is a handful of relaxed stores and one fence.

use crate::seqlock::SeqSlot;
use crate::sync::{AtomicU64, Ordering};
use crate::Category;
use std::sync::{Arc, Mutex, OnceLock};

/// Frames retained per thread stack. Deeper nesting still counts toward
/// `depth` (so pops stay balanced) but the extra frames are not stored;
/// the sample is flagged truncated.
pub const STACK_CAP: usize = 32;

/// Words per frame: `[name_ptr, name_len, meta]` with `meta` packing
/// `category | arg << 8`.
const FRAME_WORDS: usize = 3;

/// Slot layout: word 0 is the true open-frame count (may exceed
/// [`STACK_CAP`]); frame `i` starts at word `1 + i * FRAME_WORDS`.
const STACK_WORDS: usize = 1 + STACK_CAP * FRAME_WORDS;

pub(crate) struct LiveStackShared {
    tid: u64,
    /// 1 while the owning thread is alive; 0 once its thread-locals ran
    /// down. Dead stacks are skipped by the sampler (their threads no
    /// longer accumulate wall-time).
    alive: AtomicU64,
    node_id: AtomicU64,
    slot: SeqSlot<STACK_WORDS>,
}

impl LiveStackShared {
    /// Built by the owning thread, which publishes depth 0 once so a
    /// sampler reads a fresh stack as empty, not as never written.
    pub(crate) fn new(tid: u64, node_id: u64) -> LiveStackShared {
        let s = LiveStackShared {
            tid,
            alive: AtomicU64::new(1),
            node_id: AtomicU64::new(node_id),
            slot: SeqSlot::new(),
        };
        s.slot.write(|w| w.set(0, &[0]));
        s
    }

    pub(crate) fn set_node(&self, node_id: u64) {
        // ORDERING: relaxed — node_id is a plain integer label.
        self.node_id.store(node_id, Ordering::Relaxed);
    }

    pub(crate) fn mark_dead(&self) {
        // ORDERING: release — pairs with the sampler's Acquire load; frames
        // written before death must not be sampled after it.
        self.alive.store(0, Ordering::Release);
    }

    /// Single-writer (the owning thread) push of one frame.
    pub(crate) fn push(&self, name: &'static str, cat: Category, arg: u64) {
        self.slot.write(|w| {
            let d = w.get(0) as usize;
            if d < STACK_CAP {
                let frame = [name.as_ptr() as u64, name.len() as u64, cat as u64 | arg << 8];
                w.set(1 + d * FRAME_WORDS, &frame);
            }
            w.set(0, &[d as u64 + 1]);
        })
    }

    /// Single-writer pop of the innermost frame.
    pub(crate) fn pop(&self) {
        self.slot.write(|w| w.set(0, &[w.get(0).saturating_sub(1)]))
    }

    /// One read attempt: `None` when the stack was mid-write or the version
    /// recheck failed (torn), `Some((frames, truncated))` on a consistent
    /// snapshot.
    pub(crate) fn sample_once(&self) -> Option<(Vec<StackFrame>, bool)> {
        let (depth, copy) = self.slot.read(|w| {
            let depth = w.get(0) as usize;
            let copy: Vec<[u64; FRAME_WORDS]> = (0..depth.min(STACK_CAP))
                .map(|i| std::array::from_fn(|k| w.get(1 + i * FRAME_WORDS + k)))
                .collect();
            (depth, copy)
        })?;
        let frames = copy
            .into_iter()
            .map(|w| StackFrame {
                // SAFETY: a validated read returns a ptr/len pair the owning
                // thread stored together, and pushers only ever store
                // `&'static str`s.
                name: unsafe { crate::static_str(w[0], w[1]) },
                // LOSSY: meta packs the category in the low byte by
                // construction (`push`).
                cat: Category::from_u8((w[2] & 0xff) as u8),
                arg: w[2] >> 8,
            })
            .collect();
        Some((frames, depth > STACK_CAP))
    }

    /// Read with a bounded retry against concurrent mutation; `None` when
    /// every attempt was torn.
    fn sample(&self) -> Option<(Vec<StackFrame>, bool)> {
        (0..8).find_map(|_| self.sample_once())
    }
}

/// One decoded frame of a sampled thread stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackFrame {
    /// Static span name (same string the trace ring records).
    pub name: &'static str,
    /// Span category; `Category::Stall` frames are the off-CPU buckets.
    pub cat: Category,
    /// Span payload (stall reason code, bytes, ...).
    pub arg: u64,
}

/// One thread's sampled stack, outermost frame first.
#[derive(Debug, Clone)]
pub struct ThreadStack {
    /// Trace-local thread id (same namespace as `Event::tid`).
    pub tid: u64,
    /// Logical node id (0 = compute, memnode ids offset +1).
    pub node_id: u64,
    /// Node label ("compute", "memnode", ...).
    pub node_label: &'static str,
    /// Open frames, outermost first; empty = the thread is registered but
    /// between spans (on-CPU outside instrumentation, or idle).
    pub frames: Vec<StackFrame>,
    /// True when the live depth exceeded [`STACK_CAP`]; the innermost
    /// frames are missing.
    pub truncated: bool,
}

/// One whole-process sampling pass over every live registered thread.
#[derive(Debug, Clone, Default)]
pub struct StacksSample {
    /// Consistent snapshots, one per live thread that yielded one.
    pub stacks: Vec<ThreadStack>,
    /// Threads whose stacks were torn on every read attempt this pass.
    pub torn: u64,
}

pub(crate) fn stack_registry() -> &'static Mutex<Vec<Arc<LiveStackShared>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<LiveStackShared>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Snapshot every live registered thread's span stack (the profiler's
/// sampling primitive). Dead threads are skipped and pruned; threads whose
/// stack was mid-mutation on every retry are counted in `torn`.
pub fn sample_stacks() -> StacksSample {
    let stacks: Vec<Arc<LiveStackShared>> = {
        let mut reg = stack_registry().lock().unwrap_or_else(|e| e.into_inner());
        // ORDERING: acquire — pairs with `mark_dead`'s Release; a dead
        // thread's final frames must not be resampled.
        reg.retain(|s| s.alive.load(Ordering::Acquire) == 1);
        reg.clone()
    };
    let mut out = StacksSample::default();
    for s in stacks {
        match s.sample() {
            Some((frames, truncated)) => {
                // ORDERING: relaxed — plain integer label; the label string
                // is derived from it.
                let node_id = s.node_id.load(Ordering::Relaxed);
                out.stacks.push(ThreadStack {
                    tid: s.tid,
                    node_id,
                    node_label: crate::node_label(node_id),
                    frames,
                    truncated,
                });
            }
            None => out.torn += 1,
        }
    }
    out
}
