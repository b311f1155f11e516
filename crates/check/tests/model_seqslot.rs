//! Model-check the one seqlock primitive, `dlsm_trace::SeqSlot` (built with
//! the `shim` feature), that the trace rings, live span stacks, exemplar
//! slots and journal slots all publish through. Relaxed payload loads may
//! legally return stale values; the version recheck must reject every torn
//! combination in both writer modes.
//!
//! Two straw men prove the checker can catch the bug classes the primitive
//! exists to rule out: a publish that stores the even version before the
//! payload, and a try-lock that claims with a plain store instead of a CAS.

use std::sync::Arc;

use dlsm_check::shim::{fence, thread, AtomicU64, Ordering};
use dlsm_check::Checker;
use dlsm_telemetry::{bucket_index, ExemplarStore};
use dlsm_trace::SeqSlot;

const FIRST: [u64; 3] = [11, 22, 33];
const SECOND: [u64; 3] = [77, 88, 99];

/// Single writer vs. concurrent reader on one slot, including an overwrite
/// (the trace ring's wrap): every read is nothing or one whole payload,
/// never words from both writes or from the zeroed slot. Exhaustive over
/// >= 1000 interleavings.
#[test]
fn single_writer_reads_are_never_torn_across_overwrite() {
    let report = Checker::new("seqslot-write-read")
        .preemption_bound(4)
        .explore(|| {
            // Two reads: the second can overlap the second write's whole
            // store sequence (the first write makes the slot valid, so the
            // reader copies instead of bailing on version 0), which is where
            // tearing would happen and where the interleaving count comes from.
            let slot = Arc::new(SeqSlot::<3>::new());
            let w = Arc::clone(&slot);
            let t = thread::spawn(move || {
                w.write(|p| p.set(0, &FIRST));
                w.write(|p| p.set(0, &SECOND)); // overwrites the same slot
            });
            for _ in 0..2 {
                if let Some(got) = slot.read(|p| p.get_all()) {
                    assert!(got == FIRST || got == SECOND, "torn read admitted: {got:?}");
                }
            }
            t.join().unwrap();
            let last = slot.read(|p| p.get_all());
            assert_eq!(last, Some(SECOND), "quiescent slot must read the last publish");
        });
    assert!(report.violation.is_none(), "seqslot violation: {:?}", report.violation);
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(
        report.executions >= 1000,
        "expected >= 1000 interleavings, explored {}",
        report.executions
    );
}

/// A never-written slot reads as `None` — never as a zeroed payload — both
/// before its first publish and while that publish is in flight; a cleared
/// slot reads as never written again.
#[test]
fn never_written_slot_reads_none() {
    let report = Checker::new("seqslot-never-written")
        .preemption_bound(4)
        .explore(|| {
            let slot = Arc::new(SeqSlot::<3>::new());
            assert_eq!(slot.read(|p| p.get_all()), None, "fresh slot served a payload");
            let w = Arc::clone(&slot);
            let t = thread::spawn(move || w.write(|p| p.set(0, &FIRST)));
            if let Some(got) = slot.read(|p| p.get_all()) {
                assert_eq!(got, FIRST, "first publish read torn or zeroed");
            }
            t.join().unwrap();
            assert_eq!(slot.read(|p| p.get_all()), Some(FIRST));
            slot.clear();
            assert_eq!(slot.read(|p| p.get_all()), None, "cleared slot served a payload");
        });
    assert!(report.violation.is_none(), "never-written violation: {:?}", report.violation);
    assert!(report.complete, "state space truncated at {} executions", report.executions);
}

/// Try-lock mode through the real `ExemplarStore::record`: two recorders
/// race for one bucket while a reader samples it. A read is one whole
/// exemplar or nothing; at least one recorder installs; and because claims
/// exclude each other, each claim takes one `seq` and publishes it before
/// the next claim can start — so the quiescent exemplar's `seq` equals the
/// number of installs.
#[test]
fn try_writers_exclude_each_other() {
    const A: (u64, u64) = (1_000, 0xA);
    const B: (u64, u64) = (1_001, 0xB);
    let bucket = bucket_index(A.0);
    assert_eq!(bucket, bucket_index(B.0), "both recorders must race for one slot");
    let report = Checker::new("seqslot-try-write")
        .preemption_bound(3)
        .explore(move || {
            let store = Arc::new(ExemplarStore::new());
            let (sa, sb) = (Arc::clone(&store), Arc::clone(&store));
            let ta = thread::spawn(move || sa.record(A.0, A.1));
            let tb = thread::spawn(move || sb.record(B.0, B.1));
            if let Some(e) = store.read(bucket) {
                let whole = (e.value_ns, e.trace_id);
                assert!(whole == A || whole == B, "torn exemplar read: {e:?}");
                assert!(e.seq == 1 || e.seq == 2, "exemplar seq out of range: {e:?}");
            }
            let installs = u64::from(ta.join().unwrap()) + u64::from(tb.join().unwrap());
            assert!(installs >= 1, "a failed claim means another recorder won it");
            let e = store.read(bucket).expect("an installed exemplar must read back");
            let whole = (e.value_ns, e.trace_id);
            assert!(whole == A || whole == B, "torn quiescent exemplar: {e:?}");
            assert_eq!(e.seq, installs, "two writers published under one claim: {e:?}");
        });
    assert!(report.violation.is_none(), "try-write violation: {:?}", report.violation);
    assert!(report.complete, "state space truncated at {} executions", report.executions);
}

/// The seqlock read protocol over shim atomics, shared by both straw men.
fn straw_read(version: &AtomicU64, a: &AtomicU64, b: &AtomicU64) -> Option<(u64, u64)> {
    let v1 = version.load(Ordering::Acquire);
    if v1 == 0 || v1 % 2 == 1 {
        return None;
    }
    let a = a.load(Ordering::Relaxed);
    let b = b.load(Ordering::Relaxed);
    fence(Ordering::Acquire);
    (version.load(Ordering::Relaxed) == v1).then_some((a, b))
}

/// Straw man 1: publishes the even version *before* the payload, with no
/// fences. A reader following the real protocol can then see a published
/// version over a half-written payload.
#[derive(Default)]
struct BrokenPublish {
    version: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl BrokenPublish {
    /// Promises readers `b == a + 1`.
    fn write(&self, x: u64) {
        self.version.store(2, Ordering::Relaxed);
        self.a.store(x, Ordering::Relaxed);
        self.b.store(x + 1, Ordering::Relaxed);
    }
}

/// The checker MUST find the torn read the broken publish admits. If this
/// test ever fails, the harness has lost the ability to catch this bug class.
#[test]
fn straw_man_publish_before_payload_is_caught() {
    let report = Checker::new("seqslot-straw-publish")
        .preemption_bound(4)
        .explore(|| {
            let slot = Arc::new(BrokenPublish::default());
            let w = Arc::clone(&slot);
            let t = thread::spawn(move || w.write(41));
            if let Some((a, b)) = straw_read(&slot.version, &slot.a, &slot.b) {
                assert!(b == a + 1, "torn read admitted by broken publish: ({a}, {b})");
            }
            t.join().unwrap();
        });
    assert!(
        report.violation.is_some(),
        "checker failed to catch the broken publish ({} executions explored)",
        report.executions
    );
}

/// Straw man 2: a try-lock that claims with a load and a plain store. Two
/// writers can both see the even version and both "claim" the slot, so
/// their payload stores interleave under one publish.
#[derive(Default)]
struct PlainStoreClaim {
    version: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl PlainStoreClaim {
    fn try_write(&self, (a, b): (u64, u64)) -> bool {
        let v = self.version.load(Ordering::Relaxed);
        if v % 2 == 1 {
            return false;
        }
        self.version.store(v + 1, Ordering::Relaxed); // not a CAS: no exclusion
        fence(Ordering::Release);
        self.a.store(a, Ordering::Relaxed);
        self.b.store(b, Ordering::Relaxed);
        self.version.store(v + 2, Ordering::Release);
        true
    }
}

/// The checker MUST find two writers sharing one claim and leaving a torn
/// payload behind. If this stops failing, the model lost its teeth.
#[test]
fn straw_man_plain_store_claim_is_caught() {
    const A: (u64, u64) = (1_000, 0xA);
    const B: (u64, u64) = (1_001, 0xB);
    let report = Checker::new("seqslot-straw-claim")
        .preemption_bound(3)
        .explore(|| {
            let slot = Arc::new(PlainStoreClaim::default());
            let (sa, sb) = (Arc::clone(&slot), Arc::clone(&slot));
            let ta = thread::spawn(move || sa.try_write(A));
            let tb = thread::spawn(move || sb.try_write(B));
            ta.join().unwrap();
            tb.join().unwrap();
            let got = straw_read(&slot.version, &slot.a, &slot.b);
            assert!(got == Some(A) || got == Some(B), "torn payload after racing claims: {got:?}");
        });
    assert!(
        report.violation.is_some(),
        "checker failed to catch the plain-store claim ({} executions explored)",
        report.executions
    );
}
