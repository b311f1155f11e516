//! Model-check the *real* engine event journal (`dlsm-timeline` built with
//! the `shim` feature, via its `model::ModelJournal` handle): concurrent
//! posters claim write-once slots by ticket, a racing reader must see
//! nothing or a whole record — never a torn mix — and drop accounting must
//! be exact under every interleaving. The slot protocol itself (and its
//! broken-publish straw man) is proved once in `model_seqslot.rs`.

use dlsm_check::shim::thread;
use dlsm_check::Checker;
use dlsm_timeline::model::ModelJournal;
use dlsm_timeline::EngineEvent;

/// Payload invariant posted everywhere below: `bytes == mem_id + 1`. The
/// two values live in different slot words, so any torn combination of an
/// in-flight post and the zeroed slot (or another post) breaks it.
fn check_record(r: dlsm_timeline::JournalRecord) {
    match r.event {
        EngineEvent::FlushEnd { mem_id, bytes } => assert!(
            bytes == mem_id + 1,
            "torn read: seqlock recheck admitted a partial record: {r:?}"
        ),
        other => panic!("torn read: decoded foreign event {other:?}"),
    }
}

/// Two posters race a reader on a two-slot journal: whichever ticket order
/// the interleaving picks, the reader observes each slot as empty or whole.
/// Exhaustive over >= 1000 interleavings (PR 5 acceptance bar).
#[test]
fn reader_never_observes_torn_record() {
    let report = Checker::new("journal-post-read")
        .preemption_bound(4)
        .explore(|| {
            let j = ModelJournal::new(2);
            let h1 = j.handle();
            let h2 = j.handle();
            let t1 = thread::spawn(move || {
                h1.post_at(10, 0, 1, EngineEvent::FlushEnd { mem_id: 10, bytes: 11 });
            });
            let t2 = thread::spawn(move || {
                h2.post_at(20, 0, 2, EngineEvent::FlushEnd { mem_id: 20, bytes: 21 });
            });
            for idx in 0..2 {
                if let Some(r) = j.read(idx) {
                    check_record(r);
                }
            }
            t1.join().unwrap();
            t2.join().unwrap();
        });
    assert!(
        report.violation.is_none(),
        "journal seqlock violation: {:?}",
        report.violation
    );
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(
        report.executions >= 1000,
        "expected >= 1000 interleavings, explored {}",
        report.executions
    );
}

/// Three posts race for a one-slot journal: in every interleaving exactly
/// one claims the slot and exactly two are dropped and counted — never
/// over- or under-counted, and the surviving slot is never torn.
#[test]
fn drop_accounting_is_exact_under_racing_posters() {
    let report = Checker::new("journal-drop-accounting")
        .preemption_bound(4)
        .explore(|| {
            let j = ModelJournal::new(1);
            let h1 = j.handle();
            let h2 = j.handle();
            let t1 = thread::spawn(move || {
                h1.post_at(10, 0, 1, EngineEvent::FlushEnd { mem_id: 10, bytes: 11 });
            });
            let t2 = thread::spawn(move || {
                h2.post_at(20, 0, 2, EngineEvent::FlushEnd { mem_id: 20, bytes: 21 });
            });
            j.post(30, 3, EngineEvent::FlushEnd { mem_id: 30, bytes: 31 });
            t1.join().unwrap();
            t2.join().unwrap();
            assert_eq!(j.attempts(), 3);
            assert_eq!(j.drops(), 2, "exactly attempts - capacity posts must drop");
            let r = j.read(0).expect("claimed slot must be published after joins");
            check_record(r);
        });
    assert!(
        report.violation.is_none(),
        "journal drop-accounting violation: {:?}",
        report.violation
    );
    assert!(report.complete, "state space truncated at {} executions", report.executions);
}
