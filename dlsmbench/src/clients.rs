//! The closed-loop clients and the correctness oracle.
//!
//! Each client thread issues one operation, waits for the answer, checks it
//! against its shadow map, and only then issues the next. With several
//! clients, client `t` of `T` owns the keys at hotness ranks `j ≡ t (mod
//! T)` and reads and writes only those, so every answer has exactly one
//! right value.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dlsm::{Db, DbReader};

use crate::gen::{check_value, KeySpace, Rng, Wrong, Zipf, NUM_KEYS};
use crate::host;
use crate::scenario::Mix;
use crate::spans::{Name, Tracer};

/// Longest scan, in entries.
pub const MAX_SCAN: u64 = 32;
/// Zipf skew of every skewed workload.
pub const THETA: f64 = 0.99;

/// Op kinds with their own latency sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Scan = 2,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Get, Kind::Put, Kind::Scan];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Put => "put",
            Kind::Scan => "scan",
        }
    }
}

/// What one client saw in one phase.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Ops attempted, per [`Kind`].
    pub ops: [u64; 3],
    /// Gets that returned a value.
    pub get_found: u64,
    /// Entries returned by scans.
    pub scan_entries: u64,
    /// Wrong answers and errors, per [`Wrong`] kind (by `Wrong as usize`).
    pub wrong: [u64; 6],
    /// The first wrong answer, described.
    pub first_wrong: Option<String>,
}

impl Counts {
    pub fn attempted(&self) -> u64 {
        self.ops.iter().sum()
    }

    pub fn failed(&self) -> u64 {
        self.wrong.iter().sum()
    }

    pub fn add(&mut self, o: &Counts) {
        for i in 0..3 {
            self.ops[i] += o.ops[i];
        }
        for i in 0..6 {
            self.wrong[i] += o.wrong[i];
        }
        self.get_found += o.get_found;
        self.scan_entries += o.scan_entries;
        if self.first_wrong.is_none() {
            self.first_wrong.clone_from(&o.first_wrong);
        }
    }
}

/// Latency samples (ns) of one timed window, per [`Kind`].
#[derive(Debug, Clone, Default)]
pub struct WindowSamples {
    pub lat: [Vec<u64>; 3],
}

impl WindowSamples {
    pub fn ops(&self) -> u64 {
        self.lat.iter().map(|v| v.len() as u64).sum()
    }
}

/// Inputs every client shares.
pub struct Plan {
    pub keys: KeySpace,
    /// Hotness rank → key index.
    pub perm: Vec<u32>,
    pub mix: Mix,
    pub clients: usize,
}

/// One closed-loop client. Its read handle is thread-local, so each phase's
/// thread opens its own and passes it in.
pub struct Client {
    pub t: usize,
    rng: Rng,
    zipf: Zipf,
    /// Current version of each owned key (other entries are never read).
    versions: Vec<u32>,
    value: Vec<u8>,
    scratch: Vec<u8>,
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    next_trace: u64,
    /// Record spans in odd timed windows.
    pub trace_odd_windows: bool,
    pub tracer: Tracer,
    pub counts: Counts,
    pub windows: Vec<WindowSamples>,
    /// Thread id of the thread that ran this client's last phase.
    pub tid: u32,
}

/// Sentinel window values.
const WAIT: usize = usize::MAX;
const DONE: usize = usize::MAX - 1;

/// How the main thread steers a phase.
pub struct Ctl {
    window: AtomicUsize,
    stop: AtomicBool,
    ready: AtomicUsize,
    idle: AtomicUsize,
    /// Ops per client before it stops on its own (warm-up).
    quota: u64,
    /// Whether to keep latency samples.
    record: bool,
}

impl Client {
    pub fn new(plan: &Plan, seed: u64, t: usize, trace: bool) -> Client {
        let local = (NUM_KEYS / plan.clients) as u64;
        Client {
            t,
            rng: Rng::stream(seed, 100 + t as u64),
            zipf: Zipf::new(local, THETA),
            versions: vec![0; NUM_KEYS],
            value: Vec::new(),
            scratch: Vec::new(),
            entries: Vec::new(),
            next_trace: (t as u64) << 48,
            trace_odd_windows: trace,
            tracer: Tracer::new(false),
            counts: Counts::default(),
            windows: Vec::new(),
            tid: 0,
        }
    }

    /// Key index of this client's local hotness rank `r`.
    fn owned(&self, plan: &Plan, r: u64) -> u32 {
        plan.perm[r as usize * plan.clients + self.t]
    }

    fn step(&mut self, plan: &Plan, db: &Db, reader: &mut DbReader, w: Option<usize>) {
        self.tracer.enabled = self.trace_odd_windows && w.is_some_and(|w| w % 2 == 1);
        self.next_trace += 1;
        self.tracer.begin_trace(self.next_trace);
        let (kind, lat, verdict) = match plan.mix {
            Mix::UniformGet => {
                let idx = self.rng.below(NUM_KEYS as u64) as u32;
                self.get(plan, reader, idx, self.versions[idx as usize])
            }
            Mix::ZipfGet => {
                let r = self.zipf.sample(&mut self.rng);
                let idx = self.owned(plan, r);
                self.get(plan, reader, idx, self.versions[idx as usize])
            }
            Mix::ZipfUpdateGet => {
                let r = self.zipf.sample(&mut self.rng);
                let idx = self.owned(plan, r);
                if self.rng.below(2) == 0 {
                    self.put(plan, db, idx)
                } else {
                    self.get(plan, reader, idx, self.versions[idx as usize])
                }
            }
            Mix::ZipfScan => {
                let r = self.zipf.sample(&mut self.rng);
                let start = self.owned(plan, r);
                let len = 1 + self.rng.below(MAX_SCAN) as u32;
                self.scan(plan, reader, start, len, 0)
            }
        };
        self.tracer.end_trace();
        self.counts.ops[kind as usize] += 1;
        if let Err(wrong) = verdict {
            self.note_wrong(wrong, kind);
        }
        if let Some(w) = w {
            self.windows[w].lat[kind as usize].push(lat.as_nanos() as u64);
        }
    }

    fn note_wrong(&mut self, wrong: Wrong, kind: Kind) {
        self.counts.wrong[wrong as usize] += 1;
        if self.counts.first_wrong.is_none() {
            self.counts.first_wrong = Some(format!(
                "client {} {}: {}",
                self.t,
                kind.name(),
                wrong.name()
            ));
        }
    }

    /// One get of key `idx`, expected at version `expect`.
    pub fn get(
        &mut self,
        plan: &Plan,
        reader: &mut DbReader,
        idx: u32,
        expect: u32,
    ) -> (Kind, Duration, Result<(), Wrong>) {
        let key = plan.keys.key(idx);
        let t0 = Instant::now();
        let sp = self.tracer.open(Name::OpGet, None);
        let got = reader.get(&key);
        self.tracer.close(sp);
        let lat = t0.elapsed();
        let verdict = match got {
            Err(_) => Err(Wrong::Error),
            Ok(None) => Err(Wrong::Missing),
            Ok(Some(v)) => {
                self.counts.get_found += 1;
                check_value(&plan.keys, idx, expect, &v, &mut self.scratch)
            }
        };
        (Kind::Get, lat, verdict)
    }

    fn put(&mut self, plan: &Plan, db: &Db, idx: u32) -> (Kind, Duration, Result<(), Wrong>) {
        let version = self.versions[idx as usize] + 1;
        plan.keys.value_into(idx, version, &mut self.value);
        let key = plan.keys.key(idx);
        let t0 = Instant::now();
        let sp = self.tracer.open(Name::OpPut, None);
        let res = db.put(&key, &self.value);
        self.tracer.close(sp);
        let lat = t0.elapsed();
        let verdict = match res {
            Ok(_) => {
                self.versions[idx as usize] = version;
                Ok(())
            }
            Err(_) => Err(Wrong::Error),
        };
        (Kind::Put, lat, verdict)
    }

    /// Scan `len` keys from key `start`; `extra` plants that many more
    /// expected entries than the scan can return (oracle self-test).
    pub fn scan(
        &mut self,
        plan: &Plan,
        reader: &mut DbReader,
        start: u32,
        len: u32,
        extra: u32,
    ) -> (Kind, Duration, Result<(), Wrong>) {
        let end = (start as u64 + len as u64).min(NUM_KEYS as u64) as u32;
        let end_key = if (end as usize) < NUM_KEYS {
            plan.keys.key(end)
        } else {
            plan.keys.end_key()
        };
        let mut entries = std::mem::take(&mut self.entries);
        entries.clear();
        let mut failed = false;
        let t0 = Instant::now();
        let root = self.tracer.open(Name::OpScan, None);
        let sp = self.tracer.open(Name::OpScanOpen, Some(root));
        let scan = reader.scan_range(&plan.keys.key(start), &end_key);
        self.tracer.close(sp);
        let scan = match scan {
            Ok(mut it) => {
                loop {
                    let sp = self.tracer.open(Name::OpScanNext, Some(root));
                    let item = it.next();
                    self.tracer.close(sp);
                    match item {
                        None => break,
                        Some(Ok(kv)) => entries.push(kv),
                        Some(Err(_)) => {
                            failed = true;
                            break;
                        }
                    }
                }
                Some(it)
            }
            Err(_) => {
                failed = true;
                None
            }
        };
        self.tracer.close(root);
        let lat = t0.elapsed();
        drop(scan);
        self.counts.scan_entries += entries.len() as u64;
        let verdict = if failed {
            Err(Wrong::Error)
        } else {
            self.check_scan(plan, start, end + extra, &entries)
        };
        self.entries = entries;
        (Kind::Scan, lat, verdict)
    }

    fn check_scan(
        &mut self,
        plan: &Plan,
        start: u32,
        end: u32,
        got: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(), Wrong> {
        if got.len() != (end - start) as usize {
            return Err(Wrong::ScanShape);
        }
        for (i, (k, v)) in got.iter().enumerate() {
            let idx = start + i as u32;
            if k.as_slice() != plan.keys.key(idx) {
                return Err(Wrong::ScanShape);
            }
            check_value(
                &plan.keys,
                idx,
                self.versions[idx as usize],
                v,
                &mut self.scratch,
            )?;
        }
        Ok(())
    }

    /// A key this client owns (for the oracle self-test).
    pub fn some_owned_key(&self, plan: &Plan) -> u32 {
        self.owned(plan, 0)
    }

    pub fn version(&self, idx: u32) -> u32 {
        self.versions[idx as usize]
    }
}

/// Run one phase: every client loops in its own thread until its quota is
/// spent or `steer` ends the phase. `steer` runs on the calling thread
/// once every client thread is up.
pub fn phase<R>(
    clients: &mut [Client],
    plan: &Plan,
    db: &Db,
    quota: u64,
    record: bool,
    steer: impl FnOnce(&Ctl, &dyn Fn()) -> R,
) -> R {
    let ctl = Ctl {
        window: AtomicUsize::new(if record { WAIT } else { 0 }),
        stop: AtomicBool::new(false),
        ready: AtomicUsize::new(0),
        idle: AtomicUsize::new(0),
        quota,
        record,
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let ctl = &ctl;
                s.spawn(move || client_loop(c, plan, db, ctl))
            })
            .collect();
        let wake = || handles.iter().for_each(|h| h.thread().unpark());
        while ctl.ready.load(Ordering::Acquire) < handles.len() {
            std::thread::yield_now();
        }
        let out = steer(&ctl, &wake);
        ctl.stop.store(true, Ordering::Release);
        wake();
        out
    })
}

fn client_loop(c: &mut Client, plan: &Plan, db: &Db, ctl: &Ctl) {
    ctl.ready.fetch_add(1, Ordering::AcqRel);
    {
        // Counts this client idle however the loop ends, a panic included,
        // so the main thread never waits for a client that is gone.
        let _idle = IdleOnExit(ctl);
        c.tid = host::my_tid();
        let mut reader = db.reader();
        let mut done = 0u64;
        loop {
            let w = ctl.window.load(Ordering::Acquire);
            if w == WAIT {
                std::thread::park_timeout(Duration::from_micros(200));
                continue;
            }
            if w == DONE || done >= ctl.quota || ctl.stop.load(Ordering::Acquire) {
                break;
            }
            let rec = ctl.record.then_some(w);
            if let Some(w) = rec {
                if c.windows.len() <= w {
                    c.windows.resize_with(w + 1, WindowSamples::default);
                }
            }
            c.step(plan, db, &mut reader, rec);
            done += 1;
        }
    }
    // Stay alive until the main thread has read this thread's CPU clock.
    while !ctl.stop.load(Ordering::Acquire) {
        std::thread::park_timeout(Duration::from_millis(1));
    }
}

struct IdleOnExit<'a>(&'a Ctl);

impl Drop for IdleOnExit<'_> {
    fn drop(&mut self) {
        self.0.idle.fetch_add(1, Ordering::AcqRel);
    }
}

impl Ctl {
    /// Let the clients start (window 0), or move them to window `w`.
    pub fn set_window(&self, w: usize, wake: &dyn Fn()) {
        self.window.store(w, Ordering::Release);
        wake();
    }

    /// Stop issuing ops and wait until every in-flight op has finished.
    pub fn finish(&self, clients: usize) {
        self.window.store(DONE, Ordering::Release);
        self.wait_idle(clients);
    }

    /// Wait until every client has stopped issuing ops.
    pub fn wait_idle(&self, clients: usize) {
        while self.idle.load(Ordering::Acquire) < clients {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}
