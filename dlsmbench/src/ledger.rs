//! The per-layer ledger: deltas of the engine's public counters between the
//! two phase boundaries of the timed window, CPU time split by thread
//! domain, the benchmark's own spans, and the checks that reconcile them.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use dlsm::{CacheStatsSnapshot, DbStatsSnapshot};
use dlsm_telemetry::TelemetrySnapshot;
use rdma_sim::{NetworkProfile, StatsSnapshot, Verb};

use crate::clients::{Counts, Kind};
use crate::gen::{KEY_BYTES, VALUE_BYTES};
use crate::host;
use crate::scenario::Scenario;
use crate::spans::{Name, Tracer};
use crate::stats::hist_quantile;

/// Stated tolerance: per op type, span self times sum to the
/// client-measured op time within this share.
pub const SPAN_TOLERANCE: f64 = 0.05;
/// Stated tolerance: the CPU domains sum to the process CPU time within
/// this share, plus [`CPU_SLACK_NS`] for the 10 ms tick of
/// `/proc/self/stat` and for threads that exited inside the window.
pub const CPU_TOLERANCE: f64 = 0.05;
pub const CPU_SLACK_NS: u64 = 50_000_000;

/// Every public counter, read at one phase boundary.
pub struct Probe {
    pub at: Instant,
    pub db: DbStatsSnapshot,
    pub tel: TelemetrySnapshot,
    pub cache: CacheStatsSnapshot,
    pub fabric: StatsSnapshot,
    pub server: TelemetrySnapshot,
    pub shape: Vec<usize>,
    pub thread_cpu: BTreeMap<u32, u64>,
    pub proc_cpu: u64,
}

impl Probe {
    pub fn take(sc: &Scenario) -> Probe {
        let thread_cpu = host::tids()
            .into_iter()
            .filter_map(|t| Some((t, host::thread_cpu_ns(t)?)))
            .collect();
        Probe {
            at: Instant::now(),
            db: sc.db.stats().snapshot(),
            tel: sc.db.telemetry_snapshot(),
            cache: sc.db.cache_stats().unwrap_or_default(),
            fabric: sc.fabric.stats().snapshot(),
            server: sc.server.telemetry_snapshot(),
            shape: sc.db.level_shape(),
            thread_cpu,
            proc_cpu: host::process_cpu_ns(),
        }
    }
}

/// On-CPU nanoseconds in the window, per thread domain.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuDomains {
    /// The benchmark's own threads: the clients and the main thread.
    pub client: u64,
    /// Threads that appeared during `Db::open` (flush, compaction).
    pub engine_bg: u64,
    /// Threads that appeared during `MemServer::start`.
    pub memnode: u64,
    /// Every other thread, e.g. ones the engine spawned later.
    pub unattributed: u64,
    /// `/proc/self/stat` user + system time of the whole process.
    pub process: u64,
}

impl CpuDomains {
    pub fn between(a: &Probe, b: &Probe, sc: &Scenario, clients: &BTreeSet<u32>) -> CpuDomains {
        let main = std::process::id();
        let mut d = CpuDomains {
            process: b.proc_cpu.saturating_sub(a.proc_cpu),
            ..CpuDomains::default()
        };
        for (tid, &end) in &b.thread_cpu {
            let used = end.saturating_sub(a.thread_cpu.get(tid).copied().unwrap_or(0));
            let slot = if clients.contains(tid) || *tid == main {
                &mut d.client
            } else if sc.engine_tids.contains(tid) {
                &mut d.engine_bg
            } else if sc.memnode_tids.contains(tid) {
                &mut d.memnode
            } else {
                &mut d.unattributed
            };
            *slot += used;
        }
        d
    }

    pub fn sum(&self) -> u64 {
        self.client + self.engine_bg + self.memnode + self.unattributed
    }

    /// Whether the domains account for the process CPU time.
    pub fn reconciles(&self) -> bool {
        self.sum().abs_diff(self.process) as f64
            <= self.process as f64 * CPU_TOLERANCE + CPU_SLACK_NS as f64
    }
}

/// One named per-layer figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Per-layer metric catalogue: name, unit, which way is better, and the
/// end-to-end metric and workload it should move.
#[rustfmt::skip]
pub const LAYER_METRICS: &[(&str, &str, &str, &str)] = &[
    ("skiplist.get_probe_p50_ns",    "ns", "lower", "p50_us on read-hot"),
    ("sstable.l0_probe_p50_ns",      "ns", "lower", "p50_us on read-hot and read-cold"),
    ("sstable.deep_probe_p50_ns",    "ns", "lower", "p50_us on read-hot and read-cold"),
    ("sstable.bloom_skips_per_get",  "count/get", "higher", "p50_us on read-cold"),
    ("sstable.tables_l0",            "count", "lower", "p99_us on write-mix"),
    ("sstable.tables_total",         "count", "lower", "p99_us on write-mix"),
    ("cache.hit_ratio",              "ratio", "higher", "p50_us on read-cold and write-mix (about 1.0 on read-hot)"),
    ("cache.evictions_per_kget",     "count/kget", "lower", "p50_us on read-cold"),
    ("cache.promoted_bytes_per_get", "B/get", "lower", "p50_us on read-cold"),
    ("cache.saved_bytes_per_get",    "B/get", "higher", "p50_us on read-cold"),
    ("cache.invalidations_per_kput", "count/kput", "lower", "p50_us on write-mix"),
    ("rdma.read_ops_per_get",        "count/get", "lower", "p50_us on read-cold"),
    ("rdma.read_bytes_per_get",      "B/get", "lower", "p50_us on read-cold"),
    ("rdma.read_ops_per_scan",       "count/scan", "lower", "p50_us on scan-short"),
    ("rdma.read_bytes_per_scan",     "B/scan", "lower", "p50_us on scan-short"),
    ("rdma.write_bytes_per_put",     "B/put", "lower", "ops_per_s and p99_us on write-mix"),
    ("rdma.sends_per_kop",           "count/kop", "lower", "ops_per_s and p99_us on write-mix"),
    ("rdma.modeled_wait_us_per_op",  "us/op", "lower", "p50_us on read-cold (about 0 on read-hot)"),
    ("memnode.busy_share",           "ratio", "lower", "ops_per_s on write-mix"),
    ("memnode.compact_merge_p50_us", "us", "lower", "p99_us on write-mix"),
    ("memnode.dispatch_p50_us",      "us", "lower", "p99_us on write-mix"),
    ("memnode.records_in_per_put",   "count/put", "lower", "p99_us on write-mix"),
    ("memnode.failures",             "count", "lower", "fail_ratio"),
    ("memnode.replays",              "count", "lower", "fail_ratio"),
    ("dlsm.switches_per_kput",       "count/kput", "lower", "p50_us on write-mix"),
    ("dlsm.reseqs_per_kput",         "count/kput", "lower", "p50_us on write-mix"),
    ("dlsm.stall_imm_us_per_kput",   "us/kput", "lower", "p99_us on write-mix"),
    ("dlsm.stall_l0_us_per_kput",    "us/kput", "lower", "p99_us on write-mix"),
    ("dlsm.write_amp",               "ratio", "lower", "ops_per_s on write-mix, space_amp"),
    ("dlsm.gc_extents_per_kput",     "count/kput", "higher", "space_amp"),
    ("cpu.client_us_per_op",         "us/op", "lower", "cpu_us_per_op on every workload"),
    ("cpu.engine_bg_us_per_op",      "us/op", "lower", "cpu_us_per_op on every workload"),
    ("cpu.memnode_us_per_op",        "us/op", "lower", "cpu_us_per_op on every workload"),
    ("cpu.unattributed_us_per_op",   "us/op", "lower", "cpu_us_per_op on every workload"),
    ("span.scan_open_p50_us",        "us", "lower", "p50_us on scan-short"),
    ("span.scan_next_p50_ns",        "ns", "lower", "p50_us on scan-short"),
    ("span.preload_s",               "s", "lower", "setup_s"),
    ("span.quiesce_s",               "s", "lower", "setup_s"),
    ("setup.warmup_ops",             "count", "lower", "setup_s"),
    ("trace.overhead_ratio",         "ratio", "lower", "none: the cost of tracing itself"),
    ("ledger.span_sum_ratio",        "ratio", "higher", "none: span self times over op time"),
    ("ledger.cpu_domain_ratio",      "ratio", "higher", "none: CPU domains over process CPU"),
];

/// Everything the ledger is computed from.
pub struct Inputs<'a> {
    pub start: &'a Probe,
    pub end: &'a Probe,
    pub counts: &'a Counts,
    pub cpu: CpuDomains,
    pub tracer: &'a mut Tracer,
    pub setup_spans: &'a Tracer,
    pub warmup_ops: u64,
    /// Client-measured op time in traced and untraced windows: (ns, ops).
    pub traced: (u64, u64),
    pub untraced: (u64, u64),
    /// Client-measured op time of traced ops, per root span name.
    pub traced_by_root: Vec<(Name, u64)>,
}

fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// The simulator's modeled wire cost of the window's verbs: each verb pays
/// `transfer_cost`, and two-sided verbs also `two_sided_extra`.
fn modeled_wait_ns(p: &NetworkProfile, d: &StatsSnapshot) -> f64 {
    let mut ns = 0.0;
    for v in Verb::ALL {
        let ops = d.ops(v);
        if ops == 0 {
            continue;
        }
        ns += ops as f64 * p.base_latency.as_nanos() as f64;
        ns += p.wire_time(d.bytes(v) as usize).as_nanos() as f64;
        if v == Verb::Send {
            ns += ops as f64 * p.two_sided_extra.as_nanos() as f64;
        }
    }
    ns
}

/// Compute every metric of [`LAYER_METRICS`], in that order.
pub fn layer_metrics(i: Inputs<'_>) -> Vec<Metric> {
    let (a, b) = (i.start, i.end);
    let db = b.db.delta(&a.db);
    let tel = b.tel.delta(&a.tel);
    let srv = b.server.delta(&a.server);
    let fab = b.fabric.delta(&a.fabric);
    let c = &i.counts;
    let gets = c.ops[Kind::Get as usize];
    let puts = c.ops[Kind::Put as usize];
    let scans = c.ops[Kind::Scan as usize];
    let ops = c.attempted();
    let cache_hits = (b.cache.hits() - a.cache.hits()) as f64;
    let cache_misses = (b.cache.misses() - a.cache.misses()) as f64;
    let cache = |f: fn(&CacheStatsSnapshot) -> u64| (f(&b.cache) - f(&a.cache)) as f64;
    let wall_ns = b.at.duration_since(a.at).as_nanos() as f64;
    let workers = crate::scenario::server_config().compaction_workers as f64;
    let shape = &b.shape;
    let reads = (fab.ops(Verb::Read) as f64, fab.bytes(Verb::Read) as f64);
    let put_bytes = puts * (KEY_BYTES + VALUE_BYTES) as u64;
    let span_sum = i
        .traced_by_root
        .iter()
        .map(|&(n, _)| i.tracer.get(n).total_ns)
        .sum::<u64>();
    let span_client = i.traced_by_root.iter().map(|&(_, ns)| ns).sum::<u64>();
    let values: Vec<f64> = vec![
        hist_quantile(&tel.breakdown_hist("get_memtable"), 0.5),
        hist_quantile(&tel.breakdown_hist("get_l0"), 0.5),
        hist_quantile(&tel.breakdown_hist("get_deep"), 0.5),
        per(tel.counter("bloom_skips") as f64, gets),
        shape.first().copied().unwrap_or(0) as f64,
        shape.iter().sum::<usize>() as f64,
        if cache_hits + cache_misses > 0.0 {
            cache_hits / (cache_hits + cache_misses)
        } else {
            0.0
        },
        per(cache(|s| s.evictions) * 1e3, gets),
        per(cache(|s| s.promoted_bytes), gets),
        per(cache(|s| s.bytes_saved), gets),
        per(cache(|s| s.invalidations) * 1e3, puts),
        per(reads.0, gets),
        per(reads.1, gets),
        per(reads.0, scans),
        per(reads.1, scans),
        per(
            (fab.bytes(Verb::Write) + fab.bytes(Verb::WriteImm)) as f64,
            puts,
        ),
        per(fab.ops(Verb::Send) as f64 * 1e3, ops),
        per(
            modeled_wait_ns(&NetworkProfile::edr_100g(), &fab) / 1e3,
            ops,
        ),
        srv.counter("server_busy_nanos") as f64 / (wall_ns * workers),
        hist_quantile(&srv.breakdown_hist("server_compact_merge"), 0.5) / 1e3,
        hist_quantile(&srv.breakdown_hist("server_dispatch"), 0.5) / 1e3,
        per(srv.counter("server_records_in") as f64, puts),
        srv.counter("server_failures") as f64,
        srv.counter("server_replays") as f64,
        per(db.switches as f64 * 1e3, puts),
        per(db.reseqs as f64 * 1e3, puts),
        per(tel.counter("stall_imm_micros") as f64 * 1e3, puts),
        per(tel.counter("stall_l0_micros") as f64 * 1e3, puts),
        per((db.flush_bytes + db.compaction_bytes_out) as f64, put_bytes),
        per(db.gc_extents as f64 * 1e3, puts),
        per(i.cpu.client as f64 / 1e3, ops),
        per(i.cpu.engine_bg as f64 / 1e3, ops),
        per(i.cpu.memnode as f64 / 1e3, ops),
        per(i.cpu.unattributed as f64 / 1e3, ops),
        i.tracer.p50_ns(Name::OpScanOpen) / 1e3,
        i.tracer.p50_ns(Name::OpScanNext),
        i.setup_spans.get(Name::SetupPreload).total_ns as f64 / 1e9,
        i.setup_spans.get(Name::SetupQuiesce).total_ns as f64 / 1e9,
        i.warmup_ops as f64,
        per(i.traced.0 as f64, i.traced.1)
            / per(i.untraced.0 as f64, i.untraced.1).max(f64::MIN_POSITIVE),
        per(span_sum as f64, span_client),
        per(i.cpu.sum() as f64, i.cpu.process),
    ];
    assert_eq!(
        values.len(),
        LAYER_METRICS.len(),
        "one value per catalogued metric"
    );
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect()
}

/// The engine's own counters must agree with what the clients issued and
/// saw in the same window. Returns one line per disagreement.
pub fn counter_mismatches(start: &Probe, end: &Probe, c: &Counts) -> Vec<String> {
    let db = end.db.delta(&start.db);
    let tel = end.tel.delta(&start.tel);
    let scan_next = tel.op(dlsm_telemetry::OpClass::ScanNext).count();
    let mut out = Vec::new();
    let mut expect = |what: &str, engine: u64, issued: u64| {
        if engine != issued {
            out.push(format!(
                "{what}: engine counted {engine}, clients issued {issued}"
            ));
        }
    };
    expect("gets", db.gets, c.ops[Kind::Get as usize]);
    expect("get hits", db.get_hits, c.get_found);
    expect("puts", db.puts, c.ops[Kind::Put as usize]);
    expect("scan entries", scan_next, c.scan_entries);
    out
}

/// Per op type, the share of the client-measured op time that the spans'
/// self times account for.
pub fn span_ratios(tracer: &Tracer, traced_by_root: &[(Name, u64)]) -> Vec<(Name, f64)> {
    traced_by_root
        .iter()
        .filter(|&&(_, client_ns)| client_ns > 0)
        .map(|&(root, client_ns)| {
            let members: &[Name] = match root {
                Name::OpScan => &[Name::OpScan, Name::OpScanOpen, Name::OpScanNext],
                _ => std::slice::from_ref(&root),
            };
            let self_sum: u64 = members.iter().map(|&n| tracer.get(n).self_ns).sum();
            (root, self_sum as f64 / client_ns as f64)
        })
        .collect()
}

/// The spans must nest, and per op type their self times must sum to the
/// client-measured op time within [`SPAN_TOLERANCE`]. Returns one line
/// per violation.
pub fn span_mismatches(tracer: &Tracer, ratios: &[(Name, f64)]) -> Vec<String> {
    let mut out = Vec::new();
    if tracer.malformed > 0 {
        out.push(format!(
            "{} traces had children outside their parent",
            tracer.malformed
        ));
    }
    for &(root, ratio) in ratios {
        if !(1.0 - SPAN_TOLERANCE..=1.0 + SPAN_TOLERANCE).contains(&ratio) {
            out.push(format!(
                "{}: span self times sum to {ratio:.4} of the client-measured op time",
                root.as_str()
            ));
        }
    }
    out
}
