//! dlsmbench: closed-loop end-to-end benchmark of the dLSM engine, with a
//! per-layer ledger in traced runs.
//!
//! ```text
//! dlsmbench --workload <read-hot|read-cold|write-mix|scan-short|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Exits
//! 1 if any answer was wrong or a ledger check failed, 2 on bad arguments.
//! See README.md for the workloads and metrics.

mod clients;
mod gen;
mod host;
mod ledger;
mod scenario;
mod spans;
mod stats;

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use clients::{phase, Client, Counts, Kind, Plan};
use gen::{permutation, KeySpace, Rng, Wrong, NUM_KEYS};
use ledger::{CpuDomains, Metric, Probe};
use scenario::{Scenario, Workload};
use spans::{Name, Tracer};
use stats::{median, quantile};

/// Scenario instances per untraced run; `setup_s` is the median of their
/// set-up times.
const INSTANCES: usize = 3;
/// Length of one timed window, in seconds; end-to-end figures are medians
/// over windows.
const WINDOW_S: f64 = 0.5;
/// Warm-up runs at least this many windows, then stops at the first window
/// that matches the one before it...
const WARM_MIN_WINDOWS: usize = 3;
/// ...and after at most this many windows.
const WARM_MAX_WINDOWS: usize = 40;
/// Largest change of the cache hit ratio between matching windows.
const WARM_HIT_DELTA: f64 = 0.03;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && scenario::workload(&a.workload).is_none() {
        let names: Vec<_> = scenario::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// One workload's outcome.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dlsmbench: {e}");
            std::process::exit(2);
        }
    };
    let fp = host::Fingerprint::collect();
    println!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" commit={} seed={}",
        fp.nproc, fp.cpu_model, fp.rustc, fp.git_commit, args.seed
    );
    let chosen: Vec<Workload> = if args.workload == "all" {
        scenario::WORKLOADS.to_vec()
    } else {
        scenario::workload(&args.workload).into_iter().collect()
    };
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in &chosen {
        let o = run(w, &args);
        if chosen.len() > 1 {
            println!("{}", json_line(&o));
            all.metrics.extend(o.metrics.into_iter().map(|m| Metric {
                name: format!("{}.{}", w.name, m.name),
                ..m
            }));
        } else {
            all.metrics = o.metrics;
        }
        all.correct &= o.correct;
        all.attempted += o.attempted;
        all.failed += o.failed;
    }
    println!("{}", json_line(&all));
    std::process::exit(if all.correct { 0 } else { 1 });
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A scenario that has been preloaded, quiesced and warmed up.
struct Ready {
    sc: Scenario,
    clients: Vec<Client>,
    setup: Tracer,
    warm_ops: u64,
    /// Cache hit ratio of each warm-up window.
    warm_hits: Vec<f64>,
    warm_counts: Counts,
    preload_failed: u64,
}

fn set_up(w: &Workload, plan: &Plan, order: &[u32], seed: u64, trace: bool) -> Ready {
    let mut tr = Tracer::new(true);
    tr.begin_trace(0);
    let root = tr.open(Name::Setup, None);
    let sc = match Scenario::start(w.cache_bytes, &mut tr, root) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("dlsmbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    let sp = tr.open(Name::SetupPreload, Some(root));
    let preload_failed = sc.preload(&plan.keys, order);
    tr.close(sp);
    let sp = tr.open(Name::SetupQuiesce, Some(root));
    sc.db.wait_until_quiescent();
    tr.close(sp);
    let mut clients: Vec<Client> = (0..plan.clients)
        .map(|t| Client::new(plan, seed, t, trace))
        .collect();
    let sp = tr.open(Name::SetupWarmup, Some(root));
    let (warm_ops, warm_hits) = warm_up(&sc, &mut clients, plan, w);
    tr.close(sp);
    tr.close(root);
    tr.end_trace();
    let mut warm_counts = Counts::default();
    for c in &mut clients {
        warm_counts.add(&std::mem::take(&mut c.counts));
    }
    Ready {
        sc,
        clients,
        setup: tr,
        warm_ops,
        warm_hits,
        warm_counts,
        preload_failed,
    }
}

/// Run the workload's own mix in windows until the cache hit ratio and the
/// LSM shape stop changing between windows. Returns the ops run and each
/// window's cache hit ratio.
fn warm_up(sc: &Scenario, clients: &mut [Client], plan: &Plan, w: &Workload) -> (u64, Vec<f64>) {
    let per_client = w.warm_window_ops / clients.len() as u64;
    let mut prev: Option<(f64, Vec<usize>)> = None;
    let mut ops = 0;
    let mut hits = Vec::new();
    for window in 1..=WARM_MAX_WINDOWS {
        let before = sc.db.cache_stats().unwrap_or_default();
        phase(clients, plan, &sc.db, per_client, false, |ctl, _| {
            ctl.wait_idle(plan.clients)
        });
        ops += per_client * clients.len() as u64;
        let after = sc.db.cache_stats().unwrap_or_default();
        let (h, m) = (
            after.hits() - before.hits(),
            after.misses() - before.misses(),
        );
        let hit = if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        };
        let shape = sc.db.level_shape();
        // L0 fills and drains by design; only the deeper levels must settle.
        let deep = |s: &[usize]| s.iter().skip(1).sum::<usize>();
        let settled = prev.as_ref().is_some_and(|(ph, ps)| {
            (hit - ph).abs() <= WARM_HIT_DELTA
                && deep(&shape).abs_diff(deep(ps)) <= (deep(&shape) / 10).max(1)
        });
        hits.push(hit);
        prev = Some((hit, shape));
        if settled && window >= WARM_MIN_WINDOWS {
            break;
        }
    }
    (ops, hits)
}

/// What the timed window measured.
struct Timed {
    start: Probe,
    end: Probe,
    /// Window boundaries: time and process CPU.
    bounds: Vec<(Instant, u64)>,
}

fn timed(r: &mut Ready, plan: &Plan, secs: f64, n: usize) -> Timed {
    let win = Duration::from_secs_f64(secs / n as f64);
    let sc = &r.sc;
    phase(&mut r.clients, plan, &sc.db, u64::MAX, true, |ctl, wake| {
        let start = Probe::take(sc);
        let t0 = Instant::now();
        let mut bounds = vec![(t0, start.proc_cpu)];
        ctl.set_window(0, wake);
        for i in 1..=n {
            let due = t0 + win * i as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            bounds.push((Instant::now(), host::process_cpu_ns()));
            if i < n {
                ctl.set_window(i, wake);
            }
        }
        ctl.finish(plan.clients);
        Timed {
            start,
            end: Probe::take(sc),
            bounds,
        }
    })
}

/// Prove the oracle live on this scenario: a get checked against a version
/// the key never had, and a scan expected to return one entry more than it
/// can, must both be flagged.
fn oracle_self_test(c: &mut Client, plan: &Plan, db: &dlsm::Db) -> bool {
    let mut reader = db.reader();
    let idx = c.some_owned_key(plan);
    let (_, _, get) = c.get(plan, &mut reader, idx, c.version(idx) + 1);
    let start = idx.min(NUM_KEYS as u32 - 4);
    let (_, _, scan) = c.scan(plan, &mut reader, start, 2, 1);
    c.counts = Counts::default();
    get == Err(Wrong::StaleVersion) && scan == Err(Wrong::ScanShape)
}

/// What one scenario instance measured.
struct Measured {
    setup_s: f64,
    oracle_ok: bool,
    counts: Counts,
    /// Wrong answers in the timed window, the warm-up and the preload.
    failed: u64,
    first_wrong: Option<String>,
    warm_ops: u64,
    /// Per untraced window: ops/s, p50 µs, p99 µs, process CPU µs per op.
    figs: Vec<[f64; 4]>,
    /// Latencies of untraced windows per op kind, for the report.
    lat: [Vec<u64>; 3],
    space_amp: f64,
    cpu: CpuDomains,
    problems: Vec<String>,
    /// Per-layer metrics (traced runs only).
    layers: Vec<Metric>,
}

/// Set up one scenario instance, measure it for `secs` seconds in `n`
/// windows, check the ledger, and tear it down.
fn measure(w: &Workload, plan: &Plan, order: &[u32], args: &Args, secs: f64, n: usize) -> Measured {
    let t0 = Instant::now();
    let mut r = set_up(w, plan, order, args.seed, args.trace);
    let setup_s = t0.elapsed().as_secs_f64();
    println!(
        "setup: {:.3} s (preload {:.3} s, quiesce {:.3} s, warm-up {} ops in {:.3} s), \
         shape {:?}, warm-up hit ratios {:.3?}",
        setup_s,
        r.setup.get(Name::SetupPreload).total_ns as f64 / 1e9,
        r.setup.get(Name::SetupQuiesce).total_ns as f64 / 1e9,
        r.warm_ops,
        r.setup.get(Name::SetupWarmup).total_ns as f64 / 1e9,
        r.sc.db.level_shape(),
        r.warm_hits
    );
    let oracle_ok = oracle_self_test(&mut r.clients[0], plan, &r.sc.db);
    let t = timed(&mut r, plan, secs, n);

    let mut counts = Counts::default();
    let mut tracer = Tracer::new(true);
    let mut client_tids = BTreeSet::new();
    for c in &mut r.clients {
        counts.add(&c.counts);
        client_tids.insert(c.tid);
        tracer.absorb(std::mem::replace(&mut c.tracer, Tracer::new(false)));
    }
    let windows: Vec<clients::WindowSamples> = (0..n)
        .map(|i| {
            let mut ws = clients::WindowSamples::default();
            for c in &mut r.clients {
                if let Some(cw) = c.windows.get_mut(i) {
                    for k in 0..3 {
                        ws.lat[k].append(&mut cw.lat[k]);
                    }
                }
            }
            ws
        })
        .collect();
    let cpu = CpuDomains::between(&t.start, &t.end, &r.sc, &client_tids);
    let mut problems = ledger::counter_mismatches(&t.start, &t.end, &counts);
    if !cpu.reconciles() {
        problems.push(format!(
            "CPU domains sum to {:.3} s but the process used {:.3} s",
            cpu.sum() as f64 / 1e9,
            cpu.process as f64 / 1e9
        ));
    }

    // End-to-end figures come from untraced windows only.
    let traced = |i: usize| args.trace && i % 2 == 1;
    let mut figs = Vec::new();
    let mut lat: [Vec<u64>; 3] = Default::default();
    for i in (0..n).filter(|&i| !traced(i)) {
        let secs = t.bounds[i + 1]
            .0
            .duration_since(t.bounds[i].0)
            .as_secs_f64();
        let ops = windows[i].ops();
        let cpu_ns = t.bounds[i + 1].1 - t.bounds[i].1;
        let mut all: Vec<u64> = windows[i].lat.iter().flatten().copied().collect();
        figs.push([
            ops as f64 / secs,
            quantile(&mut all, 0.5) / 1e3,
            quantile(&mut all, 0.99) / 1e3,
            cpu_ns as f64 / 1e3 / ops.max(1) as f64,
        ]);
        for (all, w) in lat.iter_mut().zip(&windows[i].lat) {
            all.extend_from_slice(w);
        }
    }

    let layers = if args.trace {
        let sum_lat = |odd: bool| {
            (0..n)
                .filter(|&i| traced(i) == odd)
                .fold((0u64, 0u64), |(ns, ops), i| {
                    (
                        ns + windows[i].lat.iter().flatten().sum::<u64>(),
                        ops + windows[i].ops(),
                    )
                })
        };
        let traced_by_root: Vec<(Name, u64)> = [
            (Kind::Get, Name::OpGet),
            (Kind::Put, Name::OpPut),
            (Kind::Scan, Name::OpScan),
        ]
        .into_iter()
        .map(|(k, name)| {
            (
                name,
                (0..n)
                    .filter(|&i| traced(i))
                    .map(|i| windows[i].lat[k as usize].iter().sum::<u64>())
                    .sum(),
            )
        })
        .filter(|&(_, ns)| ns > 0)
        .collect();
        let ratios = ledger::span_ratios(&tracer, &traced_by_root);
        for (root, ratio) in &ratios {
            println!(
                "  ledger: {} span self times cover {ratio:.4} of the op time",
                root.as_str()
            );
        }
        problems.extend(ledger::span_mismatches(&tracer, &ratios));
        for trace in tracer.slowest.iter().flatten() {
            let parts: Vec<String> = trace
                .iter()
                .take(8)
                .map(|s| format!("{}={}ns", s.name.as_str(), s.dur_ns()))
                .collect();
            let more = if trace.len() > 8 { " ..." } else { "" };
            println!(
                "  slowest {} (trace {}): {}{}",
                trace[0].name.as_str(),
                trace[0].trace,
                parts.join(" "),
                more
            );
        }
        ledger::layer_metrics(ledger::Inputs {
            start: &t.start,
            end: &t.end,
            counts: &counts,
            cpu,
            tracer: &mut tracer,
            setup_spans: &r.setup,
            warmup_ops: r.warm_ops,
            traced: sum_lat(true),
            untraced: sum_lat(false),
            traced_by_root,
        })
    } else {
        Vec::new()
    };

    // Space is measured once the last MemTable is flushed and background
    // work has settled, so it counts every live record exactly once.
    if let Err(e) = r.sc.db.force_flush() {
        problems.push(format!("final flush failed: {e}"));
    }
    r.sc.db.wait_until_quiescent();
    let space_amp = r.sc.space_amp();
    let failed = counts.failed() + r.warm_counts.failed() + r.preload_failed;
    let first_wrong = counts
        .first_wrong
        .clone()
        .or(r.warm_counts.first_wrong.clone());
    drop(r.clients);
    r.sc.shutdown();
    Measured {
        setup_s,
        oracle_ok,
        counts,
        failed,
        first_wrong,
        warm_ops: r.warm_ops,
        figs,
        lat,
        space_amp,
        cpu,
        problems,
        layers,
    }
}

fn run(w: &Workload, args: &Args) -> Outcome {
    let clients = w.clients.min(host::nproc()).max(1);
    let plan = Plan {
        keys: KeySpace::new(args.seed),
        perm: permutation(NUM_KEYS, &mut Rng::stream(args.seed, 1)),
        mix: w.mix,
        clients,
    };
    let order = permutation(NUM_KEYS, &mut Rng::stream(args.seed, 2));
    println!("workload {}: {} ({} client(s))", w.name, w.why, clients);

    // Untraced runs set up several instances and measure each for a share
    // of the time, so no single instance's memory layout or LSM timing
    // decides the result; a traced run measures one instance.
    let instances = if args.trace { 1 } else { INSTANCES };
    let secs = args.seconds as f64 / instances as f64;
    let mut n = ((secs / WINDOW_S).round() as usize).max(2);
    if args.trace && n % 2 == 1 {
        n += 1;
    }
    let runs: Vec<Measured> = (0..instances)
        .map(|_| measure(w, &plan, &order, args, secs, n))
        .collect();

    let mut counts = Counts::default();
    let mut lat: [Vec<u64>; 3] = Default::default();
    for m in &runs {
        counts.add(&m.counts);
        for (all, l) in lat.iter_mut().zip(&m.lat) {
            all.extend_from_slice(l);
        }
    }
    let failed: u64 = runs.iter().map(|m| m.failed).sum();
    let warm_ops: u64 = runs.iter().map(|m| m.warm_ops).sum();
    let attempted = counts.attempted();
    println!(
        "timed: {} instance(s) x {} windows, {} ops ({} get, {} put, {} scan), {} failed, warm-up {} ops",
        instances, n, attempted, counts.ops[0], counts.ops[1], counts.ops[2], failed, warm_ops
    );
    for k in Kind::ALL {
        let v = &mut lat[k as usize];
        if v.is_empty() {
            continue;
        }
        let (p50, p99, p999) = (quantile(v, 0.5), quantile(v, 0.99), quantile(v, 0.999));
        println!(
            "  {k}_p50_us {:.3} us, {k}_p99_us {:.3} us, tail.{k}_p999_us {:.3} us ({} samples)",
            p50 / 1e3,
            p99 / 1e3,
            p999 / 1e3,
            v.len(),
            k = k.name()
        );
    }
    println!(
        "  fail_ratio {:.6}, peak RSS {} MiB",
        failed as f64 / attempted.max(1) as f64,
        host::peak_rss_kib() / 1024
    );
    for m in &runs {
        let c = &m.cpu;
        println!(
            "  cpu domains (s): client {:.3} engine_bg {:.3} memnode {:.3} unattributed {:.3} = {:.3}, process {:.3}",
            c.client as f64 / 1e9,
            c.engine_bg as f64 / 1e9,
            c.memnode as f64 / 1e9,
            c.unattributed as f64 / 1e9,
            c.sum() as f64 / 1e9,
            c.process as f64 / 1e9
        );
    }
    if let Some(f) = runs.iter().find_map(|m| m.first_wrong.as_ref()) {
        println!("FAIL: first wrong answer: {f}");
    }
    let oracle_ok = runs.iter().all(|m| m.oracle_ok);
    println!(
        "oracle self-test: {}",
        if oracle_ok {
            "planted errors caught"
        } else {
            "MISSED a planted error"
        }
    );

    let problems: Vec<String> = runs
        .iter()
        .flat_map(|m| m.problems.iter().cloned())
        .collect();
    for p in &problems {
        println!("LEDGER MISMATCH: {p}");
    }
    let metrics = if args.trace {
        let m = runs
            .into_iter()
            .next()
            .map(|m| m.layers)
            .unwrap_or_default();
        for (x, &(_, _, _, target)) in m.iter().zip(ledger::LAYER_METRICS) {
            println!(
                "  {:<30} {:>16.4} {:<10} -> {}",
                x.name, x.value, x.unit, target
            );
        }
        m
    } else {
        let figs: Vec<[f64; 4]> = runs.iter().flat_map(|m| m.figs.iter().copied()).collect();
        let col = |j: usize| median(&figs.iter().map(|f| f[j]).collect::<Vec<_>>());
        let m = vec![
            Metric {
                name: "ops_per_s".into(),
                value: col(0),
                unit: "1/s",
            },
            Metric {
                name: "p50_us".into(),
                value: col(1),
                unit: "us",
            },
            Metric {
                name: "p99_us".into(),
                value: col(2),
                unit: "us",
            },
            Metric {
                name: "cpu_us_per_op".into(),
                value: col(3),
                unit: "us",
            },
            Metric {
                name: "space_amp".into(),
                value: median(&runs.iter().map(|m| m.space_amp).collect::<Vec<_>>()),
                unit: "ratio",
            },
            Metric {
                name: "setup_s".into(),
                value: median(&runs.iter().map(|m| m.setup_s).collect::<Vec<_>>()),
                unit: "s",
            },
        ];
        for x in &m {
            println!("  {:<14} {:>14.4} {}", x.name, x.value, x.unit);
        }
        let per_window: Vec<u64> = figs.iter().map(|f| f[0] as u64).collect();
        println!("  ops/s per window: {per_window:?}");
        m
    };
    Outcome {
        correct: failed == 0 && oracle_ok && problems.is_empty(),
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle must pass right answers and flag planted wrong
    /// expectations against a live engine.
    #[test]
    fn oracle_fires_on_planted_errors() {
        let mut tr = Tracer::new(true);
        let root = tr.open(Name::Setup, None);
        let sc = Scenario::start(8 << 20, &mut tr, root).expect("scenario");
        let plan = Plan {
            keys: KeySpace::new(5),
            perm: (0..NUM_KEYS as u32).collect(),
            mix: scenario::Mix::ZipfScan,
            clients: 1,
        };
        let loaded: Vec<u32> = (0..1000).collect();
        assert_eq!(sc.preload(&plan.keys, &loaded), 0);
        let mut c = Client::new(&plan, 5, 0, false);
        let mut reader = sc.db.reader();
        assert_eq!(c.get(&plan, &mut reader, 7, 0).2, Ok(()));
        assert_eq!(c.scan(&plan, &mut reader, 10, 5, 0).2, Ok(()));
        assert_eq!(c.get(&plan, &mut reader, 5000, 0).2, Err(Wrong::Missing));
        assert!(oracle_self_test(&mut c, &plan, &sc.db));
        drop(reader);
        sc.shutdown();
    }
}
