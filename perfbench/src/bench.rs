//! One benchmark run: set-up, warm-up, the measured window, and the
//! metrics it reports.

use crate::client::{self, start_daemon};
use crate::oracle::{fnv1a, Verifier};
use crate::speed::{cpu_kernel_ms, Pacer, CPU_NOMINAL_MS};
use crate::trace::{traced_op, OpTrace, Span};
use crate::workload::{plan, OpKind, Plan, Workload};
use dexd::{ServerCtx, ServerHandle};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Daemon start-ups timed per run; `setup_s` is their median. The last
/// one serves the run.
pub const SETUPS: usize = 21;
/// More requests per second than one client can complete (the request
/// floor is about 1 ms).
const MAX_REQUESTS_PER_S: usize = 4096;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A reported metric with its unit and sample count.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The `q`-quantile (0..=1) by linear interpolation; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One request timed in the measured window.
struct Sample {
    kind: OpKind,
    /// A persist-probe request rather than one of the workload's own.
    probe: bool,
    raw_ms: f64,
    /// `raw_ms` over the host's slowness at the time (see `speed`).
    norm_ms: f64,
}

/// Per-client record of the requests it made.
#[derive(Default)]
struct Log {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Closed-loop throughput of each client: `(requests, normalized
    /// ms spent waiting on them)`, persist probes excluded.
    busy: Vec<(usize, f64)>,
    traces: Vec<OpTrace>,
}

impl Log {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 3 {
            self.errors.push(e);
        }
    }

    /// Send `ops[idx]` and check the response; returns the round trip
    /// (ms) when a response came back.
    fn send(&mut self, addr: SocketAddr, plan: &Plan, idx: usize, v: &mut Verifier) -> Option<f64> {
        self.attempted += 1;
        let op = &plan.ops[idx];
        match client::request(addr, "POST", &op.path, op.body.as_bytes()) {
            Ok(r) => {
                if let Err(e) = v.verify(idx, op, r.status, &r.body) {
                    self.fail(format!("{} {}: {e}", op.kind.label(), op.path));
                }
                Some(ms(r.end - r.start))
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn merge(&mut self, other: Log) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 3 {
                self.errors.push(e);
            }
        }
        self.busy.extend(other.busy);
        self.traces.extend(other.traces);
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(name: &str) -> Result<Scratch, String> {
        let dir = Path::new(".perfbench-tmp").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// Start the daemon [`SETUPS`] times and keep the last; returns each
/// start-up's time in seconds, normalized by the reference kernel
/// timed around it.
fn setup(store: &Path) -> Result<(ServerHandle, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    loop {
        let before = cpu_kernel_ms();
        let (srv, t) = start_daemon(store)?;
        let factor = (before + cpu_kernel_ms()) / 2.0 / CPU_NOMINAL_MS;
        times.push(t.as_secs_f64() / factor);
        if times.len() == SETUPS {
            return Ok((srv, times));
        }
        srv.shutdown();
    }
}

/// Peak resident set of this process (which hosts the daemon), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one client thread needs besides its verifier.
struct ClientCtx<'a> {
    ctx: &'a ServerCtx,
    addr: SocketAddr,
    plan: &'a Plan,
    pacer: &'a Pacer,
    seconds: u64,
    /// Persist-probe requests sent after each workload request.
    probes: usize,
    /// Trace every request (scratch directory for replays, epoch).
    trace: Option<(&'a Path, Instant)>,
}

/// One closed-loop client: send its cycle until the pacer ends the
/// window. Returns its log and its requests' raw times by segment.
fn client_loop(
    cc: &ClientCtx,
    c: usize,
    v: &mut Verifier,
) -> (Log, Vec<(OpKind, bool, f64, usize)>) {
    let plan = cc.plan;
    let cycle = &plan.cycles[c];
    let mut log = Log::default();
    // Sized up front: growing it by reallocation would put the
    // benchmark's own copying into `peak_rss_mb`.
    let mut timed = Vec::with_capacity(MAX_REQUESTS_PER_S * cc.seconds as usize);
    let mut seg = 0;
    let mut n = 0usize;
    while let Some(s) = cc.pacer.segment(seg) {
        seg = s;
        let idx = cycle[n % cycle.len()];
        let op = &plan.ops[idx];
        if let Some(t) = log.send(cc.addr, plan, idx, v) {
            timed.push((op.kind, false, t, seg));
        }
        for k in 0..cc.probes {
            let p = plan.probe[(n + k) % plan.probe.len()];
            if let Some(t) = log.send(cc.addr, plan, p, v) {
                timed.push((OpKind::Persist, true, t, seg));
            }
        }
        if let Some((dir, epoch)) = cc.trace {
            let probe = (!plan.layer_probe.is_empty())
                .then(|| plan.layer_probe[n % plan.layer_probe.len()]);
            for (k, idx) in std::iter::once(idx).chain(probe).enumerate() {
                let op = &plan.ops[idx];
                let dir = dir.join(format!("{c}-{n}-{k}"));
                let id = (c as u64) << 32 | (n as u64) << 1 | k as u64;
                log.attempted += 1;
                match traced_op(cc.ctx, cc.addr, op, id, epoch, &dir) {
                    Ok(mut t) => {
                        if let Err(e) = v.verify(idx, op, t.reply.status, &t.reply.body) {
                            log.fail(format!("traced {} {}: {e}", op.kind.label(), op.path));
                        }
                        t.probe = k > 0;
                        log.traces.push(t);
                    }
                    Err(e) => log.fail(e),
                }
            }
        }
        n += 1;
    }
    (log, timed)
}

/// Turn raw request times into samples normalized by the host's
/// slowness in their segment, and note each client's throughput.
fn normalize(
    log: &mut Log,
    pacer: &Pacer,
    workload: Workload,
    timed: Vec<(OpKind, bool, f64, usize)>,
) {
    let start = log.samples.len();
    for (kind, probe, raw_ms, seg) in timed {
        let (cpu, both) = pacer.factors(seg);
        let factor = match (kind, workload) {
            (OpKind::Persist, _) => both,
            // The small reads of `serve_mixed` spend most of their time
            // in the accept poll's 1 ms sleep, which a slow host does
            // not stretch: scaling them by CPU speed would add noise.
            (_, Workload::ServeMixed) => 1.0,
            _ => cpu,
        };
        log.samples.push(Sample {
            kind,
            probe,
            raw_ms,
            norm_ms: raw_ms / factor,
        });
    }
    let own: Vec<f64> = log.samples[start..]
        .iter()
        .filter(|s| !s.probe)
        .map(|s| s.norm_ms)
        .collect();
    log.busy.push((own.len(), own.iter().sum()));
}

/// Run one workload as `args` says.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = plan(args.workload, args.seed);
    let scratch = Scratch::new(&format!(
        "{}-s{}-t{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ))?;
    let (srv, setups) = setup(&scratch.0.join("store"))?;
    let addr = srv.addr();

    // Warm-up: every request once, checked, untimed.
    let mut log = Log::default();
    let mut verifiers: Vec<Verifier> = plan.cycles.iter().map(|_| Verifier::default()).collect();
    for (c, cycle) in plan.cycles.iter().enumerate() {
        for &idx in cycle.iter().chain(&plan.probe).chain(&plan.layer_probe) {
            log.send(addr, &plan, idx, &mut verifiers[c]);
        }
    }

    let replay_dir = scratch.0.join("replay");
    let pacer = Pacer::new(
        plan.cycles.len(),
        Duration::from_secs(args.seconds),
        &scratch.0.join("io-kernel"),
    );
    let cc = ClientCtx {
        ctx: srv.ctx(),
        addr,
        plan: &plan,
        pacer: &pacer,
        seconds: args.seconds,
        probes: if args.trace {
            0
        } else {
            plan.workload.probes()
        },
        trace: args.trace.then(|| (replay_dir.as_path(), Instant::now())),
    };
    let results: Vec<(Log, Vec<_>)> = std::thread::scope(|s| {
        let handles: Vec<_> = verifiers
            .iter_mut()
            .enumerate()
            .map(|(c, v)| {
                let cc = &cc;
                s.spawn(move || client_loop(cc, c, v))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if let Some(e) = pacer.error() {
        srv.shutdown();
        return Err(e);
    }
    let peak_rss = peak_rss_mb();
    for (mut l, timed) in results {
        normalize(&mut l, &pacer, plan.workload, timed);
        log.merge(l);
    }
    let stats = &srv.ctx().stats;
    let shed = stats.shed_queue.load(Ordering::Relaxed) + stats.shed_tenant.load(Ordering::Relaxed);
    srv.shutdown();

    let mut notes: Vec<String> = log.errors.iter().map(|e| format!("FAILED {e}")).collect();
    notes.push(format!(
        "failed_frac = {} ({} of {} requests)",
        log.failed as f64 / log.attempted.max(1) as f64,
        log.failed,
        log.attempted
    ));
    let pick = |f: &dyn Fn(&Sample) -> bool, norm: bool| -> Vec<f64> {
        log.samples
            .iter()
            .filter(|s| f(s))
            .map(|s| if norm { s.norm_ms } else { s.raw_ms })
            .collect()
    };
    let own = |s: &Sample| !s.probe;
    let persisting = |s: &Sample| s.kind == OpKind::Persist;

    let metrics = if args.trace {
        let (m, more) = layer_metrics(&log.traces, &pick(&own, false), shed as f64);
        notes.extend(more);
        write_spans(args, &log.traces, &mut notes);
        m
    } else {
        let lat = pick(&own, true);
        let persist = pick(&persisting, true);
        let raw = pick(&own, false);
        let (cpu_ms, io_ms) = pacer.medians();
        // A diagnostic, not an end-to-end metric: the tail moves with
        // the host's slow spells more than normalization can undo, and
        // its run-to-run spread exceeded what a bound could hold.
        notes.push(format!(
            "diagnostic op_p90_ms = {} ms (n={})",
            quantile(&lat, 0.9),
            lat.len()
        ));
        notes.push(format!(
            "raw (not normalized): op_p50_ms {:.3}, op_p90_ms {:.3}, persist_p50_ms {:.3}; kernel medians: cpu {cpu_ms:.3} ms, io {io_ms:.3} ms",
            quantile(&raw, 0.5),
            quantile(&raw, 0.9),
            quantile(&pick(&persisting, false), 0.5),
        ));
        let ops_per_s: f64 = log
            .busy
            .iter()
            .map(|&(n, busy_ms)| n as f64 * 1e3 / busy_ms.max(1e-9))
            .sum();
        vec![
            Metric {
                name: "op_p50_ms",
                value: quantile(&lat, 0.5),
                unit: "ms",
                samples: lat.len(),
            },
            Metric {
                name: "ops_per_s",
                value: ops_per_s,
                unit: "1/s",
                samples: lat.len(),
            },
            Metric {
                name: "persist_p50_ms",
                value: quantile(&persist, 0.5),
                unit: "ms",
                samples: persist.len(),
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss,
                unit: "MB",
                samples: 1,
            },
            Metric {
                name: "setup_s",
                value: quantile(&setups, 0.5),
                unit: "s",
                samples: setups.len(),
            },
        ]
    };
    Ok(Outcome {
        attempted: log.attempted,
        failed: log.failed,
        metrics,
        notes,
    })
}

/// Per-layer metric names and units, in report order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("serde_json.decode_ms", "ms"),
    ("serde_json.decode_mb_s", "MB/s"),
    ("dexd.instance_build_ms", "ms"),
    ("dexd.encode_ms", "ms"),
    ("analyze.admit_ms", "ms"),
    ("analyze.lint_ms", "ms"),
    ("analyze.explain_ms", "ms"),
    ("chase.phase1_ms", "ms"),
    ("chase.phase2_ms", "ms"),
    ("chase.rounds", "count"),
    ("chase.firings", "count"),
    ("chase.tuples", "count"),
    ("chase.nulls", "count"),
    ("chase.index_probes", "count"),
    ("chase.new_per_firing", "ratio"),
    ("chase.us_per_tuple", "us"),
    ("core.forward_ms", "ms"),
    ("store.create_ms", "ms"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.bytes_written", "B"),
    ("store.bytes_per_fact", "B"),
    ("relational.governor_bytes", "B"),
    ("dexd.route_ms", "ms"),
    ("dexd.transport_ms", "ms"),
    ("dexd.req_bytes", "B"),
    ("dexd.resp_bytes", "B"),
    ("dexd.shed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Self time (ms) of each layer in one traced op, by layer group.
fn self_times(t: &OpTrace) -> Vec<(&'static str, f64)> {
    let g = |k: &str| t.values.get(k).copied().unwrap_or(0.0);
    let route = g("dexd.route_ms");
    let layers = vec![
        ("serde_json", g("serde_json.decode_ms")),
        (
            "dexd.json",
            g("dexd.instance_build_ms") + g("dexd.encode_ms"),
        ),
        (
            "analyze",
            g("analyze.admit_ms") + g("analyze.lint_ms") + g("analyze.explain_ms"),
        ),
        ("chase", g("chase.phase1_ms") + g("chase.phase2_ms")),
        ("core", g("core.forward_ms")),
        ("store", g("store.create_ms") + g("store.checkpoint_ms")),
        ("dexd.transport", g("dexd.transport_ms")),
    ];
    let covered = g("trace.coverage") * route;
    let mut out = layers;
    out.push(("dexd.route(uncovered)", route - covered));
    out
}

/// Per-layer metrics: the median, over the workload's own traced
/// requests that called a layer, of the request's value; for a layer
/// none of them calls, the same over the layer probes.
fn layer_metrics(all: &[OpTrace], untraced: &[f64], shed: f64) -> (Vec<Metric>, Vec<String>) {
    let (probes, traces): (Vec<&OpTrace>, Vec<&OpTrace>) = all.iter().partition(|t| t.probe);
    let values = |ts: &[&OpTrace]| {
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for t in ts {
            for (k, v) in &t.values {
                by_name.entry(k).or_default().push(*v);
            }
        }
        by_name
    };
    let (own, probed) = (values(&traces), values(&probes));
    let traced: Vec<f64> = traces.iter().map(|t| t.op_ms).collect();
    let mut metrics = Vec::with_capacity(LAYER_METRICS.len());
    for &(name, unit) in LAYER_METRICS {
        let (value, samples) = match name {
            "dexd.shed" => (shed, 1),
            "trace.overhead_ms" => (
                quantile(&traced, 0.5) - quantile(untraced, 0.5),
                traced.len().min(untraced.len()),
            ),
            _ => own
                .get(name)
                .or_else(|| probed.get(name))
                .map_or((0.0, 0), |v| (quantile(v, 0.5), v.len())),
        };
        metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    // Which layer dominates each class of op (median self time).
    let mut notes = Vec::new();
    let mut classes: BTreeMap<&str, Vec<&OpTrace>> = BTreeMap::new();
    let mixed = traces.iter().any(|t| t.kind == OpKind::Persist);
    for &t in &traces {
        let class = match (mixed, t.kind) {
            (false, _) => "all",
            (true, OpKind::Persist) => "persisting",
            (true, _) => "non-persisting",
        };
        classes.entry(class).or_default().push(t);
    }
    for (class, ts) in classes {
        let mut cols: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for t in &ts {
            for (layer, v) in self_times(t) {
                cols.entry(layer).or_default().push(v);
            }
        }
        let mut med: Vec<(&str, f64)> = cols.iter().map(|(k, v)| (*k, quantile(v, 0.5))).collect();
        med.sort_by(|a, b| b.1.total_cmp(&a.1));
        let op = quantile(&ts.iter().map(|t| t.op_ms).collect::<Vec<_>>(), 0.5);
        let parts: Vec<String> = med.iter().map(|(k, v)| format!("{k} {v:.3}")).collect();
        notes.push(format!(
            "self time, {class} ops (n={}, op p50 {op:.3} ms): {}",
            ts.len(),
            parts.join(", ")
        ));
        notes.push(format!("dominant layer, {class} ops: {}", med[0].0));
    }
    (metrics, notes)
}

/// Write every span, one JSON object per line, beside the run.
fn write_spans(args: &Args, traces: &[OpTrace], notes: &mut Vec<String>) {
    let dir = Path::new(".perfbench-out");
    let path = dir.join(format!(
        "spans-{}-s{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut text = String::new();
    for s in traces.iter().flat_map(|t| &t.spans) {
        text.push_str(&Span::to_json_line(s));
        text.push('\n');
    }
    let written = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, text));
    notes.push(match written {
        Ok(()) => format!("spans: {}", path.display()),
        Err(e) => format!("spans not written: {e}"),
    });
}

/// Exact counts from the first `steps` requests of each client's
/// cycle, run sequentially through the socket and the replay. For a
/// fixed seed they repeat bit for bit.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub chase_firings: u64,
    pub chase_tuples: u64,
    pub chase_nulls: u64,
    pub chase_rounds: u64,
    pub store_bytes_written: u64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub response_hashes: Vec<u64>,
}

pub fn counts(workload: Workload, seed: u64, steps: usize, name: &str) -> Result<Counts, String> {
    let plan = plan(workload, seed);
    let scratch = Scratch::new(name)?;
    let (srv, _) = start_daemon(&scratch.0.join("store"))?;
    let epoch = Instant::now();
    let mut out = Counts::default();
    let mut v = Verifier::default();
    let mut result = Ok(());
    'outer: for (c, cycle) in plan.cycles.iter().enumerate() {
        for n in 0..steps {
            let idx = cycle[n % cycle.len()];
            let op = &plan.ops[idx];
            let dir = scratch.0.join("replay").join(format!("{c}-{n}"));
            let t = match traced_op(srv.ctx(), srv.addr(), op, n as u64, epoch, &dir) {
                Ok(t) => t,
                Err(e) => {
                    result = Err(e);
                    break 'outer;
                }
            };
            if let Err(e) = v.verify(idx, op, t.reply.status, &t.reply.body) {
                result = Err(e);
                break 'outer;
            }
            let g = |k: &str| t.values.get(k).copied().unwrap_or(0.0) as u64;
            out.chase_firings += g("chase.firings");
            out.chase_tuples += g("chase.tuples");
            out.chase_nulls += g("chase.nulls");
            out.chase_rounds += g("chase.rounds");
            out.store_bytes_written += g("store.bytes_written");
            out.req_bytes += g("dexd.req_bytes");
            out.resp_bytes += g("dexd.resp_bytes");
            out.response_hashes.push(fnv1a(&t.reply.body));
        }
    }
    srv.shutdown();
    result.map(|()| out)
}
