//! The traced run: outside-in spans around each layer's public calls.
//!
//! A traced operation is measured three times over:
//!
//! 1. `op` — the socket round trip, exactly as the untraced run times
//!    it;
//! 2. `dexd.route` — `dexd::handlers::route` called in-process on the
//!    same `Request`, against the live daemon's `ServerCtx`;
//! 3. a replay of the calls `route` makes, one span per layer:
//!    `serde_json::from_str`, `dexd::json::instance_from_json`,
//!    `SourceStats::measure` + `chase_bounds`, `exchange_checkpointed`
//!    with a timing `CheckpointSink` (wrapping `StoreSink` for
//!    persisting requests), `Engine::forward_governed`, the analyzer
//!    entry points, and `instance_to_json` + `to_string`.
//!
//! The replay spans are logically children of `dexd.route` (they run
//! after it, not inside it), which is itself logically a child of
//! `op`. A layer's self time is its span minus its children's;
//! `dexd.transport` is `op − dexd.route`; `trace.coverage` is the sum of
//! replayed self times over `dexd.route`, so work that moves outside the
//! replayed calls shows up as a coverage drop.

use crate::client::{self, Reply};
use crate::workload::{Op, OpKind};
use dex_analyze::{analyze_with, chase_bounds, explain_with, sort_diagnostics};
use dex_chase::{exchange_checkpointed, ChaseOptions, ChaseOutcome, Checkpoint, CheckpointSink};
use dex_core::EngineForward;
use dex_relational::{Budget, Governor, SourceStats, TripReason};
use dex_store::snapshot::SNAPSHOT_FILE;
use dex_store::store::{META_FILE, SOURCE_FILE, WAL_FILE};
use dex_store::{Store, StoreMode, StoreOptions, StoreSink};
use dexd::handlers::route;
use dexd::json::{instance_from_json, instance_to_json};
use dexd::{Request, ServerCtx};
use serde_json::Value as Json;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// dexd's admission safety factor (`AUTO_BUDGET_SAFETY` in its
/// handlers), mirrored so the replayed governor carries the same caps.
const AUTO_BUDGET_SAFETY: u64 = 2;
/// dexd's rounds ceiling for budgets uncapped on every axis.
const FALLBACK_MAX_ROUNDS: u64 = 10_000;

/// One recorded span. Times are µs since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn to_json_line(&self) -> String {
        let parent = self
            .parent
            .map_or("null".to_string(), |p| format!("\"{p}\""));
        format!(
            "{{\"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            self.op, self.name, self.start_us, self.end_us
        )
    }
}

/// Everything one traced operation measured: per-layer values under
/// their metric names (only for the layers it invoked), plus its spans
/// and the raw socket reply.
pub struct OpTrace {
    pub kind: OpKind,
    /// A layer-probe request rather than one of the workload's own.
    pub probe: bool,
    pub op_ms: f64,
    pub values: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    pub reply: Reply,
}

struct Rec {
    id: u64,
    epoch: Instant,
    spans: Vec<Span>,
}

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

impl Rec {
    fn span(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        a: Instant,
        b: Instant,
    ) -> f64 {
        self.spans.push(Span {
            op: self.id,
            name,
            parent,
            start_us: (a - self.epoch).as_secs_f64() * 1e6,
            end_us: (b - self.epoch).as_secs_f64() * 1e6,
        });
        ms(a, b)
    }

    /// Time `f` as a replayed layer call under `dexd.route`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let a = Instant::now();
        let out = std::hint::black_box(f());
        let b = Instant::now();
        (out, self.span(name, Some("dexd.route"), a, b))
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// A `CheckpointSink` that timestamps every chase boundary and, for
/// persisting requests, times the wrapped `StoreSink` and counts the
/// bytes it writes.
struct TimingSink<'s> {
    inner: Option<(StoreSink<'s>, PathBuf)>,
    last: Instant,
    /// Chase time between boundaries, tagged with the round closed.
    segments: Vec<(u64, Instant, Instant)>,
    store: Vec<(Instant, Instant)>,
    bytes: u64,
}

impl CheckpointSink for TimingSink<'_> {
    fn on_checkpoint(&mut self, cp: Checkpoint<'_>) -> Result<(), String> {
        let now = Instant::now();
        let (round, complete) = (cp.round, cp.complete);
        self.segments.push((round, self.last, now));
        self.last = now;
        if let Some((sink, dir)) = &mut self.inner {
            let wal = dir.join(WAL_FILE);
            let before = file_len(&wal);
            let a = Instant::now();
            sink.on_checkpoint(cp)?;
            let b = Instant::now();
            self.store.push((a, b));
            // Round 0, the fixpoint and every `snapshot_every`-th round
            // write a snapshot and reset the WAL; the rest append.
            let after = file_len(&wal);
            self.bytes += if round == 0 || complete || after < before {
                file_len(&dir.join(SNAPSHOT_FILE)) + after
            } else {
                after - before
            };
            self.last = Instant::now();
        }
        Ok(())
    }
}

/// dexd's admission budget: server default ∩ `from_bounds × 2`, with
/// the rounds fallback when nothing is capped.
fn admitted_budget(
    ctx: &ServerCtx,
    src: &dex_relational::Instance,
    entry: &dexd::CatalogEntry,
) -> Budget {
    let bounds = chase_bounds(&entry.mapping, &SourceStats::measure(src));
    let mut budget = ctx.config.default_budget;
    if ctx.config.auto_budget {
        budget = budget.intersect(Budget::from_bounds(&bounds, AUTO_BUDGET_SAFETY));
    }
    if budget.is_unlimited() {
        budget = budget.with_max_rounds(FALLBACK_MAX_ROUNDS);
    }
    budget
}

/// Run `op` once over the socket, once through `route` in-process, and
/// once as a layer-by-layer replay. `replay_dir` must not exist yet; a
/// persisting replay creates its store there.
pub fn traced_op(
    ctx: &ServerCtx,
    addr: SocketAddr,
    op: &Op,
    id: u64,
    epoch: Instant,
    replay_dir: &Path,
) -> Result<OpTrace, String> {
    let reply = client::request(addr, "POST", &op.path, op.body.as_bytes())?;
    let mut rec = Rec {
        id,
        epoch,
        spans: Vec::new(),
    };
    let op_ms = rec.span("op", None, reply.start, reply.end);

    let req = Request {
        method: "POST".to_string(),
        path: op.path.clone(),
        body: op.body.as_bytes().to_vec(),
    };
    let a = Instant::now();
    let resp = std::hint::black_box(route(&req, ctx));
    let route_ms = rec.span("dexd.route", Some("op"), a, Instant::now());
    if resp.status != reply.status {
        return Err(format!(
            "in-process route answered {}, the socket {}",
            resp.status, reply.status
        ));
    }

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let replayed = replay(ctx, op, &mut rec, &mut v, replay_dir)?;
    v.insert("dexd.route_ms", route_ms);
    v.insert("dexd.transport_ms", op_ms - route_ms);
    v.insert("dexd.req_bytes", op.body.len() as f64);
    v.insert("dexd.resp_bytes", reply.body.len() as f64);
    v.insert("trace.coverage", replayed / route_ms);
    Ok(OpTrace {
        kind: op.kind,
        probe: false,
        op_ms,
        values: v,
        spans: rec.spans,
        reply,
    })
}

/// Replay the layer calls behind `op`; returns the summed self time
/// (ms) of every replayed layer.
fn replay(
    ctx: &ServerCtx,
    op: &Op,
    rec: &mut Rec,
    v: &mut BTreeMap<&'static str, f64>,
    replay_dir: &Path,
) -> Result<f64, String> {
    let entry = ctx
        .catalog
        .get(op.mapping)
        .ok_or_else(|| format!("no mapping `{}`", op.mapping))?;
    let (body, decode_ms) = rec.time("serde_json.decode", || {
        serde_json::from_str::<Json>(&op.body)
    });
    let body = body.map_err(|e| format!("decode: {e}"))?;
    v.insert("serde_json.decode_ms", decode_ms);
    v.insert(
        "serde_json.decode_mb_s",
        op.body.len() as f64 / 1e6 / (decode_ms / 1e3).max(1e-9),
    );
    let mut total = decode_ms;

    match op.kind {
        OpKind::Chase | OpKind::Persist | OpKind::Exchange => {
            let src_json = body.get("source").ok_or("no `source`")?;
            let (src, build_ms) = rec.time("dexd.instance_build", || {
                instance_from_json(src_json, entry.mapping.source())
            });
            let src = src?;
            v.insert("dexd.instance_build_ms", build_ms);
            let (budget, admit_ms) =
                rec.time("analyze.admit", || admitted_budget(ctx, &src, entry));
            v.insert("analyze.admit_ms", admit_ms);
            total += build_ms + admit_ms;
            let gov = Governor::new(budget);

            let target = if op.kind == OpKind::Exchange {
                let engine = entry.engine.as_ref().map_err(Clone::clone)?;
                let (out, forward_ms) =
                    rec.time("core.forward", || engine.forward_governed(&src, None, &gov));
                v.insert("core.forward_ms", forward_ms);
                total += forward_ms;
                match out.map_err(|e| e.to_string())? {
                    EngineForward::Complete { target, .. } => target,
                    EngineForward::Exhausted { .. } => return Err("forward exhausted".into()),
                }
            } else {
                let (target, chase_ms) =
                    replay_chase(op, entry, &src, budget, &gov, rec, v, replay_dir)?;
                total += chase_ms;
                target
            };
            v.insert(
                "relational.governor_bytes",
                gov.report(TripReason::Cancelled).approx_bytes as f64,
            );
            let (text, encode_ms) =
                rec.time("dexd.encode", || instance_to_json(&target).to_string());
            std::hint::black_box(text);
            v.insert("dexd.encode_ms", encode_ms);
            total += encode_ms;
        }
        OpKind::Lint => {
            let (diags, lint_ms) = rec.time("analyze.lint", || {
                let mut d = analyze_with(&entry.mapping, Some(&entry.spans), Default::default());
                sort_diagnostics(&mut d);
                d
            });
            v.insert("analyze.lint_ms", lint_ms);
            let (text, encode_ms) = rec.time("dexd.encode", || {
                serde_json::to_value(&diags)
                    .map(|j| j.to_string())
                    .unwrap_or_default()
            });
            std::hint::black_box(text);
            v.insert("dexd.encode_ms", encode_ms);
            total += lint_ms + encode_ms;
        }
        OpKind::Explain => {
            let (report, explain_ms) = rec.time("analyze.explain", || {
                let stats = SourceStats::uniform(dex_analyze::cost::DEFAULT_CARD);
                explain_with(&entry.mapping, Some(&entry.spans), &stats)
            });
            v.insert("analyze.explain_ms", explain_ms);
            let (text, encode_ms) = rec.time("dexd.encode", || report.to_json().to_string());
            std::hint::black_box(text);
            v.insert("dexd.encode_ms", encode_ms);
            total += explain_ms + encode_ms;
        }
    }
    Ok(total)
}

/// The `exchange_checkpointed` replay: chase phases, and for
/// persisting requests `Store::create` plus every checkpoint write.
/// Returns the target and the summed chase + store time (ms).
#[allow(clippy::too_many_arguments)]
fn replay_chase(
    op: &Op,
    entry: &dexd::CatalogEntry,
    src: &dex_relational::Instance,
    budget: Budget,
    gov: &Governor,
    rec: &mut Rec,
    v: &mut BTreeMap<&'static str, f64>,
    replay_dir: &Path,
) -> Result<(dex_relational::Instance, f64), String> {
    let opts = ChaseOptions {
        max_rounds: budget
            .max_rounds
            .and_then(|n| usize::try_from(n).ok())
            .unwrap_or(usize::MAX),
        ..ChaseOptions::default()
    };
    let persist = op.kind == OpKind::Persist;
    let mut total = 0.0;
    let mut store = None;
    let mut create_bytes = 0;
    if persist {
        let (created, create_ms) = rec.time("store.create", || {
            Store::create(
                replay_dir,
                StoreMode::Chase,
                &entry.text,
                src,
                StoreOptions::default(),
            )
        });
        store = Some(created.map_err(|e| e.to_string())?);
        create_bytes = [META_FILE, SOURCE_FILE, WAL_FILE]
            .iter()
            .map(|f| file_len(&replay_dir.join(f)))
            .sum::<u64>();
        v.insert("store.create_ms", create_ms);
        total += create_ms;
    }
    let t0 = Instant::now();
    let mut sink = TimingSink {
        inner: store
            .as_mut()
            .map(|s| (StoreSink::new(s), replay_dir.to_path_buf())),
        last: t0,
        segments: Vec::new(),
        store: Vec::new(),
        bytes: 0,
    };
    let outcome = exchange_checkpointed(&entry.mapping, src, opts, gov, &mut sink);
    let t1 = Instant::now();
    let exchange_ms = rec.span("chase.exchange", Some("dexd.route"), t0, t1);
    let mut phase1_ms = 0.0;
    for &(round, a, b) in &sink.segments {
        let name = if round == 0 {
            "chase.phase1"
        } else {
            "chase.round"
        };
        let d = rec.span(name, Some("chase.exchange"), a, b);
        if round == 0 {
            phase1_ms += d;
        }
    }
    rec.span("chase.round", Some("chase.exchange"), sink.last, t1);
    let store_ms: f64 = sink
        .store
        .iter()
        .map(|&(a, b)| rec.span("store.checkpoint", Some("chase.exchange"), a, b))
        .sum();
    let chase_ms = exchange_ms - store_ms;
    total += exchange_ms;

    let res = match outcome.map_err(|e| e.to_string())? {
        ChaseOutcome::Complete(res) => res,
        ChaseOutcome::Exhausted(_) => return Err("chase exhausted its budget".into()),
    };
    let tuples = res.target.fact_count() as f64;
    let new: usize = res.stats.delta_sizes.iter().sum();
    v.insert("chase.phase1_ms", phase1_ms);
    v.insert("chase.phase2_ms", chase_ms - phase1_ms);
    v.insert("chase.rounds", res.stats.rounds as f64);
    v.insert("chase.firings", res.firings as f64);
    v.insert("chase.tuples", tuples);
    v.insert("chase.nulls", res.nulls_created as f64);
    v.insert("chase.index_probes", res.stats.index_probes as f64);
    v.insert(
        "chase.new_per_firing",
        new as f64 / (res.firings.max(1)) as f64,
    );
    v.insert("chase.us_per_tuple", chase_ms * 1e3 / tuples.max(1.0));
    if persist {
        let written = create_bytes + sink.bytes;
        v.insert("store.checkpoint_ms", store_ms);
        v.insert("store.checkpoints", sink.store.len() as f64);
        v.insert("store.bytes_written", written as f64);
        v.insert(
            "store.bytes_per_fact",
            written as f64 / (src.fact_count() as f64 + tuples).max(1.0),
        );
    }
    Ok((res.target, total))
}
