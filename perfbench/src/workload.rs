//! The served catalog, the three workloads, and their seeded request
//! generators.
//!
//! Every request body is generated here from the workload seed; the
//! daemon sees only those bytes. The seed changes names, department
//! assignments and request order, never the *shape* of the work: row
//! counts, department sizes, string widths and the operation mix are
//! fixed per workload, so any two seeds cost the daemon the same work
//! and a spread across seeds measures the machine, not the inputs.
//!
//! Each generated request carries its expected result in closed form
//! ([`Expect`]), computed from the generator's own bookkeeping rather
//! than with dex; [`crate::oracle`] checks responses against it.

use std::fmt::Write as _;

/// The fixed catalog every workload's daemon serves.
///
/// * `emp` — the employees join plus a key: one `Worker` row per
///   employee, no invented nulls, no target rounds. Compiles to a lens,
///   so it also serves `exchange`.
/// * `org` — weakly acyclic, with existentials (`Worker.office`,
///   `Office.office`), a key egd that merges invented nulls
///   (`key Office(dept)` folds every worker's office null into its
///   department's), a key egd that never fires (`key Worker(name)`),
///   and a fan-out target tgd (`Colleague`: every ordered pair of
///   workers in one department).
pub const CATALOG: &[(&str, &str)] = &[("emp", EMP), ("org", ORG)];

pub const EMP: &str = "\
source Emp(name, dept);
source Dept(dept, mgr);
target Worker(name, dept, mgr);
key Worker(name);
Emp(n, d) & Dept(d, m) -> Worker(n, d, m);
";

pub const ORG: &str = "\
source Emp(name, dept);
source Dept(dept);
target Worker(name, dept, office);
target Office(dept, office);
target Colleague(a, b);
key Worker(name);
key Office(dept);
Emp(n, d) -> Worker(n, d, o);
Dept(d) -> Office(d, o);
Worker(n, d, o) -> Office(d, o);
Worker(n, d, o) & Worker(m, d, p) -> Colleague(n, m);
";

/// `ingest_bulk`: employees per request, spread evenly over
/// [`BULK_DEPTS`] departments.
pub const BULK_EMPS: usize = 2000;
pub const BULK_DEPTS: usize = 40;
/// Distinct `ingest_bulk` bodies cycled through in a run.
pub const BULK_POOL: usize = 4;
/// `chase_deep`: employees per request over [`DEEP_DEPTS`]
/// departments; the `Colleague` fan-out yields `DEEP_EMPS² /
/// DEEP_DEPTS` tuples (5,000).
pub const DEEP_EMPS: usize = 100;
pub const DEEP_DEPTS: usize = 2;
pub const DEEP_POOL: usize = 2;
/// `serve_mixed` and the persist probe: employees and departments in
/// each small body.
pub const SMALL_EMPS: usize = 24;
pub const SMALL_DEPTS: usize = 4;
/// One `serve_mixed` cycle per client: how many requests of each kind
/// it holds, in seeded order. Persisting requests are kept rare: each
/// takes several times as long as a read, and at a higher share their
/// fsyncs, not the request floor, would set every metric.
pub const MIX: &[(OpKind, usize)] = &[
    (OpKind::Exchange, 7),
    (OpKind::Chase, 6),
    (OpKind::Persist, 1),
    (OpKind::Lint, 3),
    (OpKind::Explain, 3),
];
/// Distinct persisting requests in the probe pool (see
/// [`Workload::probes`]).
pub const PROBE_POOL: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IngestBulk,
    ChaseDeep,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IngestBulk,
        Workload::ChaseDeep,
        Workload::ServeMixed,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestBulk => "ingest_bulk",
            Workload::ChaseDeep => "chase_deep",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Persisting requests sent after each of the workload's own, so
    /// that `persist_p50_ms` has samples spread over the whole window:
    /// `serve_mixed` persists within its mix, the others have no write
    /// path of their own.
    pub fn probes(self) -> usize {
        match self {
            Workload::IngestBulk => 1,
            Workload::ChaseDeep => 4,
            Workload::ServeMixed => 0,
        }
    }

    /// Closed-loop client threads; never more than the 2 vCPUs the
    /// benchmark is sized for.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeMixed => 2,
            _ => 1,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    Chase,
    Persist,
    Exchange,
    Lint,
    Explain,
}

impl OpKind {
    /// The `op` field dexd echoes in its response envelope.
    pub fn endpoint(self) -> &'static str {
        match self {
            OpKind::Chase | OpKind::Persist => "chase",
            OpKind::Exchange => "exchange",
            OpKind::Lint => "lint",
            OpKind::Explain => "explain",
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            OpKind::Persist => "persist",
            other => other.endpoint(),
        }
    }
}

/// The closed-form expected result of one request.
#[derive(Clone, Debug)]
pub enum Expect {
    /// `emp` chase or exchange: exactly these `Worker` rows (sorted),
    /// and for chases exactly `st_firings` phase-1 firings, no rounds.
    Workers {
        rows: Vec<[String; 3]>,
        st_firings: u64,
    },
    /// `org` chase: per department its employees. Expected: one
    /// `Worker` per employee, one `Office` per department, every worker
    /// of a department sharing its `Office` null, distinct departments
    /// holding distinct nulls, and `Colleague` holding exactly the
    /// ordered pairs within each department.
    Org { depts: Vec<(String, Vec<String>)> },
    /// `emp` lint: no error diagnostics.
    Lint,
    /// `emp` explain: a plan object.
    Explain,
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: OpKind,
    pub mapping: &'static str,
    pub path: String,
    pub body: String,
    pub expect: Expect,
}

/// Everything a run sends: the request pool, each client's cycle of
/// pool indices, and the probe indices.
pub struct Plan {
    pub workload: Workload,
    pub ops: Vec<Op>,
    pub cycles: Vec<Vec<usize>>,
    /// Persisting requests (see [`Workload::probes`]).
    pub probe: Vec<usize>,
    /// Small `exchange`, `lint`, `explain` and persisting requests that
    /// the traced run adds, one after each of the workload's own, so that
    /// every per-layer metric is measured even where the workload's own
    /// requests never reach the layer. Empty for `serve_mixed`, whose mix
    /// reaches every layer.
    pub layer_probe: Vec<usize>,
}

/// SplitMix64: tiny, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// A generated employees/departments source: fixed-width names, each
/// department holding exactly `emps / depts` employees.
struct Staff {
    /// `(dept, mgr)`, in department order.
    depts: Vec<(String, String)>,
    /// `(name, dept index)`, in seeded order.
    emps: Vec<(String, usize)>,
}

impl Staff {
    fn new(rng: &mut Rng, emps: usize, depts: usize) -> Staff {
        let depts: Vec<(String, String)> = (0..depts)
            .map(|j| {
                (
                    format!("d{j:02}{:04x}", rng.below(1 << 16)),
                    format!("m{j:02}{:04x}", rng.below(1 << 16)),
                )
            })
            .collect();
        let mut emps: Vec<(String, usize)> = (0..emps)
            .map(|i| {
                (
                    format!("e{i:05}{:04x}", rng.below(1 << 16)),
                    i % depts.len(),
                )
            })
            .collect();
        rng.shuffle(&mut emps);
        Staff { depts, emps }
    }

    fn emp_rows(&self, out: &mut String) {
        out.push_str("\"Emp\": [");
        for (i, (name, d)) in self.emps.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[\"{name}\", \"{}\"]", self.depts[*d].0);
        }
        out.push(']');
    }

    /// `{"source": {"Emp": …, "Dept": [[dept, mgr], …]}}` for `emp`.
    fn emp_body(&self, persist: bool) -> String {
        let mut out = String::with_capacity(32 * self.emps.len() + 64);
        out.push_str("{\"source\": {");
        self.emp_rows(&mut out);
        out.push_str(", \"Dept\": [");
        for (j, (dept, mgr)) in self.depts.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[\"{dept}\", \"{mgr}\"]");
        }
        out.push_str("]}");
        if persist {
            out.push_str(", \"persist\": true");
        }
        out.push('}');
        out
    }

    /// `{"source": {"Emp": …, "Dept": [[dept], …]}}` for `org`.
    fn org_body(&self) -> String {
        let mut out = String::with_capacity(32 * self.emps.len() + 64);
        out.push_str("{\"source\": {");
        self.emp_rows(&mut out);
        out.push_str(", \"Dept\": [");
        for (j, (dept, _)) in self.depts.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[\"{dept}\"]");
        }
        out.push_str("]}}");
        out
    }

    fn worker_rows(&self) -> Vec<[String; 3]> {
        let mut rows: Vec<[String; 3]> = self
            .emps
            .iter()
            .map(|(n, d)| {
                let (dept, mgr) = &self.depts[*d];
                [n.clone(), dept.clone(), mgr.clone()]
            })
            .collect();
        rows.sort();
        rows
    }

    fn members(&self) -> Vec<(String, Vec<String>)> {
        self.depts
            .iter()
            .enumerate()
            .map(|(j, (dept, _))| {
                let names = self
                    .emps
                    .iter()
                    .filter(|(_, d)| *d == j)
                    .map(|(n, _)| n.clone())
                    .collect();
                (dept.clone(), names)
            })
            .collect()
    }
}

fn path(mapping: &str, kind: OpKind) -> String {
    format!("/v1/mappings/{mapping}/{}", kind.endpoint())
}

fn emp_op(rng: &mut Rng, kind: OpKind, emps: usize, depts: usize) -> Op {
    let (body, expect) = match kind {
        OpKind::Chase | OpKind::Persist | OpKind::Exchange => {
            let staff = Staff::new(rng, emps, depts);
            let expect = Expect::Workers {
                rows: staff.worker_rows(),
                st_firings: emps as u64,
            };
            (staff.emp_body(kind == OpKind::Persist), expect)
        }
        OpKind::Lint => ("{}".to_string(), Expect::Lint),
        OpKind::Explain => ("{}".to_string(), Expect::Explain),
    };
    Op {
        kind,
        mapping: "emp",
        path: path("emp", kind),
        body,
        expect,
    }
}

fn org_op(rng: &mut Rng) -> Op {
    let staff = Staff::new(rng, DEEP_EMPS, DEEP_DEPTS);
    Op {
        kind: OpKind::Chase,
        mapping: "org",
        path: path("org", OpKind::Chase),
        body: staff.org_body(),
        expect: Expect::Org {
            depts: staff.members(),
        },
    }
}

/// Generate a workload's requests from `seed`.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    let mut cycles = Vec::new();
    match workload {
        Workload::IngestBulk | Workload::ChaseDeep => {
            let pool = if workload == Workload::IngestBulk {
                BULK_POOL
            } else {
                DEEP_POOL
            };
            let mut cycle: Vec<usize> = (0..pool).collect();
            for _ in 0..pool {
                ops.push(match workload {
                    Workload::IngestBulk => emp_op(&mut rng, OpKind::Chase, BULK_EMPS, BULK_DEPTS),
                    _ => org_op(&mut rng),
                });
            }
            rng.shuffle(&mut cycle);
            cycles.push(cycle);
        }
        Workload::ServeMixed => {
            for _ in 0..workload.clients() {
                let mut kinds: Vec<OpKind> = MIX
                    .iter()
                    .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
                    .collect();
                rng.shuffle(&mut kinds);
                let mut cycle = Vec::with_capacity(kinds.len());
                for kind in kinds {
                    cycle.push(ops.len());
                    ops.push(emp_op(&mut rng, kind, SMALL_EMPS, SMALL_DEPTS));
                }
                cycles.push(cycle);
            }
        }
    }
    let probe: Vec<usize> = (0..PROBE_POOL)
        .map(|_| {
            ops.push(emp_op(&mut rng, OpKind::Persist, SMALL_EMPS, SMALL_DEPTS));
            ops.len() - 1
        })
        .collect();
    let mut layer_probe = Vec::new();
    if workload != Workload::ServeMixed {
        for kind in [OpKind::Exchange, OpKind::Lint, OpKind::Explain] {
            layer_probe.push(ops.len());
            ops.push(emp_op(&mut rng, kind, SMALL_EMPS, SMALL_DEPTS));
        }
        layer_probe.push(probe[0]);
    }
    Plan {
        workload,
        ops,
        cycles,
        probe,
        layer_probe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_and_shape_invariant() {
        for w in Workload::ALL {
            let a = plan(w, 7);
            let b = plan(w, 7);
            let c = plan(w, 8);
            assert_eq!(a.cycles.len(), w.clients());
            let bodies = |p: &Plan| p.ops.iter().map(|o| o.body.clone()).collect::<Vec<_>>();
            assert_eq!(
                bodies(&a),
                bodies(&b),
                "{}: same seed, same bytes",
                w.name()
            );
            assert_ne!(bodies(&a), bodies(&c), "{}: seed matters", w.name());
            // The seed reorders the mix but never changes what is in it.
            let lens = |p: &Plan| {
                let mut l: Vec<usize> = p.ops.iter().map(|o| o.body.len()).collect();
                l.sort_unstable();
                l
            };
            assert_eq!(lens(&a), lens(&c), "{}: seed never changes sizes", w.name());
        }
    }

    #[test]
    fn bodies_are_sized_as_documented() {
        let bulk = plan(Workload::IngestBulk, 1);
        assert!(
            bulk.ops[0].body.len() > 40_000,
            "{}",
            bulk.ops[0].body.len()
        );
        let deep = plan(Workload::ChaseDeep, 1);
        assert!(deep.ops[0].body.len() < 5_000, "{}", deep.ops[0].body.len());
        let mixed = plan(Workload::ServeMixed, 1);
        assert!(mixed.ops.iter().all(|o| o.body.len() <= 2048));
        assert_eq!(
            mixed.cycles[0].len(),
            MIX.iter().map(|m| m.1).sum::<usize>()
        );
    }
}
