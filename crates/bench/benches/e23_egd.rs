//! E23 — egd enforcement on the `org` mapping family.
//!
//! `org` invents one office null per employee and one per department,
//! and `key Office(dept)` merges every employee's null into its
//! department's, one merge per employee. Before in-place substitution
//! each merge rebuilt the whole instance, including the null-free
//! `Colleague` fan-out, so egd enforcement grew quadratically in the
//! output. This bench times, at 100×2, 200×4, 200×2 and 400×4
//! employees × departments:
//!
//! * `cli_ms` — wall time of `dexcli chase org.dex source.json`,
//!   output to a null sink;
//! * `chase_ms` — the in-process `exchange` of `org`;
//! * `egd_ms` — `enforce_egds_with` of `org`'s keys over the chase of
//!   `org` without them: the egd step alone, on the same instance
//!   shape the chase's merge round sees;
//! * `merges`, `rewritten`, `index_probes` — the egd run's counters
//!   (`EgdStats`), which the work guard in `tests/egd_enforcement.rs`
//!   bounds.
//!
//! `DEX_E23_JSON=path cargo bench -p dex-bench --bench e23_egd` skips
//! criterion and writes the smoke artifact: one object per size with
//! the medians of each column. It runs the `dexcli` binary from the
//! same target directory, so build it first (`cargo build --release`).
//! Without the variable, criterion times `egd_ms` at 100×2.

use criterion::{criterion_group, Criterion};
use dex_chase::{enforce_egds_with, exchange, EgdStats};
use dex_logic::{parse_mapping, Mapping};
use dex_relational::{Instance, Tuple, Value};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const ORG: &str = "source Emp(name, dept);\n\
                   source Dept(dept);\n\
                   target Worker(name, dept, office);\n\
                   target Office(dept, office);\n\
                   target Colleague(a, b);\n\
                   key Worker(name);\n\
                   key Office(dept);\n\
                   Emp(n, d) -> Worker(n, d, o);\n\
                   Dept(d) -> Office(d, o);\n\
                   Worker(n, d, o) -> Office(d, o);\n\
                   Worker(n, d, o) & Worker(m, d, p) -> Colleague(n, m);\n";

/// (employees, departments), in the order the table reports them.
const SIZES: [(usize, usize); 4] = [(100, 2), (200, 4), (200, 2), (400, 4)];

fn org() -> Mapping {
    parse_mapping(ORG).expect("org parses")
}

fn org_without_keys() -> Mapping {
    let keyless: String = ORG
        .lines()
        .filter(|l| !l.starts_with("key "))
        .map(|l| format!("{l}\n"))
        .collect();
    parse_mapping(&keyless).expect("keyless org parses")
}

fn emp(i: usize, depts: usize) -> (String, String) {
    (format!("e{i:04}"), format!("d{}", i % depts))
}

fn source(m: &Mapping, emps: usize, depts: usize) -> Instance {
    let mut src = Instance::empty(m.source().clone());
    for i in 0..emps {
        let (n, d) = emp(i, depts);
        src.insert("Emp", Tuple::new(vec![Value::str(n), Value::str(d)]))
            .expect("Emp row");
    }
    for d in 0..depts {
        src.insert("Dept", Tuple::new(vec![Value::str(format!("d{d}"))]))
            .expect("Dept row");
    }
    src
}

/// The same source as `dexcli` JSON input.
fn source_json(emps: usize, depts: usize) -> String {
    let rows: Vec<String> = (0..emps)
        .map(|i| {
            let (n, d) = emp(i, depts);
            format!("[\"{n}\", \"{d}\"]")
        })
        .collect();
    let dept_rows: Vec<String> = (0..depts).map(|d| format!("[\"d{d}\"]")).collect();
    format!(
        "{{\"Emp\": [{}], \"Dept\": [{}]}}\n",
        rows.join(", "),
        dept_rows.join(", ")
    )
}

/// The keyless chase output: every office null still unmerged.
fn unmerged(emps: usize, depts: usize) -> Instance {
    exchange(&org_without_keys(), &source(&org(), emps, depts))
        .expect("keyless org chases")
        .target
}

fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(10)
}

fn bench_egd(c: &mut Criterion) {
    let egds = org().target_egds().to_vec();
    let pre = unmerged(100, 2);
    c.bench_function("e23_egd/enforce/100x2", |b| {
        b.iter(|| enforce_egds_with(black_box(&pre), &egds).expect("keys hold"))
    });
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_egd
}

/// Wall time of `f` in milliseconds, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// `target/<profile>/dexcli`, beside this bench's `deps/` directory.
fn dexcli_path() -> PathBuf {
    let exe = std::env::current_exe().expect("bench executable path");
    let bin = exe
        .parent()
        .and_then(Path::parent)
        .expect("bench runs from target/<profile>/deps")
        .join("dexcli");
    assert!(
        bin.exists(),
        "{} not found: run `cargo build --release` first",
        bin.display()
    );
    bin
}

/// One measured pass: the CLI process, the in-process chase, and the
/// egd step alone. Returns `[cli, chase, egd]` in ms and the egd
/// counters.
fn measure(
    (emps, depts): (usize, usize),
    dexcli: &Path,
    mapping_file: &Path,
    source_file: &Path,
) -> ([f64; 3], EgdStats) {
    let mut cmd = Command::new(dexcli);
    cmd.arg("chase")
        .arg(mapping_file)
        .arg(source_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let (status, cli) = timed(|| cmd.status().expect("spawn dexcli"));
    assert!(status.success(), "dexcli chase failed at {emps}x{depts}");

    let m = org();
    let src = source(&m, emps, depts);
    let (res, chase) = timed(|| exchange(&m, &src).expect("org chases"));
    let per_dept = emps / depts;
    assert_eq!(
        res.target.fact_count(),
        emps + depts + depts * per_dept * per_dept
    );
    let pre = unmerged(emps, depts);
    let ((_, stats), egd) = timed(|| enforce_egds_with(&pre, m.target_egds()).expect("keys hold"));
    assert_eq!(stats.merges, emps);
    ([cli, chase, egd], stats)
}

fn smoke(path: &str) {
    let dexcli = dexcli_path();
    let dir = std::env::temp_dir().join(format!("dex-e23-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mapping_file = dir.join("org.dex");
    std::fs::write(&mapping_file, ORG).expect("write mapping");

    let mut rows = Vec::new();
    for size in SIZES {
        let (emps, depts) = size;
        let source_file = dir.join(format!("source-{emps}x{depts}.json"));
        std::fs::write(&source_file, source_json(emps, depts)).expect("write source");
        let runs = 5;
        let samples: Vec<([f64; 3], EgdStats)> = (0..runs)
            .map(|_| measure(size, &dexcli, &mapping_file, &source_file))
            .collect();
        let col = |i: usize| median(samples.iter().map(|s| s.0[i]).collect());
        let (cli, chase, egd) = (col(0), col(1), col(2));
        let stats = samples[0].1;
        println!(
            "{emps:>4}x{depts}  cli {cli:>8.1} ms  chase {chase:>8.1}  egd {egd:>7.2}  \
             merges {:>4}  rewritten {:>6}  probes {:>6}",
            stats.merges, stats.rewritten, stats.index_probes
        );
        rows.push(format!(
            "    {{\"employees\": {emps}, \"departments\": {depts}, \"runs\": {runs}, \
             \"cli_ms\": {cli:.2}, \"chase_ms\": {chase:.2}, \"egd_ms\": {egd:.3}, \
             \"merges\": {}, \"rewritten\": {}, \"index_probes\": {}}}",
            stats.merges, stats.rewritten, stats.index_probes
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        "{{\n  \"experiment\": \"e23_egd\",\n  \"sizes\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(path, &json).expect("write smoke artifact");
    println!("e23 smoke metrics -> {path}\n{json}");
}

fn main() {
    if let Ok(path) = std::env::var("DEX_E23_JSON") {
        smoke(&path);
        return;
    }
    benches();
}
