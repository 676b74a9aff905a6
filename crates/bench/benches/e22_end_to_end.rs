//! E22 — `dexcli chase` end to end, and where its time goes.
//!
//! The chase benches (e1, e12) time the chase core alone. A user of
//! `dexcli chase m.dex source.json` also pays for reading and decoding
//! the JSON file, building the source instance, and rendering the
//! target. This bench times the whole command and its layers on the
//! `Emp(x) → Manager(x, y)` mapping (with `key Manager(emp)`), from 10³
//! to 10⁶ source facts whose names carry a multibyte character:
//!
//! * `cli_ms` — wall time of the `dexcli chase` process, output to a
//!   null sink;
//! * `decode_ms` — `serde_json::from_str` of the file's text;
//! * `build_ms` — `dexd::json::instance_from_json`, the one instance
//!   codec the CLI and `dexd` share;
//! * `chase_ms` — `exchange_governed` under an unlimited budget, the
//!   call `dexcli chase` makes;
//! * `encode_ms` — `instance_to_json` + `to_string_pretty` of the
//!   target, what the CLI prints.
//!
//! `DEX_E22_JSON=path cargo bench -p dex-bench --bench e22_end_to_end`
//! skips criterion and writes the smoke artifact: one object per size
//! with the medians of each column. It runs the `dexcli` binary from
//! the same target directory, so build it first (`cargo build
//! --release`). Without the variable, criterion times the in-process
//! decode and build layers at 10³ and 10⁴ facts.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use dex_chase::{exchange_governed, Budget, ChaseOptions, ChaseOutcome, Governor};
use dex_logic::{parse_mapping, Mapping};
use dexd::json::{instance_from_json, instance_to_json};
use serde_json::Value as Json;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const MAPPING: &str = "source Emp(name);\n\
                       target Manager(emp, mgr);\n\
                       key Manager(emp);\n\
                       Emp(x) -> Manager(x, y);\n";

fn mapping() -> Mapping {
    parse_mapping(MAPPING).expect("e22 mapping parses")
}

/// The source file's text: `n` `Emp` facts, one multibyte character
/// per name.
fn source_json(n: usize) -> String {
    let mut text = String::from("{\"Emp\": [");
    for i in 0..n {
        if i > 0 {
            text.push_str(", ");
        }
        let _ = write!(text, "[\"employé-{i}\"]");
    }
    text.push_str("]}\n");
    text
}

fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(10)
}

fn bench_ingest(c: &mut Criterion) {
    let m = mapping();
    let mut group = c.benchmark_group("e22_end_to_end");
    for n in [1_000usize, 10_000] {
        let text = source_json(n);
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_with_input(BenchmarkId::new("decode", n), &text, |b, text| {
            b.iter(|| serde_json::from_str::<Json>(black_box(text)).expect("valid JSON"))
        });
        let json: Json = serde_json::from_str(&text).expect("valid JSON");
        group.bench_with_input(BenchmarkId::new("build", n), &json, |b, json| {
            b.iter(|| instance_from_json(black_box(json), m.source()).expect("valid instance"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_ingest
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

/// One measured pass over `n` facts: the CLI process, then each layer
/// in process. Returns `[cli, decode, build, chase, encode]` in ms.
fn measure(n: usize, dexcli: &Path, mapping_file: &Path, source_file: &Path) -> [f64; 5] {
    let mut cmd = Command::new(dexcli);
    cmd.arg("chase")
        .arg(mapping_file)
        .arg(source_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let (status, cli) = timed(|| cmd.status().expect("spawn dexcli"));
    assert!(status.success(), "dexcli chase failed at n={n}: {status}");

    let m = mapping();
    let text = std::fs::read_to_string(source_file).expect("read source file");
    let (json, decode) = timed(|| serde_json::from_str::<Json>(&text).expect("valid JSON"));
    let (src, build) = timed(|| instance_from_json(&json, m.source()).expect("valid instance"));
    drop(json);
    assert_eq!(src.fact_count(), n);
    let gov = Governor::new(Budget::unlimited());
    let (outcome, chase) =
        timed(|| exchange_governed(&m, &src, ChaseOptions::default(), &gov).expect("chase runs"));
    let ChaseOutcome::Complete(res) = outcome else {
        panic!("unbudgeted chase cannot exhaust");
    };
    assert_eq!(res.target.fact_count(), n);
    let (rendered, encode) =
        timed(|| serde_json::to_string_pretty(&instance_to_json(&res.target)).expect("renders"));
    black_box(rendered);
    [cli, decode, build, chase, encode]
}

/// The smoke artifact: medians per size, with the decode rate and the
/// end-to-end time as a multiple of the chase inside it.
fn smoke(path: &str) {
    let dexcli = dexcli_path();
    let dir = std::env::temp_dir().join(format!("dex-e22-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mapping_file = dir.join("m.dex");
    std::fs::write(&mapping_file, MAPPING).expect("write mapping");

    let mut rows = Vec::new();
    for (n, runs) in [(1_000usize, 5), (10_000, 5), (100_000, 3), (1_000_000, 1)] {
        let text = source_json(n);
        let source_file = dir.join(format!("source-{n}.json"));
        std::fs::write(&source_file, &text).expect("write source");
        let samples: Vec<[f64; 5]> = (0..runs)
            .map(|_| measure(n, &dexcli, &mapping_file, &source_file))
            .collect();
        let col = |i: usize| median(samples.iter().map(|s| s[i]).collect());
        let (cli, decode, build, chase, encode) = (col(0), col(1), col(2), col(3), col(4));
        println!(
            "n={n:>8}  cli {cli:>9.1} ms  decode {decode:>8.1}  build {build:>8.1}  \
             chase {chase:>8.1}  encode {encode:>8.1}"
        );
        rows.push(format!(
            "    {{\"facts\": {n}, \"body_bytes\": {}, \"runs\": {runs}, \
             \"cli_ms\": {cli:.2}, \"decode_ms\": {decode:.2}, \"build_ms\": {build:.2}, \
             \"chase_ms\": {chase:.2}, \"encode_ms\": {encode:.2}, \
             \"decode_mb_s\": {:.1}, \"cli_over_chase\": {:.2}}}",
            text.len(),
            text.len() as f64 / 1e6 / (decode / 1e3),
            cli / chase,
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        "{{\n  \"experiment\": \"e22_end_to_end\",\n  \"sizes\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(path, &json).expect("write smoke artifact");
    println!("e22 smoke metrics -> {path}\n{json}");
}

fn main() {
    if let Ok(path) = std::env::var("DEX_E22_JSON") {
        smoke(&path);
        return;
    }
    benches();
}
