//! For a fixed seed, the exact counts the benchmark reports repeat bit
//! for bit across runs, so later changes can cite them as counts:
//! chase firings, tuples, nulls and rounds, store bytes written,
//! request and response bytes, and the hash of every response.

use dex_perfbench::bench::counts;
use dex_perfbench::workload::Workload;

fn assert_repeats(workload: Workload, steps: usize) {
    let name = format!("determinism-{}", workload.name());
    let a = counts(workload, 42, steps, &name).expect("first run");
    let b = counts(workload, 42, steps, &name).expect("second run");
    assert_eq!(a, b, "{}: counts differ between runs", workload.name());
    assert!(a.chase_tuples > 0 && a.req_bytes > 0 && a.resp_bytes > 0);
    assert_eq!(a.response_hashes.len(), steps * workload.clients());
}

#[test]
fn serve_mixed_counts_repeat() {
    // A full cycle per client: every operation kind, persisting ones
    // included.
    assert_repeats(Workload::ServeMixed, 20);
}

#[test]
fn ingest_bulk_counts_repeat() {
    assert_repeats(Workload::IngestBulk, 2);
}

#[test]
fn chase_deep_counts_repeat() {
    assert_repeats(Workload::ChaseDeep, 1);
}

#[test]
fn serve_mixed_persists_deterministic_bytes() {
    let c = counts(Workload::ServeMixed, 7, 20, "determinism-store").expect("run");
    assert!(
        c.store_bytes_written > 0,
        "persisting requests write stores"
    );
}
