//! The host-speed reference that end-to-end timings are normalized by.
//!
//! The shared hosts this benchmark runs on alternate between speeds up
//! to 2× apart, for seconds to minutes at a time, whatever the program
//! does: a fixed CPU loop slows down with everything else. Raw medians
//! then follow the share of a run the host spent slow, and move by
//! 20–40 % between identical runs. So every [`REF_PERIOD`] the clients
//! pause together and, with no request in flight, one of them times two
//! fixed reference kernels that run no dex code: [`cpu_kernel_ms`] and
//! [`io_kernel_ms`]. A request's round trip is then divided by the
//! host's slowness around it, the mean of the kernel timings before and
//! after it over their nominal times: persisting requests, whose cost
//! is mostly fsync, by the two kernels' slowness weighted by
//! [`PERSIST_IO_SHARE`]; CPU-bound requests by the CPU kernel's alone
//! (see `bench::normalize`).
//!
//! Normalized times are milliseconds of a host on which the CPU kernel
//! takes [`CPU_NOMINAL_MS`] and the IO kernel [`IO_NOMINAL_MS`]. A
//! change to dex scales them as it scales raw times on the same host;
//! the host's speed phases largely cancel, though not exactly, since no
//! fixed kernel slows down in exactly the proportion every request does.

use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Nominal time of [`cpu_kernel_ms`]: about its time on a quiet
/// 2.1 GHz Xeon.
pub const CPU_NOMINAL_MS: f64 = 2.5;
/// Nominal time of [`io_kernel_ms`]: about its time on the same host's
/// virtio disk when quiet.
pub const IO_NOMINAL_MS: f64 = 2.0;
/// Share of a small persisting chase's time spent in its fsyncs: a
/// traced `serve_mixed` run puts the store at about 2.5 ms of a 3.9 ms
/// request.
pub const PERSIST_IO_SHARE: f64 = 2.0 / 3.0;
/// How often the clients pause for a kernel timing.
pub const REF_PERIOD: Duration = Duration::from_millis(100);

/// Run the CPU kernel once; its wall time in ms. The work is fixed and
/// mixes what the measured requests spend their time on. The parts are
/// long enough, and touch enough memory, to slow down the way requests
/// do when a neighbour contends for the core and its caches; a shorter,
/// cache-resident kernel was seen to under-read such slowdowns by a
/// fifth.
pub fn cpu_kernel_ms() -> f64 {
    let text = vec![b'a'; 8_192];
    let keys: Vec<u64> = (0..40_000u64)
        .map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let t = Instant::now();
    // The JSON decoder's inner loop: UTF-8 validation of the rest of a
    // buffer from successive positions.
    let mut acc = 0usize;
    for k in 0..4_096 {
        let rest = std::hint::black_box(&text[k..]);
        acc += std::str::from_utf8(rest).map_or(0, str::len);
    }
    // The chase's indexes: hashing, inserting and probing over more
    // memory than a core's private caches hold.
    let mut map = HashMap::with_capacity(keys.len());
    for (i, &k) in keys.iter().enumerate() {
        map.insert(k, i);
    }
    for k in &keys {
        acc = acc.wrapping_add(map.get(k).copied().unwrap_or(0));
    }
    // Short-lived strings, as instance building and encoding make them.
    let names: Vec<String> = (0..4_000).map(|i| format!("e{i:05}")).collect();
    std::hint::black_box((acc, map, names));
    t.elapsed().as_secs_f64() * 1e3
}

fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Run the IO kernel once in a fresh directory `dir`; its wall time in
/// ms. It repeats the durable-write pattern of a persisting chase under
/// the default flush policy: a new directory holding three small files,
/// each written and fsynced, the directory fsynced, a snapshot written
/// to a temporary file, fsynced and renamed into place, the directory
/// fsynced again, and one file truncated and fsynced.
pub fn io_kernel_ms(dir: &Path) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("io kernel in {}: {e}", dir.display());
    let block = [0x5au8; 512];
    let t = Instant::now();
    std::fs::create_dir_all(dir).map_err(io)?;
    for name in ["meta", "source", "wal"] {
        write_synced(&dir.join(name), &block).map_err(io)?;
    }
    File::open(dir).and_then(|d| d.sync_all()).map_err(io)?;
    write_synced(&dir.join("snapshot.tmp"), &block).map_err(io)?;
    std::fs::rename(dir.join("snapshot.tmp"), dir.join("snapshot")).map_err(io)?;
    File::open(dir).and_then(|d| d.sync_all()).map_err(io)?;
    write_synced(&dir.join("wal"), &block[..16]).map_err(io)?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

#[derive(Default)]
struct Timings {
    cpu: Vec<f64>,
    io: Vec<f64>,
    stop: bool,
    error: Option<String>,
}

/// Paces the closed-loop clients of one run: decides, for all of them
/// at once, when to time the kernels and when the window is over.
pub struct Pacer {
    epoch: Instant,
    deadline: Instant,
    next_ns: AtomicU64,
    barrier: Barrier,
    io_dir: PathBuf,
    timings: Mutex<Timings>,
}

impl Pacer {
    /// A pacer for `clients` threads measuring for `window`, running
    /// its IO kernel in fresh directories under `io_dir`.
    pub fn new(clients: usize, window: Duration, io_dir: &Path) -> Pacer {
        let epoch = Instant::now();
        Pacer {
            epoch,
            deadline: epoch + window,
            next_ns: AtomicU64::new(0),
            barrier: Barrier::new(clients),
            io_dir: io_dir.to_path_buf(),
            timings: Mutex::new(Timings::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Timings> {
        self.timings
            .lock()
            .expect("pacer lock poisoned by a client panic")
    }

    /// Called by every client before each request. Returns the segment
    /// (the index of the latest kernel timing) the request falls in, or
    /// `None` once the window is over. When a timing is due, all
    /// clients meet here, one times the kernels while no request is in
    /// flight, and all leave with the same verdict, so the window ends
    /// at a timing and every segment has timings on both sides.
    pub fn segment(&self, current: usize) -> Option<usize> {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        if now_ns < self.next_ns.load(Ordering::Acquire) {
            return Some(current);
        }
        if self.barrier.wait().is_leader() {
            let cpu = cpu_kernel_ms();
            let mut t = self.lock();
            let io = io_kernel_ms(&self.io_dir.join(t.io.len().to_string()));
            t.cpu.push(cpu);
            match io {
                Ok(ms) => t.io.push(ms),
                Err(e) => {
                    t.io.push(IO_NOMINAL_MS);
                    t.error.get_or_insert(e);
                }
            }
            t.stop = Instant::now() >= self.deadline || t.error.is_some();
            let next = self.epoch.elapsed() + REF_PERIOD;
            self.next_ns
                .store(next.as_nanos() as u64, Ordering::Release);
        }
        self.barrier.wait();
        let t = self.lock();
        (!t.stop).then(|| t.cpu.len() - 1)
    }

    /// The host's slowness during `segment` relative to nominal (1.0 =
    /// nominal, 1.5 = everything takes 1.5× as long): for CPU-bound
    /// requests, and for persisting ones.
    pub fn factors(&self, segment: usize) -> (f64, f64) {
        let t = self.lock();
        let around =
            |v: &[f64]| (v[segment] + v.get(segment + 1).copied().unwrap_or(v[segment])) / 2.0;
        let (cpu, io) = (around(&t.cpu), around(&t.io));
        (
            cpu / CPU_NOMINAL_MS,
            (1.0 - PERSIST_IO_SHARE) * cpu / CPU_NOMINAL_MS + PERSIST_IO_SHARE * io / IO_NOMINAL_MS,
        )
    }

    /// Median kernel times (CPU, IO) over the run, in ms.
    pub fn medians(&self) -> (f64, f64) {
        let t = self.lock();
        (
            crate::bench::quantile(&t.cpu, 0.5),
            crate::bench::quantile(&t.io, 0.5),
        )
    }

    /// The first IO kernel failure, if any.
    pub fn error(&self) -> Option<String> {
        self.lock().error.clone()
    }
}
