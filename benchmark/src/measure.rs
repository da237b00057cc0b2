//! Measurement plumbing shared by every workload: process resource
//! usage, a per-thread allocation counter, order statistics, the seeded
//! input generator and the in-memory span tracer of the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

// ---------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------

thread_local! {
    /// Allocations made by the current thread.  A const-initialised
    /// `Cell` has no destructor, so the allocator may touch it at any
    /// point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation (and reallocation)
/// of the calling thread.  Per-thread counts keep the hot path free of
/// shared cache lines, so the end-to-end figures are not skewed by it.
pub struct CountingAllocator;

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// ---------------------------------------------------------------------
// Process resource usage (getrusage / ppoll through the C library std
// already links; no crate dependency needed)
// ---------------------------------------------------------------------

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

/// `pollfd` of `poll(2)`.
#[repr(C)]
pub struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `POLLIN` of `poll(2)`.
pub const POLLIN: i16 = 1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for 64-bit Linux.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage
}

/// User plus system CPU time of the whole process (every thread, live
/// or joined), in microseconds.
pub fn process_cpu_us() -> u64 {
    let u = rusage();
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    us(&u.ru_utime) + us(&u.ru_stime)
}

/// Peak resident set size of the process image, in MB (10^6 bytes):
/// `VmHWM` of `/proc/self/status`.  `getrusage`'s `ru_maxrss` is not
/// used because it survives `exec` and so would report the launcher
/// (e.g. `cargo run`) whenever that was larger.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or_else(
            || rusage().ru_maxrss as f64 * 1024.0 / 1e6,
            |kb| kb * 1024.0 / 1e6,
        )
}

/// Waits until one of `fds` is readable or `timeout_ns` passes.  The
/// timeout is served by a high-resolution timer, unlike socket read
/// timeouts, so an open-loop schedule can be kept to within tens of
/// microseconds.
pub fn poll_readable(fds: &mut [PollFd], timeout_ns: u64) -> usize {
    let timeout = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    // SAFETY: `fds` is a valid slice of `pollfd`s and `timeout` outlives
    // the call; a null signal mask leaves the mask unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        )
    };
    usize::try_from(rc).unwrap_or(0)
}

// ---------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------

/// The `q`-quantile (0..=1) of `values` by nearest rank; sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of `values`; sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's seed streams so the checkers share no code with it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated per use by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One timed call: a name, start and end (ns since the tracer started),
/// the index of the enclosing span, and the id shared by every span of
/// one request (or one target, shard, ...).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder of the traced run.  Every span also feeds a
/// per-name total, so the per-layer figures come from the same records
/// that are written out; the record list itself is capped so a long
/// run cannot grow without bound.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cap: usize,
    dropped: u64,
    /// name -> (summed ns, units of work covered)
    totals: BTreeMap<&'static str, (u64, u64)>,
}

/// An open span, closed by [`Tracer::end`].
#[derive(Debug)]
#[must_use]
pub struct Open {
    slot: Option<usize>,
    name: &'static str,
    start: Instant,
    start_ns: u64,
}

impl Tracer {
    /// A tracer keeping at most `cap` span records.
    pub fn new(cap: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cap,
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Opens span `name` for request `id`, nested in the innermost open
    /// span.
    pub fn begin(&mut self, id: u64, name: &'static str) -> Open {
        let start = Instant::now();
        let start_ns = (start - self.origin).as_nanos() as u64;
        let slot = if self.spans.len() < self.cap {
            self.spans.push(Span {
                id,
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        if let Some(slot) = slot {
            self.open.push(slot);
        }
        Open {
            slot,
            name,
            start,
            start_ns,
        }
    }

    /// Closes `open`, crediting its duration to `units` units of work;
    /// returns the duration in ns.
    pub fn end(&mut self, open: Open, units: u64) -> u64 {
        let ns = open.start.elapsed().as_nanos() as u64;
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = open.start_ns + ns;
            if self.open.last() == Some(&slot) {
                self.open.pop();
            }
        }
        let entry = self.totals.entry(open.name).or_insert((0, 0));
        entry.0 += ns;
        entry.1 += units;
        ns
    }

    /// Mean ns per unit of work over every span named `name`.
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |&(ns, units)| ns as f64 / units.max(1) as f64)
    }

    /// Units of work recorded under `name`.
    pub fn units(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |&(_, units)| units)
    }

    /// The recorded spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                span.id, span.name, span.start_ns, span.end_ns, parent
            );
        }
        out
    }

    /// Spans not recorded because the cap was reached (still counted in
    /// the totals).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
    }

    #[test]
    fn rng_is_reproducible_and_salted() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut r = Rng::new(3, 3);
        assert!((0..1000)
            .map(|_| r.range(-2, 2))
            .all(|x| (-2..=2).contains(&x)));
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::new(2);
        let outer = t.begin(1, "outer");
        let inner = t.begin(1, "inner");
        t.end(inner, 4);
        t.end(outer, 1);
        let third = t.begin(2, "inner");
        t.end(third, 4);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.units("inner"), 8);
        assert!(t.to_jsonl().contains("\"parent\":0"));
    }

    #[test]
    fn allocations_are_counted_per_thread() {
        let before = thread_allocs();
        let v: Vec<u64> = Vec::with_capacity(16);
        drop(v);
        assert!(thread_allocs() > before);
        assert!(process_cpu_us() > 0 || peak_rss_mb() > 0.0);
    }
}
