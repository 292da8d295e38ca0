//! What the benchmark reads from the machine rather than from the program:
//! one monotonic clock, a counting allocator, and `/proc/self`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call (made at process start by `main`).
/// Every stamp and span in the benchmark is on this one clock.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The CPUs this process may run on, read once at start (before any thread
/// is pinned, which would shrink what the calling thread sees).
fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap_or("")
            .trim();
        let cpus: Vec<usize> = list
            .split(',')
            .filter_map(|range| {
                let (lo, hi) = range.split_once('-').unwrap_or((range, range));
                Some(lo.trim().parse().ok()?..=hi.trim().parse().ok()?)
            })
            .flatten()
            .collect();
        if cpus.is_empty() {
            (0..std::thread::available_parallelism().map_or(1, usize::from)).collect()
        } else {
            cpus
        }
    })
}

/// Processors the benchmark sizes its `pN` pools by.
pub fn nproc() -> usize {
    cpus().len()
}

extern "C" {
    /// libc's `int sched_setaffinity(pid_t, size_t, const cpu_set_t *)`; std
    /// links libc already, and the container has no `libc` crate.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set_affinity(tid: i32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live 128-byte bit set (the size of glibc's
    // `cpu_set_t`) that the kernel only reads; a bad `tid` is an error return.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Give every thread of the benchmark its own place, by role: the calling
/// thread (batch caller, serve generator) on the first CPU, the service's
/// executor on the second, pool processor `i` on CPU `1 + i` (wrapping, so
/// with `p = nproc` the last processor shares the blocked caller's CPU), any
/// other thread anywhere.  Call it after every pool or service start, with
/// the number of pool processors just started: new threads inherit their
/// creator's single CPU, and name themselves only once they run, so this
/// waits (up to a second) until that many named processors have been seen.
///
/// Thread placement is part of the benchmark.  Left to the guest scheduler,
/// a blocked caller and the worker it wakes are either stacked on one CPU
/// (park/unpark round trip 1.5 µs) or spread over two (35 µs); the scheduler
/// starts with the first and moves to the second after a couple of seconds
/// of load, so `batch-fine-pN` read 35 ms or 127 ms per round depending on
/// what the machine did just before.  This layout is the one the scheduler
/// converges to, from the first round on (README, "Noise findings").
pub fn pin_threads(processors: usize) {
    let deadline = now_ns() + 1_000_000_000;
    while pin_named_threads() < processors && now_ns() < deadline {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// One pass over the live threads; returns how many pool processors it placed.
fn pin_named_threads() -> usize {
    let cpus = cpus();
    let caller = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse::<i32>().ok());
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return usize::MAX;
    };
    let mut processors = 0;
    for task in tasks.flatten() {
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok())
        else {
            continue;
        };
        let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        // The kernel keeps 15 bytes of a name: "lopram-serve-exec-0" is cut.
        let slot = if Some(tid) == caller {
            Some(0)
        } else if name.starts_with("lopram-serve-ex") {
            Some(1)
        } else {
            let index = name
                .trim()
                .strip_prefix("lopram-proc-")
                .and_then(|i| i.parse::<usize>().ok());
            processors += usize::from(index.is_some());
            index.map(|i| 1 + i)
        };
        let pinned = match slot {
            Some(slot) => set_affinity(tid, &[cpus[slot % cpus.len()]]),
            None => set_affinity(tid, cpus),
        };
        if !pinned {
            eprintln!(
                "warning: cannot set the CPU affinity of thread {tid}; timings will be noisier"
            );
        }
    }
    processors
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Delegating global allocator that counts `alloc` + `realloc` events of
/// every thread while [`set_counting`] is on (the traced pass only, so the
/// untraced pass pays one relaxed load per allocation and nothing else).
pub struct CountingAlloc;

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every method delegates verbatim to `System`; the counter is a
// side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// On-CPU time and voluntary context switches summed over the live threads
/// of this process (`/proc/self/task/*/{schedstat,status}`).  The kernel
/// updates on-CPU time at ticks, so a delta is good to about a millisecond
/// per thread; take it over windows much longer than that.
#[derive(Clone, Copy, Default)]
pub struct TaskTotals {
    pub cpu_ns: u64,
    pub voluntary_switches: u64,
}

pub fn task_totals() -> TaskTotals {
    let mut totals = TaskTotals::default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return totals;
    };
    for task in tasks.flatten() {
        // A thread may exit between the listing and the reads; skip it.
        if let Ok(s) = std::fs::read_to_string(task.path().join("schedstat")) {
            totals.cpu_ns += first_number(&s);
        }
        if let Ok(s) = std::fs::read_to_string(task.path().join("status")) {
            totals.voluntary_switches += s
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .map_or(0, first_number);
        }
    }
    totals
}

fn first_number(text: &str) -> u64 {
    text.split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}
