//! The host clock: thread CPU time, normalised by a reference loop, and
//! peak resident memory.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over minutes as other tenants load the caches and memory, so
//! raw CPU seconds do not repeat between two sets of runs.  A fixed
//! reference loop therefore runs between repetitions in the same process,
//! and host times are reported in *normalised seconds*: raw CPU seconds ×
//! the loop's nominal time ÷ its CPU seconds around the repetition.
//! On a machine where the loop takes its nominal time, a normalised
//! second is a CPU second.  The loop lives in this file, not in the
//! program, so a change to the program cannot move it.

use std::collections::BTreeMap;
use std::hint::black_box;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call, and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "Linux supports the CPU-time clocks");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has consumed.  Unlike wall time it does
/// not count time the thread spent descheduled by other tenants.
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds the whole process has consumed (all threads).
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Runs `f` and returns its result with the CPU seconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = thread_cpu_s();
    let out = f();
    (out, thread_cpu_s() - start)
}

/// A reference loop.  Each workload is normalised by the loop that
/// stresses what it spends its host time on: measured side by side on a
/// loaded machine, `lfs_large`'s time tracked a bulk copy (memory
/// bandwidth) and not an ordered map, and `persist_churn`'s the reverse.
/// Of the other loops tried (a small mixed loop, a pointer chase over
/// 64 MiB, hash maps), none tracked either workload as well.
pub enum Reference {
    /// Builds and probes an ordered map of 500,000 keys (a working set of
    /// tens of MiB): allocation-heavy, cache-missing work like the
    /// simulator's object tables and store caches.
    OrderedMap(Vec<u64>),
    /// Copies a 16 MiB buffer 24 times, like the store's whole-object
    /// copies.
    BulkCopy(Vec<u8>, Vec<u8>),
}

impl Reference {
    /// The ordered-map loop.
    pub fn ordered_map() -> Reference {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let keys = (0..500_000)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Reference::OrderedMap(keys)
    }

    /// The bulk-copy loop.
    pub fn bulk_copy() -> Reference {
        Reference::BulkCopy(vec![0xa5; 16 << 20], vec![0; 16 << 20])
    }

    /// The loop's CPU time on a machine of nominal speed (about this
    /// machine's: a normalised second is then about a CPU second here).
    pub fn nominal_s(&self) -> f64 {
        match self {
            Reference::OrderedMap(_) => 0.2,
            Reference::BulkCopy(..) => 0.05,
        }
    }

    fn pass(&mut self) -> u64 {
        match self {
            Reference::OrderedMap(keys) => {
                let mut map = BTreeMap::new();
                for &k in keys.iter() {
                    map.insert(k, k);
                }
                keys.iter()
                    .step_by(3)
                    .fold(0u64, |sum, k| sum.wrapping_add(map[k]))
            }
            Reference::BulkCopy(from, to) => {
                for _ in 0..24 {
                    to.copy_from_slice(from);
                    from[17] = black_box(to[4099]);
                }
                from[17] as u64
            }
        }
    }

    /// CPU seconds of one pass of the loop now.
    pub fn seconds(&mut self) -> f64 {
        cpu_timed(|| black_box(self.pass())).1
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported by Linux");
    kib / 1024.0
}
