//! The host clock and the host's speed.
//!
//! Host timings are CPU seconds of the benchmark's one thread, so time the
//! host gives to other work does not count. What remains still drifts when
//! cores and caches are shared with other tenants: on a 2-vCPU virtual
//! machine the same run took 10–30% longer for tens of seconds at a time.
//! The benchmark therefore times a fixed reference kernel of its own before
//! every run and scales its host timings by [`speed_factor`], the kernel's
//! nominal time over its median measured time, so they read as on a host
//! of the reference speed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// A start instant on this thread's CPU clock (`CLOCK_THREAD_CPUTIME_ID`).
#[derive(Clone, Copy, Debug)]
pub struct CpuTimer(f64);

impl CpuTimer {
    pub fn start() -> CpuTimer {
        CpuTimer(thread_cpu_s())
    }

    /// CPU seconds this thread has run since [`CpuTimer::start`].
    pub fn elapsed_s(&self) -> f64 {
        thread_cpu_s() - self.0
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run, user and system time together.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of one [`HostReference::time_pass`] on the reference host,
/// a 2-vCPU Intel Xeon virtual machine with a 300 MiB L3 (the low end of
/// what it measured: 0.09–0.12 s).
pub const REFERENCE_NOMINAL_S: f64 = 0.100;

/// Keys inserted in the reference table, drawn from `4 * REFERENCE_KEYS`
/// values; about one lookup in five hits.
const REFERENCE_KEYS: u64 = 1 << 20;

/// Lookups in one timed pass.
const REFERENCE_LOOKUPS: usize = 2_000_000;

/// The reference kernel: random lookups in a hash table of nearly a
/// million entries, some 35 MB.
///
/// It is the benchmark's own code, not the simulator's, so no change to the
/// program moves it; like the simulator it chases pointers through a
/// working set held in the shared cache, so it slows when the host does.
/// The hasher has fixed keys, so every process builds the same table.
pub struct HostReference {
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    /// MB of resident memory the table added to the process, which the
    /// benchmark takes off the memory it reports for the program.
    pub resident_mb: f64,
}

impl HostReference {
    pub fn new() -> Result<HostReference, String> {
        let before = crate::self_status_mb("VmRSS")?;
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let mut table =
            HashMap::with_capacity_and_hasher(REFERENCE_KEYS as usize, Default::default());
        for _ in 0..REFERENCE_KEYS {
            let k = xorshift(&mut x);
            table.insert(k % (4 * REFERENCE_KEYS), k);
        }
        let resident_mb = crate::self_status_mb("VmRSS")? - before;
        Ok(HostReference { table, resident_mb })
    }

    /// CPU seconds of one pass of [`REFERENCE_LOOKUPS`] lookups. A sweep
    /// over the whole table first brings it back into the cache, so what
    /// ran before the pass (the simulator, with its own working set) does
    /// not change how long the pass takes.
    pub fn time_pass(&self) -> f64 {
        let mut acc = 0u64;
        for v in self.table.values() {
            acc = acc.wrapping_add(*v);
        }
        let t = CpuTimer::start();
        let mut x = 7;
        for _ in 0..REFERENCE_LOOKUPS {
            let k = xorshift(&mut x) % (4 * REFERENCE_KEYS);
            if let Some(v) = self.table.get(black_box(&k)) {
                acc = acc.wrapping_add(*v);
            }
        }
        black_box(acc);
        t.elapsed_s()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The factor that scales host timings to the reference speed: the
/// reference kernel's nominal time over the median of its `passes`
/// measured in the same process. `None` without passes.
pub fn speed_factor(passes: &[f64]) -> Option<f64> {
    crate::median(passes).map(|m| REFERENCE_NOMINAL_S / m)
}
