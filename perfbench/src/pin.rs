//! Runs a serve workload's client and server threads on one CPU, under the
//! `SCHED_BATCH` policy, so every round trip takes the same path.
//!
//! The serve workloads are round trips between the client thread and the
//! server thread, and every round trip wakes a parked thread twice. Left to
//! the scheduler, on the 2-vCPU reference host, a wake either stayed on the
//! waker's CPU or crossed to the other one. A cross-CPU wake costs an
//! inter-processor interrupt, which on a virtual machine is a hypervisor
//! exit whose latency follows the host's load. The `serve_hot` latencies
//! split into a 6 µs and a 15–17 µs mode, and their mix moved from second
//! to second and from run to run, so the p99 jumped between the two. On one
//! CPU a wake has two outcomes still: the woken thread preempts the waker at
//! once, or runs when the waker parks (a 4 µs and a 6 µs mode). `SCHED_BATCH`
//! turns off wake-up preemption. Every round trip then runs the program's
//! whole request path in the same order: the client queues the request,
//! wakes the server and parks; the server answers, wakes the client and
//! parks.
//!
//! Threads inherit both the CPU set and the policy from the thread that
//! spawns them, so the server spawned while a [`OneCpu`] is held runs there
//! too. Neither change needs a privilege.

use std::os::raw::{c_int, c_ulong};

/// `cpu_set_t`: one bit per CPU, 1024 CPUs.
const WORDS: usize = 1024 / (8 * std::mem::size_of::<c_ulong>());
type CpuSet = [c_ulong; WORDS];

#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn sched_getscheduler(pid: c_int) -> c_int;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
}

/// Linux's policy for threads that do not preempt others when they wake.
const SCHED_BATCH: c_int = 3;

/// The calling thread's CPU set (pid 0 is the calling thread).
fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; WORDS];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes into
    // `set`, which lives for the call.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
    ok.then_some(set)
}

fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: the kernel only reads `set`, which lives for the call.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

fn set_policy(policy: c_int) -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: the kernel only reads `param`, which lives for the call.
    unsafe { sched_setscheduler(0, policy, &param) == 0 }
}

/// The lowest-numbered CPU in `set`, alone.
fn first_cpu(set: &CpuSet) -> Option<CpuSet> {
    let word = set.iter().position(|&w| w != 0)?;
    let mut one: CpuSet = [0; WORDS];
    one[word] = set[word] & set[word].wrapping_neg();
    Some(one)
}

/// While held, the calling thread and every thread it spawns run on the
/// first CPU it was allowed, under `SCHED_BATCH`. Dropping it gives the
/// calling thread back its CPU set and policy.
pub struct OneCpu {
    cpus: Option<CpuSet>,
    policy: c_int,
}

impl OneCpu {
    pub fn enter() -> Self {
        let cpus = affinity();
        // SAFETY: a plain query of the calling thread's policy.
        let policy = unsafe { sched_getscheduler(0) };
        let pinned = cpus.as_ref().and_then(first_cpu).is_some_and(|one| set_affinity(&one));
        let batch = set_policy(SCHED_BATCH);
        if !(pinned && batch) {
            eprintln!("perfbench: could not pin to one CPU ({pinned}) or use SCHED_BATCH ({batch})");
        }
        Self { cpus, policy }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if self.policy >= 0 {
            set_policy(self.policy);
        }
        if let Some(set) = &self.cpus {
            set_affinity(set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cpu_keeps_the_lowest_bit() {
        let mut set: CpuSet = [0; WORDS];
        assert!(first_cpu(&set).is_none());
        set[1] = 0b1100;
        set[3] = 1;
        let one = first_cpu(&set).expect("a CPU");
        assert_eq!(one[1], 0b0100);
        assert_eq!(one.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn spawned_threads_inherit_and_drop_restores() {
        let before = affinity().expect("affinity");
        let count = |s: &CpuSet| s.iter().map(|w| w.count_ones()).sum::<u32>();
        let guard = OneCpu::enter();
        let child = std::thread::spawn(|| {
            // SAFETY: a plain query of the calling thread's policy.
            (affinity().expect("affinity"), unsafe { sched_getscheduler(0) })
        })
        .join()
        .expect("child thread");
        assert_eq!(count(&child.0), 1);
        assert_eq!(child.1, SCHED_BATCH);
        drop(guard);
        assert_eq!(affinity().expect("affinity"), before);
        // SAFETY: as above.
        assert_ne!(unsafe { sched_getscheduler(0) }, SCHED_BATCH);
    }
}
