//! Cost accounting for the overhead experiments (§6 item 1 and future
//! work item 3), and the per-syscall counts the paper's claims are
//! checked against.
//!
//! The simulated kernel cannot measure real nanoseconds, so it counts the
//! *mechanistic* cost drivers each emulation strategy incurs. Criterion
//! benches report both these counters and wall-clock time of the
//! simulation itself.

use std::fmt;
use std::ops::AddAssign;

use zr_syscalls::{Sysno, FILTERED};

/// One slot per [`Sysno`]: the syscall table has one row per variant,
/// in declaration order, so `sysno as usize` indexes it.
const SYSNOS: usize = zr_syscalls::nr::TABLE.len();

/// Calls per syscall, indexed by `sysno as usize`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Calls([u64; SYSNOS]);

impl Default for Calls {
    fn default() -> Calls {
        Calls([0; SYSNOS])
    }
}

impl fmt::Debug for Calls {
    /// The syscalls that were issued, by name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                Sysno::all()
                    .map(|sysno| (sysno.name(), self.0[sysno as usize]))
                    .filter(|(_, n)| *n > 0),
            )
            .finish()
    }
}

/// Monotonic cost counters, reset per experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Syscalls dispatched (kernel entries of a live process).
    pub syscalls: u64,
    /// BPF instructions executed across all filter evaluations.
    pub bpf_instructions: u64,
    /// Individual filter evaluations (stack depth × syscalls).
    pub filter_evaluations: u64,
    /// Syscalls whose result was faked by a filter.
    pub faked: u64,
    /// Syscalls denied by a filter's `ERRNO(e≠0)`.
    pub denied: u64,
    /// Calls whose caller saw an error from the filter or the kernel: a
    /// filter `ERRNO(e≠0)` (also in `denied`), kill or trap; the `ENOSYS`
    /// of a trace or notify action with no tracer attached; an error or
    /// kill from execution. A call the preload shim or the tracer
    /// answered never counts here.
    pub failed: u64,
    /// ptrace stops (2 context switches each: into tracer and back).
    pub ptrace_stops: u64,
    /// LD_PRELOAD interceptions (one extra userspace hop each).
    pub preload_hops: u64,
    /// fakeroot-daemon round trips (IPC; the consistent emulators'
    /// state-maintenance cost).
    pub daemon_round_trips: u64,
    /// Processes spawned.
    pub spawns: u64,
    /// Calls per syscall: every kernel entry and every call the preload
    /// shim answered.
    calls: Calls,
}

impl Counters {
    /// Count one call to `sysno`, as the caller's architecture issued it.
    pub fn count_call(&mut self, sysno: Sysno) {
        self.calls.0[sysno as usize] += 1;
    }

    /// Calls to `sysno`: kernel entries plus calls the preload shim
    /// answered. The number is the architecture's own, so a `chown` on
    /// aarch64 counts as `fchownat` and on i386 as `chown32` (paper
    /// footnote 7).
    pub fn calls(&self, sysno: Sysno) -> u64 {
        self.calls.0[sysno as usize]
    }

    /// Calls to the paper's 29 filtered (privileged) syscalls — 0 is
    /// Figure 1a's "no privileged call was issued".
    pub fn privileged(&self) -> u64 {
        FILTERED.iter().map(|f| self.calls(f.sysno)).sum()
    }

    /// Difference since `earlier` (for scoped measurements).
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |now, then| now - then)
    }

    /// A scalar "context switch equivalents" figure used by the overhead
    /// tables: ptrace stops count double (enter + resume), daemon round
    /// trips double (send + receive).
    pub fn context_switch_equivalents(&self) -> u64 {
        2 * self.ptrace_stops + 2 * self.daemon_round_trips
    }

    /// Combine two ledgers counter by counter.
    fn zip(&self, other: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            syscalls: f(self.syscalls, other.syscalls),
            bpf_instructions: f(self.bpf_instructions, other.bpf_instructions),
            filter_evaluations: f(self.filter_evaluations, other.filter_evaluations),
            faked: f(self.faked, other.faked),
            denied: f(self.denied, other.denied),
            failed: f(self.failed, other.failed),
            ptrace_stops: f(self.ptrace_stops, other.ptrace_stops),
            preload_hops: f(self.preload_hops, other.preload_hops),
            daemon_round_trips: f(self.daemon_round_trips, other.daemon_round_trips),
            spawns: f(self.spawns, other.spawns),
            calls: Calls(std::array::from_fn(|i| {
                f(self.calls.0[i], other.calls.0[i])
            })),
        }
    }
}

/// Sums ledgers: a build's stage kernels, or one row's builds.
impl AddAssign for Counters {
    fn add_assign(&mut self, other: Counters) {
        *self = self.zip(&other, |a, b| a + b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let mut a = Counters {
            syscalls: 10,
            bpf_instructions: 100,
            ..Default::default()
        };
        a.count_call(Sysno::Read);
        let mut b = Counters {
            syscalls: 25,
            bpf_instructions: 180,
            ..Default::default()
        };
        b.count_call(Sysno::Read);
        b.count_call(Sysno::Chown);
        let d = b.since(&a);
        assert_eq!(d.syscalls, 15);
        assert_eq!(d.bpf_instructions, 80);
        assert_eq!(d.calls(Sysno::Read), 0);
        assert_eq!(d.calls(Sysno::Chown), 1);
    }

    #[test]
    fn context_switch_equivalents() {
        let c = Counters {
            ptrace_stops: 3,
            daemon_round_trips: 2,
            ..Default::default()
        };
        assert_eq!(c.context_switch_equivalents(), 10);
    }

    #[test]
    fn every_sysno_has_its_own_slot() {
        for (i, sysno) in Sysno::all().enumerate() {
            assert_eq!(sysno as usize, i, "{sysno}: table out of declaration order");
        }
    }

    #[test]
    fn privileged_sums_the_filtered_set() {
        let mut c = Counters::default();
        c.count_call(Sysno::Read);
        assert_eq!(c.privileged(), 0);
        c.count_call(Sysno::Fchownat);
        c.count_call(Sysno::KexecLoad);
        c.count_call(Sysno::KexecLoad);
        assert_eq!(c.privileged(), 3);
        assert_eq!(c.calls(Sysno::KexecLoad), 2);
    }

    #[test]
    fn add_assign_sums_every_counter() {
        let mut a = Counters {
            syscalls: 2,
            failed: 1,
            spawns: 4,
            ..Default::default()
        };
        a.count_call(Sysno::Chown);
        let mut b = Counters {
            syscalls: 3,
            faked: 5,
            ..Default::default()
        };
        b.count_call(Sysno::Chown);
        let sum = {
            let mut sum = a;
            sum += b;
            sum
        };
        assert_eq!((sum.syscalls, sum.faked, sum.failed), (5, 5, 1));
        assert_eq!(sum.spawns, 4);
        assert_eq!(sum.calls(Sysno::Chown), 2);
        assert_eq!(sum.since(&b), a);
    }

    #[test]
    fn debug_names_only_issued_syscalls() {
        let mut c = Counters::default();
        c.count_call(Sysno::KexecLoad);
        let text = format!("{c:?}");
        assert!(text.ends_with("calls: {\"kexec_load\": 1} }"), "{text}");
    }
}
