//! # zr-trace — syscall tracing and statistics
//!
//! An strace-like recorder the simulated kernel feeds on every dispatch.
//! Experiments use it to make the paper's claims *checkable*: Figure 1a is
//! not just "the build succeeded" but "the build succeeded **and issued no
//! privileged system call**"; Figure 2 is "succeeded **and the filter faked
//! N calls**".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use zr_syscalls::filtered::class_of;
use zr_syscalls::{Errno, Sysno};

/// How a syscall was disposed of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Executed by the kernel, succeeded.
    Executed,
    /// Executed by the kernel, failed with this errno.
    Failed(Errno),
    /// Intercepted by a seccomp filter and *faked*: nothing happened,
    /// success reported (the paper's mechanism).
    FakedByFilter,
    /// Intercepted by a seccomp filter and denied with this errno.
    DeniedByFilter(Errno),
    /// Killed by a seccomp filter.
    KilledByFilter,
    /// Handled by a userspace emulator (fakeroot/proot) instead of the
    /// kernel.
    Emulated,
}

impl Disposition {
    /// Did the caller observe success?
    pub fn appears_successful(self) -> bool {
        matches!(
            self,
            Disposition::Executed | Disposition::FakedByFilter | Disposition::Emulated
        )
    }
}

/// One recorded syscall.
#[derive(Debug, Clone)]
pub struct Record {
    /// Which process.
    pub pid: u32,
    /// Which syscall.
    pub sysno: Sysno,
    /// Raw argument words as the filter saw them.
    pub args: [u64; 6],
    /// Outcome.
    pub disposition: Disposition,
    /// BPF instructions the filter stack executed for this call.
    pub filter_steps: u64,
    /// Optional human note ("path=/etc/passwd uid=0 gid=0").
    pub note: String,
}

/// Aggregated statistics over a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total syscalls recorded.
    pub total: u64,
    /// Calls that are in the paper's filtered (privileged) set.
    pub privileged: u64,
    /// Calls faked by a filter.
    pub faked: u64,
    /// Calls denied (filter or kernel) — i.e. visible failures.
    pub failed: u64,
    /// Calls emulated in userspace.
    pub emulated: u64,
    /// Total BPF instructions executed.
    pub filter_steps: u64,
    /// Per-syscall counts.
    pub by_sysno: BTreeMap<&'static str, u64>,
}

/// A shared, thread-safe recorder. Cloning shares the buffer.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<Mutex<Vec<Record>>>,
}

impl Tracer {
    /// Fresh empty tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Lock the buffer; a poisoned lock (panicking recorder thread) still
    /// yields the data — traces are diagnostics, not invariants.
    fn lock(&self) -> MutexGuard<'_, Vec<Record>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append a record.
    pub fn record(&self, rec: Record) {
        self.lock().push(rec);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Clear the buffer (between build stages).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Snapshot of all records.
    pub fn records(&self) -> Vec<Record> {
        self.lock().clone()
    }

    /// Records matching a predicate.
    pub fn filtered(&self, pred: impl Fn(&Record) -> bool) -> Vec<Record> {
        self.lock().iter().filter(|r| pred(r)).cloned().collect()
    }

    /// Count of calls to `sysno`.
    pub fn count(&self, sysno: Sysno) -> u64 {
        self.lock().iter().filter(|r| r.sysno == sysno).count() as u64
    }

    /// Did any call from the paper's privileged set occur?
    pub fn any_privileged(&self) -> bool {
        self.lock().iter().any(|r| class_of(r.sysno).is_some())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> Stats {
        let records = self.lock();
        let mut s = Stats::default();
        for r in records.iter() {
            s.total += 1;
            if class_of(r.sysno).is_some() {
                s.privileged += 1;
            }
            match r.disposition {
                Disposition::FakedByFilter => s.faked += 1,
                Disposition::Failed(_)
                | Disposition::DeniedByFilter(_)
                | Disposition::KilledByFilter => s.failed += 1,
                Disposition::Emulated => s.emulated += 1,
                Disposition::Executed => {}
            }
            s.filter_steps += r.filter_steps;
            *s.by_sysno.entry(r.sysno.name()).or_insert(0) += 1;
        }
        s
    }

    /// Render an strace-like text dump (for docs and debugging).
    pub fn dump(&self) -> String {
        let records = self.lock();
        let mut out = String::new();
        for r in records.iter() {
            out.push_str(&format!(
                "[pid {:>5}] {}({}) = {:?}\n",
                r.pid,
                r.sysno.name(),
                r.note,
                r.disposition
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sysno: Sysno, disp: Disposition) -> Record {
        Record {
            pid: 2,
            sysno,
            args: [0; 6],
            disposition: disp,
            filter_steps: 7,
            note: String::new(),
        }
    }

    #[test]
    fn stats_aggregate() {
        let t = Tracer::new();
        t.record(rec(Sysno::Read, Disposition::Executed));
        t.record(rec(Sysno::Chown, Disposition::FakedByFilter));
        t.record(rec(Sysno::Chown, Disposition::Failed(Errno::EPERM)));
        t.record(rec(Sysno::Setuid, Disposition::Emulated));
        let s = t.stats();
        assert_eq!(s.total, 4);
        assert_eq!(s.privileged, 3);
        assert_eq!(s.faked, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.emulated, 1);
        assert_eq!(s.filter_steps, 28);
        assert_eq!(s.by_sysno["chown"], 2);
    }

    #[test]
    fn any_privileged_detects() {
        let t = Tracer::new();
        t.record(rec(Sysno::Read, Disposition::Executed));
        assert!(!t.any_privileged());
        t.record(rec(Sysno::Fchownat, Disposition::Executed));
        assert!(t.any_privileged());
    }

    #[test]
    fn clone_shares_buffer() {
        let t = Tracer::new();
        let t2 = t.clone();
        t.record(rec(Sysno::Read, Disposition::Executed));
        assert_eq!(t2.len(), 1);
        t2.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn appears_successful() {
        assert!(Disposition::Executed.appears_successful());
        assert!(Disposition::FakedByFilter.appears_successful());
        assert!(Disposition::Emulated.appears_successful());
        assert!(!Disposition::Failed(Errno::EPERM).appears_successful());
        assert!(!Disposition::KilledByFilter.appears_successful());
    }

    #[test]
    fn count_and_filtered() {
        let t = Tracer::new();
        t.record(rec(Sysno::Chown, Disposition::FakedByFilter));
        t.record(rec(Sysno::Chown, Disposition::FakedByFilter));
        t.record(rec(Sysno::Mknod, Disposition::Executed));
        assert_eq!(t.count(Sysno::Chown), 2);
        assert_eq!(
            t.filtered(|r| r.disposition == Disposition::FakedByFilter)
                .len(),
            2
        );
    }

    #[test]
    fn dump_mentions_syscall_names() {
        let t = Tracer::new();
        t.record(rec(Sysno::KexecLoad, Disposition::FakedByFilter));
        assert!(t.dump().contains("kexec_load"));
    }
}
