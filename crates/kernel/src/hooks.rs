//! Kernel-side interception points for the *consistent* root emulators.
//!
//! Two hook sites mirror reality:
//!
//! * **Preload hooks** run before the syscall reaches the kernel, and only
//!   for dynamically linked programs whose environment carries the shim —
//!   the LD_PRELOAD mechanism of fakeroot(1) (§3.1).
//! * **Tracer hooks** run at syscall entry inside the kernel — the
//!   ptrace(2) mechanism of PRoot and fakeroot-ng (§3.2). Each
//!   interception costs ptrace stops; classic tracers stop for *every*
//!   syscall, seccomp-accelerated ones (PRoot's trick) only for the calls
//!   a helper filter marked.
//!
//! A hook sees the call, may consume it (returning the emulated result) or
//! let it pass through. Hooks receive `&mut Kernel` so they can issue
//! *underlying* operations via [`crate::kernel::Kernel::syscall_nohook`]
//! without re-entering themselves.

use crate::kernel::Kernel;
use crate::process::Pid;
use crate::sys::{SysCall, SysResult, SysRet};

/// What a hook decided.
pub enum HookVerdict {
    /// Not interested: the kernel proceeds normally.
    PassThrough,
    /// The hook handled the call; this is the result the caller sees.
    Emulated(SysResult<SysRet>),
}

/// A syscall interceptor (fakeroot daemon + shim, or a ptrace tracer).
pub trait SyscallHook: Send {
    /// Inspect (and possibly handle) `call` issued by `pid`.
    fn on_syscall(&mut self, kernel: &mut Kernel, pid: Pid, call: &SysCall) -> HookVerdict;
}
