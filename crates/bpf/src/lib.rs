//! # zr-bpf — classic BPF (cBPF)
//!
//! Seccomp filter mode runs *classic* Berkeley Packet Filter programs: a
//! tiny register machine (accumulator `A`, index `X`, sixteen scratch
//! slots) whose programs cannot loop and therefore always terminate — the
//! property that lets the kernel accept untrusted filters. This crate is a
//! faithful reimplementation of that machine:
//!
//! * [`Insn`] / [`Program`] — the `sock_filter` instruction encoding.
//! * [`validate`](mod@validate) — the kernel's `sk_chk_filter` admission
//!   rules: bounded length, in-bounds **forward-only** jumps, valid
//!   opcodes, terminating `RET` on every path.
//! * [`interp`] — the in-kernel evaluator, instrumented with an instruction
//!   counter so benches can report filter cost per syscall.
//! * [`asm`] — a structured assembler with labels, used by `zr-seccomp` to
//!   compile the paper's filter.
//! * [`disasm`] — textual disassembly for debugging and documentation.
//!
//! The interpreter is deliberately *not* seccomp-specific: it evaluates any
//! cBPF program over an arbitrary data buffer. The seccomp-specific
//! restrictions (word-aligned `LD|ABS` within `struct seccomp_data`, …)
//! live in `zr-seccomp`, mirroring the kernel's split between
//! `sk_chk_filter` and `seccomp_check_filter`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod disasm;
pub mod insn;
pub mod interp;
pub mod validate;

pub use asm::Assembler;
pub use insn::{Insn, Program, BPF_MAXINSNS};
pub use interp::{run, run_counted, Machine, RunError};
pub use validate::{validate, ValidateError};
