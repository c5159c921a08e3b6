//! The `sock_filter` instruction encoding and opcode constants.
//!
//! Constants follow `<linux/bpf_common.h>` and `<linux/filter.h>`. An
//! instruction is 8 bytes: a 16-bit opcode, two 8-bit jump offsets (taken /
//! not-taken, relative to the *next* instruction), and a 32-bit immediate.

/// Maximum instructions the kernel accepts in one program (`BPF_MAXINSNS`).
pub const BPF_MAXINSNS: usize = 4096;

// --- instruction class (low 3 bits) -----------------------------------------
/// Load into accumulator.
pub const BPF_LD: u16 = 0x00;
/// Load into index register.
pub const BPF_LDX: u16 = 0x01;
/// Store accumulator to scratch memory.
pub const BPF_ST: u16 = 0x02;
/// Store index register to scratch memory.
pub const BPF_STX: u16 = 0x03;
/// Arithmetic/logic on the accumulator.
pub const BPF_ALU: u16 = 0x04;
/// Jumps.
pub const BPF_JMP: u16 = 0x05;
/// Return (terminates the program).
pub const BPF_RET: u16 = 0x06;
/// Register transfers.
pub const BPF_MISC: u16 = 0x07;

// --- load size ---------------------------------------------------------------
/// 32-bit word.
pub const BPF_W: u16 = 0x00;
/// 16-bit halfword.
pub const BPF_H: u16 = 0x08;
/// 8-bit byte.
pub const BPF_B: u16 = 0x10;

// --- load mode ---------------------------------------------------------------
/// Immediate operand.
pub const BPF_IMM: u16 = 0x00;
/// Absolute offset into the data buffer.
pub const BPF_ABS: u16 = 0x20;
/// Indirect (X + k) offset into the data buffer.
pub const BPF_IND: u16 = 0x40;
/// Scratch memory slot.
pub const BPF_MEM: u16 = 0x60;
/// Length of the data buffer.
pub const BPF_LEN: u16 = 0x80;
/// IP-header-length hack (`4 * (pkt[k] & 0xf)`), network-BPF only.
pub const BPF_MSH: u16 = 0xa0;

// --- ALU ops -----------------------------------------------------------------
/// A += src.
pub const BPF_ADD: u16 = 0x00;
/// A -= src.
pub const BPF_SUB: u16 = 0x10;
/// A *= src.
pub const BPF_MUL: u16 = 0x20;
/// A /= src.
pub const BPF_DIV: u16 = 0x30;
/// A |= src.
pub const BPF_OR: u16 = 0x40;
/// A &= src.
pub const BPF_AND: u16 = 0x50;
/// A <<= src.
pub const BPF_LSH: u16 = 0x60;
/// A >>= src.
pub const BPF_RSH: u16 = 0x70;
/// A = -A.
pub const BPF_NEG: u16 = 0x80;
/// A %= src.
pub const BPF_MOD: u16 = 0x90;
/// A ^= src.
pub const BPF_XOR: u16 = 0xa0;

// --- jump ops ------------------------------------------------------------------
/// Unconditional jump (offset in `k`).
pub const BPF_JA: u16 = 0x00;
/// Jump if A == src.
pub const BPF_JEQ: u16 = 0x10;
/// Jump if A > src (unsigned).
pub const BPF_JGT: u16 = 0x20;
/// Jump if A >= src (unsigned).
pub const BPF_JGE: u16 = 0x30;
/// Jump if A & src.
pub const BPF_JSET: u16 = 0x40;

// --- operand source / return value ------------------------------------------
/// Operand is the immediate `k`.
pub const BPF_K: u16 = 0x00;
/// Operand is the index register X.
pub const BPF_X: u16 = 0x08;
/// Return the accumulator (RET only).
pub const BPF_A: u16 = 0x10;

// --- MISC ops ------------------------------------------------------------------
/// X = A.
pub const BPF_TAX: u16 = 0x00;
/// A = X.
pub const BPF_TXA: u16 = 0x80;

/// Number of scratch memory slots (`BPF_MEMWORDS`).
pub const BPF_MEMWORDS: u32 = 16;

/// One cBPF instruction (`struct sock_filter`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Insn {
    /// Opcode: class | size | mode | op | src.
    pub code: u16,
    /// Jump-if-true offset, relative to the next instruction.
    pub jt: u8,
    /// Jump-if-false offset, relative to the next instruction.
    pub jf: u8,
    /// Immediate operand.
    pub k: u32,
}

impl Insn {
    /// Non-jump instruction (`BPF_STMT` macro).
    pub const fn stmt(code: u16, k: u32) -> Insn {
        Insn {
            code,
            jt: 0,
            jf: 0,
            k,
        }
    }

    /// Conditional jump (`BPF_JUMP` macro).
    pub const fn jump(code: u16, k: u32, jt: u8, jf: u8) -> Insn {
        Insn { code, jt, jf, k }
    }

    /// The instruction class (low three bits of the opcode).
    pub const fn class(self) -> u16 {
        self.code & 0x07
    }

    /// Serialize to the 8-byte little-endian `sock_filter` wire layout
    /// (what `prctl(PR_SET_SECCOMP, …)` consumes on LE hosts).
    pub fn to_bytes(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[0..2].copy_from_slice(&self.code.to_le_bytes());
        out[2] = self.jt;
        out[3] = self.jf;
        out[4..8].copy_from_slice(&self.k.to_le_bytes());
        out
    }

    /// Inverse of [`Insn::to_bytes`].
    pub fn from_bytes(b: [u8; 8]) -> Insn {
        Insn {
            code: u16::from_le_bytes([b[0], b[1]]),
            jt: b[2],
            jf: b[3],
            k: u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
        }
    }
}

/// A complete cBPF program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    insns: Vec<Insn>,
}

impl Program {
    /// Wrap a raw instruction vector. No validation — call
    /// [`crate::validate()`] before trusting the program.
    pub fn new(insns: Vec<Insn>) -> Program {
        Program { insns }
    }

    /// The instructions.
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True for the empty program (which the kernel rejects).
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Serialize to the flat byte layout used by `struct sock_fprog`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.insns.len() * 8);
        for i in &self.insns {
            out.extend_from_slice(&i.to_bytes());
        }
        out
    }

    /// Parse a flat byte buffer back into a program.
    ///
    /// Returns `None` when the length is not a multiple of 8.
    pub fn from_bytes(bytes: &[u8]) -> Option<Program> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let insns = bytes
            .chunks_exact(8)
            .map(|c| Insn::from_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        Some(Program { insns })
    }
}

impl From<Vec<Insn>> for Program {
    fn from(insns: Vec<Insn>) -> Program {
        Program::new(insns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stmt_and_jump_constructors() {
        let s = Insn::stmt(BPF_RET | BPF_K, 7);
        assert_eq!((s.jt, s.jf, s.k), (0, 0, 7));
        let j = Insn::jump(BPF_JMP | BPF_JEQ | BPF_K, 42, 1, 2);
        assert_eq!((j.jt, j.jf, j.k), (1, 2, 42));
        assert_eq!(j.class(), BPF_JMP);
    }

    #[test]
    fn byte_roundtrip() {
        let i = Insn::jump(BPF_JMP | BPF_JGE | BPF_X, 0xDEAD_BEEF, 3, 9);
        assert_eq!(Insn::from_bytes(i.to_bytes()), i);
    }

    #[test]
    fn program_roundtrip() {
        let p = Program::new(vec![
            Insn::stmt(BPF_LD | BPF_W | BPF_ABS, 0),
            Insn::jump(BPF_JMP | BPF_JEQ | BPF_K, 1, 0, 1),
            Insn::stmt(BPF_RET | BPF_K, 0),
            Insn::stmt(BPF_RET | BPF_K, u32::MAX),
        ]);
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), 32);
        assert_eq!(Program::from_bytes(&bytes), Some(p));
        assert_eq!(Program::from_bytes(&bytes[..31]), None);
    }

    #[test]
    fn opcode_composition_matches_kernel_values() {
        // Spot checks against values seen in real filter dumps.
        assert_eq!(BPF_LD | BPF_W | BPF_ABS, 0x20);
        assert_eq!(BPF_JMP | BPF_JEQ | BPF_K, 0x15);
        assert_eq!(BPF_RET | BPF_K, 0x06);
        assert_eq!(BPF_RET | BPF_A, 0x16);
        assert_eq!(BPF_JMP | BPF_JA, 0x05);
        assert_eq!(BPF_ALU | BPF_AND | BPF_K, 0x54);
        assert_eq!(BPF_MISC | BPF_TAX, 0x07);
    }
}
