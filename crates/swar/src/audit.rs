//! Instruction accounting for dequantization paths.
//!
//! The paper's Section 3.3 derives a hard budget: to hide dequantization
//! behind weight loading on H100, the per-element instruction cost must
//! satisfy **α ≤ 5.07** (memory-bound) or **α ≤ 5.05** (compute-bound at
//! M = 150). [`CountingAlu`] executes the emulated register ops while
//! tallying them, letting tests and the `tab_dequant_cost` harness verify
//! each path's α directly instead of trusting hand counts.

use std::fmt;

/// Classes of CUDA-core instructions we track.
///
/// All classes issue on the same integer pipe at (approximately) the same
/// rate, so the cost model only needs the total; classes exist so the
/// audit table can show *why* a path is expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// 32-bit add/sub.
    ArithAdd,
    /// 32-bit integer multiply-add (`IMAD`). One instruction, fused.
    Imad,
    /// Bitwise logic (`AND`/`OR`/`XOR`/`NOT`, `LOP3`).
    Logic,
    /// Shifts (`SHR`/`SHL`).
    Shift,
    /// Byte permute (`PRMT`).
    Prmt,
    /// Bit-field extract (`BFE`).
    Bfe,
}

impl InstrClass {
    /// All tracked classes, in display order.
    pub const ALL: [InstrClass; 6] = [
        InstrClass::ArithAdd,
        InstrClass::Imad,
        InstrClass::Logic,
        InstrClass::Shift,
        InstrClass::Prmt,
        InstrClass::Bfe,
    ];

    fn index(self) -> usize {
        match self {
            InstrClass::ArithAdd => 0,
            InstrClass::Imad => 1,
            InstrClass::Logic => 2,
            InstrClass::Shift => 3,
            InstrClass::Prmt => 4,
            InstrClass::Bfe => 5,
        }
    }

    /// Short mnemonic for tables.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            InstrClass::ArithAdd => "IADD",
            InstrClass::Imad => "IMAD",
            InstrClass::Logic => "LOP",
            InstrClass::Shift => "SHF",
            InstrClass::Prmt => "PRMT",
            InstrClass::Bfe => "BFE",
        }
    }
}

/// Tally of instructions by class.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct InstrCount {
    counts: [u64; 6],
}

impl InstrCount {
    /// Count for one class.
    #[must_use]
    pub fn of(&self, c: InstrClass) -> u64 {
        self.counts[c.index()]
    }

    /// Total instructions across all classes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Record one instruction of class `c`.
    pub fn bump(&mut self, c: InstrClass) {
        self.counts[c.index()] += 1;
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &InstrCount) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Instructions per element given `n` elements processed.
    #[must_use]
    pub fn alpha(&self, n: u64) -> f64 {
        assert!(n > 0, "alpha over zero elements");
        self.total() as f64 / n as f64
    }
}

impl fmt::Display for InstrCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in InstrClass::ALL {
            let n = self.of(c);
            if n > 0 {
                if !first {
                    write!(f, " + ")?;
                }
                write!(f, "{}×{}", n, c.mnemonic())?;
                first = false;
            }
        }
        if first {
            write!(f, "0 instructions")?;
        }
        Ok(())
    }
}

/// An ALU that executes the emulated register ops while counting them.
///
/// Only operations routed through this struct are charged; pure-Rust
/// glue (loop counters, packing for tests) is free, mirroring how the
/// paper counts only the SASS instructions in the dequant sequence.
#[derive(Debug, Default, Clone)]
pub struct CountingAlu {
    count: InstrCount,
}

impl CountingAlu {
    /// Fresh ALU with a zero tally.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated tally.
    #[must_use]
    pub fn count(&self) -> &InstrCount {
        &self.count
    }

    /// Reset the tally to zero.
    pub fn reset(&mut self) {
        self.count = InstrCount::default();
    }

    /// Wrapping 32-bit add (1 × IADD).
    #[inline]
    pub fn add(&mut self, a: u32, b: u32) -> u32 {
        self.count.bump(InstrClass::ArithAdd);
        a.wrapping_add(b)
    }

    /// Wrapping 32-bit sub (1 × IADD — subtract issues on the add pipe).
    #[inline]
    pub fn sub(&mut self, a: u32, b: u32) -> u32 {
        self.count.bump(InstrClass::ArithAdd);
        a.wrapping_sub(b)
    }

    /// Fused multiply-add (1 × IMAD).
    #[inline]
    pub fn imad(&mut self, a: u32, b: u32, c: u32) -> u32 {
        self.count.bump(InstrClass::Imad);
        crate::ops::imad_u32(a, b, c)
    }

    /// Bitwise AND (1 × LOP).
    #[inline]
    pub fn and(&mut self, a: u32, b: u32) -> u32 {
        self.count.bump(InstrClass::Logic);
        a & b
    }

    /// Bitwise OR (1 × LOP).
    #[inline]
    pub fn or(&mut self, a: u32, b: u32) -> u32 {
        self.count.bump(InstrClass::Logic);
        a | b
    }

    /// Bitwise XOR (1 × LOP).
    #[inline]
    pub fn xor(&mut self, a: u32, b: u32) -> u32 {
        self.count.bump(InstrClass::Logic);
        a ^ b
    }

    /// Bitwise NOT (1 × LOP).
    #[inline]
    pub fn not(&mut self, a: u32) -> u32 {
        self.count.bump(InstrClass::Logic);
        !a
    }

    /// Three-input logic (1 × LOP — `LOP3.LUT` is a single instruction).
    #[inline]
    pub fn lop3(&mut self, a: u32, b: u32, c: u32, lut: u8) -> u32 {
        self.count.bump(InstrClass::Logic);
        crate::ops::lop3(a, b, c, lut)
    }

    /// Logical shift right (1 × SHF).
    #[inline]
    pub fn shr(&mut self, a: u32, n: u32) -> u32 {
        self.count.bump(InstrClass::Shift);
        a >> n
    }

    /// Logical shift left (1 × SHF).
    #[inline]
    pub fn shl(&mut self, a: u32, n: u32) -> u32 {
        self.count.bump(InstrClass::Shift);
        a << n
    }

    /// Byte permute (1 × PRMT).
    #[inline]
    pub fn prmt(&mut self, a: u32, b: u32, sel: u32) -> u32 {
        self.count.bump(InstrClass::Prmt);
        crate::ops::prmt(a, b, sel)
    }

    /// Bit-field extract (1 × BFE).
    #[inline]
    pub fn bfe(&mut self, v: u32, pos: u32, len: u32) -> u32 {
        self.count.bump(InstrClass::Bfe);
        crate::ops::bfe_u32(v, pos, len)
    }
}

/// Static instruction budgets per dequantization path, for the audit
/// table (`tab_dequant_cost`). Values are asserted against live
/// [`CountingAlu`] runs in `lq-quant`'s tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathBudget {
    /// Human-readable path name.
    pub name: &'static str,
    /// Instructions per 8 dequantized elements (one packed register).
    pub instrs_per_8: u32,
    /// α = instructions per element.
    pub alpha: f64,
}

/// LiquidQuant fast path: 3 (unpack) + 2 × (IMAD + XOR) = 7 per 8 elements.
pub const LQQ_BUDGET: PathBudget = PathBudget {
    name: "LiquidQuant (IMAD+XOR)",
    instrs_per_8: 7,
    alpha: 7.0 / 8.0,
};

/// QServe QoQ path: 3 (unpack) + 2 × (IMAD + lowered `vsub4` (7)) = 19 per 8.
pub const QOQ_BUDGET: PathBudget = PathBudget {
    name: "QServe QoQ (vadd-emulated)",
    instrs_per_8: 19,
    alpha: 19.0 / 8.0,
};

/// The paper's overlap threshold on H100 in the memory-bound regime.
pub const ALPHA_MEMORY_BOUND_H100: f64 = 5.07;
/// The paper's overlap threshold on H100 in the compute-bound regime (M = 150).
pub const ALPHA_COMPUTE_BOUND_H100: f64 = 5.05;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_alu_tallies_every_class() {
        let mut alu = CountingAlu::new();
        let _ = alu.add(1, 2);
        let _ = alu.sub(5, 3);
        let _ = alu.imad(2, 3, 4);
        let _ = alu.and(1, 1);
        let _ = alu.or(1, 2);
        let _ = alu.xor(3, 1);
        let _ = alu.not(0);
        let _ = alu.lop3(1, 2, 3, 0x80);
        let _ = alu.shr(8, 1);
        let _ = alu.shl(1, 3);
        let _ = alu.prmt(1, 2, 0x3210);
        let _ = alu.bfe(0xFF, 0, 4);
        let c = alu.count();
        assert_eq!(c.of(InstrClass::ArithAdd), 2);
        assert_eq!(c.of(InstrClass::Imad), 1);
        assert_eq!(c.of(InstrClass::Logic), 5);
        assert_eq!(c.of(InstrClass::Shift), 2);
        assert_eq!(c.of(InstrClass::Prmt), 1);
        assert_eq!(c.of(InstrClass::Bfe), 1);
        assert_eq!(c.total(), 12);
    }

    #[test]
    fn alu_ops_compute_correctly() {
        let mut alu = CountingAlu::new();
        assert_eq!(alu.add(u32::MAX, 1), 0);
        assert_eq!(alu.sub(0, 1), u32::MAX);
        assert_eq!(alu.imad(3, 4, 5), 17);
        assert_eq!(alu.and(0xFF00, 0x0FF0), 0x0F00);
        assert_eq!(alu.or(0xF0, 0x0F), 0xFF);
        assert_eq!(alu.xor(0xFF, 0x0F), 0xF0);
        assert_eq!(alu.not(0), u32::MAX);
        assert_eq!(alu.shr(0x100, 4), 0x10);
        assert_eq!(alu.shl(0x1, 4), 0x10);
    }

    #[test]
    fn merge_and_alpha() {
        let mut a = InstrCount::default();
        a.bump(InstrClass::Imad);
        a.bump(InstrClass::Logic);
        let mut b = InstrCount::default();
        b.bump(InstrClass::Imad);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert!((a.alpha(8) - 0.375).abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the claim under test
    fn budgets_respect_paper_thresholds() {
        // LiquidQuant's α must be below both overlap thresholds;
        // QoQ's α alone does not exceed them, but with address arithmetic
        // and the activation path it does — the audit table quantifies
        // headroom, which is ~5.8x larger for LQQ.
        assert!(LQQ_BUDGET.alpha < ALPHA_COMPUTE_BOUND_H100);
        assert!(LQQ_BUDGET.alpha < ALPHA_MEMORY_BOUND_H100);
        assert!(QOQ_BUDGET.alpha > 2.0 * LQQ_BUDGET.alpha);
        assert_eq!(LQQ_BUDGET.instrs_per_8, 7);
        assert_eq!(QOQ_BUDGET.instrs_per_8, 19);
    }

    #[test]
    fn display_formats_nonzero_classes() {
        let mut c = InstrCount::default();
        c.bump(InstrClass::Imad);
        c.bump(InstrClass::Logic);
        c.bump(InstrClass::Logic);
        let s = c.to_string();
        assert!(s.contains("1×IMAD"), "{s}");
        assert!(s.contains("2×LOP"), "{s}");
        assert_eq!(InstrCount::default().to_string(), "0 instructions");
    }

    #[test]
    #[should_panic(expected = "alpha over zero elements")]
    fn alpha_zero_elements_panics() {
        let _ = InstrCount::default().alpha(0);
    }
}
