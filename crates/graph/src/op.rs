//! Node operations.
//!
//! A DAG node carries an [`Op`] describing the computation it performs.
//! The pebbling game itself is structural and never inspects the operation,
//! but operations matter for:
//!
//! - reporting (Fig. 5 of the paper counts additions, subtractions,
//!   squarings and multiplications separately),
//! - circuit compilation and simulation (logic operations have Boolean
//!   semantics; arithmetic operations are given *surrogate* Boolean
//!   semantics so structural correctness can still be simulated end to
//!   end — see [`Op::eval`]).

use std::fmt;

/// The operation computed by a DAG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// Logical AND of all fanins.
    And,
    /// Logical OR of all fanins.
    Or,
    /// Negated AND.
    Nand,
    /// Negated OR.
    Nor,
    /// Exclusive OR (parity).
    Xor,
    /// Negated XOR.
    Xnor,
    /// Negation (single fanin).
    Not,
    /// Identity (single fanin).
    Buf,
    /// Majority of three fanins.
    Maj,
    /// Modular addition (straight-line programs).
    Add,
    /// Modular subtraction.
    Sub,
    /// Modular multiplication.
    Mul,
    /// Modular squaring (single fanin).
    Sqr,
    /// An uninterpreted operation.
    Opaque,
}

impl Op {
    /// All operation kinds, in a stable order (useful for reports).
    pub const ALL: [Op; 14] = [
        Op::And,
        Op::Or,
        Op::Nand,
        Op::Nor,
        Op::Xor,
        Op::Xnor,
        Op::Not,
        Op::Buf,
        Op::Maj,
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Sqr,
        Op::Opaque,
    ];

    /// Parses a case-insensitive operation name as rendered by
    /// [`Display`](fmt::Display) (`"and"`, `"XOR"`, …). `Opaque` answers
    /// to both its display name `"op"` and the spelled-out `"opaque"`.
    pub fn parse(name: &str) -> Option<Op> {
        if name.eq_ignore_ascii_case("opaque") {
            return Some(Op::Opaque);
        }
        Op::ALL
            .into_iter()
            .find(|op| name.eq_ignore_ascii_case(op.name()))
    }

    /// The name [`Display`](fmt::Display) renders.
    fn name(self) -> &'static str {
        match self {
            Op::And => "AND",
            Op::Or => "OR",
            Op::Nand => "NAND",
            Op::Nor => "NOR",
            Op::Xor => "XOR",
            Op::Xnor => "XNOR",
            Op::Not => "NOT",
            Op::Buf => "BUF",
            Op::Maj => "MAJ",
            Op::Add => "ADD",
            Op::Sub => "SUB",
            Op::Mul => "MUL",
            Op::Sqr => "SQR",
            Op::Opaque => "OP",
        }
    }

    /// `true` for the arithmetic operations used by straight-line programs.
    pub fn is_arithmetic(self) -> bool {
        matches!(self, Op::Add | Op::Sub | Op::Mul | Op::Sqr)
    }

    /// `true` for inverter/buffer nodes, which most synthesis flows treat
    /// as free (they can be merged into the successor gate).
    pub fn is_free(self) -> bool {
        matches!(self, Op::Not | Op::Buf)
    }

    /// Evaluates the operation on Boolean fanin values.
    ///
    /// Logic operations use their standard semantics. Arithmetic operations
    /// are given deterministic Boolean *surrogates* (`Add`/`Sub` → parity,
    /// `Mul` → AND, `Sqr` → identity) so that a compiled reversible circuit
    /// can be simulated structurally: the simulation exercises exactly the
    /// same compute/uncompute structure a word-level implementation would.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, or in debug builds when the arity does
    /// not match the operation (e.g. `Not` with two fanins).
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert!(!inputs.is_empty(), "operation requires at least one fanin");
        match self {
            Op::And | Op::Mul => inputs.iter().all(|&b| b),
            Op::Or => inputs.iter().any(|&b| b),
            Op::Nand => !inputs.iter().all(|&b| b),
            Op::Nor => !inputs.iter().any(|&b| b),
            Op::Xor | Op::Add => inputs.iter().fold(false, |acc, &b| acc ^ b),
            Op::Xnor | Op::Sub => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            Op::Not => {
                debug_assert_eq!(inputs.len(), 1, "Not has exactly one fanin");
                !inputs[0]
            }
            Op::Buf | Op::Sqr => {
                debug_assert_eq!(inputs.len(), 1, "Buf/Sqr has exactly one fanin");
                inputs[0]
            }
            Op::Maj => {
                debug_assert_eq!(inputs.len(), 3, "Maj has exactly three fanins");
                let ones = inputs.iter().filter(|&&b| b).count();
                ones * 2 > inputs.len()
            }
            Op::Opaque => {
                // Deterministic surrogate: parity, so every fanin matters.
                inputs.iter().fold(false, |acc, &b| acc ^ b)
            }
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logic_semantics() {
        assert!(Op::And.eval(&[true, true]));
        assert!(!Op::And.eval(&[true, false]));
        assert!(Op::Or.eval(&[false, true]));
        assert!(Op::Nand.eval(&[true, false]));
        assert!(!Op::Nand.eval(&[true, true]));
        assert!(!Op::Nor.eval(&[false, true]));
        assert!(Op::Nor.eval(&[false, false]));
        assert!(Op::Xor.eval(&[true, false, false]));
        assert!(!Op::Xor.eval(&[true, true]));
        assert!(Op::Xnor.eval(&[true, true]));
        assert!(!Op::Not.eval(&[true]));
        assert!(Op::Buf.eval(&[true]));
        assert!(Op::Maj.eval(&[true, true, false]));
        assert!(!Op::Maj.eval(&[true, false, false]));
    }

    #[test]
    fn arithmetic_surrogates() {
        assert_eq!(Op::Add.eval(&[true, false]), Op::Xor.eval(&[true, false]));
        assert_eq!(Op::Sub.eval(&[true, true]), Op::Xnor.eval(&[true, true]));
        assert_eq!(Op::Mul.eval(&[true, true]), Op::And.eval(&[true, true]));
        assert!(Op::Sqr.eval(&[true]));
        assert!(Op::Add.is_arithmetic());
        assert!(!Op::And.is_arithmetic());
    }

    #[test]
    fn free_nodes() {
        assert!(Op::Not.is_free());
        assert!(Op::Buf.is_free());
        assert!(!Op::Xor.is_free());
    }

    #[test]
    #[should_panic]
    fn empty_fanins_panic() {
        Op::And.eval(&[]);
    }

    #[test]
    fn display_is_uppercase() {
        assert_eq!(Op::Nand.to_string(), "NAND");
        assert_eq!(Op::Sqr.to_string(), "SQR");
    }
}
