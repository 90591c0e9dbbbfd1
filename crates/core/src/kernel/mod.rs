//! The accelerator programming model (§7.2).
//!
//! "Some accelerators ... are programmed directly — they lack an ISA —
//! simply by filling a small set of memory-mapped registers ... in addition
//! to the installation of some logic." We model that split exactly:
//!
//! - a [`Program`] is *logic*: a compact stack bytecode compiled from the
//!   offloadable subset of [`Expr`];
//! - its [`Program::registers`] are the *register file*: the literals
//!   (filter constants, LIKE patterns) that can be re-filled per query
//!   without recompiling the logic — see [`Program::with_registers`];
//! - [`Program::run`] is the device interpreter, used by every emulated
//!   accelerator. Its instructions call the same predicate kernel
//!   ([`df_storage::eval`]) as host filters and smart storage, so
//!   offloaded and host execution agree bit-for-bit.
//!
//! [`to_storage_predicate`] is the second lowering path: from `Expr` into
//! the self-contained predicate language smart storage accepts.
//!
//! The [`regex`] module holds the streaming regular-expression engine that
//! backs accelerated pattern matching (§3.3's AQUA example).

pub mod regex;

use df_data::{Batch, Bitmap, Scalar, Schema};
use df_storage::eval::{self, Mask, Operand};
use df_storage::pattern::LikePattern;
use df_storage::predicate::StoragePredicate;
use df_storage::zonemap::CmpOp;

use crate::error::{EngineError, Result};
use crate::expr::Expr;

/// One bytecode instruction. The VM is a stack machine whose values are
/// column or register operands and predicate masks — vectorized by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push input column `columns[i]`.
    LoadCol(u16),
    /// Push register `registers[i]` as a scalar operand (never broadcast).
    LoadReg(u16),
    /// Pop rhs, pop lhs, push the comparison mask.
    Cmp(CmpOp),
    /// Pop two masks, push their Kleene AND.
    And,
    /// Pop two masks, push their Kleene OR.
    Or,
    /// Pop a mask, push its Kleene NOT.
    Not,
    /// Pop a string column, push the LIKE mask against the pattern held in
    /// register `i`.
    Like(u16),
    /// Pop a column, push its IS NULL (or IS NOT NULL) mask.
    IsNull(bool),
    /// Pop a column, push the BETWEEN mask for registers `(lo, hi)`.
    Between(u16, u16),
}

/// A compiled device program: logic + register file + input column names.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The logic, installed once.
    pub instrs: Vec<Instr>,
    /// The register file, re-fillable per activation (§7.2).
    pub registers: Vec<Scalar>,
    /// Input columns the program reads, by name.
    pub columns: Vec<String>,
}

/// A VM stack slot: a column or register operand, or a predicate mask.
enum Value<'a> {
    Operand(Operand<'a>),
    Mask(Mask),
}

impl Program {
    /// Compile the offloadable subset of predicate expressions. Returns
    /// `Err` for expressions a streaming accelerator cannot run (arithmetic
    /// and other host-only constructs), which the planner interprets as
    /// "keep this stage on the CPU".
    pub fn compile_predicate(expr: &Expr) -> Result<Program> {
        let mut program = Program {
            instrs: Vec::new(),
            registers: Vec::new(),
            columns: Vec::new(),
        };
        program.lower_predicate(expr)?;
        Ok(program)
    }

    /// Replace the register file (same logic, new constants). Lengths must
    /// match — the logic addresses registers by index.
    pub fn with_registers(mut self, registers: Vec<Scalar>) -> Result<Program> {
        if registers.len() != self.registers.len() {
            return Err(EngineError::Plan(format!(
                "register file size mismatch: {} vs {}",
                registers.len(),
                self.registers.len()
            )));
        }
        self.registers = registers;
        Ok(self)
    }

    fn col_index(&mut self, name: &str) -> u16 {
        match self.columns.iter().position(|c| c == name) {
            Some(i) => i as u16,
            None => {
                self.columns.push(name.to_string());
                (self.columns.len() - 1) as u16
            }
        }
    }

    fn reg_index(&mut self, value: Scalar) -> u16 {
        self.registers.push(value);
        (self.registers.len() - 1) as u16
    }

    fn lower_value(&mut self, expr: &Expr) -> Result<()> {
        match expr {
            Expr::Col(name) => {
                let idx = self.col_index(name);
                self.instrs.push(Instr::LoadCol(idx));
                Ok(())
            }
            Expr::Lit(value) => {
                let idx = self.reg_index(value.clone());
                self.instrs.push(Instr::LoadReg(idx));
                Ok(())
            }
            other => Err(EngineError::Plan(format!(
                "expression '{other}' is not offloadable as a kernel operand"
            ))),
        }
    }

    fn lower_predicate(&mut self, expr: &Expr) -> Result<()> {
        match expr {
            Expr::Cmp { op, left, right } => {
                self.lower_value(left)?;
                self.lower_value(right)?;
                self.instrs.push(Instr::Cmp(*op));
                Ok(())
            }
            Expr::And(children) if !children.is_empty() => {
                self.lower_predicate(&children[0])?;
                for c in &children[1..] {
                    self.lower_predicate(c)?;
                    self.instrs.push(Instr::And);
                }
                Ok(())
            }
            Expr::Or(children) if !children.is_empty() => {
                self.lower_predicate(&children[0])?;
                for c in &children[1..] {
                    self.lower_predicate(c)?;
                    self.instrs.push(Instr::Or);
                }
                Ok(())
            }
            Expr::Not(inner) => {
                self.lower_predicate(inner)?;
                self.instrs.push(Instr::Not);
                Ok(())
            }
            Expr::Like { expr, pattern } => {
                self.lower_value(expr)?;
                let reg = self.reg_index(Scalar::Str(pattern.clone()));
                self.instrs.push(Instr::Like(reg));
                Ok(())
            }
            Expr::IsNull { expr, negated } => {
                self.lower_value(expr)?;
                self.instrs.push(Instr::IsNull(*negated));
                Ok(())
            }
            Expr::Between { expr, low, high } => {
                self.lower_value(expr)?;
                let lo = self.reg_index(low.clone());
                let hi = self.reg_index(high.clone());
                self.instrs.push(Instr::Between(lo, hi));
                Ok(())
            }
            other => Err(EngineError::Plan(format!(
                "expression '{other}' is not offloadable as a kernel predicate"
            ))),
        }
    }

    /// Execute on a batch, producing the selection mask (NULL collapsed to
    /// non-matching, exactly like [`Expr::eval_predicate`]). Every
    /// instruction runs on the shared predicate kernel
    /// ([`df_storage::eval`]); registers stay scalars.
    pub fn run(&self, batch: &Batch) -> Result<Bitmap> {
        let rows = batch.rows();
        let reg = |i: u16| {
            self.registers
                .get(i as usize)
                .ok_or_else(|| EngineError::Internal("kernel register out of range".into()))
        };
        let mut stack: Vec<Value<'_>> = Vec::with_capacity(8);
        for instr in &self.instrs {
            let value = match instr {
                Instr::LoadCol(i) => {
                    let name = self.columns.get(*i as usize).ok_or_else(|| {
                        EngineError::Internal("kernel column index out of range".into())
                    })?;
                    Value::Operand(Operand::Col(batch.column_by_name(name)?))
                }
                Instr::LoadReg(i) => Value::Operand(Operand::Lit(reg(*i)?)),
                Instr::Cmp(op) => {
                    let rhs = pop_operand(&mut stack)?;
                    let lhs = pop_operand(&mut stack)?;
                    Value::Mask(eval::compare(*op, lhs, rhs, rows))
                }
                Instr::And => {
                    let b = pop_mask(&mut stack)?;
                    Value::Mask(pop_mask(&mut stack)?.and(&b))
                }
                Instr::Or => {
                    let b = pop_mask(&mut stack)?;
                    Value::Mask(pop_mask(&mut stack)?.or(&b))
                }
                Instr::Not => Value::Mask(pop_mask(&mut stack)?.not()),
                Instr::Like(r) => {
                    let pattern = reg(*r)?.as_str().ok_or_else(|| {
                        EngineError::Internal("LIKE register not a string".into())
                    })?;
                    let value = pop_operand(&mut stack)?;
                    Value::Mask(eval::like(value, &LikePattern::compile(pattern), rows)?)
                }
                Instr::IsNull(negated) => {
                    Value::Mask(eval::is_null(pop_operand(&mut stack)?, *negated, rows))
                }
                Instr::Between(lo, hi) => {
                    let value = pop_operand(&mut stack)?;
                    Value::Mask(eval::between(value, reg(*lo)?, reg(*hi)?, rows))
                }
            };
            stack.push(value);
        }
        match stack.pop() {
            Some(Value::Mask(mask)) if stack.is_empty() => Ok(mask.into_selection()),
            _ => Err(EngineError::Internal(
                "kernel program did not leave exactly one mask".into(),
            )),
        }
    }
}

fn pop_operand<'a>(stack: &mut Vec<Value<'a>>) -> Result<Operand<'a>> {
    match stack.pop() {
        Some(Value::Operand(v)) => Ok(v),
        _ => Err(EngineError::Internal("kernel expected an operand".into())),
    }
}

fn pop_mask(stack: &mut Vec<Value<'_>>) -> Result<Mask> {
    match stack.pop() {
        Some(Value::Mask(mask)) => Ok(mask),
        _ => Err(EngineError::Internal("kernel expected a mask".into())),
    }
}

/// Lower an expression into the storage predicate language, if it is
/// expressible there (column-vs-literal comparisons, LIKE, BETWEEN, IS
/// NULL, and boolean combinations). `None` means "not pushable".
pub fn to_storage_predicate(expr: &Expr) -> Option<StoragePredicate> {
    match expr {
        Expr::Cmp { op, left, right } => match (left.as_ref(), right.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => Some(StoragePredicate::Cmp {
                column: c.clone(),
                op: *op,
                literal: v.clone(),
            }),
            // literal OP col: flip the operator.
            (Expr::Lit(v), Expr::Col(c)) => Some(StoragePredicate::Cmp {
                column: c.clone(),
                op: op.flipped(),
                literal: v.clone(),
            }),
            _ => None,
        },
        Expr::And(children) => children
            .iter()
            .map(to_storage_predicate)
            .collect::<Option<Vec<_>>>()
            .map(StoragePredicate::And),
        Expr::Or(children) => children
            .iter()
            .map(to_storage_predicate)
            .collect::<Option<Vec<_>>>()
            .map(StoragePredicate::Or),
        Expr::Not(inner) => to_storage_predicate(inner).map(|p| StoragePredicate::Not(Box::new(p))),
        Expr::Like { expr, pattern } => match expr.as_ref() {
            Expr::Col(c) => Some(StoragePredicate::Like {
                column: c.clone(),
                pattern: pattern.clone(),
            }),
            _ => None,
        },
        Expr::IsNull { expr, negated } => match expr.as_ref() {
            Expr::Col(c) => Some(StoragePredicate::IsNull {
                column: c.clone(),
                negated: *negated,
            }),
            _ => None,
        },
        Expr::Between { expr, low, high } => match expr.as_ref() {
            Expr::Col(c) => Some(StoragePredicate::Between {
                column: c.clone(),
                low: low.clone(),
                high: high.clone(),
            }),
            _ => None,
        },
        Expr::Lit(Scalar::Bool(true)) => Some(StoragePredicate::True),
        _ => None,
    }
}

/// Check that the lowered storage predicate's columns all exist in a schema
/// (the validation the storage server would do at install time).
pub fn validate_against(pred: &StoragePredicate, schema: &Schema) -> Result<()> {
    for c in pred.columns() {
        schema.field_by_name(&c)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use df_data::batch::batch_of;
    use df_data::Column;

    fn sample() -> Batch {
        batch_of(vec![
            ("a", Column::from_i64(vec![1, 2, 3, 4, 5])),
            (
                "b",
                Column::from_opt_i64(&[Some(10), None, Some(30), None, Some(50)]),
            ),
            (
                "s",
                Column::from_strs(&["alpha", "beta", "gamma", "delta", "alphabet"]),
            ),
        ])
    }

    fn agree(expr: &Expr) {
        let batch = sample();
        let host = expr.eval_predicate(&batch).unwrap();
        let device = Program::compile_predicate(expr)
            .unwrap()
            .run(&batch)
            .unwrap();
        assert_eq!(host, device, "host/device disagree for {expr}");
    }

    #[test]
    fn device_matches_host_on_comparisons() {
        agree(&col("a").gt(lit(2)));
        agree(&col("a").eq(lit(3)));
        agree(&lit(3).lt(col("a")));
        agree(&col("a").le(col("b")));
    }

    #[test]
    fn device_matches_host_on_null_logic() {
        agree(&col("b").gt(lit(0)));
        agree(&col("b").gt(lit(0)).not());
        agree(&col("b").is_null());
        agree(&col("b").is_not_null());
        agree(&col("b").gt(lit(20)).and(col("a").lt(lit(5))));
        agree(&col("b").gt(lit(20)).or(col("a").lt(lit(2))));
    }

    #[test]
    fn device_matches_host_on_strings() {
        agree(&col("s").like("alpha%"));
        agree(&col("s").like("%a"));
        agree(&col("s").eq(lit("beta")));
    }

    #[test]
    fn device_matches_host_on_between() {
        agree(&col("a").between(2, 4));
        agree(&col("b").between(5, 35));
    }

    #[test]
    fn register_refill_changes_constants_not_logic() {
        let program = Program::compile_predicate(&col("a").gt(lit(2))).unwrap();
        let instrs = program.instrs.clone();
        let refilled = program.with_registers(vec![Scalar::Int(4)]).unwrap();
        assert_eq!(refilled.instrs, instrs);
        let batch = sample();
        let mask = refilled.run(&batch).unwrap();
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![4]); // a > 4
    }

    #[test]
    fn register_refill_size_checked() {
        let program = Program::compile_predicate(&col("a").gt(lit(2))).unwrap();
        assert!(program.with_registers(vec![]).is_err());
    }

    #[test]
    fn arithmetic_is_not_offloadable() {
        let err = Program::compile_predicate(&col("a").add(lit(1)).gt(lit(2)));
        assert!(err.is_err());
    }

    #[test]
    fn pushdown_lowering() {
        let p = to_storage_predicate(&col("a").gt(lit(2))).unwrap();
        assert_eq!(p, StoragePredicate::cmp("a", CmpOp::Gt, 2i64));
        // Flipped literal-first comparison.
        let q = to_storage_predicate(&lit(2).lt(col("a"))).unwrap();
        assert_eq!(q, StoragePredicate::cmp("a", CmpOp::Gt, 2i64));
        // Conjunction lowers recursively.
        let r = to_storage_predicate(&col("a").gt(lit(2)).and(col("s").like("a%"))).unwrap();
        assert!(matches!(r, StoragePredicate::And(v) if v.len() == 2));
        // Arithmetic blocks lowering entirely.
        assert!(to_storage_predicate(&col("a").add(lit(1)).gt(lit(2))).is_none());
        // Partial non-lowerable conjunct blocks the conjunction (the
        // planner splits conjunctions before calling this).
        assert!(
            to_storage_predicate(&col("a").gt(lit(2)).and(col("a").add(lit(1)).gt(lit(0))))
                .is_none()
        );
    }

    #[test]
    fn pushed_predicate_agrees_with_host() {
        let batch = sample();
        for expr in [
            col("a").between(2, 4),
            col("s").like("%eta"),
            col("b").is_null(),
            col("a").gt(lit(1)).and(col("a").lt(lit(5))),
        ] {
            let host = expr.eval_predicate(&batch).unwrap();
            let pushed = to_storage_predicate(&expr).unwrap();
            let storage = pushed.evaluate(&batch).unwrap();
            assert_eq!(host, storage, "storage/host disagree for {expr}");
        }
    }

    #[test]
    fn validate_checks_columns() {
        let schema = sample().schema().clone();
        let good = to_storage_predicate(&col("a").gt(lit(0))).unwrap();
        assert!(validate_against(&good, &schema).is_ok());
        let bad = to_storage_predicate(&col("ghost").gt(lit(0))).unwrap();
        assert!(validate_against(&bad, &schema).is_err());
    }
}
