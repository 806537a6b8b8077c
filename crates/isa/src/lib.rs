//! An EPIC-style predicated instruction set, built from scratch as the
//! substrate for the HPCA-9 2003 study *Incorporating Predicate Information
//! into Branch Predictors* (Simon, Calder, Ferrante).
//!
//! The ISA mirrors the properties of IA-64 that the paper's techniques
//! depend on:
//!
//! * **Full predication** — every instruction carries a guard predicate
//!   register ([`PredReg`]); instructions whose guard is false are fetched
//!   but produce no architectural effect.
//! * **Compare-to-predicate instructions** — [`Op::Cmp`] writes a pair of
//!   predicate registers under one of the IA-64 compare types
//!   ([`CmpType`]: `norm`, `unc`, `and`, `or`, `or.andcm`), enabling
//!   if-conversion of arbitrary acyclic control flow.
//! * **Predicate-guarded branches** — a conditional branch is simply
//!   `(qp) br target`: it is taken exactly when its guard predicate is
//!   true. Predicting a branch therefore means predicting the value of its
//!   guard predicate at fetch time, which is what the paper's squash
//!   false-path filter and predicate global-update predictor exploit.
//! * **Region-based branches** — branches that remain inside an
//!   if-converted region are tagged with the region they belong to
//!   ([`Op::Br`] with a region id), matching the paper's definition of a
//!   *region-based branch*.
//!
//! The crate provides the register model, instruction set, a binary
//! encoder/decoder ([`encode`]/[`decode`]), a two-pass text assembler
//! ([`assemble`]) and matching disassembler (the [`std::fmt::Display`]
//! impl on [`Inst`]), and validated [`Program`] containers.
//!
//! # Examples
//!
//! ```
//! use predbranch_isa::assemble;
//!
//! let program = assemble(
//!     r#"
//!         mov r1 = 0
//!         mov r2 = 10
//!     loop:
//!         cmp.lt p1, p2 = r1, r2
//!         (p1) add r1 = r1, 1
//!         (p1) br loop
//!         halt
//!     "#,
//! )?;
//! assert_eq!(program.len(), 6);
//! # Ok::<(), predbranch_isa::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
pub mod cli;
mod encode;
mod error;
mod inst;
mod lint;
mod pred;
mod program;
mod reg;

pub use asm::assemble;
pub use encode::{decode, decode_program, encode, encode_program};
pub use error::{AsmError, AsmErrorKind, EncodeError, ProgramError};
pub use inst::{AluOp, Inst, Op, Src};
pub use lint::{lint_program, Lint};
pub use pred::{apply_cmp_type, CmpCond, CmpType};
pub use program::{Program, ProgramStats};
pub use reg::{Gpr, PredReg, NUM_GPRS, NUM_PREDS};
