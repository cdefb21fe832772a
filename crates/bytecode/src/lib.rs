//! An HHBC-like untyped bytecode for a dynamic PHP/Hack-style language.
//!
//! HHVM compiles Hack source offline into a *bytecode repo* that is deployed
//! to every web server; the VM then interprets or JIT-compiles that bytecode
//! at runtime (paper §II-A). This crate is the reproduction's equivalent of
//! that repo format:
//!
//! * [`Instr`] — the untyped, stack-based instruction set,
//! * [`Func`], [`Class`], [`Unit`] — program structure,
//! * [`Repo`] / [`RepoBuilder`] — the whole-program container with interned
//!   strings and literal arrays (the "repo global data" that Jump-Start
//!   preloads, paper §IV-B category 1),
//! * [`FuncFacts`] / [`ClassFacts`] / [`CallGraph`] — the release index a
//!   repo derives on first read: each function's CFG, block hashes and
//!   name hash, each class's layers and method table, and the whole-repo
//!   static call graph,
//! * [`FuncBuilder`] — convenient construction with labels and patching,
//! * [`verify_repo`] — a structural verifier (jump targets, stack discipline),
//! * [`disasm_func`] — a textual disassembler for debugging.
//!
//! # Example
//!
//! ```
//! use bytecode::{FuncBuilder, Instr, RepoBuilder, BinOp};
//!
//! let mut repo = RepoBuilder::new();
//! let unit = repo.declare_unit("adder.hl");
//! let mut f = FuncBuilder::new("add2", 1);
//! f.emit(Instr::GetL(0));
//! f.emit(Instr::Int(2));
//! f.emit(Instr::Bin(BinOp::Add));
//! f.emit(Instr::Ret);
//! repo.define_func(unit, f);
//! let repo = repo.finish();
//! assert!(repo.func_by_name("add2").is_some());
//! ```

mod builder;
mod callgraph;
mod cfg;
mod disasm;
mod ids;
mod index;
mod instr;
mod literal;
mod program;
mod repo;
mod verify;

pub use builder::{FuncBuilder, Label};
pub use callgraph::CallGraph;
pub use cfg::{fnv_str, BlockId, Cfg, CfgBlock, Fnv};
pub use disasm::{disasm_func, disasm_unit};
pub use ids::{ClassId, FuncId, LitArrId, Local, StrId, UnitId};
pub use index::{ClassFacts, FuncFacts, PropSlot};
pub use instr::{BinOp, Builtin, Instr, UnOp};
pub use literal::{LitArray, Literal};
pub use program::{Class, Func, PropDecl, Unit, Visibility};
pub use repo::{Repo, RepoBuilder, RepoError};
pub use verify::{verify_func, verify_func_all, verify_repo, verify_repo_all, VerifyError};
