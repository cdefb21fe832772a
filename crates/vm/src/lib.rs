//! Runtime and interpreter for the Hacklet bytecode.
//!
//! This is the reproduction's equivalent of HHVM's interpreter and runtime
//! (paper §II-A): it executes untyped bytecode directly, serves as the
//! semantic ground truth for the JIT tiers, and exposes the hooks the
//! profiling tier uses to collect Jump-Start profile data:
//!
//! * [`Value`] — dynamic values (null, bool, int, float, string, vec, dict,
//!   object),
//! * [`ClassTable`] — runtime class resolution, including the *physical
//!   property order* that the Jump-Start property-reordering optimization
//!   installs (paper §V-C),
//! * [`Loader`] — lazy unit loading with a load-order log (the preload lists
//!   of paper §IV-B category 1),
//! * [`ExecObserver`] — instrumentation callbacks (block counters, branch
//!   outcomes, call targets, property accesses, observed types),
//! * [`Vm`] — the interpreter itself.
//!
//! # Example
//!
//! ```
//! use bytecode::{FuncBuilder, Instr, RepoBuilder, BinOp};
//! use vm::{Value, Vm};
//!
//! let mut b = RepoBuilder::new();
//! let u = b.declare_unit("m.hl");
//! let mut f = FuncBuilder::new("double_it", 1);
//! f.emit(Instr::GetL(0));
//! f.emit(Instr::Int(2));
//! f.emit(Instr::Bin(BinOp::Mul));
//! f.emit(Instr::Ret);
//! let id = b.define_func(u, f);
//! let repo = b.finish();
//! let mut vm = Vm::new(&repo);
//! assert_eq!(vm.call(id, &[Value::Int(21)]).unwrap(), Value::Int(42));
//! ```

mod body;
mod builtins;
mod classes;
mod error;
mod interp;
mod loader;
mod observer;
mod value;

pub use classes::{ClassTable, PropLayout, RuntimeClass};
pub use error::VmError;
pub use interp::{ExecStats, Vm, VmOptions};
pub use loader::{unit_bytes, LoadEvent, Loader};
pub use observer::{ExecObserver, NullObserver, ValueKind};
pub use value::{DictKey, ObjRef, Object, Value};
