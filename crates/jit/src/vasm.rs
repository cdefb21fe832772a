//! Vasm — the JIT's low-level block IR.
//!
//! HHVM lowers its region IR to "Vasm", the lowest-level representation
//! where basic-block layout and hot/cold splitting run (paper §V-A). This
//! reproduction's Vasm is an abstract machine-code model: instructions
//! carry encoded *size in bytes* and *base cycles*, so a translation's
//! blocks can be placed at concrete code-cache addresses and replayed
//! through the micro-architecture simulator.
//!
//! A [`VasmUnit`] is two flat vectors: block headers ([`VBlock`]) and one
//! instruction arena ([`VasmUnit::instrs`]). A block's instructions are
//! the span `instrs[start..end]` its header names. Blocks are appended
//! strictly in push order: an instruction only ever goes to the last
//! block ([`VasmUnit::push_instr`]), so the spans are contiguous, ascending
//! and cover the arena. A finished block's header (terminator, weights,
//! probabilities) may still be patched; its instructions never change.
//! That is why an inlined callee lowers its `Ret` without a
//! [`VInstr::RetOp`]: the inliner turns the terminator into a jump to the
//! continuation instead of popping the return sequence afterwards.

use bytecode::{BlockId, Builtin, ClassId, FuncId};

/// One Vasm instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VInstr {
    /// Type guard on a parameter/local; side exit on failure.
    GuardType { local: u16 },
    /// Register move from the frame (load a local).
    LoadLocal(u16),
    /// Store to the frame.
    StoreLocal(u16),
    /// Materialize a small constant (int/bool/null).
    ConstSmall,
    /// Materialize a string pointer.
    ConstStr,
    /// Specialized integer arithmetic (add/sub/mul/bit ops).
    IntArith,
    /// Specialized float arithmetic.
    FloatArith,
    /// Specialized integer compare.
    CmpInt,
    /// Generic binary-op helper call (unknown operand types).
    GenBin,
    /// Generic compare helper call.
    GenCmp,
    /// String concatenation helper.
    ConcatOp,
    /// Specialized property load from a known class/slot.
    LoadProp {
        /// Receiver class the site is specialized for.
        class: ClassId,
        /// Physical slot index.
        slot: u16,
    },
    /// Specialized property store.
    StoreProp {
        /// Receiver class the site is specialized for.
        class: ClassId,
        /// Physical slot index.
        slot: u16,
    },
    /// Generic (hash-lookup) property access.
    GenProp,
    /// Object allocation.
    NewObjOp {
        /// Class being instantiated.
        class: ClassId,
    },
    /// Vec/dict allocation.
    NewArrOp,
    /// Array index read/write helper.
    IdxOp,
    /// Direct call to a known function.
    CallStatic {
        /// The callee.
        callee: FuncId,
    },
    /// Dynamic (method) dispatch through a target cache.
    CallDynamic {
        /// Function whose profile keys the site (the inlined callee for
        /// sites inside inlined bodies).
        owner: FuncId,
        /// Bytecode call-site index (keys the target profile).
        site: u32,
    },
    /// Builtin invocation.
    BuiltinOp {
        /// Which builtin.
        builtin: Builtin,
    },
    /// Profiling counter increment (profiling/instrumented translations).
    CountOp,
    /// Return sequence.
    RetOp,
    /// Fallback: punt one bytecode to the interpreter.
    InterpOne,
}

impl VInstr {
    /// Encoded size in bytes (drives layout distances and Fig. 1's code
    /// volume).
    pub fn size(&self) -> u32 {
        match self {
            VInstr::GuardType { .. } => 8,
            VInstr::LoadLocal(_) | VInstr::StoreLocal(_) => 4,
            VInstr::ConstSmall => 4,
            VInstr::ConstStr => 6,
            VInstr::IntArith | VInstr::CmpInt => 3,
            VInstr::FloatArith => 4,
            VInstr::GenBin => 14,
            VInstr::GenCmp => 12,
            VInstr::ConcatOp => 12,
            VInstr::LoadProp { .. } | VInstr::StoreProp { .. } => 7,
            VInstr::GenProp => 14,
            VInstr::NewObjOp { .. } => 16,
            VInstr::NewArrOp => 12,
            VInstr::IdxOp => 10,
            VInstr::CallStatic { .. } => 5,
            VInstr::CallDynamic { .. } => 14,
            VInstr::BuiltinOp { .. } => 10,
            VInstr::CountOp => 6,
            VInstr::RetOp => 3,
            VInstr::InterpOne => 16,
        }
    }

    /// Base execution cycles, excluding memory-system penalties.
    pub fn cycles(&self) -> u64 {
        match self {
            VInstr::GuardType { .. } => 1,
            VInstr::LoadLocal(_) | VInstr::StoreLocal(_) => 1,
            VInstr::ConstSmall | VInstr::ConstStr => 1,
            VInstr::IntArith | VInstr::CmpInt => 1,
            VInstr::FloatArith => 2,
            VInstr::GenBin => 10,
            VInstr::GenCmp => 8,
            VInstr::ConcatOp => 14,
            VInstr::LoadProp { .. } | VInstr::StoreProp { .. } => 2,
            VInstr::GenProp => 12,
            VInstr::NewObjOp { .. } => 18,
            VInstr::NewArrOp => 14,
            VInstr::IdxOp => 6,
            VInstr::CallStatic { .. } => 2,
            VInstr::CallDynamic { .. } => 8,
            VInstr::BuiltinOp { builtin } => match builtin {
                Builtin::Print => 25,
                Builtin::Substr | Builtin::HashVal => 12,
                _ => 6,
            },
            VInstr::CountOp => 2,
            VInstr::RetOp => 1,
            VInstr::InterpOne => 40,
        }
    }

    /// Whether this instruction performs a data access the executor must
    /// route through the D-cache model.
    pub fn data_access(&self) -> bool {
        matches!(
            self,
            VInstr::LoadProp { .. }
                | VInstr::StoreProp { .. }
                | VInstr::GenProp
                | VInstr::NewObjOp { .. }
                | VInstr::NewArrOp
                | VInstr::IdxOp
        )
    }
}

/// A block terminator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Term {
    /// Unconditional jump to another Vasm block.
    Jump(usize),
    /// Conditional branch.
    Cond {
        /// Block on taken.
        taken: usize,
        /// Block on fallthrough.
        fall: usize,
    },
    /// Return to the caller.
    Ret,
    /// Side exit back to the interpreter (guard failure, cold path).
    Exit,
}

impl Term {
    /// Successor block indices (taken before fallthrough), without
    /// allocating.
    pub fn successors(&self) -> impl Iterator<Item = usize> {
        let (first, second) = match *self {
            Term::Jump(t) => (Some(t), None),
            Term::Cond { taken, fall } => (Some(taken), Some(fall)),
            Term::Ret | Term::Exit => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// One Vasm basic block's header. Its instructions (terminator encoded
/// separately) are `VasmUnit::instrs[start..end]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VBlock {
    /// Arena index of the first instruction.
    pub start: u32,
    /// Arena index one past the last instruction.
    pub end: u32,
    /// Terminator.
    pub term: Term,
    /// Weight used for *layout decisions* — from tier-1 counters mapped
    /// down through lowering/inlining without Jump-Start, or from the
    /// accurate instrumented-optimized-code counters with it (§V-A).
    pub est_weight: u64,
    /// Ground-truth weight (what actually executes) — used by the replay.
    pub true_weight: u64,
    /// Ground-truth probability the terminator's taken edge fires.
    pub true_taken_prob: f64,
    /// Estimated taken probability (layout view).
    pub est_taken_prob: f64,
    /// Originating bytecode block, when 1:1 (None for guards/side exits
    /// and inlined prologues).
    pub bc_origin: Option<(FuncId, BlockId)>,
}

impl VBlock {
    /// A header with an empty span, `weight` as both its estimated and
    /// true weight, and zero branch probabilities.
    pub fn new(term: Term, weight: u64, bc_origin: Option<(FuncId, BlockId)>) -> Self {
        Self {
            start: 0,
            end: 0,
            term,
            est_weight: weight,
            true_weight: weight,
            true_taken_prob: 0.0,
            est_taken_prob: 0.0,
            bc_origin,
        }
    }

    /// Encoded size of the terminator.
    pub fn term_size(&self) -> u32 {
        match self.term {
            Term::Jump(_) => 5,
            Term::Cond { .. } => 6,
            Term::Ret => 1,
            Term::Exit => 10,
        }
    }

    /// Number of modeled machine instructions.
    pub fn instr_count(&self) -> u64 {
        u64::from(self.end - self.start) + 1
    }
}

/// A complete translation in Vasm form.
#[derive(Clone, Debug, PartialEq)]
pub struct VasmUnit {
    /// The translated function.
    pub func: FuncId,
    /// Block headers; index 0 is the entry.
    pub blocks: Vec<VBlock>,
    /// Every block's instructions, in block order.
    pub instrs: Vec<VInstr>,
}

impl VasmUnit {
    /// An empty unit for `func`.
    pub fn new(func: FuncId) -> Self {
        Self {
            func,
            blocks: Vec::new(),
            instrs: Vec::new(),
        }
    }

    /// Appends `block` with an empty span at the end of the arena and
    /// returns its index; it is the block [`Self::push_instr`] fills.
    pub fn push_block(&mut self, mut block: VBlock) -> usize {
        let at = self.instrs.len() as u32;
        (block.start, block.end) = (at, at);
        self.blocks.push(block);
        self.blocks.len() - 1
    }

    /// Appends `instr` to the last block.
    ///
    /// # Panics
    ///
    /// Panics if the unit has no block.
    pub fn push_instr(&mut self, instr: VInstr) {
        self.instrs.push(instr);
        self.blocks
            .last_mut()
            .expect("an instruction needs a block")
            .end += 1;
    }

    /// `block`'s instructions (terminator excluded).
    pub fn instrs_of(&self, block: &VBlock) -> &[VInstr] {
        &self.instrs[block.start as usize..block.end as usize]
    }

    /// `block`'s code size in bytes, including the terminator's encoding.
    pub fn block_size(&self, block: &VBlock) -> u32 {
        let body: u32 = self.instrs_of(block).iter().map(VInstr::size).sum();
        body + block.term_size()
    }

    /// Total code size in bytes.
    pub fn code_size(&self) -> u32 {
        let body: u32 = self.instrs.iter().map(VInstr::size).sum();
        body + self.blocks.iter().map(VBlock::term_size).sum::<u32>()
    }

    /// Edge list with *estimated* weights for the layout algorithms.
    pub fn layout_edges(&self) -> Vec<layout::BlockEdge> {
        let n: usize = self
            .blocks
            .iter()
            .map(|b| b.term.successors().count())
            .sum();
        let mut edges = Vec::with_capacity(n);
        for (i, b) in self.blocks.iter().enumerate() {
            match b.term {
                Term::Jump(t) => {
                    edges.push(layout::BlockEdge {
                        src: i,
                        dst: t,
                        weight: b.est_weight,
                    });
                }
                Term::Cond { taken, fall } => {
                    let tw = (b.est_weight as f64 * b.est_taken_prob) as u64;
                    edges.push(layout::BlockEdge {
                        src: i,
                        dst: taken,
                        weight: tw,
                    });
                    edges.push(layout::BlockEdge {
                        src: i,
                        dst: fall,
                        weight: b.est_weight.saturating_sub(tw),
                    });
                }
                Term::Ret | Term::Exit => {}
            }
        }
        edges
    }

    /// Block nodes (size + estimated weight) for the layout algorithms.
    pub fn layout_blocks(&self) -> Vec<layout::BlockNode> {
        self.blocks
            .iter()
            .map(|b| layout::BlockNode {
                size: self.block_size(b),
                weight: b.est_weight,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_cycles_are_positive() {
        let samples = [
            VInstr::GuardType { local: 0 },
            VInstr::IntArith,
            VInstr::GenBin,
            VInstr::LoadProp {
                class: ClassId::new(0),
                slot: 3,
            },
            VInstr::CallStatic {
                callee: FuncId::new(0),
            },
            VInstr::RetOp,
            VInstr::InterpOne,
        ];
        for s in samples {
            assert!(s.size() > 0);
            assert!(s.cycles() > 0);
        }
    }

    #[test]
    fn specialized_ops_are_cheaper_than_generic() {
        assert!(VInstr::IntArith.size() < VInstr::GenBin.size());
        assert!(VInstr::IntArith.cycles() < VInstr::GenBin.cycles());
        let lp = VInstr::LoadProp {
            class: ClassId::new(0),
            slot: 0,
        };
        assert!(lp.size() < VInstr::GenProp.size());
        assert!(lp.cycles() < VInstr::GenProp.cycles());
    }

    #[test]
    fn block_size_includes_terminator() {
        let mut unit = VasmUnit::new(FuncId::new(0));
        let b = unit.push_block(VBlock::new(Term::Cond { taken: 1, fall: 2 }, 0, None));
        unit.push_instr(VInstr::IntArith);
        let block = unit.blocks[b];
        assert_eq!(unit.block_size(&block), 3 + 6);
        assert_eq!(block.instr_count(), 2);
    }

    #[test]
    fn blocks_span_the_arena_in_push_order() {
        let mut unit = VasmUnit::new(FuncId::new(0));
        unit.push_block(VBlock::new(Term::Jump(1), 0, None));
        unit.push_instr(VInstr::ConstSmall);
        unit.push_instr(VInstr::IntArith);
        unit.push_block(VBlock::new(Term::Jump(2), 0, None));
        unit.push_block(VBlock::new(Term::Ret, 0, None));
        unit.push_instr(VInstr::RetOp);
        let spans: Vec<(u32, u32)> = unit.blocks.iter().map(|b| (b.start, b.end)).collect();
        assert_eq!(spans, [(0, 2), (2, 2), (2, 3)]);
        assert_eq!(unit.instrs_of(&unit.blocks[2]), [VInstr::RetOp]);
        let sizes: u32 = unit.blocks.iter().map(|b| unit.block_size(b)).sum();
        assert_eq!(unit.code_size(), sizes);
    }

    #[test]
    fn layout_edges_split_by_probability() {
        let block = |term, est_weight, true_weight, est_taken_prob, true_taken_prob| VBlock {
            est_weight,
            true_weight,
            est_taken_prob,
            true_taken_prob,
            ..VBlock::new(term, 0, None)
        };
        let unit = VasmUnit {
            func: FuncId::new(0),
            blocks: vec![
                block(Term::Cond { taken: 1, fall: 2 }, 100, 100, 0.25, 0.9),
                block(Term::Ret, 25, 90, 0.0, 0.0),
                block(Term::Ret, 75, 10, 0.0, 0.0),
            ],
            instrs: Vec::new(),
        };
        let edges = unit.layout_edges();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].weight, 25);
        assert_eq!(edges[1].weight, 75);
        assert!(unit.code_size() > 0);
    }

    #[test]
    fn term_successors() {
        let succ = |t: Term| t.successors().collect::<Vec<_>>();
        assert_eq!(succ(Term::Jump(3)), [3]);
        assert_eq!(succ(Term::Cond { taken: 1, fall: 2 }), [1, 2]);
        assert!(succ(Term::Ret).is_empty());
        assert!(succ(Term::Exit).is_empty());
    }
}
