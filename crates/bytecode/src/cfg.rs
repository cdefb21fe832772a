//! Control-flow graph over bytecode.
//!
//! The JIT's profiling translator inserts counters at *bytecode-level basic
//! blocks* (paper §V-A); this module computes those blocks. Block ids are
//! dense per function and stable across runs, so profile counters keyed by
//! `BlockId` can be serialized into the Jump-Start package and applied in a
//! different process.

use crate::program::Func;

/// Dense id of a bytecode basic block within one function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The function entry block.
    pub const ENTRY: BlockId = BlockId(0);

    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// One bytecode basic block: a half-open instruction range plus successors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CfgBlock {
    /// First instruction index.
    pub start: u32,
    /// One past the last instruction index.
    pub end: u32,
    /// Successor taken when the terminating conditional branch fires (or the
    /// unconditional jump target). `None` for returns and fallthrough-only.
    pub taken: Option<BlockId>,
    /// Fallthrough successor, if control can fall through.
    pub fallthrough: Option<BlockId>,
}

impl CfgBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the block is empty (never produced by [`Cfg::build`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterates over the block's successors.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.taken.into_iter().chain(self.fallthrough)
    }
}

/// The control-flow graph of one function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<CfgBlock>,
}

impl Cfg {
    /// Computes basic blocks for `func` with the classic leader algorithm.
    pub fn build(func: &Func) -> Cfg {
        let code = &func.code;
        let n = code.len();
        let mut is_leader = vec![false; n.max(1)];
        if n > 0 {
            is_leader[0] = true;
        }
        for (i, instr) in code.iter().enumerate() {
            if let Some(t) = instr.jump_target() {
                if (t as usize) < n {
                    is_leader[t as usize] = true;
                }
            }
            if instr.ends_block() && i + 1 < n {
                is_leader[i + 1] = true;
            }
        }
        // Assign block ids in instruction order.
        let mut starts: Vec<u32> = Vec::new();
        for (i, &l) in is_leader.iter().enumerate().take(n) {
            if l {
                starts.push(i as u32);
            }
        }
        let mut block_of_instr = vec![BlockId(0); n];
        let mut blocks = Vec::with_capacity(starts.len());
        for (bi, &start) in starts.iter().enumerate() {
            let end = starts.get(bi + 1).copied().unwrap_or(n as u32);
            for i in start..end {
                block_of_instr[i as usize] = BlockId(bi as u32);
            }
            blocks.push(CfgBlock {
                start,
                end,
                taken: None,
                fallthrough: None,
            });
        }
        // Wire successors now that instruction->block is known.
        for bi in 0..blocks.len() {
            let last_idx = blocks[bi].end - 1;
            let last = &code[last_idx as usize];
            let taken = last.jump_target().map(|t| block_of_instr[t as usize]);
            let falls = !last.is_terminal() && (blocks[bi].end as usize) < n;
            blocks[bi].taken = taken;
            blocks[bi].fallthrough = if falls {
                Some(block_of_instr[blocks[bi].end as usize])
            } else {
                None
            };
        }
        Cfg { blocks }
    }

    /// The blocks, indexable by [`BlockId`].
    pub fn blocks(&self) -> &[CfgBlock] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the function had no code.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Resolves a block id.
    pub fn block(&self, id: BlockId) -> &CfgBlock {
        &self.blocks[id.index()]
    }

    /// Structural hash of every block, for matching profile counters onto
    /// a *changed* CFG (stale-profile repair, paper §VI reliability).
    ///
    /// The hash covers each instruction's shape — opcode plus immediates —
    /// but deliberately **excludes jump-target indices** and includes the
    /// successor *shape* instead (has-taken / has-fallthrough). Inserting
    /// or deleting code elsewhere in the function shifts every absolute
    /// instruction index, yet untouched blocks keep their hash, so their
    /// counters can be remapped.
    ///
    /// Table-index immediates (`StrId`, `FuncId`, `ClassId`, `LitArrId`)
    /// renumber wholesale when unrelated code is added to the repo, so the
    /// hash resolves them to the *content* they name — string bytes, callee
    /// function names, class names, literal array values — making the exact
    /// hash of an untouched block stable across builds (and across the
    /// chunk store's content-addressed delta pushes).
    pub(crate) fn block_hashes(&self, func: &Func, repo: &crate::repo::Repo) -> Vec<u64> {
        self.blocks
            .iter()
            .map(|b| {
                let mut h = Fnv::new();
                for i in b.start..b.end {
                    hash_instr_shape(&mut h, &func.code[i as usize], repo);
                }
                h.u8(b.taken.is_some() as u8);
                h.u8(b.fallthrough.is_some() as u8);
                h.finish()
            })
            .collect()
    }

    /// Opcode-only hash of every block: like [`Cfg::block_hashes`] but
    /// covering just the opcode *tags* (no immediates) plus the successor
    /// shape. It tolerates edits that keep the opcode skeleton — renamed
    /// strings, retargeted calls, changed constants — and is the second
    /// rung of the stale-matching ladder when the exact (content-resolved)
    /// hash misses.
    pub(crate) fn block_opcode_hashes(&self, func: &Func) -> Vec<u64> {
        self.blocks
            .iter()
            .map(|b| {
                let mut h = Fnv::new();
                for i in b.start..b.end {
                    h.u8(opcode_tag(&func.code[i as usize]));
                }
                h.u8(b.taken.is_some() as u8);
                h.u8(b.fallthrough.is_some() as u8);
                h.finish()
            })
            .collect()
    }
}

/// FNV-1a, enough for structural fingerprints (no adversarial inputs).
///
/// This is the hash behind [`crate::FuncFacts::block_hashes`]; it is
/// exported so other structural fingerprints (e.g. the chunk store's
/// content ids) stay in the same hash family instead of growing parallel
/// hashers.
pub struct Fnv(u64);

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    #[allow(clippy::new_without_default)]
    #[inline]
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs one byte.
    #[inline]
    pub fn u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Absorbs bytes in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.u8(b));
    }

    /// Absorbs a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a string's bytes: build-stable fingerprints of function and
/// method *names*, used to re-identify profiled functions after ids were
/// renumbered by an unrelated code push.
pub fn fnv_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(s.as_bytes());
    h.finish()
}

/// The dense opcode tag shared by the exact and opcode-only block hashes.
fn opcode_tag(instr: &crate::instr::Instr) -> u8 {
    use crate::instr::Instr as I;
    match *instr {
        I::Null => 0,
        I::True => 1,
        I::False => 2,
        I::Int(_) => 3,
        I::Double(_) => 4,
        I::Str(_) => 5,
        I::LitArr(_) => 6,
        I::Pop => 7,
        I::Dup => 8,
        I::GetL(_) => 9,
        I::SetL(_) => 10,
        I::IncL(..) => 11,
        I::Bin(_) => 12,
        I::Un(_) => 13,
        I::Jmp(_) => 14,
        I::JmpZ(_) => 15,
        I::JmpNZ(_) => 16,
        I::Call { .. } => 17,
        I::CallMethod { .. } => 18,
        I::CallBuiltin { .. } => 19,
        I::Ret => 20,
        I::NewObj(_) => 21,
        I::GetProp(_) => 22,
        I::SetProp(_) => 23,
        I::This => 24,
        I::NewVec(_) => 25,
        I::NewDict(_) => 26,
        I::Idx => 27,
        I::SetIdx => 28,
    }
}

fn hash_instr_shape(h: &mut Fnv, instr: &crate::instr::Instr, repo: &crate::repo::Repo) {
    use crate::instr::Instr as I;
    // The opcode tag plus the non-jump-target immediates. Table-index
    // immediates are resolved to the content they name so the hash
    // survives id renumbering across builds.
    h.u8(opcode_tag(instr));
    match *instr {
        I::Int(v) => h.u64(v as u64),
        I::Double(v) => h.u64(v.to_bits()),
        I::Str(s) => h.u64(fnv_str(repo.str(s))),
        I::LitArr(a) => hash_lit_array(h, repo.lit_array(a), repo),
        I::GetL(l) | I::SetL(l) => h.u64(l as u64),
        I::IncL(l, d) => {
            h.u64(l as u64);
            h.u64(d as u64);
        }
        I::Bin(op) => h.u8(op as u8),
        I::Un(op) => h.u8(op as u8),
        // Branch opcodes hash their kind only: the absolute target index
        // shifts whenever code is inserted upstream.
        I::Jmp(_) | I::JmpZ(_) | I::JmpNZ(_) => {}
        I::Call { func, argc } => {
            h.u64(fnv_str(repo.str(repo.func(func).name)));
            h.u8(argc);
        }
        I::CallMethod { name, argc } => {
            h.u64(fnv_str(repo.str(name)));
            h.u8(argc);
        }
        I::CallBuiltin { builtin, argc } => {
            h.u8(builtin as u8);
            h.u8(argc);
        }
        I::NewObj(c) => h.u64(fnv_str(repo.str(repo.class(c).name))),
        I::GetProp(s) | I::SetProp(s) => h.u64(fnv_str(repo.str(s))),
        I::NewVec(n) | I::NewDict(n) => h.u64(n as u64),
        I::Null | I::True | I::False | I::Pop | I::Dup | I::Ret | I::This | I::Idx | I::SetIdx => {}
    }
}

/// Content hash of a literal value (strings by bytes, arrays recursively),
/// so `LitArr` immediates survive table renumbering like everything else.
fn hash_literal(h: &mut Fnv, lit: &crate::literal::Literal, repo: &crate::repo::Repo) {
    use crate::literal::Literal as L;
    match *lit {
        L::Null => h.u8(0),
        L::Bool(b) => {
            h.u8(1);
            h.u8(b as u8);
        }
        L::Int(v) => {
            h.u8(2);
            h.u64(v as u64);
        }
        L::Float(v) => {
            h.u8(3);
            h.u64(v.to_bits());
        }
        L::Str(s) => {
            h.u8(4);
            h.u64(fnv_str(repo.str(s)));
        }
        L::Arr(a) => {
            h.u8(5);
            hash_lit_array(h, repo.lit_array(a), repo);
        }
    }
}

fn hash_lit_array(h: &mut Fnv, arr: &crate::literal::LitArray, repo: &crate::repo::Repo) {
    use crate::literal::LitArray as A;
    match arr {
        A::Vec(v) => {
            h.u8(1);
            h.u64(v.len() as u64);
            for l in v {
                hash_literal(h, l, repo);
            }
        }
        A::Dict(d) => {
            h.u8(2);
            h.u64(d.len() as u64);
            for (k, v) in d {
                h.u64(fnv_str(repo.str(*k)));
                hash_literal(h, v, repo);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FuncId, StrId, UnitId};
    use crate::instr::{BinOp, Instr};

    fn func(code: Vec<Instr>) -> Func {
        Func {
            id: FuncId::new(0),
            name: StrId::new(0),
            unit: UnitId::new(0),
            params: 1,
            locals: 1,
            class: None,
            code,
        }
    }

    /// A repo whose string table is exactly `strs` in order, so tests can
    /// pick the numbering each simulated "build" hands out.
    fn repo_with_strings(strs: &[&str]) -> crate::repo::Repo {
        let mut rb = crate::repo::RepoBuilder::new();
        for s in strs {
            rb.intern(s);
        }
        rb.finish()
    }

    #[test]
    fn straight_line_is_one_block() {
        let f = func(vec![
            Instr::Int(1),
            Instr::Int(2),
            Instr::Bin(BinOp::Add),
            Instr::Ret,
        ]);
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.len(), 1);
        let b = cfg.block(BlockId::ENTRY);
        assert_eq!(b.len(), 4);
        assert_eq!(b.taken, None);
        assert_eq!(b.fallthrough, None);
    }

    #[test]
    fn diamond_has_four_blocks() {
        // if (l0) { 1 } else { 2 }; ret
        let f = func(vec![
            Instr::GetL(0), // 0  b0
            Instr::JmpZ(4), // 1  b0 -> taken b2, fall b1
            Instr::Int(1),  // 2  b1
            Instr::Jmp(5),  // 3  b1 -> b3
            Instr::Int(2),  // 4  b2 (falls to b3)
            Instr::Ret,     // 5  b3
        ]);
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.len(), 4);
        let b0 = cfg.block(BlockId(0));
        assert_eq!(b0.taken, Some(BlockId(2)));
        assert_eq!(b0.fallthrough, Some(BlockId(1)));
        let b1 = cfg.block(BlockId(1));
        assert_eq!(b1.taken, Some(BlockId(3)));
        assert_eq!(b1.fallthrough, None);
        let b2 = cfg.block(BlockId(2));
        assert_eq!(b2.taken, None);
        assert_eq!(b2.fallthrough, Some(BlockId(3)));
    }

    #[test]
    fn loop_back_edge() {
        let f = func(vec![
            Instr::GetL(0), // 0 b0 (loop header)
            Instr::JmpZ(6), // 1 b0
            Instr::GetL(0), // 2 b1
            Instr::Int(1),  // 3
            Instr::Bin(BinOp::Sub),
            Instr::Jmp(0), // 5 b1 -> b0
            Instr::Ret,    // 6 b2
        ]);
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.len(), 3);
        assert_eq!(cfg.block(BlockId(1)).taken, Some(BlockId(0)));
        assert_eq!(
            (cfg.block(BlockId(1)).start, cfg.block(BlockId(1)).end),
            (2, 6)
        );
    }

    #[test]
    fn block_hashes_are_stable_and_distinguish_contents() {
        let f = func(vec![
            Instr::GetL(0),
            Instr::JmpZ(4),
            Instr::Int(1),
            Instr::Jmp(5),
            Instr::Int(2),
            Instr::Ret,
        ]);
        let cfg = Cfg::build(&f);
        let repo = repo_with_strings(&[]);
        let h1 = cfg.block_hashes(&f, &repo);
        let h2 = cfg.block_hashes(&f, &repo);
        assert_eq!(h1, h2, "hashing is deterministic");
        assert_eq!(h1.len(), cfg.len());
        // Int(1)+Jmp vs Int(2)+fallthrough differ.
        assert_ne!(h1[1], h1[2]);
    }

    #[test]
    fn exact_hashes_resolve_ids_to_content_across_renumbering() {
        // Build A interns "needle" as StrId 3; build B hands the *same
        // string* id 9. The exact hash resolves the id to the bytes it
        // names, so untouched code keeps its hash across the renumber.
        let ra = repo_with_strings(&["a0", "a1", "a2", "needle"]);
        let rb = repo_with_strings(&[
            "b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "needle",
        ]);
        let a = func(vec![
            Instr::GetL(0),
            Instr::Str(StrId::new(3)),
            Instr::JmpZ(4),
            Instr::Int(1),
            Instr::Ret,
        ]);
        let b = func(vec![
            Instr::GetL(0),
            Instr::Str(StrId::new(9)),
            Instr::JmpZ(4),
            Instr::Int(1),
            Instr::Ret,
        ]);
        let (ca, cb) = (Cfg::build(&a), Cfg::build(&b));
        assert_eq!(
            ca.block_hashes(&a, &ra),
            cb.block_hashes(&b, &rb),
            "renumbered id for identical content keeps the exact hash"
        );
        // But pointing the same id at *different* content changes it.
        let rb2 = repo_with_strings(&[
            "b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "haystack",
        ]);
        assert_ne!(ca.block_hashes(&a, &ra)[0], cb.block_hashes(&b, &rb2)[0]);
        // The opcode rung never saw the immediates to begin with.
        assert_eq!(ca.block_opcode_hashes(&a), cb.block_opcode_hashes(&b));
    }

    #[test]
    fn block_hashes_survive_upstream_insertion() {
        // v1: cond; A; ret    v2: an extra instruction *before* the branch
        // shifts every absolute index, but untouched blocks keep hashes.
        let v1 = func(vec![
            Instr::GetL(0), // b0
            Instr::JmpZ(4), // b0 -> b2
            Instr::Int(7),  // b1
            Instr::Jmp(5),  // b1 -> b3
            Instr::Int(9),  // b2
            Instr::Ret,     // b3
        ]);
        let v2 = func(vec![
            Instr::GetL(0), // b0 (one instr longer)
            Instr::Dup,
            Instr::Pop,
            Instr::JmpZ(6), // b0 -> b2
            Instr::Int(7),  // b1
            Instr::Jmp(7),  // b1 -> b3
            Instr::Int(9),  // b2
            Instr::Ret,     // b3
        ]);
        let repo = repo_with_strings(&[]);
        let h1 = Cfg::build(&v1).block_hashes(&v1, &repo);
        let h2 = Cfg::build(&v2).block_hashes(&v2, &repo);
        assert_ne!(h1[0], h2[0], "edited block changes");
        assert_eq!(h1[1], h2[1], "untouched block keeps its hash");
        assert_eq!(h1[2], h2[2]);
        assert_eq!(h1[3], h2[3]);
    }
}
