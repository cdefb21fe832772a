//! Block reachability and dead-code detection.

use bytecode::{BlockId, Cfg};

/// Per-block reachability from the entry block, indexed by [`BlockId`].
pub fn reachable_blocks(cfg: &Cfg) -> Vec<bool> {
    let mut reached = vec![false; cfg.len()];
    if cfg.is_empty() {
        return reached;
    }
    let mut stack = vec![BlockId::ENTRY];
    reached[BlockId::ENTRY.index()] = true;
    while let Some(b) = stack.pop() {
        for s in cfg.block(b).successors() {
            if !reached[s.index()] {
                reached[s.index()] = true;
                stack.push(s);
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecode::{Func, FuncId, Instr, StrId, UnitId};

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

    #[test]
    fn all_blocks_reachable_in_diamond() {
        let f = func(vec![
            Instr::GetL(0),
            Instr::JmpZ(4),
            Instr::Int(1),
            Instr::Jmp(5),
            Instr::Int(2),
            Instr::Ret,
        ]);
        let cfg = Cfg::build(&f);
        assert!(reachable_blocks(&cfg).iter().all(|&r| r));
    }

    #[test]
    fn code_after_unconditional_jump_is_dead() {
        let f = func(vec![
            Instr::Jmp(3), // 0 b0 -> b2
            Instr::Int(1), // 1 b1: dead
            Instr::Jmp(3), // 2 b1 -> b2
            Instr::Ret,    // 3 b2 — NB: needs one stack value
        ]);
        let cfg = Cfg::build(&f);
        assert_eq!(reachable_blocks(&cfg), vec![true, false, true]);
    }

    #[test]
    fn loops_do_not_confuse_reachability() {
        let f = func(vec![
            Instr::GetL(0), // 0 b0
            Instr::JmpZ(5), // 1
            Instr::GetL(0), // 2 b1
            Instr::Pop,     // 3
            Instr::Jmp(0),  // 4 -> b0
            Instr::Ret,     // 5 b2
        ]);
        let cfg = Cfg::build(&f);
        assert!(reachable_blocks(&cfg).iter().all(|&r| r));
    }
}
