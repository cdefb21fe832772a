//! Lazy unit loading (the autoloader).
//!
//! Without Jump-Start, "a unit (and classes/functions defined in it) is
//! loaded into memory by the autoloader when executing the first request
//! that uses it" (paper §IV-B). The loader tracks which units are loaded,
//! the order they were loaded in, and the bytes touched — the load-order log
//! becomes the preload list in the Jump-Start package, and the byte counts
//! feed the warmup cost model.

use bytecode::{Repo, UnitId};

/// One unit-load event, in occurrence order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadEvent {
    /// The unit that was loaded.
    pub unit: UnitId,
    /// Approximate bytes of metadata and bytecode materialized.
    pub bytes: usize,
}

/// Tracks lazily-loaded units.
#[derive(Debug)]
pub struct Loader {
    loaded: Vec<bool>,
    log: Vec<LoadEvent>,
    total_bytes: usize,
}

impl Loader {
    /// Creates a loader with nothing loaded.
    pub fn new(repo: &Repo) -> Self {
        Self {
            loaded: vec![false; repo.units().len()],
            log: Vec::new(),
            total_bytes: 0,
        }
    }

    /// Ensures `unit` is loaded; returns `true` if this call loaded it.
    pub fn ensure_loaded(&mut self, repo: &Repo, unit: UnitId) -> bool {
        if self.loaded[unit.index()] {
            return false;
        }
        self.loaded[unit.index()] = true;
        let bytes = unit_bytes(repo, unit);
        self.total_bytes += bytes;
        self.log.push(LoadEvent { unit, bytes });
        true
    }

    /// Preloads `units` in the given order (Jump-Start consumer startup).
    pub fn preload<I: IntoIterator<Item = UnitId>>(&mut self, repo: &Repo, units: I) {
        for u in units {
            self.ensure_loaded(repo, u);
        }
    }

    /// The load-order log.
    pub fn log(&self) -> &[LoadEvent] {
        &self.log
    }

    /// Units in load order (the preload list serialized into packages).
    pub fn load_order(&self) -> Vec<UnitId> {
        self.log.iter().map(|e| e.unit).collect()
    }

    /// Number of loaded units.
    pub fn loaded_count(&self) -> usize {
        self.log.len()
    }

    /// Total bytes materialized by loading.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }
}

/// Approximate bytes materialized when loading a unit: bytecode plus fixed
/// per-entity metadata overheads (VM `Unit`/`Class`/`Func` structures).
pub fn unit_bytes(repo: &Repo, unit: UnitId) -> usize {
    let u = repo.unit(unit);
    let func_bytes: usize = u
        .funcs
        .iter()
        .map(|&f| repo.func(f).bytecode_bytes() + 256)
        .sum();
    let class_bytes: usize = u
        .classes
        .iter()
        .map(|&c| 512 + repo.class(c).props.len() * 64)
        .sum();
    1024 + func_bytes + class_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecode::{FuncBuilder, Instr, RepoBuilder};

    fn two_unit_repo() -> Repo {
        let mut b = RepoBuilder::new();
        for name in ["a.hl", "b.hl"] {
            let u = b.declare_unit(name);
            let mut f = FuncBuilder::new(&format!("f_{name}"), 0);
            f.emit(Instr::Null);
            f.emit(Instr::Ret);
            b.define_func(u, f);
        }
        b.finish()
    }

    #[test]
    fn loads_once_and_logs_order() {
        let repo = two_unit_repo();
        let mut l = Loader::new(&repo);
        let u1 = repo.units()[1].id;
        let u0 = repo.units()[0].id;
        assert!(l.ensure_loaded(&repo, u1));
        assert!(!l.ensure_loaded(&repo, u1));
        assert!(l.ensure_loaded(&repo, u0));
        assert_eq!(l.load_order(), vec![u1, u0]);
        assert_eq!(l.loaded_count(), 2);
        assert!(l.total_bytes() > 0);
    }

    #[test]
    fn preload_respects_order() {
        let repo = two_unit_repo();
        let mut l = Loader::new(&repo);
        let order = vec![repo.units()[0].id, repo.units()[1].id];
        l.preload(&repo, order.clone());
        assert_eq!(l.load_order(), order);
    }
}
