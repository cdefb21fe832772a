//! The bytecode repo: the whole program, compiled offline.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::builder::FuncBuilder;
use crate::callgraph::CallGraph;
use crate::cfg::fnv_str;
use crate::ids::{ClassId, FuncId, LitArrId, StrId, UnitId};
use crate::index::{ClassFacts, FuncFacts};
use crate::literal::{LitArray, Literal};
use crate::program::{Class, Func, PropDecl, Unit, Visibility};

/// Errors raised while assembling a repo.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepoError {
    /// Two functions were defined with the same name.
    DuplicateFunc(String),
    /// Two classes were defined with the same name.
    DuplicateClass(String),
    /// A class referenced a parent that was never defined.
    UnknownParent { class: String, parent: String },
    /// The class hierarchy contains a cycle through the named class.
    InheritanceCycle(String),
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::DuplicateFunc(n) => write!(f, "duplicate function `{n}`"),
            RepoError::DuplicateClass(n) => write!(f, "duplicate class `{n}`"),
            RepoError::UnknownParent { class, parent } => {
                write!(f, "class `{class}` extends unknown class `{parent}`")
            }
            RepoError::InheritanceCycle(n) => {
                write!(f, "inheritance cycle through class `{n}`")
            }
        }
    }
}

impl std::error::Error for RepoError {}

/// The immutable, whole-program bytecode container.
///
/// A `Repo` is cheap to share across simulated servers (it is deployed to
/// the whole fleet, paper §II-A) behind an `Arc`. It carries the release
/// index ([`Repo::facts`], [`Repo::class_facts`], [`Repo::call_graph`],
/// [`Repo::func_by_name_hash`]): facts derived from the code on first
/// read and shared by every reader, on any thread.
#[derive(Debug)]
pub struct Repo {
    strings: Vec<String>,
    string_ids: HashMap<String, StrId>,
    lit_arrays: Vec<LitArray>,
    units: Vec<Unit>,
    funcs: Vec<Func>,
    classes: Vec<Class>,
    func_names: HashMap<StrId, FuncId>,
    class_names: HashMap<StrId, ClassId>,
    facts: Box<[OnceLock<FuncFacts>]>,
    class_facts: Box<[OnceLock<ClassFacts>]>,
    call_graph: OnceLock<CallGraph>,
    by_name_hash: OnceLock<HashMap<u64, Option<FuncId>>>,
}

impl Repo {
    /// Resolves an interned string id to its text.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this repo.
    pub fn str(&self, id: StrId) -> &str {
        &self.strings[id.index()]
    }

    /// Looks up an already-interned string.
    pub fn str_id(&self, s: &str) -> Option<StrId> {
        self.string_ids.get(s).copied()
    }

    /// Number of interned strings.
    pub fn string_count(&self) -> usize {
        self.strings.len()
    }

    /// Resolves a literal-array id.
    pub fn lit_array(&self, id: LitArrId) -> &LitArray {
        &self.lit_arrays[id.index()]
    }

    /// Number of literal arrays.
    pub fn lit_array_count(&self) -> usize {
        self.lit_arrays.len()
    }

    /// All functions, indexable by [`FuncId`].
    pub fn funcs(&self) -> &[Func] {
        &self.funcs
    }

    /// Resolves a function id.
    pub fn func(&self, id: FuncId) -> &Func {
        &self.funcs[id.index()]
    }

    /// The release index's facts of a function: its CFG, block hashes and
    /// name hash, derived on the first read.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this repo.
    pub fn facts(&self, id: FuncId) -> &FuncFacts {
        self.facts[id.index()].get_or_init(|| FuncFacts::derive(self, id))
    }

    /// The release index's facts of a class: its ancestry, logical
    /// property layout with defaults, own layer and resolved method
    /// table, derived on the first read (the ancestors' first).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this repo.
    pub fn class_facts(&self, id: ClassId) -> &ClassFacts {
        self.class_facts[id.index()].get_or_init(|| ClassFacts::derive(self, id))
    }

    /// The whole-repo static call graph, built on the first read.
    pub fn call_graph(&self) -> &CallGraph {
        self.call_graph.get_or_init(|| CallGraph::build(self))
    }

    /// The function whose name hashes to `hash` (the [`FuncFacts::name_hash`]
    /// a profile record keys on), unless no function's name or several
    /// functions' names do. The index is built on the first read.
    pub fn func_by_name_hash(&self, hash: u64) -> Option<FuncId> {
        let index = self.by_name_hash.get_or_init(|| {
            let mut index = HashMap::new();
            for f in &self.funcs {
                index
                    .entry(fnv_str(self.str(f.name)))
                    .and_modify(|e| *e = None)
                    .or_insert(Some(f.id));
            }
            index
        });
        index.get(&hash).copied().flatten()
    }

    /// Looks a function up by name.
    pub fn func_by_name(&self, name: &str) -> Option<&Func> {
        let id = self.str_id(name)?;
        self.func_names.get(&id).map(|&f| self.func(f))
    }

    /// All classes, indexable by [`ClassId`].
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// Resolves a class id.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Looks a class up by name.
    pub fn class_by_name(&self, name: &str) -> Option<&Class> {
        let id = self.str_id(name)?;
        self.class_names.get(&id).map(|&c| self.class(c))
    }

    /// All units, indexable by [`UnitId`].
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Resolves a unit id.
    pub fn unit(&self, id: UnitId) -> &Unit {
        &self.units[id.index()]
    }

    /// Total bytecode bytes across all functions (drives Fig. 1's scale).
    pub fn total_bytecode_bytes(&self) -> usize {
        self.funcs.iter().map(Func::bytecode_bytes).sum()
    }
}

/// Incremental constructor for a [`Repo`].
///
/// The builder interns strings, assigns dense ids, and validates the class
/// hierarchy in [`RepoBuilder::try_finish`].
#[derive(Debug, Default)]
pub struct RepoBuilder {
    strings: Vec<String>,
    string_ids: HashMap<String, StrId>,
    lit_arrays: Vec<LitArray>,
    units: Vec<Unit>,
    funcs: Vec<Func>,
    classes: Vec<Class>,
    func_names: HashMap<StrId, FuncId>,
    class_names: HashMap<StrId, ClassId>,
    errors: Vec<RepoError>,
}

impl RepoBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a string, returning its id.
    pub fn intern(&mut self, s: &str) -> StrId {
        if let Some(&id) = self.string_ids.get(s) {
            return id;
        }
        let id = StrId::new(self.strings.len() as u32);
        self.strings.push(s.to_owned());
        self.string_ids.insert(s.to_owned(), id);
        id
    }

    /// Adds a literal array, returning its id.
    pub fn add_lit_array(&mut self, arr: LitArray) -> LitArrId {
        let id = LitArrId::new(self.lit_arrays.len() as u32);
        self.lit_arrays.push(arr);
        id
    }

    /// Declares a new unit (source file).
    pub fn declare_unit(&mut self, name: &str) -> UnitId {
        let name = self.intern(name);
        let id = UnitId::new(self.units.len() as u32);
        self.units.push(Unit {
            id,
            name,
            funcs: Vec::new(),
            classes: Vec::new(),
        });
        id
    }

    /// Finalizes a [`FuncBuilder`] into the repo as a free function.
    pub fn define_func(&mut self, unit: UnitId, fb: FuncBuilder) -> FuncId {
        self.define_func_impl(unit, fb, None)
    }

    /// Finalizes a [`FuncBuilder`] into the repo as a method of `class`.
    pub fn define_method(&mut self, unit: UnitId, class: ClassId, fb: FuncBuilder) -> FuncId {
        let id = self.define_func_impl(unit, fb, Some(class));
        let name = self.funcs[id.index()].name;
        // Method names are `Class::method`; register under the bare method
        // name on the class for dynamic dispatch.
        let bare = {
            let full = &self.strings[name.index()];
            let bare = full.rsplit("::").next().unwrap_or(full).to_owned();
            self.intern(&bare)
        };
        self.classes[class.index()].methods.push((bare, id));
        id
    }

    fn define_func_impl(
        &mut self,
        unit: UnitId,
        fb: FuncBuilder,
        class: Option<ClassId>,
    ) -> FuncId {
        let id = FuncId::new(self.funcs.len() as u32);
        let func = fb.finish(self, id, unit, class);
        if class.is_none() {
            let prev = self.func_names.insert(func.name, id);
            if prev.is_some() {
                let name = self.strings[func.name.index()].clone();
                self.errors.push(RepoError::DuplicateFunc(name));
            }
        }
        self.units[unit.index()].funcs.push(id);
        self.funcs.push(func);
        id
    }

    /// Declares a class. Properties are in source order; methods are added
    /// via [`RepoBuilder::define_method`].
    pub fn declare_class(
        &mut self,
        unit: UnitId,
        name: &str,
        parent: Option<ClassId>,
        props: Vec<(String, Literal, Visibility)>,
    ) -> ClassId {
        let name = self.intern(name);
        let id = ClassId::new(self.classes.len() as u32);
        let props = props
            .into_iter()
            .map(|(n, default, visibility)| PropDecl {
                name: self.intern(&n),
                default,
                visibility,
            })
            .collect();
        let prev = self.class_names.insert(name, id);
        if prev.is_some() {
            let n = self.strings[name.index()].clone();
            self.errors.push(RepoError::DuplicateClass(n));
        }
        self.classes.push(Class {
            id,
            name,
            parent,
            unit,
            props,
            methods: Vec::new(),
        });
        self.units[unit.index()].classes.push(id);
        id
    }

    /// Validates and produces the immutable [`Repo`].
    ///
    /// # Errors
    ///
    /// Returns the first accumulated [`RepoError`] (duplicates, unknown
    /// parents, inheritance cycles).
    pub fn try_finish(mut self) -> Result<Repo, RepoError> {
        if let Some(e) = self.errors.first() {
            return Err(e.clone());
        }
        // Detect inheritance cycles with a colored DFS.
        let n = self.classes.len();
        let mut color = vec![0u8; n]; // 0 = white, 1 = gray, 2 = black
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, false)];
            while let Some((c, processed)) = stack.pop() {
                if processed {
                    color[c] = 2;
                    continue;
                }
                if color[c] == 2 {
                    continue;
                }
                if color[c] == 1 {
                    let name = self.strings[self.classes[c].name.index()].clone();
                    return Err(RepoError::InheritanceCycle(name));
                }
                color[c] = 1;
                stack.push((c, true));
                if let Some(p) = self.classes[c].parent {
                    if p.index() >= n {
                        let class = self.strings[self.classes[c].name.index()].clone();
                        return Err(RepoError::UnknownParent {
                            class,
                            parent: format!("{p:?}"),
                        });
                    }
                    match color[p.index()] {
                        0 => stack.push((p.index(), false)),
                        1 => {
                            let name = self.strings[self.classes[p.index()].name.index()].clone();
                            return Err(RepoError::InheritanceCycle(name));
                        }
                        _ => {}
                    }
                }
            }
        }
        self.errors.clear();
        Ok(Repo {
            facts: self.funcs.iter().map(|_| OnceLock::new()).collect(),
            class_facts: self.classes.iter().map(|_| OnceLock::new()).collect(),
            call_graph: OnceLock::new(),
            by_name_hash: OnceLock::new(),
            strings: self.strings,
            string_ids: self.string_ids,
            lit_arrays: self.lit_arrays,
            units: self.units,
            funcs: self.funcs,
            classes: self.classes,
            func_names: self.func_names,
            class_names: self.class_names,
        })
    }

    /// Like [`RepoBuilder::try_finish`] but panics on error; convenient in
    /// tests and generators that construct known-valid programs.
    ///
    /// # Panics
    ///
    /// Panics if the repo is structurally invalid.
    pub fn finish(self) -> Repo {
        self.try_finish().expect("repo is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    #[test]
    fn intern_deduplicates() {
        let mut b = RepoBuilder::new();
        let a = b.intern("hello");
        let c = b.intern("hello");
        let d = b.intern("world");
        assert_eq!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn duplicate_function_is_an_error() {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("x.hl");
        let mut f1 = FuncBuilder::new("f", 0);
        f1.emit(Instr::Null);
        f1.emit(Instr::Ret);
        let mut f2 = FuncBuilder::new("f", 0);
        f2.emit(Instr::Null);
        f2.emit(Instr::Ret);
        b.define_func(u, f1);
        b.define_func(u, f2);
        assert_eq!(
            b.try_finish().unwrap_err(),
            RepoError::DuplicateFunc("f".into())
        );
    }

    #[test]
    fn inheritance_cycle_detected() {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("x.hl");
        let a = b.declare_class(u, "A", None, vec![]);
        let bid = b.declare_class(u, "B", Some(a), vec![]);
        // Introduce a cycle A -> B.
        b.classes[a.index()].parent = Some(bid);
        assert!(matches!(
            b.try_finish(),
            Err(RepoError::InheritanceCycle(_))
        ));
    }

    #[test]
    fn ancestry_lists_the_root_first() {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("x.hl");
        let base = b.declare_class(u, "Base", None, vec![]);
        let derived = b.declare_class(u, "Derived", Some(base), vec![]);
        let repo = b.finish();
        assert_eq!(repo.class_facts(derived).ancestry, vec![base, derived]);
    }
}
