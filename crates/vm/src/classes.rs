//! Runtime class resolution and property layout.
//!
//! HHVM objects store properties in physical slots; the declared order is
//! observable at the language level, so the property-reordering optimization
//! (paper §V-C) keeps a per-class array mapping each property's *declared*
//! index to its *physical* index. This module reproduces exactly that: a
//! [`PropLayout`] with `logical_to_physical`, a resolved method table, and
//! an API ([`ClassTable::install_prop_orders`]) that the Jump-Start consumer
//! calls before any object is created.

use std::collections::HashMap;

use bytecode::{ClassId, FuncId, Repo, StrId};

use crate::value::{Object, Value};

/// Resolved property layout of one class, including inherited properties.
#[derive(Clone, Debug, Default)]
pub struct PropLayout {
    /// Property names in *logical* (declared, ancestors first) order.
    pub logical_names: Vec<StrId>,
    /// Map from logical index to physical slot.
    pub logical_to_physical: Vec<usize>,
    /// Default values in *physical* slot order (as literals evaluated at
    /// class-resolution time).
    pub physical_defaults: Vec<DefaultSlot>,
    /// Physical slot by property name.
    pub slot_by_name: HashMap<StrId, usize>,
}

/// A property default, kept as a simple tag so layouts stay `Clone + Send`.
#[derive(Clone, Debug, PartialEq)]
pub enum DefaultSlot {
    /// Scalar default (null/bool/int/float).
    Scalar(ScalarDefault),
    /// Interned string default.
    Str(StrId),
    /// Literal array default, materialized per object.
    Arr(bytecode::LitArrId),
}

/// Scalar defaults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScalarDefault {
    /// Null default.
    Null,
    /// Boolean default.
    Bool(bool),
    /// Integer default.
    Int(i64),
    /// Float default.
    Float(f64),
}

impl PropLayout {
    /// Number of property slots.
    pub fn slot_count(&self) -> usize {
        self.logical_names.len()
    }
}

/// A resolved runtime class.
#[derive(Clone, Debug)]
pub struct RuntimeClass {
    /// The class id.
    pub id: ClassId,
    /// Parent, if any.
    pub parent: Option<ClassId>,
    /// Property layout (inherited + own).
    pub layout: PropLayout,
    /// Fully resolved method table (inherited methods included, overrides
    /// applied), by bare method name.
    pub methods: HashMap<StrId, FuncId>,
}

/// Table of resolved classes, built lazily per class.
///
/// Property *permutations* must be installed before the affected classes are
/// resolved (i.e. before any object of those classes is created) — the same
/// constraint HHVM has, which is why the consumer applies them right after
/// deserializing the package and before serving requests.
#[derive(Debug)]
pub struct ClassTable {
    resolved: Vec<Option<RuntimeClass>>,
    /// Installed physical orders: per class, the *own-layer* property names
    /// in desired physical order (ancestors keep their own layers).
    installed_orders: HashMap<ClassId, Vec<StrId>>,
}

impl ClassTable {
    /// Creates an empty table sized for `repo`.
    pub fn new(repo: &Repo) -> Self {
        Self {
            resolved: vec![None; repo.classes().len()],
            installed_orders: HashMap::new(),
        }
    }

    /// Installs a physical property order for `class`'s own layer.
    ///
    /// `order` lists the class's *own* (non-inherited) property names in the
    /// desired physical order; names missing from `order` keep declared
    /// order after the listed ones. Installing an order for an
    /// already-resolved class is ignored (objects may exist), matching the
    /// paper's "decided when the class is created inside the VM".
    pub fn install_prop_order(&mut self, class: ClassId, order: Vec<StrId>) {
        if self.resolved[class.index()].is_none() {
            self.installed_orders.insert(class, order);
        }
    }

    /// Installs physical property orders for many classes at once.
    pub fn install_prop_orders<I>(&mut self, orders: I)
    where
        I: IntoIterator<Item = (ClassId, Vec<StrId>)>,
    {
        for (c, o) in orders {
            self.install_prop_order(c, o);
        }
    }

    /// Resolves `class` (and transitively its ancestors), returning the
    /// runtime class.
    pub fn resolve(&mut self, repo: &Repo, class: ClassId) -> &RuntimeClass {
        if self.resolved[class.index()].is_none() {
            let rc = self.build(repo, class);
            self.resolved[class.index()] = Some(rc);
        }
        self.resolved[class.index()]
            .as_ref()
            .expect("just resolved")
    }

    fn build(&mut self, repo: &Repo, class: ClassId) -> RuntimeClass {
        let cls = repo.class(class);
        // Resolve the parent first; copy its layers.
        let (mut logical_names, mut physical_names, mut methods) = match cls.parent {
            Some(p) => {
                let parent = self.resolve(repo, p);
                let mut phys: Vec<StrId> = vec![StrId::new(u32::MAX); parent.layout.slot_count()];
                for (li, &pi) in parent.layout.logical_to_physical.iter().enumerate() {
                    phys[pi] = parent.layout.logical_names[li];
                }
                (
                    parent.layout.logical_names.clone(),
                    phys,
                    parent.methods.clone(),
                )
            }
            None => (Vec::new(), Vec::new(), HashMap::new()),
        };

        // Own layer: logical order is declared order; physical order is the
        // installed permutation (if any), restricted to this layer.
        let own_names: Vec<StrId> = cls.props.iter().map(|p| p.name).collect();
        logical_names.extend(own_names.iter().copied());
        let own_physical: Vec<StrId> = match self.installed_orders.get(&class) {
            Some(order) => {
                let mut out: Vec<StrId> = order
                    .iter()
                    .copied()
                    .filter(|n| own_names.contains(n))
                    .collect();
                for &n in &own_names {
                    if !out.contains(&n) {
                        out.push(n);
                    }
                }
                out
            }
            None => own_names.clone(),
        };
        physical_names.extend(own_physical);

        // Build maps.
        let slot_by_name: HashMap<StrId, usize> = physical_names
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();
        let logical_to_physical: Vec<usize> =
            logical_names.iter().map(|n| slot_by_name[n]).collect();

        // Defaults in physical order: find each physical name's declaring
        // PropDecl by walking the ancestry.
        let mut default_by_name: HashMap<StrId, DefaultSlot> = HashMap::new();
        for c in repo.ancestry(class) {
            for p in &repo.class(c).props {
                let d = match p.default {
                    bytecode::Literal::Null => DefaultSlot::Scalar(ScalarDefault::Null),
                    bytecode::Literal::Bool(b) => DefaultSlot::Scalar(ScalarDefault::Bool(b)),
                    bytecode::Literal::Int(i) => DefaultSlot::Scalar(ScalarDefault::Int(i)),
                    bytecode::Literal::Float(f) => DefaultSlot::Scalar(ScalarDefault::Float(f)),
                    bytecode::Literal::Str(s) => DefaultSlot::Str(s),
                    bytecode::Literal::Arr(a) => DefaultSlot::Arr(a),
                };
                default_by_name.insert(p.name, d);
            }
        }
        let physical_defaults = physical_names
            .iter()
            .map(|n| {
                default_by_name
                    .get(n)
                    .cloned()
                    .unwrap_or(DefaultSlot::Scalar(ScalarDefault::Null))
            })
            .collect();

        // Methods: own layer overrides inherited.
        for &(name, f) in &cls.methods {
            methods.insert(name, f);
        }

        RuntimeClass {
            id: class,
            parent: cls.parent,
            layout: PropLayout {
                logical_names,
                logical_to_physical,
                physical_defaults,
                slot_by_name,
            },
            methods,
        }
    }

    /// Instantiates an object of `class` with default property values.
    pub fn instantiate(&mut self, repo: &Repo, class: ClassId) -> Object {
        let rc = self.resolve(repo, class);
        let slots = rc
            .layout
            .physical_defaults
            .iter()
            .map(|d| materialize_default(repo, d))
            .collect();
        Object { class, slots }
    }
}

#[inline]
fn materialize_default(repo: &Repo, d: &DefaultSlot) -> Value {
    match d {
        DefaultSlot::Scalar(ScalarDefault::Null) => Value::Null,
        DefaultSlot::Scalar(ScalarDefault::Bool(b)) => Value::Bool(*b),
        DefaultSlot::Scalar(ScalarDefault::Int(i)) => Value::Int(*i),
        DefaultSlot::Scalar(ScalarDefault::Float(f)) => Value::Float(*f),
        DefaultSlot::Str(s) => Value::str(repo.str(*s)),
        DefaultSlot::Arr(a) => materialize_lit_array(repo, *a),
    }
}

/// Materializes a literal array from the repo into a fresh runtime value.
pub(crate) fn materialize_lit_array(repo: &Repo, id: bytecode::LitArrId) -> Value {
    match repo.lit_array(id) {
        bytecode::LitArray::Vec(items) => {
            Value::vec(items.iter().map(|l| materialize_literal(repo, l)).collect())
        }
        bytecode::LitArray::Dict(items) => Value::dict(
            items
                .iter()
                .map(|(k, l)| {
                    (
                        crate::value::DictKey::Str(std::rc::Rc::from(repo.str(*k))),
                        materialize_literal(repo, l),
                    )
                })
                .collect(),
        ),
    }
}

fn materialize_literal(repo: &Repo, l: &bytecode::Literal) -> Value {
    match *l {
        bytecode::Literal::Null => Value::Null,
        bytecode::Literal::Bool(b) => Value::Bool(b),
        bytecode::Literal::Int(i) => Value::Int(i),
        bytecode::Literal::Float(f) => Value::Float(f),
        bytecode::Literal::Str(s) => Value::str(repo.str(s)),
        bytecode::Literal::Arr(a) => materialize_lit_array(repo, a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecode::{Literal, RepoBuilder, Visibility};

    fn hierarchy() -> (Repo, ClassId, ClassId) {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("t.hl");
        let base = b.declare_class(
            u,
            "Base",
            None,
            vec![
                ("a".into(), Literal::Int(1), Visibility::Public),
                ("b".into(), Literal::Int(2), Visibility::Public),
            ],
        );
        let kid = b.declare_class(
            u,
            "Kid",
            Some(base),
            vec![
                ("c".into(), Literal::Int(3), Visibility::Public),
                ("d".into(), Literal::Int(4), Visibility::Public),
            ],
        );
        (b.finish(), base, kid)
    }

    #[test]
    fn default_layout_is_declared_order() {
        let (repo, _, kid) = hierarchy();
        let mut ct = ClassTable::new(&repo);
        let obj = ct.instantiate(&repo, kid);
        assert_eq!(
            obj.slots,
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)]
        );
        let rc = ct.resolve(&repo, kid);
        assert_eq!(rc.layout.logical_to_physical, vec![0, 1, 2, 3]);
    }

    #[test]
    fn installed_order_permutes_own_layer_only() {
        let (repo, _, kid) = hierarchy();
        let mut ct = ClassTable::new(&repo);
        let c = repo.str_id("c").unwrap();
        let d = repo.str_id("d").unwrap();
        // Hotter property `d` first within Kid's layer.
        ct.install_prop_order(kid, vec![d, c]);
        let obj = ct.instantiate(&repo, kid);
        // Base layer (a, b) keeps slots 0-1; Kid's layer is permuted.
        assert_eq!(
            obj.slots,
            vec![Value::Int(1), Value::Int(2), Value::Int(4), Value::Int(3)]
        );
        let rc = ct.resolve(&repo, kid);
        // Logical order unchanged: a, b, c, d — c maps to slot 3 now.
        assert_eq!(rc.layout.logical_to_physical, vec![0, 1, 3, 2]);
    }

    #[test]
    fn install_after_resolution_is_ignored() {
        let (repo, _, kid) = hierarchy();
        let mut ct = ClassTable::new(&repo);
        let _ = ct.instantiate(&repo, kid);
        let c = repo.str_id("c").unwrap();
        let d = repo.str_id("d").unwrap();
        ct.install_prop_order(kid, vec![d, c]);
        let obj = ct.instantiate(&repo, kid);
        assert_eq!(
            obj.slots[2],
            Value::Int(3),
            "layout must not change once resolved"
        );
    }

    #[test]
    fn partial_order_keeps_unlisted_props() {
        let (repo, _, kid) = hierarchy();
        let mut ct = ClassTable::new(&repo);
        let d = repo.str_id("d").unwrap();
        ct.install_prop_order(kid, vec![d]);
        let rc = ct.resolve(&repo, kid).clone();
        let c = repo.str_id("c").unwrap();
        assert_eq!(rc.layout.slot_by_name[&d], 2);
        assert_eq!(rc.layout.slot_by_name[&c], 3);
    }

    #[test]
    fn methods_inherit_and_override() {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("t.hl");
        let base = b.declare_class(u, "Base", None, vec![]);
        let kid = b.declare_class(u, "Kid", Some(base), vec![]);
        let mut m = bytecode::FuncBuilder::new("Base::f", 0);
        m.emit(bytecode::Instr::Int(1));
        m.emit(bytecode::Instr::Ret);
        let base_f = b.define_method(u, base, m);
        let mut m2 = bytecode::FuncBuilder::new("Base::g", 0);
        m2.emit(bytecode::Instr::Int(2));
        m2.emit(bytecode::Instr::Ret);
        let base_g = b.define_method(u, base, m2);
        let mut m3 = bytecode::FuncBuilder::new("Kid::f", 0);
        m3.emit(bytecode::Instr::Int(3));
        m3.emit(bytecode::Instr::Ret);
        let kid_f = b.define_method(u, kid, m3);
        let repo = b.finish();
        let mut ct = ClassTable::new(&repo);
        let rc = ct.resolve(&repo, kid);
        let f = repo.str_id("f").unwrap();
        let g = repo.str_id("g").unwrap();
        assert_eq!(rc.methods[&f], kid_f);
        assert_eq!(rc.methods[&g], base_g);
        assert_ne!(rc.methods[&f], base_f);
    }
}
