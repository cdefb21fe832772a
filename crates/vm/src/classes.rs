//! Runtime class resolution and property layout.
//!
//! HHVM objects store properties in physical slots; the declared order is
//! observable at the language level, so the property-reordering optimization
//! (paper §V-C) is free to permute the physical slots of each layer of the
//! class hierarchy. The layers themselves are fixed for the release: the
//! ancestry, each layer's properties and defaults, and the method table are
//! the repo's [`bytecode::ClassFacts`]. What stays per table is the
//! physical order: a [`PropLayout`] per class, built from the permutations
//! the Jump-Start consumer installs
//! ([`ClassTable::install_prop_orders`]) before any object is created.

use std::collections::HashMap;

use bytecode::{ClassId, Literal, Repo, StrId};

use crate::value::{Object, Value};

/// Physical property layout of one class, inherited layers included.
///
/// The physical order is the parent's physical order followed by the
/// class's own layer in its installed order; names the order leaves out
/// follow in declared order.
#[derive(Clone, Debug, Default)]
pub struct PropLayout {
    /// The logical slot ([`bytecode::ClassFacts::slots`] index) held in
    /// each physical slot.
    pub physical: Vec<usize>,
    /// Default values in *physical* slot order.
    pub physical_defaults: Vec<Literal>,
    /// Physical slot by property name. A property redeclared by a subclass
    /// resolves to the most derived layer's slot.
    pub slot_by_name: HashMap<StrId, usize>,
}

/// A resolved runtime class: its physical property layout. The method
/// table is the release's ([`bytecode::ClassFacts::methods`]).
#[derive(Clone, Debug)]
pub struct RuntimeClass {
    /// The class id.
    pub id: ClassId,
    /// Property layout (inherited + own).
    pub layout: PropLayout,
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
    /// order after the listed ones, and names that are not the class's own
    /// are ignored. Installing an order for an already-resolved class is
    /// ignored (objects may exist), matching the paper's "decided when the
    /// class is created inside the VM".
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
        let facts = repo.class_facts(class);
        let mut physical = match repo.class(class).parent {
            Some(p) => self.resolve(repo, p).layout.physical.clone(),
            None => Vec::new(),
        };
        // Own layer: the installed order's own names (a name the layer
        // declares twice stands for its first slot), then every name it
        // left out, in declared order.
        let own = facts.own_slots();
        match self.installed_orders.get(&class) {
            Some(order) => {
                let mut out: Vec<usize> = order
                    .iter()
                    .filter_map(|&n| own.iter().position(|s| s.name == n))
                    .collect();
                for (i, s) in own.iter().enumerate() {
                    if !out.iter().any(|&j| own[j].name == s.name) {
                        out.push(i);
                    }
                }
                physical.extend(out.into_iter().map(|i| facts.own.start + i));
            }
            None => physical.extend(facts.own.clone()),
        }
        let slot_by_name = physical
            .iter()
            .enumerate()
            .map(|(i, &l)| (facts.slots[l].name, i))
            .collect();
        let physical_defaults = physical.iter().map(|&l| facts.slots[l].default).collect();
        RuntimeClass {
            id: class,
            layout: PropLayout {
                physical,
                physical_defaults,
                slot_by_name,
            },
        }
    }

    /// Instantiates an object of `class` with default property values.
    pub fn instantiate(&mut self, repo: &Repo, class: ClassId) -> Object {
        let rc = self.resolve(repo, class);
        let slots = rc
            .layout
            .physical_defaults
            .iter()
            .map(|d| materialize_literal(repo, d))
            .collect();
        Object { class, slots }
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

#[inline]
fn materialize_literal(repo: &Repo, l: &Literal) -> Value {
    match *l {
        Literal::Null => Value::Null,
        Literal::Bool(b) => Value::Bool(b),
        Literal::Int(i) => Value::Int(i),
        Literal::Float(f) => Value::Float(f),
        Literal::Str(s) => Value::str(repo.str(s)),
        Literal::Arr(a) => materialize_lit_array(repo, a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecode::{RepoBuilder, Visibility};

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
        assert_eq!(rc.layout.physical, vec![0, 1, 2, 3]);
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
        // Logical order unchanged: a, b, c, d — slot 2 holds d now, slot 3 c.
        assert_eq!(rc.layout.physical, vec![0, 1, 3, 2]);
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
}
