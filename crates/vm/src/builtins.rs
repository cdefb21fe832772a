//! Runtime builtins (the stand-in for HHVM extensions).

use bytecode::{Builtin, Repo};

use crate::error::VmError;
use crate::value::{DictKey, Value};

/// Executes a builtin over its popped arguments (`args[0]` is the first
/// argument). `output` is the request output buffer (`print` appends).
pub(crate) fn call_builtin(
    repo: &Repo,
    builtin: Builtin,
    args: &[Value],
    output: &mut String,
) -> Result<Value, VmError> {
    debug_assert_eq!(args.len(), builtin.arity());
    let _ = repo;
    match builtin {
        Builtin::Print => {
            output.push_str(&args[0].coerce_to_string());
            Ok(Value::Null)
        }
        Builtin::Strlen => match &args[0] {
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            other => Err(type_err("strlen", other)),
        },
        Builtin::Count => match &args[0] {
            Value::Vec(v) => Ok(Value::Int(v.borrow().len() as i64)),
            Value::Dict(d) => Ok(Value::Int(d.borrow().len() as i64)),
            other => Err(type_err("count", other)),
        },
        Builtin::Keys => match &args[0] {
            Value::Vec(v) => Ok(Value::vec(
                (0..v.borrow().len())
                    .map(|i| Value::Int(i as i64))
                    .collect(),
            )),
            Value::Dict(d) => Ok(Value::vec(
                d.borrow()
                    .iter()
                    .map(|(k, _)| match k {
                        DictKey::Int(i) => Value::Int(*i),
                        DictKey::Str(s) => Value::Str(s.clone()),
                    })
                    .collect(),
            )),
            other => Err(type_err("keys", other)),
        },
        Builtin::Abs => match &args[0] {
            Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(type_err("abs", other)),
        },
        Builtin::Min | Builtin::Max => {
            let (a, b) = (&args[0], &args[1]);
            let ord = a.loose_cmp(b).ok_or_else(|| type_err(builtin.name(), a))?;
            let pick_a = match builtin {
                Builtin::Min => ord != std::cmp::Ordering::Greater,
                _ => ord != std::cmp::Ordering::Less,
            };
            Ok(if pick_a { a.clone() } else { b.clone() })
        }
        Builtin::ToStr => Ok(Value::str(&args[0].coerce_to_string())),
        Builtin::ToInt => Ok(Value::Int(args[0].coerce_to_int())),
        Builtin::IsInt => Ok(Value::Bool(matches!(args[0], Value::Int(_)))),
        Builtin::IsStr => Ok(Value::Bool(matches!(args[0], Value::Str(_)))),
        Builtin::IsNull => Ok(Value::Bool(matches!(args[0], Value::Null))),
        Builtin::Substr => match (&args[0], &args[1], &args[2]) {
            (Value::Str(s), Value::Int(start), Value::Int(len)) => {
                let start = (*start).clamp(0, s.len() as i64) as usize;
                let end = (start + (*len).max(0) as usize).min(s.len());
                // Byte slicing; generated workloads stay ASCII.
                let sub = s.get(start..end).unwrap_or("");
                Ok(Value::str(sub))
            }
            _ => Err(type_err("substr", &args[0])),
        },
        Builtin::Push => match &args[0] {
            Value::Vec(v) => {
                v.borrow_mut().push(args[1].clone());
                Ok(args[0].clone())
            }
            other => Err(type_err("push", other)),
        },
        Builtin::IdxOr => {
            let key = args[1].as_dict_key();
            match (&args[0], key) {
                (Value::Vec(v), Some(DictKey::Int(i))) => {
                    let v = v.borrow();
                    Ok(if i >= 0 && (i as usize) < v.len() {
                        v[i as usize].clone()
                    } else {
                        args[2].clone()
                    })
                }
                (Value::Dict(d), Some(k)) => Ok(d
                    .borrow()
                    .iter()
                    .find(|(dk, _)| *dk == k)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(|| args[2].clone())),
                _ => Ok(args[2].clone()),
            }
        }
        Builtin::ClassName => match &args[0] {
            Value::Obj(o) => {
                let class = o.borrow().class;
                Ok(Value::str(repo.str(repo.class(class).name)))
            }
            other => Err(type_err("class_name", other)),
        },
        Builtin::HashVal => {
            let h = match &args[0] {
                Value::Int(i) => fnv1a(&i.to_le_bytes()),
                Value::Str(s) => fnv1a(s.as_bytes()),
                Value::Bool(b) => *b as u64,
                Value::Null => 0,
                Value::Float(f) => fnv1a(&f.to_le_bytes()),
                other => return Err(type_err("hash", other)),
            };
            Ok(Value::Int((h & 0x7fff_ffff_ffff_ffff) as i64))
        }
    }
}

fn type_err(name: &str, got: &Value) -> VmError {
    VmError::TypeError {
        func: bytecode::FuncId::new(u32::MAX),
        at: 0,
        detail: format!("{name} on {}", got.type_name()),
    }
}

/// FNV-1a ([`bytecode::Fnv`]), the deterministic hash used by `hash()`
/// and profile keys.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = bytecode::Fnv::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecode::RepoBuilder;

    fn repo() -> Repo {
        RepoBuilder::new().finish()
    }

    fn call(b: Builtin, args: &[Value]) -> Result<Value, VmError> {
        let mut out = String::new();
        call_builtin(&repo(), b, args, &mut out)
    }

    #[test]
    fn print_appends_to_output() {
        let mut out = String::new();
        call_builtin(&repo(), Builtin::Print, &[Value::Int(7)], &mut out).unwrap();
        call_builtin(&repo(), Builtin::Print, &[Value::str("!")], &mut out).unwrap();
        assert_eq!(out, "7!");
    }

    #[test]
    fn strlen_count_keys() {
        assert_eq!(
            call(Builtin::Strlen, &[Value::str("abc")]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            call(Builtin::Count, &[Value::vec(vec![Value::Null; 4])]).unwrap(),
            Value::Int(4)
        );
        let d = Value::dict(vec![(DictKey::Str("k".into()), Value::Int(1))]);
        assert_eq!(
            call(Builtin::Keys, &[d]).unwrap(),
            Value::vec(vec![Value::str("k")])
        );
        assert!(call(Builtin::Strlen, &[Value::Int(1)]).is_err());
    }

    #[test]
    fn min_max_and_abs() {
        assert_eq!(
            call(Builtin::Min, &[Value::Int(3), Value::Int(5)]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            call(Builtin::Max, &[Value::Float(1.5), Value::Int(1)]).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            call(Builtin::Abs, &[Value::Int(-9)]).unwrap(),
            Value::Int(9)
        );
    }

    #[test]
    fn substr_clamps() {
        assert_eq!(
            call(
                Builtin::Substr,
                &[Value::str("hello"), Value::Int(1), Value::Int(3)]
            )
            .unwrap(),
            Value::str("ell")
        );
        assert_eq!(
            call(
                Builtin::Substr,
                &[Value::str("hi"), Value::Int(5), Value::Int(3)]
            )
            .unwrap(),
            Value::str("")
        );
    }

    #[test]
    fn idx_or_defaults() {
        let v = Value::vec(vec![Value::Int(10)]);
        assert_eq!(
            call(Builtin::IdxOr, &[v.clone(), Value::Int(0), Value::Int(-1)]).unwrap(),
            Value::Int(10)
        );
        assert_eq!(
            call(Builtin::IdxOr, &[v, Value::Int(3), Value::Int(-1)]).unwrap(),
            Value::Int(-1)
        );
    }

    #[test]
    fn hash_is_deterministic() {
        let a = call(Builtin::HashVal, &[Value::str("x")]).unwrap();
        let b = call(Builtin::HashVal, &[Value::str("x")]).unwrap();
        assert_eq!(a, b);
        let c = call(Builtin::HashVal, &[Value::str("y")]).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn push_mutates_shared_vec() {
        let v = Value::vec(vec![]);
        call(Builtin::Push, &[v.clone(), Value::Int(1)]).unwrap();
        assert_eq!(v, Value::vec(vec![Value::Int(1)]));
    }
}
