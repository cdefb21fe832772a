//! Application source generation.

use bytecode::{FuncId, Repo};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generator parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppParams {
    /// RNG seed; the same seed generates the same application.
    pub seed: u64,
    /// Number of endpoint (entry) functions.
    pub endpoints: usize,
    /// Helper functions per level (levels call downward only, bounding
    /// call depth).
    pub helpers_per_level: [usize; 3],
    /// Number of classes (every second class subclasses the previous one).
    pub classes: usize,
    /// Properties per class layer.
    pub props_per_class: usize,
    /// Semantic partitions (the paper's fleet uses 10).
    pub partitions: usize,
    /// Zipf skew of endpoint popularity (lower = flatter profile).
    pub zipf_s: f64,
}

impl AppParams {
    /// A small app for unit tests (compiles in milliseconds).
    pub fn tiny() -> Self {
        Self {
            seed: 7,
            endpoints: 12,
            helpers_per_level: [10, 10, 8],
            classes: 6,
            props_per_class: 8,
            partitions: 4,
            zipf_s: 0.8,
        }
    }

    /// The default benchmark-scale app (hundreds of functions).
    pub fn bench() -> Self {
        Self {
            seed: 42,
            endpoints: 120,
            helpers_per_level: [260, 340, 260],
            classes: 64,
            props_per_class: 12,
            partitions: 10,
            zipf_s: 0.8,
        }
    }
}

impl Default for AppParams {
    fn default() -> Self {
        Self::bench()
    }
}

/// One web endpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Endpoint {
    /// The entry function.
    pub func: FuncId,
    /// Semantic partition the endpoint belongs to.
    pub partition: usize,
    /// Relative popularity (Zipf mass, normalized later by the mix).
    pub popularity: f64,
}

/// A generated application.
#[derive(Debug)]
pub struct App {
    /// The compiled bytecode repo.
    pub repo: Repo,
    /// Endpoints, indexed by endpoint id.
    pub endpoints: Vec<Endpoint>,
    /// Number of semantic partitions.
    pub partitions: usize,
    /// Parameters used to generate the app.
    pub params: AppParams,
}

/// Number of small "mode helper" functions. They branch on their argument
/// and are called with *constant* arguments from many sites, so their
/// per-site behavior diverges sharply from their average — the divergence
/// that tier-1 profiles cannot see and §V-A's instrumented optimized code
/// recovers.
const MODE_HELPERS: usize = 16;

/// Generates and compiles an application.
///
/// # Panics
///
/// Panics if the generated source fails to compile — that would be a bug
/// in the generator, not user error.
pub fn generate(params: &AppParams) -> App {
    let files = build_sources(params);
    compile_sources(params, &files)
}

/// Generates the application's source files without compiling them.
/// Deterministic in `params.seed`. The churn model
/// ([`crate::churn_sources`]) edits these sources to simulate a new release
/// before [`compile_sources`] turns them into a repo.
pub fn build_sources(params: &AppParams) -> Vec<(String, String)> {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut files: Vec<(String, String)> = Vec::new();

    // ---- classes, one unit per handful --------------------------------
    let mut class_src = String::new();
    for k in 0..params.classes {
        let parent = if k % 2 == 1 { Some(k - 1) } else { None };
        let own_props = params.props_per_class;
        let mut s = match parent {
            Some(p) => format!("class C{k} extends C{p} {{\n"),
            None => format!("class C{k} {{\n"),
        };
        for j in 0..own_props {
            s.push_str(&format!("  public $p{k}_{j} = {};\n", j));
        }
        // For a third of the classes the hot properties were appended late
        // (pessimal declared order — the case §V-C's reordering fixes);
        // the rest already declare them first, like most hand-tuned code.
        let (hot, _) = hot_props_for(own_props, k);
        s.push_str(&format!(
            "  function m{k}($x) {{ return $x + $this->p{k}_{hot} * 2; }}\n"
        ));
        s.push_str("}\n");
        class_src.push_str(&s);
        if k % 8 == 7 || k + 1 == params.classes {
            files.push((
                format!("classes_{}.hl", files.len()),
                std::mem::take(&mut class_src),
            ));
        }
    }

    // ---- mode helpers ---------------------------------------------------
    {
        let mut src = String::new();
        for m in 0..MODE_HELPERS {
            src.push_str(&format!(
                r#"function mode_{m}($f) {{
  if ($f > 0) {{
    $t = $f * 3 + {m};
    $t = $t + $f % 7;
    $t = $t * 2 - {m};
    $t = $t + ($t & 1023);
    $t = $t - ($t >> 3);
    return $t + $f;
  }}
  $u = {m} - 1;
  $u = $u * 2 + 5;
  $u = $u + ($u % 11);
  $u = $u * 3 - 4;
  $u = $u + ($u >> 2);
  return $u - {m};
}}
"#
            ));
        }
        files.push(("modes.hl".to_string(), src));
    }

    // ---- leveled helpers ----------------------------------------------
    // Level L-1 are leaves; level l calls into level l+1.
    let levels = params.helpers_per_level.len();
    for l in (0..levels).rev() {
        let count = params.helpers_per_level[l];
        let mut unit_src = String::new();
        let mut emitted = 0usize;
        for i in 0..count {
            let body = if l + 1 == levels {
                gen_leaf(params, &mut rng, l, i)
            } else {
                gen_helper(params, &mut rng, l, i)
            };
            unit_src.push_str(&body);
            emitted += 1;
            // ~6 functions per unit: many small files, like a real code base.
            if emitted.is_multiple_of(6) || i + 1 == count {
                files.push((
                    format!("mod{l}_{}.hl", files.len()),
                    std::mem::take(&mut unit_src),
                ));
            }
        }
    }

    // ---- endpoints ------------------------------------------------------
    let mut unit_src = String::new();
    for e in 0..params.endpoints {
        let partition = e % params.partitions;
        unit_src.push_str(&gen_endpoint(params, &mut rng, e, partition));
        if e % 4 == 3 || e + 1 == params.endpoints {
            files.push((
                format!("ep_{}.hl", files.len()),
                std::mem::take(&mut unit_src),
            ));
        }
    }

    files
}

/// Compiles a source file set (possibly churned) into an [`App`].
/// Endpoint functions are located by name (`ep_{e}`) — the churn model
/// never renames or deletes them, so every release serves the same
/// endpoint set.
///
/// # Panics
///
/// Panics if the sources fail to compile or an endpoint is missing.
pub fn compile_sources(params: &AppParams, files: &[(String, String)]) -> App {
    let refs: Vec<(&str, &str)> = files
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let repo = hackc::compile_program(&refs).expect("generated app compiles");

    // Zipf popularity over endpoints; long tail (paper: flat profile).
    let endpoints = (0..params.endpoints)
        .map(|e| {
            let func = repo
                .func_by_name(&format!("ep_{e}"))
                .expect("endpoint exists")
                .id;
            let popularity = 1.0 / ((e + 1) as f64).powf(params.zipf_s);
            Endpoint {
                func,
                partition: e % params.partitions,
                popularity,
            }
        })
        .collect();

    App {
        repo,
        endpoints,
        partitions: params.partitions,
        params: *params,
    }
}

/// The (hot, warm) property indices of class `k`'s own layer.
fn hot_props_for(own_props: usize, k: usize) -> (usize, usize) {
    if k.is_multiple_of(3) {
        (own_props - 1, own_props - 2)
    } else {
        (0, 1)
    }
}

fn hot_props(params: &AppParams, k: usize) -> (usize, usize) {
    hot_props_for(params.props_per_class, k)
}

/// A mid-level helper: loops, an argument-dependent branch + call, a
/// constant-argument call (per-site divergence), object traffic, and a
/// cold error path.
fn gen_helper(params: &AppParams, rng: &mut SmallRng, level: usize, i: usize) -> String {
    let next_count = params.helpers_per_level[level + 1];
    let t1 = rng.gen_range(0..next_count);
    let t2 = rng.gen_range(0..next_count);
    let iters = rng.gen_range(3..9);
    let a = rng.gen_range(1..5);
    let m = rng.gen_range(2..5);
    let c = rng.gen_range(0..m);
    let konst = rng.gen_range(0..2) * 7; // 0 or 7: constant per call site
    let k = rng.gen_range(0..params.classes);
    let (hot_a, hot_b) = hot_props(params, k);
    let mode = rng.gen_range(0..MODE_HELPERS);
    let mode2 = rng.gen_range(0..MODE_HELPERS);
    // Per-site constants: each site *always* takes one arm of its mode
    // helpers, while other sites take the other.
    let mode_arg = if rng.gen_range(0..2) == 0 { 1 } else { 0 };
    let mode_arg2 = if rng.gen_range(0..2) == 0 { 1 } else { 0 };
    let nl = level + 1;
    format!(
        r#"function f{level}_{i}($x) {{
  $s = 0;
  for ($j = 0; $j < {iters}; $j++) {{ $s = $s + $j * {a} + $x; }}
  if ($x % {m} == {c}) {{ $s = $s + f{nl}_{t1}($x + 1); }} else {{ $s = $s - 1; }}
  $s = $s + f{nl}_{t2}({konst}) + mode_{mode}({mode_arg}) + mode_{mode2}({mode_arg2});
  if ($x % 6 == 0) {{
    $o = new C{k}();
    $o->p{k}_{hot_a} = $s;
    $s = $s + $o->p{k}_{hot_b} + $o->m{k}($x);
  }}
  if ($x > 990) {{ $s = $s + strlen("rare slow path for f{level}_{i}: " . $x); }}
  return $s;
}}
"#
    )
}

/// A leaf: pure computation with data-dependent branching, no calls.
fn gen_leaf(params: &AppParams, rng: &mut SmallRng, level: usize, i: usize) -> String {
    let iters = rng.gen_range(4..12);
    let m = rng.gen_range(2..6);
    let k = rng.gen_range(0..params.classes);
    let (hot, _) = hot_props(params, k);
    let mode = rng.gen_range(0..MODE_HELPERS);
    let mode_arg = if rng.gen_range(0..2) == 0 { 1 } else { 0 };
    format!(
        r#"function f{level}_{i}($x) {{
  $s = $x;
  for ($j = 0; $j < {iters}; $j++) {{
    if ($j % {m} == 0) {{ $s = $s + $j; }} else {{ $s = $s * 2 % 100003; }}
  }}
  $s = $s + mode_{mode}({mode_arg});
  if ($x % 6 == 1) {{
    $o = new C{k}();
    $s = $s + $o->p{k}_{hot};
  }}
  if ($x > 995) {{ $s = $s + strlen("leaf f{level}_{i} overflow " . $s); }}
  return $s;
}}
"#
    )
}

/// An endpoint: fans out into level-0 helpers, preferring its own
/// partition's module range (semantic locality, §II-C).
fn gen_endpoint(params: &AppParams, rng: &mut SmallRng, e: usize, partition: usize) -> String {
    let l0 = params.helpers_per_level[0];
    let per_part = (l0 / params.partitions).max(1);
    let base = (partition * per_part) % l0;
    let own = |rng: &mut SmallRng| base + rng.gen_range(0..per_part.min(l0 - base));
    let h1 = own(rng);
    let h2 = own(rng);
    // 1-in-5 calls escape the partition (overflow routing).
    let h3 = if rng.gen_range(0..5) == 0 {
        rng.gen_range(0..l0)
    } else {
        own(rng)
    };
    format!(
        r#"function ep_{e}($x) {{
  $s = f0_{h1}($x) + f0_{h2}($x + 2) + f0_{h3}(3);
  if ($s % 2 == 0) {{ $s = $s + 1; }}
  return $s;
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm::{Value, Vm};

    #[test]
    fn tiny_app_generates_and_verifies() {
        let app = generate(&AppParams::tiny());
        bytecode::verify_repo(&app.repo).expect("generated bytecode verifies");
        assert_eq!(app.endpoints.len(), 12);
        assert!(app.repo.funcs().len() > 30);
        assert!(app.repo.units().len() > 5);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&AppParams::tiny());
        let b = generate(&AppParams::tiny());
        assert_eq!(a.repo.funcs().len(), b.repo.funcs().len());
        assert_eq!(a.repo.total_bytecode_bytes(), b.repo.total_bytecode_bytes());
    }

    #[test]
    fn endpoints_execute_without_errors() {
        let app = generate(&AppParams::tiny());
        let mut vm = Vm::new(&app.repo);
        for ep in &app.endpoints {
            for arg in [0i64, 3, 500, 999] {
                vm.call(ep.func, &[Value::Int(arg)])
                    .unwrap_or_else(|e| panic!("ep {:?} arg {arg}: {e}", ep.func));
            }
        }
    }

    #[test]
    fn popularity_is_zipf_decreasing() {
        let app = generate(&AppParams::tiny());
        for w in app.endpoints.windows(2) {
            assert!(w[0].popularity >= w[1].popularity);
        }
    }

    #[test]
    fn partitions_cycle_over_endpoints() {
        let app = generate(&AppParams::tiny());
        assert_eq!(app.endpoints[0].partition, 0);
        assert_eq!(app.endpoints[1].partition, 1);
        assert_eq!(app.endpoints[4].partition, 0);
    }

    #[test]
    fn classes_have_inheritance() {
        let app = generate(&AppParams::tiny());
        let c1 = app.repo.class_by_name("C1").expect("C1 exists");
        assert!(
            c1.parent.is_some(),
            "odd classes subclass their predecessor"
        );
        let c0 = app.repo.class_by_name("C0").unwrap();
        assert!(c0.parent.is_none());
    }
}
