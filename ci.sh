#!/usr/bin/env bash
# Local CI: everything a change must pass before it lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== doc (dangling or private intra-doc links fail the build) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --exclude jsbench --no-deps -q

echo "== build =="
cargo build --workspace -q

echo "== test (tier-1: root package) =="
cargo test -q

echo "== test (workspace; the root package ran above) =="
cargo test --workspace --exclude hhvm-jumpstart-repro -q

echo "== test (layout, release: the bit-for-bit Ext-TSP proptests on the optimized build that ships) =="
cargo test -p layout --release -q

echo "== jslint self-check =="
cargo run -q -p bench --bin jslint -- --demo

echo "== jsboot smoke (boot determinism, compile-throughput floor, decode timing) =="
cargo run -q -p bench --bin jsboot --release -- --check --trace TRACE_boot.json

echo "== trace schema gate (well-formed JSON, matched B/E, monotonic per-track timestamps) =="
cargo run -q -p bench --bin jstrace --release -- TRACE_boot.json --validate
rm -f TRACE_boot.json

echo "== boot baseline decode gate (BENCH_boot.json must time the decode) =="
if [ -f BENCH_boot.json ]; then
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_boot.json"))
lo = doc["layout_options"]
assert "hugepage_pack" in lo and "global_hotcold" in lo, f"boot rows missing the active layout plan: {lo}"
rows = doc["thread_sweep"] + doc["early_serve_sweep"]
assert rows, "no boot rows in BENCH_boot.json"
for row in rows:
    assert row["decode_ns"] > 0, f"boot row has decode_ns == 0: {row}"
for row in doc["early_serve_sweep"]:
    assert row["early_serve"] is not None, f"early-serve row missing crossing: {row}"
print(f"decode gate ok: {len(rows)} boot rows, all decode_ns > 0")
EOF
fi

echo "== jslayout smoke (global layout: kill-switch bump placement, iTLB no-regression, reproducible plans) =="
cargo run -q -p bench --bin jslayout --release -- --check

echo "== layout baseline gate (BENCH_layout.json: full stack beats C3-only on iTLB, IPC >= baseline, reproducible) =="
if [ -f BENCH_layout.json ]; then
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_layout.json"))
assert doc["lab"] == "bench", f"committed BENCH_layout.json must be bench-scale, got {doc['lab']}"
assert doc["reproducible"] is True, "layout plans were not byte-identical across two boots"
rows = {r["name"]: r for r in doc["ablations"]}
base, c3, full = rows["baseline"], rows["c3"], rows["c3+hotcold+hugepages"]
assert full["itlb_miss_rate"] < c3["itlb_miss_rate"], \
    f"full stack must strictly cut the iTLB miss rate vs C3-only: {full['itlb_miss_rate']:.4%} vs {c3['itlb_miss_rate']:.4%}"
assert full["itlb_miss_rate"] <= base["itlb_miss_rate"], \
    f"full stack iTLB miss rate above baseline: {full['itlb_miss_rate']:.4%} vs {base['itlb_miss_rate']:.4%}"
assert full["ipc"] >= base["ipc"], f"full stack IPC {full['ipc']} fell below baseline {base['ipc']}"
assert full["huge_pages"] >= 1, "full-stack hot text occupies no huge pages"
retired = {r["instructions"] for r in doc["ablations"]}
assert len(retired) == 1, f"layout moves cycles, never instructions: ablations retire {sorted(retired)}"
for name in ("baseline", "c3"):
    r = rows[name]
    assert r["pad_bytes"] == 0 and r["stub_bytes"] == 0 and r["cold_region_used"] == 0, \
        f"kill-switch row {name} is not plain bump placement: {r}"
print(f"layout gate ok: iTLB {full['itlb_miss_rate']:.4%} < c3 {c3['itlb_miss_rate']:.4%} "
      f"(baseline {base['itlb_miss_rate']:.4%}), IPC {full['ipc']} >= {base['ipc']}, "
      f"{full['huge_pages']} huge page(s), plans reproducible")
EOF
fi

echo "== jsstale smoke (stale repair: no-op at churn 0, flow-clean repairs, recovery floor + committed baseline) =="
cargo run -q -p bench --bin jsstale --release -- --check

echo "== stale baseline gate (bench recovery at churn 0.1 must hold the floor) =="
if [ -f BENCH_stale.json ]; then
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_stale.json"))
bench = doc["sections"]["bench"]
row = next(r for r in bench["sweep"] if r["rate"] == 0.1)
full = next(m for m in row["modes"] if m["mode"] == "full")
drop = next(m for m in row["modes"] if m["mode"] == "drop")
assert full["recovered"] >= 0.8, f"full matcher recovered {full['recovered']:.1%} at churn 0.1 (< 80% floor)"
assert full["recovered"] >= drop["recovered"], "full matcher must beat the drop baseline"
assert full["flow_clean"], "full repair left flow-conservation errors"
assert bench["uarch"], "no steady-state replay rows in the bench section"
print(f"stale gate ok: {full['recovered']:.1%} recovered at churn 0.1 (drop baseline {drop['recovered']:.1%})")
EOF
fi

echo "== jsstore smoke (chunk store: byte-identical round-trips, delta ceiling, lazy decode, shard-invariant plan) =="
cargo run -q -p bench --bin jsstore --release -- --check

echo "== store baseline gate (BENCH_store.json: delta wire ceiling, dedup floor, lazy decode ceiling) =="
if [ -f BENCH_store.json ]; then
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_store.json"))
assert doc["roundtrip_ok"], "a chunked round-trip was not byte-identical"
wire = doc["wire_ratio_at_0p1"]
assert wire <= 0.40, f"churn-0.1 delta shipped {wire:.1%} of full-package bytes (ceiling 40%)"
assert doc["dedup_ratio_at_0p1"] >= 0.60, f"dedup ratio {doc['dedup_ratio_at_0p1']:.1%} under the 60% floor"
lazy = doc["lazy"]
assert lazy["layout_match"], "lazy boot diverged from the monolithic code layout"
assert lazy["before_serve_frac"] < 0.50, \
    f"frac={lazy['early_serve_frac']} boot decoded {lazy['before_serve_frac']:.1%} pre-serve (ceiling 50%)"
assert lazy["cold_chunks"] > 0, "no cold tail left to defer"
fleet = doc["fleet"]
assert fleet["bytes_on_wire"] < fleet["bytes_full"], "fleet distribution sent full packages"
print(f"store gate ok: churn-0.1 wire {wire:.1%} <= 40%, dedup {doc['dedup_ratio_at_0p1']:.1%}, "
      f"lazy pre-serve {lazy['before_serve_frac']:.1%} < 50%, fleet wire {fleet['wire_ratio']:.1%}")
EOF
fi

echo "== jsbench smoke (every op of consume_bytes (boot-fresh, boot-stale) / consume_chunked (push-lazy) must hit its 1-thread consume reference digest, every steady-replay boot its reference layout, every 11000-server N-shard deployment its 1-shard one) =="
for workload in boot-fresh boot-stale push-lazy fleet-push steady-replay; do
  cargo run -q --release -p jsbench -- --workload "$workload" --seed 42 --seconds 1 --trace 0 >/dev/null
done
if cargo run -q --release -p jsbench -- --workload boot-stale --seed 42 --seconds 1 --trace 0 --flip-reference >/dev/null 2>&1; then
  echo "jsbench --flip-reference exited 0: the digest gate is not checking anything" >&2
  exit 1
fi

echo "== jsfleet smoke (sharded fleet: shard-invariant digest, fault placement, loss reduction) =="
cargo run -q -p bench --bin jsfleet --release -- --check

echo "== fleet baseline gate (BENCH_fleet.json: paper scale, throughput floor, boot tail, loss band) =="
if [ -f BENCH_fleet.json ]; then
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_fleet.json"))
assert doc["cores"] >= 1, "host core count must be recorded"
assert doc["servers"] >= 2000, f"paper scale needs >= 2000 servers, got {doc['servers']}"
assert doc["regions"] * doc["buckets"] >= 10, "paper scale needs >= 10 partitions"
assert doc["total_requests"] >= 1_000_000, f"needs >= 1M simulated requests, got {doc['total_requests']}"
assert doc["wall_ms"] < 30_000, f"fleet run must finish under 30 s wall, took {doc['wall_ms']} ms"
assert doc["events_per_sec"] >= 5_000, f"event-core throughput floor: {doc['events_per_sec']} events/sec"
assert doc["steps_executed"] * 2 < doc["steps_dense"], "event core must skip most dense steps"
boot = doc["boot_ms"]
assert boot["n"] >= 2000 and 0 < boot["p50"] <= boot["p95"] <= boot["p99"], f"boot percentiles: {boot}"
loss = doc["capacity_loss"]
assert 0.0 < loss["mean"] < 1.0, f"capacity loss out of band: {loss}"
assert 10.0 < doc["capacity_loss_reduction_pct"] <= 100.0, \
    f"loss reduction out of band: {doc['capacity_loss_reduction_pct']}%"
wc = doc["warmup_classes"]
assert sum(wc["js"].values()) == doc["consumers"], f"js class counts must cover every consumer: {wc['js']}"
assert sum(wc["nojs"].values()) == doc["baselines"], f"nojs class counts must cover every baseline: {wc['nojs']}"
assert wc["js"]["slowdown"] == 0, f"a fault-free-ish js consumer classified slowdown: {wc['js']}"
print(f"fleet gate ok: {doc['servers']} servers, {doc['events_per_sec']:.0f} events/sec "
      f"on {doc['cores']} core(s), p99 boot {boot['p99']:.0f} ms, "
      f"reduction {doc['capacity_loss_reduction_pct']:.1f}%, "
      f"js classes {wc['js']['warmup']}/{sum(wc['js'].values())} warmup")
EOF
fi

echo "== jswarmup smoke (classifier: shard-invariant report, js beats no-js TTSS, degrading victims flagged) =="
cargo run -q -p bench --bin jswarmup --release -- --check --trace TRACE_warmup.json

echo "== warmup trace gate (jstrace --warmup: timelines rebuilt from counters classify cleanly) =="
cargo run -q -p bench --bin jstrace --release -- TRACE_warmup.json --warmup --validate
rm -f TRACE_warmup.json

echo "== warmup baseline gate (BENCH_warmup.json: >=95% js warmup, 0 slowdown, ttss p50 js < no-js, reproducible) =="
if [ -f BENCH_warmup.json ]; then
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_warmup.json"))
assert doc["reproducible"] is True, "WarmupReport was not byte-identical across runs/shard counts"
js, nojs = doc["clean"]["js"], doc["clean"]["nojs"]
total = sum(js["classes"].values())
frac = js["classes"]["warmup"] / total
assert frac >= 0.95, f"fault-free js arm warmup fraction {frac:.1%} under the 95% floor"
assert js["classes"]["slowdown"] == 0, f"fault-free js arm classified slowdown: {js['classes']}"
p50_js, p50_nojs = js["ttss_p50"]["value"], nojs["ttss_p50"]["value"]
assert p50_js < p50_nojs, f"js ttss p50 {p50_js} not strictly below no-js {p50_nojs}"
assert js["ttss_p50"]["lo"] <= p50_js <= js["ttss_p50"]["hi"], f"js p50 outside its own CI: {js['ttss_p50']}"
assert nojs["ttss_p50"]["lo"] <= p50_nojs <= nojs["ttss_p50"]["hi"], f"nojs p50 outside its own CI: {nojs['ttss_p50']}"
assert js["median_curve"], "median fleet warmup curve missing"
assert doc["degrading_victims"] > 0, "faulted arm placed no degrading hosts"
assert doc["victims_settled"] == 0, f"{doc['victims_settled']} degrading victims classified as settled"
print(f"warmup gate ok: js {frac:.1%} warmup, ttss p50 {p50_js:.0f} < {p50_nojs:.0f} ms (no-js), "
      f"{doc['degrading_victims']} degrading victims all flagged, report reproducible")
EOF
fi

echo "CI OK"
