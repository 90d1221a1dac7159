#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints, perf gate, and the
# thread-count determinism contract.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch BENCH_*.json files must not survive a failed gate: clean up the
# check artifacts on every exit path, success or failure. The serve smoke
# step fills in SERVE_PID/SERVE_SOCK; the trap also reaps that daemon if
# a later step (or the smoke itself) fails.
SERVE_PID=""
SERVE_SOCK=""
SERVE_LOG=""
ROUTER_PID=""
ROUTER_SOCK=""
ROUTER_LOG=""
cleanup() {
  rm -f BENCH_check.json BENCH_check-seq.json BENCH_check-par.json \
    BENCH_check_history.jsonl BENCH_check_hostprof.json
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -TERM "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  [ -n "$SERVE_SOCK" ] && rm -f "$SERVE_SOCK"
  [ -n "$SERVE_LOG" ] && rm -f "$SERVE_LOG"
  if [ -n "$ROUTER_PID" ] && kill -0 "$ROUTER_PID" 2>/dev/null; then
    kill -TERM "$ROUTER_PID" 2>/dev/null || true
    wait "$ROUTER_PID" 2>/dev/null || true
  fi
  if [ -n "$ROUTER_SOCK" ]; then
    rm -f "$ROUTER_SOCK"
    # worker scratch sockets are keyed by the router's pid
    [ -n "$ROUTER_PID" ] && rm -f /tmp/aurora-cluster-"$ROUTER_PID"-w*.sock
  fi
  [ -n "$ROUTER_LOG" ] && rm -f "$ROUTER_LOG"
}
trap cleanup EXIT

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo test --release (perfbench)"
# The benchmark is a workspace of its own that links the crates by path.
# Its tests regenerate the serve-mix base graph with aurora-graph, so
# they also exercise the graph generator the benchmark measures.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> shipped lines per crate (informational)"
# Lines above each source file's first #[cfg(test)], per crate; the
# count is reported for the change description and never gates.
./scripts/shipped_lines.sh || echo "note: shipped_lines.sh failed (informational)"

echo "==> perf_regress --check (vs BENCH_seed.json) + ledger record + wall gate"
# --record exercises the history ledger against a scratch file; the
# wall gate (exit 3) is informational in this gate — host wall time
# tracks the machine, only cycle regressions (exit 1) fail the check.
set +e
cargo run --release -q -p aurora-bench --bin perf_regress -- \
  --check --baseline BENCH_seed.json --name check \
  --record --history BENCH_check_history.jsonl --wall-gate 3.0
PERF_RC=$?
set -e
if [ "$PERF_RC" -eq 3 ]; then
  echo "note: wall-clock gate exceeded (informational here; cycles were clean)"
elif [ "$PERF_RC" -ne 0 ]; then
  exit "$PERF_RC"
fi

echo "==> perf_trend --check (scratch ledger + committed BENCH_history.jsonl)"
# Both ledgers must parse row-by-row with monotonic timestamps; the
# committed one also proves the recording format stays readable.
cargo run --release -q -p aurora-bench --bin perf_trend -- \
  --check --history BENCH_check_history.jsonl
cargo run --release -q -p aurora-bench --bin perf_trend -- \
  --check --history BENCH_history.jsonl

echo "==> host-profile coverage (>= 90%) and span overhead (<= 5%)"
./target/release/aurora_sim --dataset pubmed --model gcn --host-profile --json \
  > BENCH_check_hostprof.json 2>/dev/null
python3 - <<'EOF'
import json, sys

hp = json.load(open("BENCH_check_hostprof.json"))["host_profile"]
assert hp is not None, "--host-profile produced no host_profile in the report"
stages = {s["stage"]: s for s in hp["stages"]}
assert stages, "host profile recorded no stages"
# Top-level coverage mirrors HostProfile::coverage(): mapping runs
# nested inside tile_precompute and `other` is the catch-all, so
# neither counts toward the wall-time budget. Stage names serialize
# as CamelCase variant names ("Mapping"), hence the lower().
top = sum(s["wall_us"] for name, s in stages.items()
          if name.lower() not in ("mapping", "other"))
coverage = top / max(hp["total_wall_us"], 1)
print(f"host profile: {len(stages)} stages, "
      f"{coverage*100:.1f}% of {hp['total_wall_us']} us covered")
if coverage < 0.9:
    print(f"coverage gate FAILED: top-level spans cover {coverage*100:.1f}%, "
          "need >= 90%", file=sys.stderr)
    sys.exit(1)
EOF
python3 - <<'EOF'
import os, statistics, subprocess, sys, time

# Spans-disabled vs spans-enabled wall clock of one pinned workload, as
# the median over 5 pairs of one disabled and one enabled run. The two
# runs of a pair follow each other, and the pairs alternate which goes
# first, so drift in the host's speed hits both sides alike. The
# profiler is a handful of atomics per stage, so 5% is generous — a
# failure means a hot-path regression (e.g. spans created inside a
# per-edge loop).
CMD = ["./target/release/aurora_sim", "--dataset", "pubmed", "--model", "gcn"]
PAIRS = 5

def wall(enabled):
    env = dict(os.environ)
    env.pop("AURORA_HOST_PROFILE", None)
    if enabled:
        env["AURORA_HOST_PROFILE"] = "1"
    t0 = time.perf_counter()
    subprocess.run(CMD, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0

ratios = []
for i in range(PAIRS):
    if i % 2 == 0:
        off = wall(False)
        on = wall(True)
    else:
        on = wall(True)
        off = wall(False)
    ratios.append(on / off)
ratio = statistics.median(ratios)
print(f"span overhead: median enabled/disabled {ratio:.3f}x over {PAIRS} "
      f"pairs ({', '.join(f'{r:.3f}' for r in ratios)})")
if ratio > 1.05:
    print(f"overhead gate FAILED: enabled spans cost {ratio:.3f}x, "
          "budget is 1.05x", file=sys.stderr)
    sys.exit(1)
EOF

echo "==> noc_kernel_bench --quick (informational: traffic-kernel speedup)"
# Wall-clock comparison of the route-table kernel (leg-table build and
# leg binning, at k=8 and at the paper's k=32) vs the seed's per-edge
# walker. Informational only — host timing never gates — but the binary
# asserts the two estimators produce bit-identical results.
cargo run --release -q -p aurora-bench --bin noc_kernel_bench -- --quick

echo "==> engine_kernel_bench --quick (alloc budget; timing informational)"
# The alloc budget is the steady-state regression gate: a warmed-up run
# may attribute at most 32 heap allocations to tile precompute + mapping
# + engine walk combined (measured steady state is ~12, all residuals of
# the worker-pool fan-out, so 32 leaves headroom without letting
# per-tile churn back in). The printed wall time is informational;
# report contents are pinned by the engine_golden test in `cargo test`.
cargo run --release -q -p aurora-bench --bin engine_kernel_bench -- --quick --alloc-budget 32

echo "==> delta_bench --quick (session bit-identity gate; speedup informational)"
# Streaming-session gate: for every cell of k x noc x threads, the
# incremental re-simulation must produce byte-identical reports (and
# identical typed errors) to from-scratch runs of the post-delta
# graph, burst replay must reproduce the digest chain, and empty
# deltas must answer without an engine run. All hard failures. The
# >= 5x wall-clock claim only gates in full mode (EXPERIMENTS.md).
cargo run --release -q -p aurora-bench --bin delta_bench -- --quick

echo "==> serve smoke (aurora_serve + 8 concurrent serve_bench connections)"
# Start the daemon on a scratch socket (the release binary directly, so
# the TERM below reaches the daemon itself, not a cargo wrapper), flood
# it with 8 concurrent mixed connections, and require every response to
# succeed with per-digest bit-identical reports and cache hits on the
# repeats — serve_bench exits non-zero otherwise (it also scrapes the
# health/stats/metrics admin commands and gates the quantile ordering
# and hit ratio). Then exercise the admin plane directly: health must
# flip ok -> draining across SIGTERM (the drain grace keeps open
# connections answering), flights must retain records (slow-ms 0
# records everything), and the access log must hold exactly one
# well-formed NDJSON line per served request. Before any of that, a
# line nested 100,000 levels deep and a line longer than the 4 MiB line
# cap must each answer bad_request on the admin connection (leaving one
# error record each) without costing the daemon or the connection, and
# one dataset spec sent at three input densities must resolve its graph
# from the worker's graph cache at least once and replay the plan's
# warm tile state at least once (the repeated miss admits both, the
# third hits).
SERVE_SOCK="$(mktemp -u /tmp/aurora-serve-check-XXXXXX.sock)"
SERVE_LOG="$(mktemp /tmp/aurora-serve-check-XXXXXX.log)"
./target/release/aurora_serve --socket "$SERVE_SOCK" --workers 2 \
  --access-log "$SERVE_LOG" --slow-ms 0 --flights 8 --drain-grace-ms 5000 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SERVE_SOCK" ] && break
  sleep 0.1
done
[ -S "$SERVE_SOCK" ] || { echo "serve smoke FAILED: daemon never bound" >&2; exit 1; }
./target/release/serve_bench --socket "$SERVE_SOCK" --connections 8 --repeat 2
SERVE_SOCK="$SERVE_SOCK" SERVE_PID="$SERVE_PID" python3 - <<'EOF'
import json, os, signal, socket, sys, time

sock_path, pid = os.environ["SERVE_SOCK"], int(os.environ["SERVE_PID"])
conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.connect(sock_path)
io = conn.makefile("rw", encoding="utf-8")

def admin(command, id=1):
    io.write(json.dumps({"id": id, "admin": command}) + "\n")
    io.flush()
    return json.loads(io.readline())

# a line nested 100,000 levels deep must cost a bad_request reply, not
# the process: the same connection keeps answering afterwards
io.write('{"id":1,"sim":' + "[" * 100_000 + "\n")
io.flush()
reply = json.loads(io.readline())
assert reply["error"]["kind"] == "bad_request", f"deep line: {reply}"

# a line past the 4 MiB cap is refused unread, and the connection keeps
# answering
io.write('{"id":2,"sim":"' + "x" * (4 << 20) + '"}\n')
io.flush()
reply = json.loads(io.readline())
assert reply["error"]["kind"] == "bad_request", f"over-cap line: {reply}"
assert "line longer than" in reply["error"]["message"], reply
assert admin("health")["status"] == "ok", "connection lost after over-cap line"

# one dataset spec at three densities: three fresh runs, one graph
config = {
    "k": 4, "clock_mhz": 700,
    "pe": {"lanes": 16, "buffer_bytes": 102400, "banks": 8,
           "fifo_depth": 16, "ppu_width": 4, "reconfig_cycles": 1},
    "words_per_flit": 4, "dram_channels": 4,
    "mapping_policy": "DegreeAware", "flexible_noc": True,
    "dynamic_partition": True, "feature_fraction": 0.5,
    "link_utilisation": 0.6, "trace_instructions": False,
}
for i, density in enumerate((1.0, 0.5, 0.25)):
    sim = {
        "version": 1, "config": config,
        "graph": {"Dataset": {"dataset": "Cora", "scale": 8}},
        "model": "Gcn", "layers": [{"f_in": 32, "f_out": 16}],
        "options": {"workload": "graph-cache-smoke", "input_density": density,
                    "trace_instructions": False},
    }
    io.write(json.dumps({"id": 10 + i, "sim": sim}) + "\n")
    io.flush()
    reply = json.loads(io.readline())
    assert reply.get("error") is None, f"dataset request failed: {reply['error']}"

health = admin("health")
assert health["status"] == "ok", f"health before drain: {health}"
stats = admin("stats")["stats"]
assert stats["requests"] >= 64, f"stats undercounts: {stats['requests']}"
assert stats["graph_cache_hits"] >= 1, f"graph cache never hit: {stats}"
assert stats["warm_hits"] >= 1, f"warm tile state never replayed: {stats}"
assert stats["latency_us"]["p50_us"] <= stats["latency_us"]["p99_us"]
metrics = admin("metrics")
assert "aurora_serve_requests" in metrics["prometheus"], "exposition missing serve counters"
flights = admin("flights")
assert len(flights["flights"]) > 0, "flight recorder empty at slow-ms 0"

# drain: the open connection keeps answering through the grace window
os.kill(pid, signal.SIGTERM)
deadline = time.time() + 5.0
while True:
    health = admin("health")
    if health["status"] == "draining":
        break
    assert time.time() < deadline, "health never flipped to draining"
    time.sleep(0.05)
conn.close()
print("serve admin plane: health/stats/metrics/flights answered, drain observed")
EOF
wait "$SERVE_PID" || { echo "serve smoke FAILED: daemon exited non-zero" >&2; exit 1; }
SERVE_PID=""
SERVE_LOG="$SERVE_LOG" python3 - <<'EOF'
import json, os

records = [json.loads(line) for line in
           open(os.environ["SERVE_LOG"], encoding="utf-8").read().splitlines()]
for record in records:
    for key in ("seq", "digest", "outcome", "queue_wait_us", "execute_us",
                "latency_us", "bytes_out"):
        assert key in record, f"access record missing {key}: {record}"
    assert record["bytes_out"] > 0, record
# 8 connections x 2 repeats x 4-request mix plus the 3 dataset
# requests, and the deep and over-cap lines; admin traffic is never
# logged
served = [r for r in records if r["outcome"] != "error"]
assert len(served) == 67, f"access log holds {len(served)} served lines, expected 67"
for record in served:
    assert record["outcome"] in ("hit", "miss", "join"), record["outcome"]
bad = [r["error"] for r in records if r["outcome"] == "error"]
assert len(bad) == 2 and "nesting deeper than 128" in bad[0] \
    and "line longer than" in bad[1], \
    f"expected error records for the deep and over-cap lines, got {bad}"
print("access log: one well-formed line per served request and per bad line")
EOF
echo "serve smoke passed: daemon drained cleanly"

echo "==> cluster smoke (router + 3 workers, 200 connections, mid-run worker kill)"
# Start a sharded cluster: one router front-end supervising 3 worker
# processes on scratch sockets. Flood it with 200 concurrent
# connections; serve_bench SIGTERMs one worker after the first round
# and still requires zero client-visible failures (the router retries
# on another shard), >= 90% warm affinity hits, ordered cluster-wide
# latency quantiles, and the killed shard respawned back to `ok`. Then
# send a line nested 100,000 levels deep and a line longer than the
# 4 MiB line cap (each must answer bad_request, and the same connection
# must keep answering), check the cluster stats carry the summed graph
# cache counters, and SIGTERM the router itself: its health must flip
# ok -> draining on an open connection before the whole cluster drains
# and exits 0.
ROUTER_SOCK="$(mktemp -u /tmp/aurora-router-check-XXXXXX.sock)"
ROUTER_LOG="$(mktemp /tmp/aurora-router-check-XXXXXX.log)"
./target/release/aurora_serve --router --socket "$ROUTER_SOCK" --workers 3 \
  --probe-ms 100 --drain-grace-ms 5000 --access-log "$ROUTER_LOG" &
ROUTER_PID=$!
for _ in $(seq 1 150); do
  [ -S "$ROUTER_SOCK" ] && break
  sleep 0.1
done
[ -S "$ROUTER_SOCK" ] || { echo "cluster smoke FAILED: router never bound" >&2; exit 1; }
./target/release/serve_bench --socket "$ROUTER_SOCK" --connections 200 --repeat 3 \
  --cluster --kill-one

# One open -> delta -> close session through the router. Every op of a
# session routes by the base digest (open derives it, delta/close carry
# it as the sid), so rendezvous hashing must pin all three lines to the
# same shard — that is what keeps the warm session state reachable.
# The route log is the proof: exactly three lines with the session's
# digest, all naming one shard.
ROUTER_SOCK="$ROUTER_SOCK" python3 - <<'EOF' > /tmp/aurora-session-sid.txt
import json, os, socket

conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.connect(os.environ["ROUTER_SOCK"])
io = conn.makefile("rw", encoding="utf-8")

def send(obj):
    io.write(json.dumps(obj) + "\n")
    io.flush()
    reply = json.loads(io.readline())
    assert reply.get("error") is None, f"session op failed: {reply['error']}"
    return reply

sim = {
    "version": 1,
    "config": {
        "k": 4, "clock_mhz": 700,
        "pe": {"lanes": 16, "buffer_bytes": 102400, "banks": 8,
               "fifo_depth": 16, "ppu_width": 4, "reconfig_cycles": 1},
        "words_per_flit": 4, "dram_channels": 4,
        "mapping_policy": "DegreeAware", "flexible_noc": True,
        "dynamic_partition": True, "feature_fraction": 0.5,
        "link_utilisation": 0.6, "trace_instructions": False,
    },
    "graph": {"Rmat": {"vertices": 512, "edges": 4000, "seed": 7}},
    "model": "Gcn",
    "layers": [{"f_in": 32, "f_out": 16}],
    "options": {"workload": "session-smoke", "input_density": 1.0,
                "trace_instructions": False},
}
opened = send({"id": 101, "session": {"op": "open", "sim": sim}})
sid = opened["digest"]
assert opened["report"]["total_cycles"] > 0, "open returned an empty report"

# a delta that is valid on any base graph: one appended vertex (id 512)
# plus two edges from it — guaranteed-new sources, nothing to collide
delta = {"insert_edges": [[512, 0], [512, 1]], "add_vertices": 1}
applied = send({"id": 102, "session": {"op": "delta", "sid": sid, "delta": delta}})
assert applied["digest"] != sid, "delta did not advance the digest chain"
assert applied["report"]["total_cycles"] > 0, "delta returned an empty report"

closed = send({"id": 103, "session": {"op": "close", "sid": sid}})
assert closed["digest"] == applied["digest"], "close must echo the chained digest"
conn.close()
print(sid)
EOF
SESSION_SID="$(cat /tmp/aurora-session-sid.txt)"; rm -f /tmp/aurora-session-sid.txt
ROUTER_LOG="$ROUTER_LOG" SESSION_SID="$SESSION_SID" python3 - <<'EOF'
import json, os

sid = os.environ["SESSION_SID"]
records = [json.loads(line) for line in
           open(os.environ["ROUTER_LOG"], encoding="utf-8").read().splitlines()]
session_lines = [r for r in records if r["digest"] == sid]
assert len(session_lines) == 3, \
    f"route log holds {len(session_lines)} session lines for {sid}, expected 3"
shards = {r["shard"] for r in session_lines}
assert len(shards) == 1 and "" not in shards, \
    f"session lines routed to {sorted(shards)}, expected one shard"
for r in session_lines:
    assert r["outcome"] == "ok", f"session line not ok: {r}"
print(f"session affinity: open/delta/close all routed to {shards.pop()}")
EOF

ROUTER_SOCK="$ROUTER_SOCK" ROUTER_PID="$ROUTER_PID" python3 - <<'EOF'
import json, os, signal, socket, sys, time

sock_path, pid = os.environ["ROUTER_SOCK"], int(os.environ["ROUTER_PID"])
conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.connect(sock_path)
io = conn.makefile("rw", encoding="utf-8")

def admin(command, id=1):
    io.write(json.dumps({"id": id, "admin": command}) + "\n")
    io.flush()
    return json.loads(io.readline())

# a line nested 100,000 levels deep must cost a bad_request reply, not
# the process: the same connection keeps answering afterwards
io.write('{"id":1,"sim":' + "[" * 100_000 + "\n")
io.flush()
reply = json.loads(io.readline())
assert reply["error"]["kind"] == "bad_request", f"deep line: {reply}"

# a line past the 4 MiB cap is refused by the router itself, unread
io.write('{"id":2,"sim":"' + "x" * (4 << 20) + '"}\n')
io.flush()
reply = json.loads(io.readline())
assert reply["error"]["kind"] == "bad_request", f"over-cap line: {reply}"
assert "line longer than" in reply["error"]["message"], reply

stats = admin("stats")["stats"]
assert stats["graph_cache_misses"] >= 1, f"no graph resolutions summed: {stats}"

health = admin("health")
assert health["status"] == "ok", f"router health before drain: {health}"
assert health["role"] == "router", f"not a router: {health}"
assert len(health["shards"]) == 3, f"shard census: {health['shards']}"

# drain: the open connection observes the flip through the grace window
os.kill(pid, signal.SIGTERM)
deadline = time.time() + 5.0
while True:
    health = admin("health")
    if health["status"] == "draining":
        break
    assert time.time() < deadline, "router health never flipped to draining"
    time.sleep(0.05)
conn.close()
print("cluster admin plane: router health/stats answered, drain observed")
EOF
wait "$ROUTER_PID" || { echo "cluster smoke FAILED: router exited non-zero" >&2; exit 1; }
ROUTER_PID=""
echo "cluster smoke passed: router and workers drained cleanly"

echo "==> thread-count determinism (AURORA_THREADS=1 vs 2)"
AURORA_THREADS=1 cargo run --release -q -p aurora-bench --bin perf_regress -- \
  --name check-seq
AURORA_THREADS=2 cargo run --release -q -p aurora-bench --bin perf_regress -- \
  --name check-par
# Compare everything except host wall-time, which legitimately varies.
python3 - <<'EOF'
import json, sys

def key(path):
    doc = json.load(open(path))
    return [
        (r["workload"], r["cycles"], r["compute_frac"], r["noc_frac"],
         r["dram_frac"], r["imbalance_frac"], r["dominant"])
        for r in doc["results"]
    ]

seq, par = key("BENCH_check-seq.json"), key("BENCH_check-par.json")
if seq != par:
    print("determinism check FAILED: results differ across thread counts",
          file=sys.stderr)
    for a, b in zip(seq, par):
        if a != b:
            print(f"  seq: {a}\n  par: {b}", file=sys.stderr)
    sys.exit(1)
print("determinism check passed: cycles identical across thread counts")
EOF

echo "All checks passed."
