#!/bin/sh
# CI check: build, run the full test suite, then smoke-test the simulator's
# observability exports end to end. One command, non-zero exit on any failure.
set -eu
cd "$(dirname "$0")/.."

dune build

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Determinism & layering lint (tools/lint): effect confinement to the
# sans-I/O backend, sorted iteration on emission paths, monomorphic
# comparisons on protocol keys, interface hygiene. Fail fast, before tests:
# a seam violation invalidates what the tests claim to guarantee.
dune build @lint

# Race-pass gate: the domain-ownership rules of docs/CONCURRENCY.md must
# hold with zero diagnostics, checked over the machine-readable output so
# a malformed JSON emitter cannot hide a finding. (@lint already fails on
# ANY diagnostic; this re-run pins the four concurrency rules and the
# JSON field contract specifically.)
./_build/default/tools/lint/shoalpp_lint.exe --format=json \
  lib bin bench tools/trace > "$out/lint.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out/lint.json" <<'EOF' || { echo "check failed: race-pass lint gate" >&2; cat "$out/lint.json" >&2; exit 1; }
import json, sys
diags = json.load(open(sys.argv[1]))
assert isinstance(diags, list), "lint JSON is not an array"
race_rules = {"domain-ownership", "shared-mutable-state", "lock-discipline", "cross-domain-effect"}
for d in diags:
    for field in ("file", "rule", "severity", "message"):
        assert isinstance(d.get(field), str), f"diagnostic missing {field}: {d}"
    for field in ("line", "col"):
        assert isinstance(d.get(field), int), f"diagnostic missing {field}: {d}"
race = [d for d in diags if d["rule"] in race_rules]
assert not race, "race-pass diagnostics:\n" + "\n".join(
    f"{d['file']}:{d['line']}:{d['col']}: [{d['rule']}] {d['message']}" for d in race)
print(f"race gate: 0 concurrency diagnostics ({len(diags)} total) across lib/ bin/ bench/ tools/trace/")
EOF
else
  grep -q '"rule":"\(domain-ownership\|shared-mutable-state\|lock-discipline\|cross-domain-effect\)"' \
    "$out/lint.json" && { echo "check failed: race-pass diagnostics present" >&2; cat "$out/lint.json" >&2; exit 1; }
  echo "check: python3 not installed, race gate checked by grep only"
fi

# Dynamic complement to the static race pass: under an OCaml 5.x TSan
# switch this drives the --domains 4 node and fails on any data-race
# report; on a non-TSan toolchain it skips with a notice.
sh scripts/tsan.sh

dune runtest

# odoc is optional in the dev image; when present, the rendered docs must
# build cleanly (every .mli carries a doc comment the build will parse).
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "check: odoc not installed, skipping dune build @doc"
fi

dune exec bin/shoalpp.exe -- sim \
  -n 4 --topology clique:4,15 --load 200 --duration 4000 --warmup 500 \
  --trace-out "$out/run.jsonl" \
  --chrome-out "$out/run.trace.json" \
  --metrics-out "$out/run.metrics.json"

# The exports must exist and be non-empty; the JSONL must look like events.
for f in run.jsonl run.trace.json run.metrics.json; do
  test -s "$out/$f" || { echo "check failed: $f missing or empty" >&2; exit 1; }
done
grep -q '"tag":"proposal_created"' "$out/run.jsonl" \
  || { echo "check failed: no proposal events in trace" >&2; exit 1; }
grep -q '"traceEvents"' "$out/run.trace.json" \
  || { echo "check failed: chrome trace malformed" >&2; exit 1; }
grep -q '"commit.fast_direct"' "$out/run.metrics.json" \
  || { echo "check failed: commit-rule counters missing from metrics" >&2; exit 1; }

# A malformed topology is a usage error (cmdliner's exit 124), caught by
# the one spec parser before any run starts, never an uncaught exception
# (exit 125) or a run on a nonsense network.
set +e
./_build/default/bin/shoalpp.exe sim -n 4 --topology clique:0,15 > "$out/bad_topo.out" 2>&1
bad_topo=$?
set -e
[ "$bad_topo" -eq 124 ] \
  || { echo "check failed: --topology clique:0,15 exited $bad_topo, not 124" >&2; cat "$out/bad_topo.out" >&2; exit 1; }

# So is a scenario the subcommand cannot run: a misspelt key (never a run
# on the default), and on the node anything but a mid-run restart.
for args in "sim --scenario crash-recover:recovr=6000" "node --scenario partition"; do
  set +e
  ./_build/default/bin/shoalpp.exe $args -n 4 --duration 100 > "$out/bad_scenario.out" 2>&1
  bad_scenario=$?
  set -e
  [ "$bad_scenario" -eq 124 ] \
    || { echo "check failed: $args exited $bad_scenario, not 124" >&2; cat "$out/bad_scenario.out" >&2; exit 1; }
done

# Fault-scenario smoke: a crash-recover run must stay safe (the sim exits
# non-zero on a failed audit) and record the injected faults in telemetry.
dune exec bin/shoalpp.exe -- sim \
  -n 4 --topology clique:4,15 --load 200 --duration 10000 --warmup 500 \
  --scenario crash-recover:at=3000,recover=6000 --no-verify \
  --metrics-out "$out/faults.metrics.json"
grep -q '"fault.recoveries"' "$out/faults.metrics.json" \
  || { echo "check failed: fault counters missing from scenario metrics" >&2; exit 1; }

# Byzantine smoke with signatures verified: an equivocating replica sends
# conflicting proposals, and each simulated broadcast is checked once per
# physical value (Validation's memo), so every receiver must still refuse
# what it should. The run must pass its audit and count the equivocations
# it injected (89 for this command).
dune exec bin/shoalpp.exe -- sim \
  -n 4 --topology clique:4,15 --load 200 --duration 4000 --warmup 500 \
  --scenario byzantine:count=1,kind=equivocate \
  --metrics-out "$out/byz.metrics.json" > "$out/byz.out"
grep -q 'audit: consistent logs, no duplicates' "$out/byz.out" \
  || { echo "check failed: verified byzantine audit" >&2; cat "$out/byz.out" >&2; exit 1; }
grep -q '"fault.equivocations":[1-9]' "$out/byz.metrics.json" \
  || { echo "check failed: verified byzantine run injected no equivocations" >&2; exit 1; }

# Checkpointed crash-recover smoke: with the lifecycle on, the restarted
# replica restores a certified checkpoint and then replays the WAL records
# retained since it. Those records are payload thunks, encoded only here
# on replay and decoded again, so the run must pass its audit and replay a
# nonzero number of entries (42 for this command).
dune exec bin/shoalpp.exe -- sim \
  -n 4 --checkpoint-interval 12 --scenario crash-recover:at=3000,recover=6000 --no-verify \
  --trace-out "$out/ck_recover.jsonl" > "$out/ck_recover.out"
grep -q 'audit: consistent logs, no duplicates' "$out/ck_recover.out" \
  || { echo "check failed: checkpointed crash-recover audit" >&2; exit 1; }
python3 - "$out/ck_recover.jsonl" <<'EOF' || { echo "check failed: checkpointed recovery replayed no WAL entries" >&2; exit 1; }
import json, sys
replayed = [e["replayed"] for e in map(json.loads, open(sys.argv[1])) if e.get("tag") == "replica_recovered"]
sys.exit(0 if replayed and all(r > 0 for r in replayed) else 1)
EOF

# One metric namespace for all three systems: the baselines' latency is
# recorded by the same ledger as Shoal++'s, so their exports carry the same
# stage, end-to-end, per-lane and keyed ledger metrics. They also share
# Shoal++'s cluster and audit, so a crash-recover run (a warm resume for
# the baselines) must pass the same checks, the recovery prefix included.
for sys in jolteon mysticeti; do
  dune exec bin/shoalpp.exe -- sim --system "$sys" \
    -n 4 --topology clique:4,15 --load 200 --duration 3000 --warmup 500 --no-verify \
    --metrics-out "$out/$sys.metrics.json" > "$out/$sys.out"
  for metric in '"stage.commit_to_order"' '"latency.e2e"' '"dag0.txns"' '"ledger.dag0.'; do
    grep -q "$metric" "$out/$sys.metrics.json" \
      || { echo "check failed: $sys metrics lack $metric" >&2; exit 1; }
  done
  dune exec bin/shoalpp.exe -- sim --system "$sys" \
    -n 4 --topology clique:4,15 --load 200 --duration 10000 --warmup 500 --no-verify \
    --scenario crash-recover:at=3000,recover=6000 > "$out/$sys.recover.out"
  grep -q 'audit: consistent logs, no duplicates' "$out/$sys.recover.out" \
    || { echo "check failed: $sys crash-recover audit" >&2; cat "$out/$sys.recover.out" >&2; exit 1; }
done

# Real-time node smoke: the same replicas on a wall clock (sans-I/O seam),
# run in the background with the live admin plane up so /health and
# /metrics are scraped MID-RUN — the endpoint must serve while consensus is
# running, not just at shutdown. The binary exits non-zero if the safety
# audit fails, and the audit line must show committed segments on every
# DAG lane.
./_build/default/bin/shoalpp.exe node \
  -n 4 --duration 5000 --load 200 --no-verify --admin-port 0 \
  --trace-out "$out/node.jsonl" --metrics-out "$out/node.metrics.json" \
  > "$out/node.out" 2>&1 &
node_pid=$!
admin_port=""
i=0
while [ $i -lt 50 ]; do
  admin_port=$(sed -n 's#^admin: http://127\.0\.0\.1:\([0-9]*\)/metrics.*#\1#p' "$out/node.out")
  [ -n "$admin_port" ] && break
  i=$((i + 1)); sleep 0.1
done
if [ -z "$admin_port" ]; then
  kill "$node_pid" 2>/dev/null || true
  echo "check failed: admin endpoint never announced itself" >&2; exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$admin_port" <<'EOF' || { kill "$node_pid" 2>/dev/null || true; echo "check failed: live admin scrape invalid" >&2; exit 1; }
import json, re, sys, urllib.request
base = "http://127.0.0.1:" + sys.argv[1]
health = urllib.request.urlopen(base + "/health", timeout=10).read().decode()
assert health == "ok\n", f"bad /health body: {health!r}"
body = urllib.request.urlopen(base + "/metrics", timeout=10).read().decode()
# Every line must be a legal exposition line (format 0.0.4).
type_re = re.compile(r'^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$')
sample_re = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9][-0-9.eE+]*|NaN|[+-]Inf)$')
names = set()
values = {}
for ln in body.splitlines():
    if not ln:
        continue
    assert type_re.match(ln) or sample_re.match(ln), f"malformed exposition line: {ln!r}"
    if not ln.startswith("#"):
        names.add(ln.split("{")[0].split(" ")[0])
        values[ln.split(" ")[0]] = float(ln.split(" ")[-1])
assert any(n.startswith("shoalpp_live_") for n in names), "live gauges missing mid-run"
assert "shoalpp_commit_fast_direct" in names, "commit counters missing from scrape"
assert "shoalpp_backend_loop_turns" in names, "loop turn counter missing from scrape"
# The loop's CPU attribution rides along mid-run, like its turn counter.
for c in ("loop_timeouts", "select_cpu_us", "timer_us", "io_us", "loop_cpu_us"):
    assert values.get("shoalpp_backend_" + c, 0) > 0, f"backend.{c} missing or zero in scrape"
# Histogram sanity: cumulative buckets closed by le="+Inf" equal to _count.
buckets, counts = {}, {}
for ln in body.splitlines():
    m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)_bucket\{le="([^"]+)"\} (\d+)$', ln)
    if m:
        buckets.setdefault(m.group(1), []).append((m.group(2), int(m.group(3))))
    m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)_count (\d+)$', ln)
    if m:
        counts[m.group(1)] = int(m.group(2))
assert buckets, "no histogram series in mid-run scrape"
for name, bs in buckets.items():
    vals = [c for _, c in bs]
    assert vals == sorted(vals), f"{name} buckets are not cumulative"
    assert bs[-1][0] == "+Inf" and bs[-1][1] == counts.get(name), f"{name} not closed by +Inf=_count"
ledger = json.loads(urllib.request.urlopen(base + "/ledger", timeout=10).read().decode())
assert isinstance(ledger["entries"], list) and ledger["recorded"] >= len(ledger["entries"])
print(f"admin scrape: {len(names)} metric families, {len(buckets)} histograms, "
      f"ledger tail {len(ledger['entries'])} of {ledger['recorded']} commits")
EOF
else
  echo "check: python3 not installed, skipping live /metrics scrape validation"
fi
wait "$node_pid" || { echo "check failed: node run failed (see $out/node.out)" >&2; cat "$out/node.out" >&2; exit 1; }
grep -q 'audit: consistent logs, no duplicates' "$out/node.out" \
  || { echo "check failed: node audit line missing" >&2; exit 1; }
if grep -q 'audit: consistent logs, no duplicates; 0 segments' "$out/node.out"; then
  echo "check failed: node committed no segments" >&2; exit 1
fi
grep -Eq 'lanes [1-9][0-9]*,[1-9][0-9]*,[1-9][0-9]*' "$out/node.out" \
  || { echo "check failed: a DAG lane committed no anchors" >&2; exit 1; }
grep -q 'per-commit stage attribution' "$out/node.out" \
  || { echo "check failed: ledger breakdown table missing from node output" >&2; exit 1; }
for f in node.jsonl node.metrics.json; do
  test -s "$out/$f" || { echo "check failed: $f missing or empty" >&2; exit 1; }
done
# The realtime loop's wakeup counters and CPU attribution: every turn is
# one select, the sleeping ones are the node's wakeups, the timed-out ones
# the wakeups its timers caused; select CPU, timer, io and loop CPU time
# say where the node's CPU went.
for c in backend.loop_turns backend.loop_sleeps backend.loop_timeouts \
         backend.select_cpu_us backend.timer_us backend.io_us backend.loop_cpu_us; do
  grep -Eq "\"$c\": *[1-9][0-9]*" "$out/node.metrics.json" \
    || { echo "check failed: $c missing or zero in node metrics" >&2; exit 1; }
done

# Cross-replica trace analysis: join the smoke run's per-replica logs and
# fail on commit-sequence divergence (the analyzer exits 1 on divergence).
./_build/default/tools/trace/shoalpp_trace.exe "$out/node.jsonl" \
  --metrics "$out/node.metrics.json" > "$out/trace_report.txt" \
  || { echo "check failed: trace analyzer reported divergence" >&2; cat "$out/trace_report.txt" >&2; exit 1; }
grep -q 'commit sequence: consistent' "$out/trace_report.txt" \
  || { echo "check failed: analyzer consistency line missing" >&2; exit 1; }
grep -Eq 'propose->order' "$out/trace_report.txt" \
  || { echo "check failed: analyzer produced no stage attribution" >&2; exit 1; }

# Multicore node smoke: the same cluster with each DAG lane on its own
# domain and signature checks on the verify pool (--domains 2). The run
# must pass its own audit (the binary exits non-zero otherwise), report a
# clean pool, and — the determinism claim — the trace analyzer joined over
# the per-lane-domain rings must find zero commit-sequence divergence.
./_build/default/bin/shoalpp.exe node \
  -n 4 --duration 4000 --load 500 --domains 2 \
  --trace-out "$out/mc.jsonl" > "$out/mc.out" 2>&1 \
  || { echo "check failed: multicore node run failed" >&2; cat "$out/mc.out" >&2; exit 1; }
grep -q '2 domains (per-DAG executors + verify pool)' "$out/mc.out" \
  || { echo "check failed: multicore mode not engaged" >&2; exit 1; }
grep -q 'audit: consistent logs, no duplicates' "$out/mc.out" \
  || { echo "check failed: multicore node audit line missing" >&2; exit 1; }
grep -Eq 'verify pool: [1-9][0-9]* jobs \([0-9]+ stolen, 0 exceptions\)' "$out/mc.out" \
  || { echo "check failed: verify pool idle or raised exceptions" >&2; cat "$out/mc.out" >&2; exit 1; }
./_build/default/tools/trace/shoalpp_trace.exe "$out/mc.jsonl" > "$out/mc_report.txt" \
  || { echo "check failed: multicore commit sequences diverged" >&2; cat "$out/mc_report.txt" >&2; exit 1; }
grep -q 'commit sequence: consistent' "$out/mc_report.txt" \
  || { echo "check failed: multicore analyzer consistency line missing" >&2; exit 1; }

# TCP transport smoke: the same 4-replica cluster over real TCP sockets,
# on a FIXED base port (retrying a few bases, since
# CI machines may hold ports) — the binary exits non-zero on a failed
# audit, and the trace analyzer must find zero commit-sequence divergence,
# i.e. the socket transport changed timing but never content.
tcp_ok=""
for base in 39140 39240 39340 39440 39540; do
  if ./_build/default/bin/shoalpp.exe node \
      -n 4 --transport tcp --tcp-port "$base" \
      --duration 4000 --load 300 --no-verify \
      --trace-out "$out/tcp.jsonl" > "$out/tcp.out" 2>&1; then
    tcp_ok=1; break
  elif grep -q 'EADDRINUSE' "$out/tcp.out"; then
    echo "check: tcp base port $base in use, retrying"
  else
    echo "check failed: tcp node run failed" >&2; cat "$out/tcp.out" >&2; exit 1
  fi
done
[ -n "$tcp_ok" ] || { echo "check failed: no free tcp base port" >&2; exit 1; }
grep -q 'audit: consistent logs, no duplicates' "$out/tcp.out" \
  || { echo "check failed: tcp node audit line missing" >&2; exit 1; }
grep -Eq 'tcp: [1-9][0-9]* flushes,' "$out/tcp.out" \
  || { echo "check failed: tcp transport never wrote a frame" >&2; cat "$out/tcp.out" >&2; exit 1; }
./_build/default/tools/trace/shoalpp_trace.exe "$out/tcp.jsonl" > "$out/tcp_report.txt" \
  || { echo "check failed: tcp commit sequences diverged" >&2; cat "$out/tcp_report.txt" >&2; exit 1; }
grep -q 'commit sequence: consistent' "$out/tcp_report.txt" \
  || { echo "check failed: tcp analyzer consistency line missing" >&2; exit 1; }

# Verified TCP smoke: the smoke above and the one below skip signature
# checks, so this one checks every signature and certificate aggregate
# that crossed a socket (n=4, kernel-assigned ports).
# Certificates carry their aggregate on the wire and are verified as
# received, so a codec that lost or mangled it would stall the DAG: the
# run must pass its audit and commit an anchor on every lane.
./_build/default/bin/shoalpp.exe node \
  -n 4 --transport tcp --duration 3000 --load 300 > "$out/tcpv.out" 2>&1 \
  || { echo "check failed: verified tcp run failed" >&2; cat "$out/tcpv.out" >&2; exit 1; }
grep -q 'audit: consistent logs, no duplicates' "$out/tcpv.out" \
  || { echo "check failed: verified tcp audit line missing" >&2; exit 1; }
grep -Eq 'lanes [1-9][0-9]*,[1-9][0-9]*,[1-9][0-9]*$' "$out/tcpv.out" \
  || { echo "check failed: verified tcp run left a lane without commits" >&2; cat "$out/tcpv.out" >&2; exit 1; }

# Geography smoke: n=10 over TCP with the paper's gcp10 delay matrix
# applied per link (kernel-assigned ports). The run must pass its safety
# audit under realistic heterogeneous latencies; the exit code carries it.
# Its metrics must carry the TCP transport's syscall attribution.
./_build/default/bin/shoalpp.exe node \
  -n 10 --transport tcp --topology gcp10 \
  --duration 5000 --load 300 --no-verify --metrics-out "$out/tcp10.metrics.json" \
  > "$out/tcp10.out" 2>&1 \
  || { echo "check failed: n=10 tcp+gcp10 run failed" >&2; cat "$out/tcp10.out" >&2; exit 1; }
grep -q 'audit: consistent logs, no duplicates' "$out/tcp10.out" \
  || { echo "check failed: tcp+gcp10 audit line missing" >&2; exit 1; }
for c in backend.tcp_read_us backend.tcp_deliver_us backend.tcp_flushes backend.tcp_write_us; do
  grep -Eq "\"$c\": *[1-9][0-9]*" "$out/tcp10.metrics.json" \
    || { echo "check failed: $c missing or zero in tcp+gcp10 metrics" >&2; exit 1; }
done

# Bounded-memory smoke: a longer checkpointed run must hold the live heap
# under a fixed ceiling — scraped from /metrics MID-RUN, late in the run,
# when unbounded retention would have accumulated (a checkpointed run
# retains at most two checkpoint windows of store + WAL; BENCH_mem.json
# records the retention curves). The ceiling is ~5x the measured steady
# state, so real regressions trip it while GC noise cannot.
./_build/default/bin/shoalpp.exe node \
  -n 4 --duration 12000 --load 500 --no-verify --admin-port 0 \
  --checkpoint-interval 12 --metrics-out "$out/mem.metrics.json" \
  > "$out/mem.out" 2>&1 &
mem_pid=$!
mem_port=""
i=0
while [ $i -lt 50 ]; do
  mem_port=$(sed -n 's#^admin: http://127\.0\.0\.1:\([0-9]*\)/metrics.*#\1#p' "$out/mem.out")
  [ -n "$mem_port" ] && break
  i=$((i + 1)); sleep 0.1
done
[ -n "$mem_port" ] || { kill "$mem_pid" 2>/dev/null || true; echo "check failed: mem smoke admin endpoint missing" >&2; exit 1; }
sleep 9
if command -v python3 >/dev/null 2>&1; then
  python3 - "$mem_port" <<'EOF' || { kill "$mem_pid" 2>/dev/null || true; echo "check failed: live heap over ceiling or gauges missing" >&2; exit 1; }
import re, sys, urllib.request
body = urllib.request.urlopen("http://127.0.0.1:%s/metrics" % sys.argv[1], timeout=10).read().decode()
def gauge(name):
    m = re.search(r'^%s (\S+)$' % re.escape(name), body, re.M)
    return float(m.group(1)) if m else None
heap = gauge("shoalpp_live_heap_words")
assert heap is not None, "live heap gauge missing"
CEILING = 64e6  # words; the checkpointed 12s/500tps run steadies near 11M
assert heap < CEILING, f"live heap {heap:.0f} words >= ceiling {CEILING:.0f}"
pruned = gauge("shoalpp_gc_pruned_vertices")
assert pruned and pruned > 0, "checkpoint-anchored pruning never ran"
print(f"mem smoke: live heap {heap/1e6:.1f}M words (< {CEILING/1e6:.0f}M), {pruned:.0f} vertices pruned")
EOF
else
  echo "check: python3 not installed, skipping live heap ceiling"
fi
wait "$mem_pid" || { echo "check failed: mem smoke run failed" >&2; cat "$out/mem.out" >&2; exit 1; }
grep -q 'audit: consistent logs, no duplicates' "$out/mem.out" \
  || { echo "check failed: mem smoke audit line missing" >&2; exit 1; }

# Lag-then-catch-up smoke: a crash-recover scenario kills the top replica
# mid-run and restarts it; require that it rejoined from a certified
# checkpoint (base_seq > 0 — it did NOT replay from genesis) with an
# O(gap) number of sync requests, and that the cluster audit still passes
# (the binary's exit code).
./_build/default/bin/shoalpp.exe node \
  -n 4 --duration 10000 --load 300 --no-verify \
  --checkpoint-interval 12 --scenario crash-recover:at=3000,recover=6000 > "$out/catchup.out" 2>&1 \
  || { echo "check failed: restart run failed" >&2; cat "$out/catchup.out" >&2; exit 1; }
grep -q 'audit: consistent logs, no duplicates' "$out/catchup.out" \
  || { echo "check failed: restart audit line missing" >&2; exit 1; }
restart_line=$(grep '^restart: replica' "$out/catchup.out") \
  || { echo "check failed: restart summary line missing" >&2; cat "$out/catchup.out" >&2; exit 1; }
base_seq=$(printf '%s' "$restart_line" | sed -n 's/^restart: replica [0-9]* base_seq \([0-9]*\),.*/\1/p')
reqs=$(printf '%s' "$restart_line" | sed -n 's/.*catch-up \([0-9]*\) sync requests.*/\1/p')
[ -n "$base_seq" ] && [ "$base_seq" -gt 0 ] \
  || { echo "check failed: restarted replica replayed from genesis (base_seq=$base_seq)" >&2; exit 1; }
[ -n "$reqs" ] && [ "$reqs" -ge 3 ] && [ "$reqs" -le 60 ] \
  || { echo "check failed: catch-up sync requests not O(gap) ($reqs)" >&2; exit 1; }
echo "catch-up smoke: $restart_line"

# Bench records: perf, mem, node and net all write one record (schema,
# kind, machine block, runs), and check_record below is the one validator
# for it: the envelope plus the machine-independent behaviour fields of
# each kind. Every committed BENCH_*.json must pass it; the node and perf
# guards below run it on fresh records too.
cat > "$out/bench_record.py" <<'EOF'
import json

def _behaviour(kind, r, tag):
    if kind == "perf":
        assert r["audit_ok"] is True, f"{tag}: audit failed for n={r['n']} {r['topology']}"
        assert r["wall_ms"] > 0 and r["events_fired"] > 0 and r["committed"] > 0, f"{tag}: empty run"
    elif kind == "node":
        tag = f"{tag} domains={r['domains']} verify_delay_us={r['verify_delay_us']}"
        assert r["audit_consistent"] is True, f"{tag}: audit failed"
        assert r["duplicate_orders"] == 0, f"{tag}: duplicate orders"
        assert r["pool_work_exceptions"] == 0, f"{tag}: pool exceptions"
        assert r["behaviour_ok"] is True, f"{tag}: behaviour flag"
        assert r["committed"] > 0, f"{tag}: committed nothing"
        assert r["k_dags"] == 3, f"{tag}: unexpected DAG count"
    elif kind == "mem":
        assert r["events_fired"] > 0 and r["committed_txns"] > 0, f"{tag}: empty run"
    elif kind == "net":
        assert r["committed"] > 0, f"{tag} {r['mode']}: committed nothing"
        if r["mode"] != "sim":
            assert r["audit_consistent"] is True, f"{tag} {r['mode']}: audit failed"
            assert r["duplicate_orders"] == 0, f"{tag} {r['mode']}: duplicate orders"
    else:
        raise AssertionError(f"{tag}: unknown kind {kind!r}")

def check_record(path, kind):
    """The envelope every bench sweep writes, then each run's behaviour
    fields for its kind. Returns the parsed record."""
    doc = json.load(open(path))
    assert set(doc) == {"schema", "kind", "machine", "runs"}, f"{path}: envelope keys {sorted(doc)}"
    assert doc["schema"] == "shoalpp-bench/2", f"{path}: bad schema {doc['schema']!r}"
    assert doc["kind"] == kind, f"{path}: kind {doc['kind']!r}, expected {kind!r}"
    m = doc["machine"]
    assert isinstance(m.get("nproc"), int) and m["nproc"] >= 1, f"{path}: machine.nproc"
    assert isinstance(m.get("ocaml_version"), str) and m["ocaml_version"], f"{path}: machine.ocaml_version"
    assert "git_rev" in m and (m["git_rev"] is None or isinstance(m["git_rev"], str)), f"{path}: machine.git_rev"
    assert isinstance(doc["runs"], list) and doc["runs"], f"{path}: no runs"
    for r in doc["runs"]:
        _behaviour(kind, r, path)
    return doc
EOF
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out" <<'EOF' || { echo "check failed: a committed BENCH_*.json is malformed" >&2; exit 1; }
import sys
sys.path.insert(0, sys.argv[1])
from bench_record import check_record
for kind in ("perf", "mem", "node", "net"):
    check_record(f"BENCH_{kind}.json", kind)
print("bench records: BENCH_{perf,mem,node,net}.json valid")
EOF
fi

# Node-bench guard: a short re-run of the domains sweep must keep every
# machine-independent behaviour field clean (audit consistent, zero
# duplicate orders, zero pool exceptions), and the committed
# BENCH_node.json must carry the same guarantees, rows at both modeled
# verification costs (10 us and 0) for domains 1, 2 and 4, and the
# recorded >= 1.5x ordered-tps speedup at 4 domains with the 10 us cost.
# Absolute tx/s are never asserted — they are this machine's, not the
# code's.
BENCH_OUT="$out/node_bench.json" BENCH_DURATION_S=2 \
  timeout 180 ./_build/default/bench/main.exe node >/dev/null \
  || { echo "check failed: node bench did not complete" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out" "$out/node_bench.json" BENCH_node.json <<'EOF' || { echo "check failed: BENCH_node.json malformed or behaviour regressed" >&2; exit 1; }
import sys
sys.path.insert(0, sys.argv[1])
from bench_record import check_record
fresh = check_record(sys.argv[2], "node")
committed = check_record(sys.argv[3], "node")
shape = [(r["verify_delay_us"], r["domains"]) for r in committed["runs"]]
assert shape == [(10, 1), (10, 2), (10, 4), (0, 1), (0, 2), (0, 4)], f"committed sweep shape changed: {shape}"
sp = next(r["speedup_vs_1"] for r in committed["runs"] if (r["verify_delay_us"], r["domains"]) == (10, 4))
assert sp >= 1.5, f"committed speedup {sp:.2f}x < 1.5x"
print(f"node bench guard: behaviour clean at {[(r['verify_delay_us'], r['domains']) for r in fresh['runs']]}, "
      f"committed speedup {sp:.2f}x at 4 domains (verify_delay_us=10)")
EOF
else
  grep -q '"behaviour_ok":true' "$out/node_bench.json" \
    || { echo "check failed: node bench behaviour flag missing" >&2; exit 1; }
fi

# Perf re-run guard: the full sweep (same durations as the committed
# BENCH_perf.json) must finish inside a generous ceiling with all audits
# passing. Every point must match the committed record on the
# machine-independent axes — byte-identical behaviour (same events fired,
# same commits, same rule mix) — and the n=50 gcp10 run is held to within
# 10% of the committed allocated words. Raw wall-clock/events-per-second
# are reported but not asserted: they track the CI machine's load as much
# as the code (the committed code itself misses its own committed ev/s
# numbers on a throttled machine).
BENCH_OUT="$out/perf.json" \
  timeout 600 ./_build/default/bench/main.exe perf >/dev/null \
  || { echo "check failed: perf sweep did not complete" >&2; exit 1; }
test -s "$out/perf.json" || { echo "check failed: BENCH_perf.json missing or empty" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out" "$out/perf.json" BENCH_perf.json <<'EOF' || { echo "check failed: BENCH_perf.json malformed or regressed" >&2; exit 1; }
import sys
sys.path.insert(0, sys.argv[1])
from bench_record import check_record
runs = check_record(sys.argv[2], "perf")["runs"]
assert len(runs) == 6, f"expected 6 runs, got {len(runs)}"
committed = check_record(sys.argv[3], "perf")["runs"]
key = lambda r: (r["n"], r["topology"])
assert [key(r) for r in runs] == [key(r) for r in committed], "sweep shape changed"
for fresh, base in zip(runs, committed):
    for field in ("events_fired", "committed", "rule_mix", "audit_ok"):
        assert fresh[field] == base[field], (
            f"n={fresh['n']} {fresh['topology']} behaviour changed: {field} {fresh[field]} vs "
            f"committed {base[field]}")
fresh, base = (next(r for r in rs if key(r) == (50, "gcp10")) for rs in (runs, committed))
alloc = fresh["allocated_words"] / base["allocated_words"]
assert alloc <= 1.10, (
    f"n=50 gcp10 regressed: {fresh['allocated_words']} allocated words vs "
    f"committed {base['allocated_words']} (ratio {alloc:.2f} > 1.10)")
print(f"perf guard: behaviour identical at all 6 points, n=50 gcp10 {alloc:.2f}x committed "
      f"allocations, {fresh['events_per_sec'] / base['events_per_sec']:.2f}x committed ev/s (informational)")
EOF
else
  grep -q '"audit_ok":true' "$out/perf.json" \
    || { echo "check failed: BENCH_perf.json has no passing audit" >&2; exit 1; }
fi

# Benchmark digest guard: one short run of each simulator workload of the
# repository benchmark at seed 3 must order the pinned commit stream. The
# digests are a function of the seed only, so any change to them is a
# change of behaviour and must be re-pinned on purpose.
for pin in sim-gcp10:2944a3ef9715988bb326ed0e9847ca95 sim-lifecycle:87a4f2277c97ff1c4307d36e7844cffe; do
  workload=${pin%%:*}
  want=${pin#*:}
  run_out=$(timeout 300 python3 perfbench/run.py --workload "$workload" --seed 3 --seconds 1 --trace 0) \
    || { echo "check failed: perfbench $workload failed its own checks" >&2; exit 1; }
  got=$(printf '%s\n' "$run_out" | awk '$1 == "log_digest" { print $2 }')
  [ "$got" = "$want" ] \
    || { echo "check failed: perfbench $workload log_digest $got, pinned $want" >&2; exit 1; }
done
echo "perfbench digests: sim-gcp10 and sim-lifecycle at seed 3 match the pins"

echo "check: build + tests + docs + observability/scenario + usage error + bench records + node + live scrape + trace analysis + multicore + tcp + verified tcp + gcp10 shim + node bench + perf smoke + perfbench digests OK"
