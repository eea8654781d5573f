#!/usr/bin/env bash
# facild end-to-end smoke: start the daemon, submit a scenario, watch
# /metrics move while the run is in flight, flood POST /runs past the
# queue cap and require a 429 with Retry-After, SIGTERM it mid-service and
# assert a clean drain (exit 0, manifest flushed); then repeat the drain
# against a -drainoutage daemon with the run still in flight and assert
# the fault drill fires (outage logged, drill counters logged, run
# completes, exit 0). CI runs this on every push; it is also a local
# one-liner: scripts/facild_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

addr="localhost:${FACILD_PORT:-18327}"
out="$(mktemp -d)"
log="$out/facild.log"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$out"' EXIT

go build -o "$out/facild" ./cmd/facild
"$out/facild" -addr "$addr" -o "$out/results" >"$log" 2>&1 &
pid=$!

# Wait for the listener.
for _ in $(seq 1 50); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://$addr/healthz" >/dev/null

curl -sf "http://$addr/version"
curl -sf "http://$addr/experiments" | grep -q '"serving2"'

# Submit a serving2 run, poll /metrics while it advances and require
# >= 2 distinct live serve-event counts (the acceptance criterion for
# live observability). Once the run is in flight, POST maxQueuedRuns+1
# cheap scenarios: at least one must be refused with 429 and a
# Retry-After header. How long a run stays in flight depends on the
# machine, so the run is sized by measurement: when it is never seen
# running, or it finishes before the flood does, the attempt proves
# nothing, and once the daemon is idle again it is resubmitted with 4x
# the queries, up to query_cap (below run's maxQueries).
max_queued="$(sed -n 's/^const maxQueuedRuns = \([0-9]*\)$/\1/p' internal/daemon/daemon.go)"
max_queries="$(sed -n 's/^\tmaxQueries *= \([0-9_]*\)$/\1/p' internal/run/scenario.go | tr -d _)"
query_cap=1280000
test -n "$max_queued"
test -n "$max_queries"
test "$query_cap" -lt "$max_queries"
result="$(python3 - "$addr" "$max_queued" "$query_cap" <<'PY'
import json, sys, time, urllib.error, urllib.request

addr, max_queued, query_cap = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
def get(path):
    with urllib.request.urlopen(f"http://{addr}{path}") as r:
        return json.load(r)

def submit(queries):
    body = {"experiments": ["serving2"], "queries": queries, "rates": "1,2", "replicas": "1,2"}
    req = urllib.request.Request(f"http://{addr}/runs", method="POST", data=json.dumps(body).encode())
    with urllib.request.urlopen(req) as r:
        return json.load(r)["id"]

def flood():
    refused = 0
    for _ in range(max_queued + 1):
        req = urllib.request.Request(f"http://{addr}/runs", method="POST",
                                     data=b'{"experiments":["tab2"]}')
        try:
            urllib.request.urlopen(req).close()
        except urllib.error.HTTPError as e:
            if e.code != 429 or not e.headers.get("Retry-After"):
                sys.exit(f"flood: got {e.code}, want 202 or 429 with Retry-After")
            refused += 1
    return refused

def check_flood(refused):
    if refused == 0 or get("/metrics")["rejected"] < refused:
        sys.exit(f"flood: {refused} refused, /metrics counts {get('/metrics')['rejected']}")
    print(f"queue flood: {refused} of {max_queued + 1} refused with 429", file=sys.stderr)

def wait_idle():
    deadline = time.time() + 120
    while time.time() < deadline:
        runs = get("/metrics")["runs"]
        if runs["queued"] == 0 and runs["running"] == 0:
            return
        time.sleep(0.05)
    sys.exit("daemon did not go idle")

queries = 20000
while True:
    run_id = submit(queries)
    seen = set()
    tried = flooded = False
    deadline = time.time() + 120
    while time.time() < deadline:
        state = get(f"/runs/{run_id}")["state"]
        events = get("/metrics")["serve"]["events"]
        if state == "running":
            seen.add(events)
            if not tried:
                tried = True
                refused = flood()
                # Only a flood that ended with the run still in flight
                # had the queue to itself.
                flooded = get(f"/runs/{run_id}")["state"] == "running"
                if flooded:
                    check_flood(refused)
        if state in ("done", "failed", "canceled"):
            if state != "done":
                sys.exit(f"run finished {state}")
            break
    else:
        sys.exit("run did not finish")
    if flooded:
        break
    if queries * 4 > query_cap:
        sys.exit(f"run of {queries} queries finished before the queue flood")
    print(f"run of {queries} queries finished before the queue flood; resubmitting with {queries * 4}", file=sys.stderr)
    wait_idle()
    queries *= 4
print(run_id, len(seen))
PY
)"
read -r run_id distinct <<<"$result"
echo "distinct in-flight metric snapshots: $distinct"
test "$distinct" -ge 2

curl -sf "http://$addr/runs/$run_id/report" | python3 -c 'import json,sys; json.load(sys.stdin)'
curl -sf "http://$addr/trace" | grep -q traceEvents

# Graceful drain: SIGTERM, then the process must exit 0 with the run's
# manifest flushed to disk.
kill -TERM "$pid"
wait "$pid"
rc=$?
test "$rc" -eq 0
test -s "$out/results/$run_id/manifest.json"
test -s "$out/results/$run_id/serving2.json"
grep -q "drained cleanly" "$log"

# Drain drill: restart with -drainoutage, SIGTERM while a run is in
# flight, and assert the injected outage is logged, the drill summary is
# logged, the run still completes and flushes, and the exit is clean.
drill_log="$out/facild_drill.log"
"$out/facild" -addr "$addr" -o "$out/drill" -drainoutage 30 >"$drill_log" 2>&1 &
pid=$!
for _ in $(seq 1 50); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
# Submit the drill run and SIGTERM the daemon as soon as the run is
# observably in flight. A run that goes from queued to done between two
# polls is resubmitted with 4x the queries, up to query_cap.
drill_id="$(python3 - "$addr" "$query_cap" "$pid" <<'PY'
import json, os, signal, sys, time, urllib.request
addr, query_cap, pid = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
def get(path):
    with urllib.request.urlopen(f"http://{addr}{path}") as r:
        return json.load(r)

queries = 2000
while True:
    body = {"experiments": ["serving2"], "queries": queries, "rates": "1,2", "replicas": "1,2"}
    req = urllib.request.Request(f"http://{addr}/runs", method="POST", data=json.dumps(body).encode())
    with urllib.request.urlopen(req) as r:
        run_id = json.load(r)["id"]
    deadline = time.time() + 60
    while time.time() < deadline:
        state = get(f"/runs/{run_id}")["state"]
        if state == "running":
            os.kill(pid, signal.SIGTERM)
            print(run_id)
            sys.exit(0)
        if state in ("done", "failed", "canceled"):
            break
        time.sleep(0.05)
    else:
        sys.exit("drill run never started")
    if queries * 4 > query_cap:
        sys.exit(f"drill run of {queries} queries never seen running")
    print(f"drill run of {queries} queries never seen running; resubmitting with {queries * 4}", file=sys.stderr)
    queries *= 4
PY
)"
wait "$pid"
rc=$?
test "$rc" -eq 0
test -s "$out/drill/$drill_id/manifest.json"
grep -q "injecting 30s lane outage" "$drill_log"
grep -q "drain drill:" "$drill_log"
grep -q "drained cleanly" "$drill_log"
echo "facild smoke: OK"
