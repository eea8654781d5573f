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

# Submit a run sized to stay in flight long enough to observe and to
# flood the queue behind it (~3 s on one core).
run_id="$(curl -sf -X POST "http://$addr/runs" \
  -d '{"experiments": ["serving2"], "queries": 20000, "rates": "1,2", "replicas": "1,2"}' \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"

# Poll /metrics while the run advances; require >= 2 distinct live
# serve-event counts (the acceptance criterion for live observability).
# Once the run is in flight, POST maxQueuedRuns+1 cheap scenarios: at
# least one must be refused with 429 and a Retry-After header.
max_queued="$(sed -n 's/^const maxQueuedRuns = \([0-9]*\)$/\1/p' internal/daemon/daemon.go)"
test -n "$max_queued"
distinct="$(python3 - "$addr" "$run_id" "$max_queued" <<'PY'
import json, sys, time, urllib.error, urllib.request

addr, run_id, max_queued = sys.argv[1], sys.argv[2], int(sys.argv[3])
def get(path):
    with urllib.request.urlopen(f"http://{addr}{path}") as r:
        return json.load(r)

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
    if refused == 0 or get("/metrics")["rejected"] < refused:
        sys.exit(f"flood: {refused} refused, /metrics counts {get('/metrics')['rejected']}")
    print(f"queue flood: {refused} of {max_queued + 1} refused with 429", file=sys.stderr)

seen = set()
flooded = False
deadline = time.time() + 120
while time.time() < deadline:
    state = get(f"/runs/{run_id}")["state"]
    events = get("/metrics")["serve"]["events"]
    if state == "running":
        seen.add(events)
        if not flooded:
            flood()
            flooded = True
    if state in ("done", "failed", "canceled"):
        if state != "done":
            sys.exit(f"run finished {state}")
        break
else:
    sys.exit("run did not finish")
if not flooded:
    sys.exit("run finished before the queue flood")
print(len(seen))
PY
)"
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
drill_id="$(curl -sf -X POST "http://$addr/runs" \
  -d '{"experiments": ["serving2"], "queries": 2000, "rates": "1,2", "replicas": "1,2"}' \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"
# SIGTERM as soon as the run is observably in flight.
python3 - "$addr" "$drill_id" <<'PY'
import json, sys, time, urllib.request
addr, run_id = sys.argv[1], sys.argv[2]
deadline = time.time() + 60
while time.time() < deadline:
    with urllib.request.urlopen(f"http://{addr}/runs/{run_id}") as r:
        if json.load(r)["state"] == "running":
            sys.exit(0)
    time.sleep(0.05)
sys.exit("drill run never started")
PY
kill -TERM "$pid"
wait "$pid"
rc=$?
test "$rc" -eq 0
test -s "$out/drill/$drill_id/manifest.json"
grep -q "injecting 30s lane outage" "$drill_log"
grep -q "drain drill:" "$drill_log"
grep -q "drained cleanly" "$drill_log"
echo "facild smoke: OK"
