#!/usr/bin/env bash
# Admin-endpoint e2e across a failover: a durable primary with an
# attached follower, both serving -admin. Drive real client traffic at
# the primary, scrape both roles mid-run, SIGKILL the primary, promote
# the follower (SIGUSR1), finish the round against the promoted node,
# and require its admin endpoint to have survived the promotion — role
# gauges flipped, counters continuous, /healthz flipped from
# warm-replica/caught-up to a serving primary.
#
# Usage: admin_e2e.sh <bin-dir> <artifact-dir>
#   bin-dir      : directory holding eyewnder-server and eyewnder-client
#   artifact-dir : where the scraped /metrics and /statusz bodies land
set -euo pipefail

bin="$1"
arts="$2"
mkdir -p "$arts"

BE1=127.0.0.1:7871
OPRF1=127.0.0.1:7872
REPL=127.0.0.1:7873
ADMIN1=127.0.0.1:7874
BE2=127.0.0.1:7875
OPRF2=127.0.0.1:7876
ADMIN2=127.0.0.1:7877

dir="$(mktemp -d)"
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
}
trap cleanup EXIT

# wait_port <host:port>: block until something listens there.
wait_port() {
    local hp="$1" i
    for i in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/${hp%:*}/${hp#*:}") 2>/dev/null; then
            exec 3>&- 3<&-
            return 0
        fi
        sleep 0.2
    done
    echo "nothing listening on $hp" >&2
    return 1
}

# poll_until <seconds> <cmd...>: retry a scrape predicate at 4 Hz.
poll_until() {
    local secs="$1" i
    shift
    for i in $(seq 1 $((secs * 4))); do
        if "$@" >/dev/null 2>&1; then return 0; fi
        sleep 0.25
    done
    echo "timed out waiting for: $*" >&2
    return 1
}

# metric <admin-addr> <name>: one sample's value off /metrics (0 if absent).
metric() {
    curl -sf "http://$1/metrics" | awk -v m="$2" '$1 == m { print $2; found = 1 } END { if (!found) print 0 }'
}

metric_is() { # <admin-addr> <name> <want>
    [ "$(metric "$1" "$2")" = "$3" ]
}

# body_has <url> <pattern>: fetch the whole body first, then grep it.
# Under pipefail, `curl | grep -q` fails when grep exits at its match
# before curl has written the whole body (curl exits 23).
body_has() {
    local body
    body="$(curl -sf "$1")"
    grep -q "$2" <<<"$body"
}

"$bin/eyewnder-server" -backend "$BE1" -oprf "$OPRF1" -users 3 \
    -data-dir "$dir/primary" -repl "$REPL" -admin "$ADMIN1" \
    >"$dir/primary.log" 2>&1 &
pids+=($!)
primary_pid=$!

# The follower needs the primary reachable at start (its initial sync
# is what gives it something to serve).
wait_port "$REPL"

"$bin/eyewnder-server" -backend "$BE2" -oprf "$OPRF2" -users 3 \
    -data-dir "$dir/follower" -follow "$REPL" -admin "$ADMIN2" \
    -repl-status-every 2s \
    >"$dir/follower.log" 2>&1 &
pids+=($!)
follower_pid=$!

poll_until 20 curl -sf "http://$ADMIN1/healthz"
poll_until 20 curl -sf "http://$ADMIN2/healthz"

# Both roles answer the full admin surface before any traffic.
body_has "http://$ADMIN1/healthz" '"role":"primary"'
body_has "http://$ADMIN2/healthz" '"role":"follower"'
body_has "http://$ADMIN2/metrics" '^eyewnder_replica 1$'
curl -sf "http://$ADMIN1/debug/pprof/cmdline" >/dev/null
curl -sf "http://$ADMIN2/debug/pprof/cmdline" >/dev/null

# Round 1: the whole roster reports at the primary (clients block until
# the full roster has registered, so they must run concurrently).
"$bin/eyewnder-client" -backend "$BE1" -oprf "$OPRF1" -user 0 -visits 10 >"$dir/c0.log" 2>&1 &
c0=$!
"$bin/eyewnder-client" -backend "$BE1" -oprf "$OPRF1" -user 1 -visits 10 >"$dir/c1.log" 2>&1 &
c1=$!
timeout 60 "$bin/eyewnder-client" -backend "$BE1" -oprf "$OPRF1" -user 2 -visits 10 -close >"$dir/c2.log" 2>&1
wait "$c0" "$c1"
grep -q "closed: Users_th" "$dir/c2.log"

# Scrape the live primary: the traffic is visible.
metric_is "$ADMIN1" eyewnder_reports_accepted_total 3
metric_is "$ADMIN1" eyewnder_rounds_opened_total 1
metric_is "$ADMIN1" eyewnder_rounds_closed_total 1
curl -sf "http://$ADMIN1/metrics" >"$arts/primary_metrics_midrun.txt"
curl -sf "http://$ADMIN1/statusz" >"$arts/primary_statusz_midrun.json"
grep -q '^eyewnder_store_fsyncs_total [1-9]' "$arts/primary_metrics_midrun.txt"
grep -q '"reported": 3' "$arts/primary_statusz_midrun.json"

# The follower mirrors it; wait until it is caught up, then scrape.
poll_until 30 metric_is "$ADMIN2" eyewnder_repl_caught_up 1
curl -sf "http://$ADMIN2/metrics" >"$arts/follower_metrics_midrun.txt"
curl -sf "http://$ADMIN2/statusz" >"$arts/follower_statusz_midrun.json"
grep -q '^eyewnder_repl_events_total [1-9]' "$arts/follower_metrics_midrun.txt"
body_has "http://$ADMIN2/healthz" '"detail":"caught-up"'
events_before="$(metric "$ADMIN2" eyewnder_repl_events_total)"

# Kill the primary dead, promote the follower.
kill -9 "$primary_pid"
wait "$primary_pid" 2>/dev/null || true
kill -USR1 "$follower_pid"
poll_until 20 metric_is "$ADMIN2" eyewnder_replica 0
body_has "http://$ADMIN2/healthz" '"detail":"promoted"'

# The registry survived: the replication counters did not reset.
events_after="$(metric "$ADMIN2" eyewnder_repl_events_total)"
if [ "${events_after%.*}" -lt "${events_before%.*}" ]; then
    echo "repl counters reset across promotion: $events_before -> $events_after" >&2
    exit 1
fi

# Round 2 runs entirely against the promoted node. Each client is a
# fresh process with a fresh blinding key, so the three registrations
# bump the config version three times while the clients are joining: a
# client that joined against a roster still holding a peer's old key has
# its report refused as stale and answers by re-Joining (the submitted
# line carries the version it finally went out under). The -close client
# waits for the whole roster's reports; the timeout turns a round that
# can never fill into a failure instead of a hang.
"$bin/eyewnder-client" -backend "$BE2" -oprf "$OPRF2" -user 0 -visits 10 -round 2 >"$dir/p0.log" 2>&1 &
p0=$!
"$bin/eyewnder-client" -backend "$BE2" -oprf "$OPRF2" -user 1 -visits 10 -round 2 >"$dir/p1.log" 2>&1 &
p1=$!
timeout 60 "$bin/eyewnder-client" -backend "$BE2" -oprf "$OPRF2" -user 2 -visits 10 -round 2 -close >"$dir/p2.log" 2>&1
wait "$p0" "$p1"
grep -q "closed: Users_th" "$dir/p2.log"

# Post-promotion scrape: the promoted back-end's ingest and round
# lifecycle are on the SAME endpoint, continuing the same series.
# (Round 1 arrived via replication — repl_events — so accepted counts
# only the promoted node's own ingest.)
metric_is "$ADMIN2" eyewnder_reports_accepted_total 3
metric_is "$ADMIN2" eyewnder_rounds_closed_total 1
curl -sf "http://$ADMIN2/metrics" >"$arts/promoted_metrics.txt"
curl -sf "http://$ADMIN2/statusz" >"$arts/promoted_statusz.json"
grep -q '"role": "primary"' "$arts/promoted_statusz.json"
grep -q '"store"' "$arts/promoted_statusz.json"

echo "OK: admin endpoint served both roles and survived promotion"
