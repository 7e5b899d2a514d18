#!/usr/bin/env bash
# Multi-campaign e2e: the full campaign story against real binaries.
#
#  1. Pipeline oracle match — `eyewnder-sim -pipeline` renders adsim
#     pages, detects ads, maps them to campaigns, streams blinded
#     reports for 8 campaigns over one connection, and byte-matches
#     every (campaign, round) count against an unblinded oracle. Run
#     it twice with one seed: both runs must match their oracles on
#     every campaign-round AND produce the same fold digest.
#  2. Durable directory + config bump + SIGKILL — `eyewnder-server
#     -campaigns` provisions a directory on a durable store, serves a
#     full client round, dies by SIGKILL, and restarts with a bumped
#     spec that changes retain/cadence ONLY (geometry is pinned by
#     live rounds). The recovered /statusz must show the closed round,
#     the intact directory, and the bumped knobs.
#
# The per-campaign accepted counters of campaigns multiplexed over one
# connection are reconciled in Go, by internal/backend's
# TestCampaignCountersOverOneStream.
#
# Usage: multicampaign_e2e.sh <bin-dir> <artifact-dir>
#   bin-dir      : directory holding eyewnder-sim, eyewnder-server,
#                  eyewnder-client
#   artifact-dir : where summaries and scraped bodies land
set -euo pipefail

bin="$1"
arts="$2"
mkdir -p "$arts"

BE=127.0.0.1:7941
OPRF=127.0.0.1:7942
ADMIN=127.0.0.1:7943

dir="$(mktemp -d)"
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
}
trap cleanup EXIT

# poll_until <seconds> <cmd...>: retry a predicate at 4 Hz.
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

# jq_check <file> <expr>: require a jq boolean to hold on a JSON file.
jq_check() {
    if [ "$(jq "$2" "$1")" != "true" ]; then
        echo "assertion failed on $1: $2" >&2
        jq . "$1" >&2 || cat "$1" >&2
        exit 1
    fi
}

echo "== 1. pipeline: 8 campaigns byte-matched against the oracle, twice =="
"$bin/eyewnder-sim" -pipeline -pipeline-users 12 -pipeline-weeks 2 \
    -pipeline-campaigns 8 -seed 5 >"$dir/pipe1.out" 2>"$arts/pipeline_run1.log"
tail -1 "$dir/pipe1.out" >"$arts/pipeline_run1.json"
jq_check "$arts/pipeline_run1.json" '.schema == "eyewnder-pipeline/v1"'
jq_check "$arts/pipeline_run1.json" '.campaigns == 8 and .rounds == 2'
# Every (campaign, round) pair matched its oracle exactly.
jq_check "$arts/pipeline_run1.json" '.matched_campaigns == .campaigns * .rounds'
jq_check "$arts/pipeline_run1.json" '.reports == .users * .rounds * .campaigns'
jq_check "$arts/pipeline_run1.json" '.ads_mapped > 0 and .pages > 0'

"$bin/eyewnder-sim" -pipeline -pipeline-users 12 -pipeline-weeks 2 \
    -pipeline-campaigns 8 -seed 5 >"$dir/pipe2.out" 2>/dev/null
tail -1 "$dir/pipe2.out" >"$arts/pipeline_run2.json"
d1="$(jq -r .digest "$arts/pipeline_run1.json")"
d2="$(jq -r .digest "$arts/pipeline_run2.json")"
if [ -z "$d1" ] || [ "$d1" != "$d2" ]; then
    echo "pipeline digest not deterministic: $d1 vs $d2" >&2
    exit 1
fi
echo "   digest $d1 reproduced"

echo "== 2. server: durable directory, SIGKILL, retain/cadence bump =="
spec1='id=1,name=autos,eps=0.02,delta=0.01,ids=4096,retain=2,cadence=300;id=2,name=travel,eps=0.01,delta=0.01,ids=8192,ks=aes-ctr'
"$bin/eyewnder-server" -backend "$BE" -oprf "$OPRF" -users 3 \
    -campaigns "$spec1" -data-dir "$dir/server" -admin "$ADMIN" \
    >"$dir/server1.log" 2>&1 &
pids+=($!)
server_pid=$!
poll_until 20 curl -sf "http://$ADMIN/healthz"

curl -sf "http://$ADMIN/statusz" >"$arts/statusz_before.json"
jq_check "$arts/statusz_before.json" '.campaigns | length == 2'
jq_check "$arts/statusz_before.json" '.campaigns[0] | .id == 1 and .name == "autos" and .retain_rounds == 2 and .cadence_sec == 300'
jq_check "$arts/statusz_before.json" '.campaigns[1] | .id == 2 and .id_space == 8192'

# A full roster round of legacy (campaign-0) traffic rides the same
# deployment the directory is provisioned on.
"$bin/eyewnder-client" -backend "$BE" -oprf "$OPRF" -user 0 -visits 10 >"$dir/c0.log" 2>&1 &
c0=$!
"$bin/eyewnder-client" -backend "$BE" -oprf "$OPRF" -user 1 -visits 10 >"$dir/c1.log" 2>&1 &
c1=$!
"$bin/eyewnder-client" -backend "$BE" -oprf "$OPRF" -user 2 -visits 10 -close >"$dir/c2.log" 2>&1
wait "$c0" "$c1"
grep -q "closed: Users_th" "$dir/c2.log"
# Scrape to a file first: under pipefail, `curl | grep -q` fails when
# grep exits at its match before curl has written the whole body.
curl -sf "http://$ADMIN/metrics" >"$arts/metrics_round1.txt"
grep -q '^eyewnder_campaign_reports_accepted_total{campaign="0"} 3$' "$arts/metrics_round1.txt"

kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true

# Restart with a bumped spec: retain/cadence move, geometry does not
# (live rounds pin their geometry; only operational knobs may drift).
spec2='id=1,name=autos,eps=0.02,delta=0.01,ids=4096,retain=5,cadence=600;id=2,name=travel,eps=0.01,delta=0.01,ids=8192,ks=aes-ctr,retain=3'
"$bin/eyewnder-server" -backend "$BE" -oprf "$OPRF" -users 3 \
    -campaigns "$spec2" -data-dir "$dir/server" -admin "$ADMIN" \
    >"$dir/server2.log" 2>&1 &
pids+=($!)
poll_until 20 curl -sf "http://$ADMIN/healthz"

curl -sf "http://$ADMIN/statusz" >"$arts/statusz_after.json"
# The directory survived the crash and the bump took.
jq_check "$arts/statusz_after.json" '.campaigns | length == 2'
jq_check "$arts/statusz_after.json" '.campaigns[0] | .id == 1 and .name == "autos" and .retain_rounds == 5 and .cadence_sec == 600'
jq_check "$arts/statusz_after.json" '.campaigns[0] | .epsilon == 0.02 and .id_space == 4096'
jq_check "$arts/statusz_after.json" '.campaigns[1] | .retain_rounds == 3 and .id_space == 8192'
# The closed campaign-0 round was recovered with its full roster.
jq_check "$arts/statusz_after.json" '[.rounds[] | select(.campaign == 0 and .round == 1)] | length == 1 and .[0].closed and .[0].reported == 3'

# And the recovered deployment still serves: round 2 end to end.
"$bin/eyewnder-client" -backend "$BE" -oprf "$OPRF" -user 0 -visits 10 -round 2 >"$dir/r0.log" 2>&1 &
r0=$!
"$bin/eyewnder-client" -backend "$BE" -oprf "$OPRF" -user 1 -visits 10 -round 2 >"$dir/r1.log" 2>&1 &
r1=$!
"$bin/eyewnder-client" -backend "$BE" -oprf "$OPRF" -user 2 -visits 10 -round 2 -close >"$dir/r2.log" 2>&1
wait "$r0" "$r1"
grep -q "closed: Users_th" "$dir/r2.log"

echo "OK: campaigns oracle-matched, crashed, bumped, recovered"
