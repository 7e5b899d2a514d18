#!/usr/bin/env bash
# Cross-version compatibility e2e for the wire protocol.
#
# Usage: compat_e2e.sh <mode> <old-bin-dir> <new-bin-dir>
#   mode old-client-new-server : the previous release's clients must
#        complete a full streamed-report round against the current
#        server, reporting into campaign 0.
#   mode new-client-old-server : the current client must complete a
#        full round against the previous release's server — its
#        campaign-0 traffic is byte-identical to that release's.
#   mode datadir-upgrade : the previous release's server runs and closes
#        round 1 on a -data-dir and stops; the current server, started
#        on the same directory, must report the same config version,
#        roster version and rounds on /statusz, and then close round 2
#        with the current clients (OPERATIONS.md §3).
#
# The compatibility window is the previous release only (OPERATIONS.md
# §10): both sides negotiate their config through the handshake and
# take no protocol flags.
#
# Every mode binds to fixed localhost ports; the script owns the
# processes it starts and kills them on exit.
set -euo pipefail

mode="$1"
old="$2"
new="$3"

BE=127.0.0.1:7861
OPRF=127.0.0.1:7862
ADMIN=127.0.0.1:7863
# The upgraded server listens on fresh ports: the stopped one's can
# linger.
BE2=127.0.0.1:7864
OPRF2=127.0.0.1:7865
ADMIN2=127.0.0.1:7866
log="$(mktemp -d)"
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
}
trap cleanup EXIT

wait_port() { # host:port
    local hp="$1" i
    for i in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/${hp%:*}/${hp#*:}") 2>/dev/null; then
            exec 3>&- 3<&-
            return 0
        fi
        sleep 0.2
    done
    echo "server on $hp never came up" >&2
    return 1
}

# run_round <client-bin-dir> <backend> <oprf> <round>: one 3-user round
# whose clients negotiate the server's geometry, report into campaign 0,
# and close the round.
run_round() {
    local bin="$1" be="$2" op="$3" round="$4" c0 c1
    "$bin/eyewnder-client" -backend "$be" -oprf "$op" -user 0 -round "$round" -visits 10 >"$log/r$round-c0.log" 2>&1 &
    c0=$!
    "$bin/eyewnder-client" -backend "$be" -oprf "$op" -user 1 -round "$round" -visits 10 >"$log/r$round-c1.log" 2>&1 &
    c1=$!
    if ! "$bin/eyewnder-client" -backend "$be" -oprf "$op" -user 2 -round "$round" -visits 10 -close >"$log/r$round-c2.log" 2>&1; then
        echo "$mode: round $round client failed against the server:" >&2
        tail -n 20 "$log/r$round-c2.log" "$log"/server*.log >&2
        exit 1
    fi
    wait "$c0" "$c1"
    grep -q "closed: Users_th" "$log/r$round-c2.log"
}

# durable_state <admin>: the /statusz fields an upgrade must carry over.
durable_state() {
    curl -sf "http://$1/statusz" | jq -S -c '{config_version, roster_version, rounds}'
}

case "$mode" in
old-client-new-server | new-client-old-server)
    # One round, server from one release and clients from the other.
    if [ "$mode" = old-client-new-server ]; then
        srv="$new" cli="$old" what="previous release's clients completed a round against the current server"
    else
        srv="$old" cli="$new" what="current clients completed a round against the previous release's server"
    fi
    "$srv/eyewnder-server" -backend "$BE" -oprf "$OPRF" -users 3 >"$log/server.log" 2>&1 &
    pids+=($!)
    wait_port "$BE"
    run_round "$cli" "$BE" "$OPRF" 1
    ;;
datadir-upgrade)
    data="$log/data"
    "$old/eyewnder-server" -backend "$BE" -oprf "$OPRF" -users 3 -data-dir "$data" -admin "$ADMIN" >"$log/server-old.log" 2>&1 &
    oldpid=$!
    pids+=("$oldpid")
    wait_port "$BE"
    wait_port "$ADMIN"
    run_round "$old" "$BE" "$OPRF" 1
    before="$(durable_state "$ADMIN")"
    kill -INT "$oldpid"
    wait "$oldpid" || true

    "$new/eyewnder-server" -backend "$BE2" -oprf "$OPRF2" -users 3 -data-dir "$data" -admin "$ADMIN2" >"$log/server-new.log" 2>&1 &
    pids+=($!)
    wait_port "$BE2"
    wait_port "$ADMIN2"
    after="$(durable_state "$ADMIN2")"
    if [ "$before" != "$after" ]; then
        echo "$mode: the upgraded server recovered a different state:" >&2
        echo "  previous release: $before" >&2
        echo "  current release:  $after" >&2
        exit 1
    fi
    run_round "$new" "$BE2" "$OPRF2" 2
    what="the current server recovered the previous release's data directory ($before) and closed round 2"
    ;;
*)
    echo "unknown mode $mode" >&2
    exit 2
    ;;
esac
echo "OK: $what"
