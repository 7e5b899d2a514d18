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
#
# The compatibility window is the previous release only (OPERATIONS.md
# §10): both sides negotiate their config through the handshake and
# take no protocol flags.
#
# Both directions bind to fixed localhost ports; the script owns the
# processes it starts and kills them on exit.
set -euo pipefail

mode="$1"
old="$2"
new="$3"

BE=127.0.0.1:7861
OPRF=127.0.0.1:7862
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

# One 3-user round, server from one release and clients from the other;
# the clients negotiate the server's geometry and report into campaign 0.
case "$mode" in
old-client-new-server) srv="$new" cli="$old" what="previous release's clients completed a round against the current server" ;;
new-client-old-server) srv="$old" cli="$new" what="current clients completed a round against the previous release's server" ;;
*)
    echo "unknown mode $mode" >&2
    exit 2
    ;;
esac

"$srv/eyewnder-server" -backend "$BE" -oprf "$OPRF" -users 3 >"$log/server.log" 2>&1 &
pids+=($!)
wait_port "$BE"
"$cli/eyewnder-client" -backend "$BE" -oprf "$OPRF" -user 0 -visits 10 >"$log/c0.log" 2>&1 &
c0=$!
"$cli/eyewnder-client" -backend "$BE" -oprf "$OPRF" -user 1 -visits 10 >"$log/c1.log" 2>&1 &
c1=$!
if ! "$cli/eyewnder-client" -backend "$BE" -oprf "$OPRF" -user 2 -visits 10 -close >"$log/c2.log" 2>&1; then
    echo "$mode: client failed against the server:" >&2
    tail -n 20 "$log"/c2.log "$log"/server.log >&2
    exit 1
fi
wait "$c0" "$c1"
grep -q "closed: Users_th" "$log/c2.log"
echo "OK: $what"
