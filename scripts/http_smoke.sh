#!/bin/sh
# Smoke-test the HTTP/JSON serving layer on a real multi-process
# deployment: three codb-peer processes on a TCP chain, each with its own
# gateway, bootstrapped by codb-super, then driven end to end with curl —
# health, insert, update, sync and streaming queries, a repeated query
# answered from the cache, stats, the 404/400/413 error mapping (malformed
# and oversize bodies included), and runtime membership: a fourth peer
# admitted over POST /v1/membership/join, an update with it present, a
# coordinated leave (its tombstone visible on the remover and on a peer it
# flooded), and the survivors answering afterwards. A second, durable chain
# then checks that a relay killed and restarted over its directory resumes
# incremental export.
set -eu

dir=$(mktemp -d)
pids=""
cleanup() {
    [ -n "$pids" ] && kill $pids 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir" ./cmd/codb-peer ./cmd/codb-super ./cmd/codb-gen

"$dir/codb-gen" -shape chain -n 3 -addr-base 127.0.0.1:7180 >"$dir/net.codb"

for i in 0 1 2; do
    "$dir/codb-peer" -name "N$i" -config "$dir/net.codb" \
        -http "127.0.0.1:818$i" >"$dir/N$i.log" 2>&1 &
    pids="$pids $!"
done

# Wait for every gateway to come up.
for i in 0 1 2; do
    ok=""
    for _ in $(seq 1 50); do
        if curl -fsS "http://127.0.0.1:818$i/healthz" >/dev/null 2>&1; then
            ok=1
            break
        fi
        sleep 0.2
    done
    if [ -z "$ok" ]; then
        echo "gateway N$i never became healthy" >&2
        cat "$dir/N$i.log" >&2
        exit 1
    fi
done
echo "all gateways healthy"

# Seed each node over HTTP with one distinct tuple.
for i in 0 1 2; do
    curl -fsS -X POST "http://127.0.0.1:818$i/v1/insert" \
        -d "{\"relation\":\"data\",\"rows\":[[$i,$((i * 10))]]}" |
        grep -q '"inserted":1'
done
echo "inserts ok"

# Global update over HTTP at the chain head: the chain rules pull every
# tuple to N0.
curl -fsS -X POST 'http://127.0.0.1:8180/v1/update?timeout=1m' -d '{}' |
    grep -q '"report"'
echo "update ok"

# N0 must now hold all three tuples, via both the sync and the NDJSON
# streaming form.
body=$(curl -fsS -X POST http://127.0.0.1:8180/v1/query \
    -d '{"query":"ans(k, v) :- data(k, v)","local":true}')
echo "$body" | grep -q '"count":3' || {
    echo "sync query: want count 3, got: $body" >&2
    exit 1
}
stream=$(curl -fsS -X POST 'http://127.0.0.1:8180/v1/query?stream=ndjson' \
    -d '{"query":"ans(k, v) :- data(k, v)","local":true}')
echo "$stream" | tail -1 | grep -q '"done":true' || {
    echo "stream query: missing trailer, got: $stream" >&2
    exit 1
}
# The same text again: served from N0's statement table and result cache.
hits0=$(curl -fsS http://127.0.0.1:8180/v1/stats/read | sed 's/.*"Hits":\([0-9]*\).*/\1/')
body=$(curl -fsS -X POST http://127.0.0.1:8180/v1/query \
    -d '{"query":"ans(k, v) :- data(k, v)","local":true}')
echo "$body" | grep -q '"count":3' || {
    echo "repeated query: want count 3, got: $body" >&2
    exit 1
}
hits1=$(curl -fsS http://127.0.0.1:8180/v1/stats/read | sed 's/.*"Hits":\([0-9]*\).*/\1/')
[ "$hits1" -eq $((hits0 + 1)) ] || {
    echo "repeated query: cache hits went $hits0 -> $hits1, want one more" >&2
    exit 1
}
echo "queries ok"

# Stats and schema surface on every node; the wire counters must show
# real traffic after the update.
curl -fsS http://127.0.0.1:8181/v1/stats/wire | grep -q '"frames_sent"'
curl -fsS http://127.0.0.1:8182/v1/schema | grep -q '"data"'
echo "stats ok"

# Error mapping: unknown node is 404, a bad query is 400.
code=$(curl -s -o /dev/null -w '%{http_code}' \
    'http://127.0.0.1:8180/v1/schema?node=nope')
[ "$code" = 404 ] || {
    echo "unknown node: want 404, got $code" >&2
    exit 1
}
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    http://127.0.0.1:8180/v1/query -d '{"query":"not a query"}')
[ "$code" = 400 ] || {
    echo "bad query: want 400, got $code" >&2
    exit 1
}
# A malformed body is 400 too: a misspelt field, or data after the value.
for bad in '{"query":"ans(k, v) :- data(k, v)","local":true,"mdoe":"certain"}' \
    '{"query":"ans(k, v) :- data(k, v)"} {}'; do
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        http://127.0.0.1:8180/v1/query -d "$bad")
    [ "$code" = 400 ] || {
        echo "malformed body $bad: want 400, got $code" >&2
        exit 1
    }
done
# A body declared larger than the 64 MiB frame bound is 413, unread.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    -H 'Content-Length: 67108865' --data-binary '{}' \
    http://127.0.0.1:8180/v1/query)
[ "$code" = 413 ] || {
    echo "oversize body: want 413, got $code" >&2
    exit 1
}
echo "error mapping ok"

# Runtime membership: launch a fourth, config-less peer and admit it
# through N0's gateway. The admitter dials the joiner, hands it the
# current rules and the epoch-stamped directory, and floods the delta to
# the incumbents.
"$dir/codb-peer" -name N3 -listen 127.0.0.1:7183 \
    -http 127.0.0.1:8183 >"$dir/N3.log" 2>&1 &
pids="$pids $!"
for _ in $(seq 1 50); do
    if curl -fsS http://127.0.0.1:8183/healthz >/dev/null 2>&1; then
        break
    fi
    sleep 0.2
done
curl -fsS -X POST http://127.0.0.1:8180/v1/membership/join \
    -d '{"node":"N3","addr":"127.0.0.1:7183"}' | grep -q '"epoch"'
echo "join ok"

# With the joiner present, another insert + global update must still
# converge the chain (N3 holds no chain relations; it just must not wedge
# the session).
curl -fsS -X POST http://127.0.0.1:8182/v1/insert \
    -d '{"relation":"data","rows":[[9,90]]}' | grep -q '"inserted":1'
curl -fsS -X POST 'http://127.0.0.1:8180/v1/update?timeout=1m' -d '{}' |
    grep -q '"report"'
body=$(curl -fsS -X POST http://127.0.0.1:8180/v1/query \
    -d '{"query":"ans(k, v) :- data(k, v)","local":true}')
echo "$body" | grep -q '"count":4' || {
    echo "post-join query: want count 4, got: $body" >&2
    exit 1
}
echo "update with joiner ok"

# Coordinated leave through the gateway: survivors tombstone N3 and keep
# answering — no timeouts toward the departed listener.
curl -fsS -X POST http://127.0.0.1:8180/v1/membership/leave \
    -d '{"node":"N3"}' | grep -q '"removed":true'
curl -fsS -X POST 'http://127.0.0.1:8180/v1/update?timeout=1m' -d '{}' |
    grep -q '"report"'
body=$(curl -fsS -X POST http://127.0.0.1:8180/v1/query \
    -d '{"query":"ans(k, v) :- data(k, v)","local":true}')
echo "$body" | grep -q '"count":4' || {
    echo "post-leave query: want count 4, got: $body" >&2
    exit 1
}
# The tombstone is in the remover's member table, and in N1's too: the
# directory delta flood reached a peer that did not do the removal.
for i in 0 1; do
    ok=""
    for _ in $(seq 1 25); do
        if curl -fsS "http://127.0.0.1:818$i/v1/stats/membership" |
            grep -q '"tombstones":1'; then
            ok=1
            break
        fi
        sleep 0.2
    done
    [ -n "$ok" ] || {
        echo "N$i: no tombstone after the leave: $(curl -fsS "http://127.0.0.1:818$i/v1/stats/membership")" >&2
        exit 1
    }
done
echo "leave ok"

# Propagation policies through the gateway: flip the N1→N0 link to pull on
# both endpoints, update upstream, and watch the importer go stale (the
# update floods only a hint) and then fresh (the next local query pulls the
# delta synchronously, as a scoped session over the link).
curl -fsS -X PUT http://127.0.0.1:8181/v1/links/e0/policy \
    -d '{"mode":"pull"}' | grep -q '"mode":"pull"'
curl -fsS -X PUT http://127.0.0.1:8180/v1/links/e0/policy \
    -d '{"mode":"pull"}' | grep -q '"mode":"pull"'
curl -fsS -X POST http://127.0.0.1:8181/v1/insert \
    -d '{"relation":"data","rows":[[100,1000]]}' | grep -q '"inserted":1'
curl -fsS -X POST 'http://127.0.0.1:8181/v1/update?timeout=1m' -d '{}' |
    grep -q '"report"'
# Stale: the hint arrived, the delta did not.
curl -fsS http://127.0.0.1:8180/v1/stats/propagation |
    grep -q '"stale_links":\["e0"\]' || {
    echo "pull link e0 not stale after upstream update" >&2
    exit 1
}
# Fresh: the local query triggers the pull and sees the new tuple.
body=$(curl -fsS -X POST http://127.0.0.1:8180/v1/query \
    -d '{"query":"ans(k, v) :- data(k, v)","local":true}')
echo "$body" | grep -q '"count":5' || {
    echo "post-pull query: want count 5, got: $body" >&2
    exit 1
}
# …the pull's completion cleared the stale mark, and the cumulative
# counters saw the pull on both sides of the link.
prop=$(curl -fsS http://127.0.0.1:8180/v1/stats/propagation)
echo "$prop" | grep -q '"pulls_issued":1' || {
    echo "importer counted no pull: $prop" >&2
    exit 1
}
if echo "$prop" | grep -q '"stale_links":\["'; then
    echo "pull link still stale after the read: $prop" >&2
    exit 1
fi
curl -fsS http://127.0.0.1:8181/v1/stats/propagation | grep -q '"pulls_served":1'
curl -fsS http://127.0.0.1:8180/v1/stats | grep -q '"sessions"'
echo "propagation policies ok"

# Durable restart: a second chain whose relay N1 keeps its data on disk.
# One update, then N1 is killed (no shutdown, no checkpoint) and restarted
# over the same directory. Its export watermark comes back from its WAL, so
# the next update reaches N0 with every tuple and N1 exports incrementally:
# no full export, no history-lost fallback.
"$dir/codb-gen" -shape chain -n 3 -addr-base 127.0.0.1:7190 >"$dir/durable.codb"
start_durable() { # node, extra flags
    node=$1
    shift
    "$dir/codb-peer" -name "$node" -config "$dir/durable.codb" \
        -http "127.0.0.1:819${node#N}" "$@" >>"$dir/d$node.log" 2>&1 &
    pids="$pids $!"
    last_pid=$!
    for _ in $(seq 1 50); do
        if curl -fsS "http://127.0.0.1:819${node#N}/healthz" >/dev/null 2>&1; then
            return
        fi
        sleep 0.2
    done
    echo "durable $node never became healthy" >&2
    cat "$dir/d$node.log" >&2
    exit 1
}
start_durable N0
start_durable N1 -data "$dir/n1data"
n1=$last_pid
start_durable N2
curl -fsS -X POST http://127.0.0.1:8192/v1/insert \
    -d '{"relation":"data","rows":[[2,20]]}' | grep -q '"inserted":1'
curl -fsS -X POST 'http://127.0.0.1:8190/v1/update?timeout=1m' -d '{}' |
    grep -q '"report"'
kill -9 "$n1"
wait "$n1" 2>/dev/null || true
start_durable N1 -data "$dir/n1data"
curl -fsS -X POST http://127.0.0.1:8192/v1/insert \
    -d '{"relation":"data","rows":[[3,30]]}' | grep -q '"inserted":1'
# The first update may find a pipe to the killed process not yet noted
# down; it then completes without N1, and the next one goes through.
count=""
for _ in 1 2 3 4 5; do
    rep=$(curl -fsS -X POST 'http://127.0.0.1:8190/v1/update?timeout=1m' -d '{}')
    sid=$(echo "$rep" | sed 's/.*"SID":"\([^"]*\)".*/\1/')
    if curl -fsS -X POST http://127.0.0.1:8190/v1/query \
        -d '{"query":"ans(k, v) :- data(k, v)","local":true}' | grep -q '"count":2'; then
        count=2
        break
    fi
    sleep 0.5
done
[ -n "$count" ] || {
    echo "durable restart: N0 never held both tuples" >&2
    cat "$dir/dN1.log" >&2
    exit 1
}
# N1's report of that session (participants finish on the completion
# flood, so poll): one incremental export, no full or fallback one.
report=""
for _ in $(seq 1 25); do
    report=$(curl -fsS http://127.0.0.1:8191/v1/reports |
        sed 's/{"SID"/\n{"SID"/g' | grep "\"SID\":\"$sid\"" || true)
    [ -n "$report" ] && break
    sleep 0.2
done
for want in '"ExportsFull":0,' '"ExportsIncremental":1,' '"ExportsFallback":0,'; do
    echo "$report" | grep -q "$want" || {
        echo "durable restart: N1's report lacks $want: $report" >&2
        exit 1
    }
done
echo "durable restart ok"

echo "http smoke: PASS"
