#!/bin/bash
# Cluster smoke: primary + 2 replicas, mixed workload, SIGKILL the
# primary mid-run, restart it, finish the workload with zero client
# errors, then assert the replicas converge on the same stats --json
# object count. Mirrors the CI "Cluster smoke test" step.
set -xeuo pipefail

D=/tmp/gaea_cluster_smoke
rm -rf "$D"
mkdir -p "$D"

GAEAD=./build/tools/gaead
SHELL_BIN=./build/examples/gaea_shell

wait_ping() {  # port
  for i in $(seq 1 75); do
    if printf 'ping\nquit\n' \
         | "$SHELL_BIN" --connect 127.0.0.1:"$1" > /dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "gaead on port $1 never answered" >&2
  return 1
}

"$GAEAD" --dir "$D/primary" --replicated --port 47485 &
PRIMARY_PID=$!
wait_ping 47485
"$GAEAD" --dir "$D/r1" --replica-of 127.0.0.1:47485 --replica-id r1 \
  --replica-poll-ms 10 --port 47486 &
R1_PID=$!
"$GAEAD" --dir "$D/r2" --replica-of 127.0.0.1:47485 --replica-id r2 \
  --replica-poll-ms 10 --port 47487 &
R2_PID=$!
wait_ping 47486
wait_ping 47487

# Mixed workload, first half: schema + a replayable process, inserts,
# derives, then lineage and provenance of one derived object. Every shell
# line must answer OK (set -e + grep below).
printf 'ddl <<END\nCLASS smoke_sample (\n  ATTRIBUTES:\n    v = int4;\n  SPATIAL EXTENT: spatialextent = box;\n  TEMPORAL EXTENT: timestamp = abstime;\n)\nCLASS smoke_out (\n  ATTRIBUTES:\n    v = int4;\n  SPATIAL EXTENT: spatialextent = box;\n  TEMPORAL EXTENT: timestamp = abstime;\n  DERIVED BY: smoke-ident\n)\nDEFINE PROCESS smoke-ident\nOUTPUT smoke_out\nARGUMENT ( smoke_sample a )\nTEMPLATE {\n  MAPPINGS:\n    smoke_out.v = a.v;\n    smoke_out.spatialextent = a.spatialextent;\n    smoke_out.timestamp = a.timestamp;\n}\nEND\ninsert smoke_sample v=1 spatialextent=box:0,0,1,1 time'\
'stamp=time:2\ninsert smoke_sample v=2 spatialextent=box:0,0,1,1 timestamp=time:3\nderive smoke-ident a=1\nderive smoke-ident a=2\nlineage 3\nprovenance why 3\nquit\n' \
  | "$SHELL_BIN" --connect 127.0.0.1:47485 | tee "$D/phase1.out"
grep -q 'smoke_sample -> #1' "$D/phase1.out"
grep -q 'smoke-ident -> #3' "$D/phase1.out"
grep -q 'smoke-ident -> #4' "$D/phase1.out"
# Lineage and why-provenance of #3 (smoke-ident over base object #1),
# answered by the primary from its provenance index.
grep -q 'chain: smoke-ident:v1' "$D/phase1.out"
grep -q 'base sources: #1$' "$D/phase1.out"
grep -q 'why oid 3: task #1 smoke-ident v1' "$D/phase1.out"
grep -q 'base witness: 1$' "$D/phase1.out"
! grep -qi 'error\|refused\|cannot' "$D/phase1.out"

# SIGKILL the primary mid-workload and supervise it back onto the same
# port and directory, as a process manager would.
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" || true
"$GAEAD" --dir "$D/primary" --replicated --port 47485 &
PRIMARY_PID=$!
wait_ping 47485

# Second half: the restarted primary must serve the rest of the mix with
# zero client-visible errors — including an exactly-once repeat of a
# pre-kill derivation (the recorded answer, not a re-execution).
printf 'derive smoke-ident a=1\ninsert smoke_sample v=3 spatialextent=box:0,0,1,1 timestamp=time:4\nderive smoke-ident a=5\nquit\n' \
  | "$SHELL_BIN" --connect 127.0.0.1:47485 | tee "$D/phase2.out"
grep -q 'smoke-ident -> #3 (cached)' "$D/phase2.out"
grep -q 'smoke_sample -> #5' "$D/phase2.out"
grep -q 'smoke-ident -> #6' "$D/phase2.out"
! grep -qi 'error\|refused\|cannot' "$D/phase2.out"

# Replicas converge: same stats --json object count on all three nodes.
for i in $(seq 1 75); do
  for port in 47485 47486 47487; do
    printf 'stats\nquit\n' \
      | "$SHELL_BIN" --connect 127.0.0.1:"$port" > "$D/stats.$port.out" 2>&1 \
      || true
  done
  if python3 - "$D" <<'EOF'
import json, sys
counts = []
for port in (47485, 47486, 47487):
    with open("%s/stats.%d.out" % (sys.argv[1], port)) as f:
        for line in f:
            start = line.find('{"server"')
            if start >= 0:
                kernel = json.loads(line[start:])["kernel"]
                counts.append((kernel["objects"], kernel["cluster_lsn"]))
                break
        else:
            sys.exit(1)
ok = len(set(counts)) == 1 and counts[0][0] == 6
print("node (objects, cluster_lsn):", counts, "converged" if ok else "diverged")
sys.exit(0 if ok else 1)
EOF
  then
    CONVERGED=1
    break
  fi
  CONVERGED=0
  sleep 0.4
done
[ "$CONVERGED" = 1 ]

# Provenance is replica-servable: a `why` query for the last derivation
# (oid 6, smoke-ident over oid 5) answered by replica r1 from its own
# locally rebuilt index — no proxying to the primary.
printf 'provenance why 6 --json\nquit\n' \
  | "$SHELL_BIN" --connect 127.0.0.1:47486 | tee "$D/provenance.out"
grep -q '"query":"why"' "$D/provenance.out"
grep -q '"output":6' "$D/provenance.out"
grep -q '"process":"smoke-ident"' "$D/provenance.out"
grep -q '"witnesses":{"a":\[5\]}' "$D/provenance.out"
! grep -qi 'error\|refused\|cannot' "$D/provenance.out"

kill -TERM "$R1_PID" "$R2_PID" "$PRIMARY_PID"
wait "$R1_PID" "$R2_PID" "$PRIMARY_PID"
echo "cluster smoke passed"
