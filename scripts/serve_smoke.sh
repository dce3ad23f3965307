#!/usr/bin/env bash
# End-to-end service smoke: boot ntr_serve on an ephemeral port, drive it
# with a multi-client ntr_loadgen burst (including requests whose
# deadlines force the degradation ladder), verify bit-identity against
# the library, drain gracefully, and require clean exits on both sides.
#
# usage: serve_smoke.sh <ntr_serve-binary> <ntr_loadgen-binary>
set -u

SERVE_BIN="$1"
LOADGEN_BIN="$2"

WORK_DIR="$(mktemp -d)"
PORT_FILE="$WORK_DIR/port"
SERVER_LOG="$WORK_DIR/server.log"

cleanup() {
  if [[ -n "${SERVER_PID:-}" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null
    wait "$SERVER_PID" 2>/dev/null
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

"$SERVE_BIN" --port 0 --port-file "$PORT_FILE" --threads 2 \
  --queue-depth 64 > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!

"$LOADGEN_BIN" --port-file "$PORT_FILE" --clients 4 --requests 6 --pins 10 \
  --seed 20260808 --timeout-every 3 --verify --shutdown
LOADGEN_RC=$?
if [[ $LOADGEN_RC -ne 0 ]]; then
  echo "serve_smoke: loadgen failed (exit $LOADGEN_RC)" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi

# --shutdown drained the server; it must exit 0 on its own.
SERVER_RC=
for _ in $(seq 1 100); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    wait "$SERVER_PID"
    SERVER_RC=$?
    break
  fi
  sleep 0.1
done
if [[ -z "$SERVER_RC" ]]; then
  echo "serve_smoke: server still running 10s after shutdown request" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi
if [[ $SERVER_RC -ne 0 ]]; then
  echo "serve_smoke: server did not drain cleanly (exit $SERVER_RC)" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi

grep -q "drained" "$SERVER_LOG" || {
  echo "serve_smoke: server log missing drain report" >&2
  cat "$SERVER_LOG" >&2
  exit 1
}
echo "serve_smoke: ok"
