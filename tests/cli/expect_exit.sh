#!/usr/bin/env bash
# Exit-code contract check for the command-line tools (tools/cli_main.h).
#
#   expect_exit.sh CODE REGEX [--daemon SERVE_BIN] -- CMD [ARGS...]
#
# Passes when CMD exits with exactly CODE and writes exactly one line to
# stderr, matching the extended regex REGEX.  With --daemon, a dasched_serve
# daemon is started first on a unix socket in a private temporary
# directory; every argument equal to @SOCKET@ is replaced by the daemon's
# address, and the daemon is stopped afterwards.
set -u

code_want=$1
regex=$2
shift 2
serve_bin=
if [ "$1" = "--daemon" ]; then
  serve_bin=$2
  shift 2
fi
[ "$1" = "--" ] && shift

workdir=$(mktemp -d)
daemon_pid=
cleanup() {
  if [ -n "$daemon_pid" ]; then
    kill "$daemon_pid" 2>/dev/null
    wait "$daemon_pid" 2>/dev/null
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

cmd=("$@")
if [ -n "$serve_bin" ]; then
  address="unix:$workdir/serve.sock"
  "$serve_bin" --socket "$address" > "$workdir/serve.out" 2>&1 &
  daemon_pid=$!
  for i in "${!cmd[@]}"; do
    [ "${cmd[$i]}" = "@SOCKET@" ] && cmd[$i]=$address
  done
fi

"${cmd[@]}" > "$workdir/stdout" 2> "$workdir/stderr"
code=$?

status=0
if [ "$code" -ne "$code_want" ]; then
  echo "exit code $code, expected $code_want" >&2
  status=1
fi
lines=$(wc -l < "$workdir/stderr")
if [ "$lines" -ne 1 ] || ! grep -Eq -- "$regex" "$workdir/stderr"; then
  echo "stderr is not one line matching /$regex/" >&2
  status=1
fi
if [ "$status" -ne 0 ]; then
  echo "--- stderr of: ${cmd[*]}" >&2
  cat "$workdir/stderr" >&2
fi
exit "$status"
