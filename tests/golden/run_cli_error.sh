#!/usr/bin/env bash
# Flag-validation test for `hcore_cli`.
#
#   run_cli_error.sh <hcore_cli> <command> [flags...]
#
# Runs `hcore_cli <command> [flags...]` with empty stdin and passes only if
# it exits with status 1 (an abort, e.g. a failed HCORE_CHECK, is 134),
# prints nothing on stdout, and prints exactly one line on stderr, starting
# with "error: ".
set -u

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <hcore_cli> <command> [flags...]" >&2
  exit 2
fi

cli="$1"
shift

out="$(mktemp)"
err="$(mktemp)"
trap 'rm -f "$out" "$err"' EXIT

"$cli" "$@" < /dev/null > "$out" 2> "$err"
status=$?

fail() {
  echo "FAIL: hcore_cli $*" >&2
  echo "--- stdout" >&2; cat "$out" >&2
  echo "--- stderr" >&2; cat "$err" >&2
  exit 1
}

[ "$status" -eq 1 ] || fail "$@" "(exit status $status, expected 1)"
[ ! -s "$out" ] || fail "$@" "(wrote to stdout)"
[ "$(wc -l < "$err")" -eq 1 ] || fail "$@" "(expected one stderr line)"
grep -q '^error: ' "$err" || fail "$@" "(stderr line is not an error: line)"
echo "rejected: $(cat "$err")"
