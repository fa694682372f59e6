#!/bin/sh
# Dynamic race smoke: when the active OCaml toolchain was built with
# ThreadSanitizer (5.2+ configured --enable-tsan; `ocamlopt -config`
# reports `tsan: true`), drive the multicore node at --domains 4 and fail
# on any TSan data-race report. This is the dynamic complement to
# shoalpp_lint's static race pass: the linter proves the ownership
# discipline is followed, TSan catches whatever the discipline missed.
#
# On a non-TSan toolchain (the default dev image ships 5.1.x) this skips
# cleanly with a notice — the static pass still gates in check.sh.
set -eu
cd "$(dirname "$0")/.."

if ! ocamlopt -config 2>/dev/null | grep -q '^tsan: *true'; then
  echo "tsan: toolchain built without ThreadSanitizer (ocamlopt -config lacks 'tsan: true'), skipping dynamic race smoke"
  exit 0
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

dune build bin/shoalpp.exe

# TSAN_OPTIONS: halt_on_error makes the first report fatal so the exit
# code carries the verdict; keep history large enough for 4 domains + the
# verify pool.
TSAN_OPTIONS="halt_on_error=1 history_size=7 ${TSAN_OPTIONS:-}" \
  ./_build/default/bin/shoalpp.exe node \
  -n 4 --duration 4000 --load 300 --domains 4 \
  > "$out/tsan.out" 2>&1 \
  || { echo "tsan: multicore drill failed (data race or crash)" >&2; cat "$out/tsan.out" >&2; exit 1; }

if grep -q 'WARNING: ThreadSanitizer' "$out/tsan.out"; then
  echo "tsan: data race reported" >&2
  cat "$out/tsan.out" >&2
  exit 1
fi
grep -q 'audit: consistent logs, no duplicates' "$out/tsan.out" \
  || { echo "tsan: audit line missing from drill output" >&2; cat "$out/tsan.out" >&2; exit 1; }

echo "tsan: --domains 4 drill clean under ThreadSanitizer"
