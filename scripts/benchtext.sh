#!/usr/bin/env bash
# Compares the machine code of the benchmark binary at a git revision
# with the one built from the working tree, e.g.
#
#   bash scripts/benchtext.sh HEAD~1
#
# Both binaries are built with benchmark/run.sh's environment (build
# cache and go config under .bench_build/, GOTOOLCHAIN=local,
# GOWORK=off, empty GOFLAGS); the revision is checked out in a
# temporary git worktree under .bench_build/. The text symbols (T/t)
# of `go tool nm -n` are sorted by address and then name (nm's order
# among symbols at one address differs between builds) and compared
# line by line, so the first difference names the first moved symbol.
# Identical text
# means the benchmark runs the same machine code on both sides; exit 0.
# Otherwise the first difference and main.probeSpeed's address mod 64
# on each side are printed; exit 1. The benchmark's machine.slowdown
# probe is sensitive to where the linker places it, so a moved probe
# explains a pass_s shift that the traced per-layer times do not show.
# This is a diagnostic only: never reorder or pad code to move the probe.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
rev="$1"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

tree="$root/.bench_build/benchtext-rev"
cleanup() {
  git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
  git worktree prune
}
trap cleanup EXIT
cleanup
git worktree add --quiet --detach "$tree" "$rev"

# text DIR OUT: build DIR/benchmark and write its sorted text symbols.
text() {
  go -C "$1/benchmark" build -o "$2.bin" .
  go tool nm -n "$2.bin" | awk '$2 == "T" || $2 == "t"' | LC_ALL=C sort -k1,1 -k3 >"$2"
}
old="$root/.bench_build/benchtext-old.txt"
new="$root/.bench_build/benchtext-new.txt"
text "$tree" "$old"
text "$root" "$new"

if cmp -s "$old" "$new"; then
  echo "benchtext: text identical to $rev ($(wc -l <"$new") symbols)"
  exit 0
fi
echo "benchtext: text differs from $rev; first difference:"
diff "$old" "$new" >"$root/.bench_build/benchtext.diff" || true
printf '  %-14s %s\n' "$rev:" "$(grep -m 1 '^<' "$root/.bench_build/benchtext.diff" | cut -c 3-)"
printf '  %-14s %s\n' "working tree:" "$(grep -m 1 '^>' "$root/.bench_build/benchtext.diff" | cut -c 3-)"
probe() {
  local addr
  addr="$(awk '$3 == "main.probeSpeed" { print $1 }' "$1")"
  echo "0x$addr, mod 64 = $(( 16#$addr % 64 ))"
}
echo "benchtext: main.probeSpeed at $rev: $(probe "$old"); working tree: $(probe "$new")"
exit 1
