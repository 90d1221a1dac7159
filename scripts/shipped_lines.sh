#!/usr/bin/env bash
# Shipped lines: the lines of each Rust source file above its first
# `#[cfg(test)]` line (the whole file when it has none), so unit-test
# modules at the foot of a file do not count. The offline dependency
# shims under crates/shims/ are not counted. Informational: it never
# fails on a count.
# Usage: scripts/shipped_lines.sh          one line per crate source dir, then the total
#        scripts/shipped_lines.sh DIR...   one line per file under each DIR, then its total
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of $1 above its first `#[cfg(test)]`.
shipped() {
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

# Sum of shipped lines over every .rs file under $1.
dir_total() {
  local total=0 f
  while IFS= read -r f; do
    total=$((total + $(shipped "$f")))
  done < <(find "$1" -name '*.rs' | sort)
  echo "$total"
}

if [ "$#" -gt 0 ]; then
  for dir in "$@"; do
    while IFS= read -r f; do
      printf '%7d  %s\n' "$(shipped "$f")" "$f"
    done < <(find "$dir" -name '*.rs' | sort)
    printf '%7d  %s (total)\n' "$(dir_total "$dir")" "$dir"
  done
  exit 0
fi

grand=0
for dir in src crates/*/src; do
  case "$dir" in crates/shims/*) continue ;; esac
  n=$(dir_total "$dir")
  grand=$((grand + n))
  printf '%7d  %s\n' "$n" "$dir"
done
printf '%7d  total\n' "$grand"
