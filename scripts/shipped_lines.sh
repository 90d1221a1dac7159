#!/usr/bin/env bash
# Shipped lines: the lines of each Rust source file above its first
# `#[cfg(test)]` line (the whole file when it has none), so unit-test
# modules at the foot of a file do not count. The offline dependency
# shims under crates/shims/ are not counted. Informational: it never
# fails on a count.
# Usage: scripts/shipped_lines.sh             one line per crate source dir, then the total
#        scripts/shipped_lines.sh DIR...      one line per file under each DIR, then its total
#        scripts/shipped_lines.sh --base REV  per crate source dir: the count at REV (read
#                                             with `git show`, no checkout), the working
#                                             tree's count and the delta, then the totals
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of the file $1 (stdin when absent) above its first `#[cfg(test)]`.
shipped() {
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$@"
}

# Sum of shipped lines over every .rs file under $1.
dir_total() {
  local total=0 f
  while IFS= read -r f; do
    total=$((total + $(shipped "$f")))
  done < <(find "$1" -name '*.rs' | sort)
  echo "$total"
}

# Sum of shipped lines over every .rs file under $2 at revision $1.
rev_total() {
  local total=0 f
  while IFS= read -r f; do
    total=$((total + $(git show "$1:$f" | shipped)))
  done < <(git ls-tree -r --name-only "$1" -- "$2" | grep '\.rs$' | sort)
  echo "$total"
}

if [ "${1:-}" = "--base" ]; then
  rev="${2:?usage: scripts/shipped_lines.sh --base REV}"
  git rev-parse --verify -q "$rev^{commit}" >/dev/null || {
    echo "error: unknown revision $rev" >&2
    exit 2
  }
  printf '%7s  %7s  %7s  %s\n' base now delta "dir (base $rev)"
  base_grand=0
  grand=0
  # every crate source dir at REV or in the working tree
  while IFS= read -r dir; do
    case "$dir" in crates/shims/*) continue ;; esac
    b=$(rev_total "$rev" "$dir")
    n=0
    [ -d "$dir" ] && n=$(dir_total "$dir")
    base_grand=$((base_grand + b))
    grand=$((grand + n))
    printf '%7d  %7d  %+7d  %s\n' "$b" "$n" "$((n - b))" "$dir"
  done < <({
    printf '%s\n' src crates/*/src
    git ls-tree --name-only "$rev" crates/ | sed 's|$|/src|'
  } | sort -u)
  printf '%7d  %7d  %+7d  total\n' "$base_grand" "$grand" "$((grand - base_grand))"
  exit 0
fi

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
