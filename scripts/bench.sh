#!/usr/bin/env bash
# Records Monte Carlo benchmark timings as JSON lines, one per
# benchmark per commit, so the perf trajectory of the reliability hot
# path is tracked in-repo:
#
#   scripts/bench.sh          quick mode: run the MC benches with
#                             reduced sampling and append
#                             {"commit","bench","ns_per_iter"} lines
#                             to BENCH_mc.json
#   scripts/bench.sh smoke    CI mode: exercise the same machinery on
#                             the word_vs_traversal bench only,
#                             validating the output without touching
#                             the tracked log (which is only appended
#                             to by deliberate local runs)
#
# Uses the vendored criterion's BENCH_QUICK / BENCH_JSON env hooks.
set -euo pipefail

cd "$(dirname "$0")/.."

mode="${1:-quick}"
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# A dirty *tracked* tree is not the commit it descends from: mark it,
# so the trajectory log never attributes new code's timings to the
# parent. Untracked files must not taint the label — they don't change
# what was built, and counting them (the old behavior) stamped "-dirty"
# on clean checkouts that merely carried bench artifacts or editor
# droppings. `git status --porcelain` also refreshes the stat cache,
# so stale mtimes alone never read as modifications.
if [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
    commit="$commit-dirty"
fi
out="BENCH_mc.json"
benches=(word_vs_traversal fig8a_reliability overload_shed)
case "$mode" in
quick) ;;
smoke)
    benches=(word_vs_traversal)
    ;;
*)
    echo "usage: scripts/bench.sh [quick|smoke]" >&2
    exit 2
    ;;
esac

# Collect new rows in a temp file first: the tracked log is only
# rewritten after every bench succeeded, so a failing bench cannot
# lose previously recorded lines.
fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT

for bench in "${benches[@]}"; do
    echo "==> cargo bench --bench $bench (quick)"
    BENCH_QUICK=1 BENCH_JSON=1 cargo bench --bench "$bench" |
        tee /dev/stderr |
        sed -n "s/^BENCHJSON {/{\"commit\":\"$commit\",/p" >>"$fresh"
done

lines=$(wc -l <"$fresh")
# The machinery must have produced at least one parseable line. Fail
# loudly with the symptom: a bare `set -e` exit here once read as a
# passing run with a silent gap in the perf trajectory.
if [ "$lines" -lt 1 ]; then
    echo "error: no BENCHJSON lines captured from: ${benches[*]}" >&2
    echo "       (BENCH_JSON output hook broken, or the bench printed nothing)" >&2
    exit 1
fi

# Re-runs at the same commit replace that commit's lines instead of
# piling up duplicates: one line per (commit, bench). Smoke mode runs
# the identical dedup-and-append machinery against a temp copy of the
# log, so CI validates the whole append path without touching the
# tracked file.
target="$out"
if [ "$mode" = smoke ]; then
    target="$(mktemp)"
    trap 'rm -f "$fresh" "$target" "$target.tmp"' EXIT
    if [ -f "$out" ]; then
        cat "$out" >"$target"
    fi
fi
if [ -s "$target" ]; then
    grep -v "^{\"commit\":\"$commit\"," "$target" >"$target.tmp" || true
else
    : >"$target.tmp"
fi
cat "$fresh" >>"$target.tmp"
mv "$target.tmp" "$target"
appended=$(grep -c "^{\"commit\":\"$commit\"," "$target" || true)
if [ "$appended" -lt 1 ]; then
    echo "error: append produced no rows for commit $commit in $target" >&2
    exit 1
fi
if [ "$mode" = quick ]; then
    echo "recorded $appended result line(s) in $out"
else
    echo "smoke OK: $appended row(s) appended through the temp log"
fi
