#!/usr/bin/env bash
# Same-host A/B of two revisions on one perfbench workload:
#
#   bash ci/ab.sh [--workload W] [--pairs N] [--seed S] [--dir D] BASE [CHANGE]
#
# Run it from the repository root. BASE and CHANGE are git revisions.
# CHANGE defaults to the working tree: tracked files plus the untracked ones
# .gitignore does not exclude. Each side is extracted with git archive.
#
# Pair i runs `bash perfbench/run.sh --workload W --seed S+i-1 --seconds T
# --trace 0` once per side, where T is BENCHMARK.json's run_seconds, so both
# sides of a pair see the same seed and run for the benchmark's length. The
# side that runs first alternates between pairs. Both sides run from one
# directory, whose tree is swapped before every run, so the binaries, their
# paths and the build cache are in the same place for both: two checkouts at
# different paths can read a few percent apart with byte-identical code.
#
# It prints one row per end-to-end metric of BENCHMARK.json:
#   - each side's median and the relative change of the medians;
#   - BASE's quartile distance over its median;
#   - the pairs in which CHANGE was better, and the metric's bound;
#   - "unresolved" where that quartile distance exceeds the bound, and
#     "over bound" where CHANGE is worse than BASE by more than the bound.
# It exits 1 if any run reports incorrect output, a failed operation or no
# value for a metric.
#
# The per-run reports go to out/ under the run directory, beside
# out/REVISIONS, which names what each side measured: "base commit HASH",
# then "change commit HASH" or, for the working tree, "change tree HASH",
# the git tree object of its snapshot. The reports cannot name it
# themselves: the git archive trees have no .git, so perfbench reads their
# revision as "unknown".
#
# Defaults: sweep-full, 10 pairs, seeds from 1, and a fresh directory under
# ${TMPDIR:-/tmp}, which is kept for its per-run reports.
set -euo pipefail

usage() {
  sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

workload=sweep-full pairs=10 seed=1 dir=
while [[ $# -gt 0 ]]; do
  case $1 in
    --workload) workload=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --dir) dir=$2; shift 2 ;;
    -h|--help) usage ;;
    -*) echo "ab: unknown flag $1" >&2; usage ;;
    *) break ;;
  esac
done
[[ $# -eq 1 || $# -eq 2 ]] || usage
[[ $pairs =~ ^[1-9][0-9]*$ && $seed =~ ^[0-9]+$ ]] || {
  echo "ab: --pairs must be a positive integer, --seed a non-negative one" >&2
  exit 2
}
root=$(pwd)
if [[ ! -f "$root/BENCHMARK.json" || ! -f "$root/perfbench/run.sh" ]]; then
  echo "ab: run from the repository root (BENCHMARK.json and perfbench/run.sh must exist)" >&2
  exit 2
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
[[ -n $seconds ]] || { echo "ab: BENCHMARK.json sets no run_seconds" >&2; exit 2; }

dir=${dir:-$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")}
# A reused directory keeps only run/.bench_build, the build cache.
rm -rf "$dir/base" "$dir/change" "$dir/out" "$dir/index"
mkdir -p "$dir/base" "$dir/change" "$dir/run" "$dir/out"
base_rev=$(git rev-parse "$1^{commit}")
base_name=$(git rev-parse --short "$base_rev")
git archive "$base_rev" | tar -x -C "$dir/base"
if [[ $# -eq 2 ]]; then
  change_rev=$(git rev-parse "$2^{commit}")
  change_name=$(git rev-parse --short "$change_rev")
  git archive "$change_rev" | tar -x -C "$dir/change"
  change_rev="commit $change_rev"
else
  # Snapshot the working tree through a private index; the real index and
  # every ref stay as they are.
  export GIT_INDEX_FILE="$dir/index"
  git read-tree HEAD
  git add -A
  tree=$(git write-tree)
  unset GIT_INDEX_FILE
  change_name="working tree"
  change_rev="tree $tree"
  git archive "$tree" | tar -x -C "$dir/change"
fi
printf 'base commit %s\nchange %s\n' "$base_rev" "$change_rev" > "$dir/out/REVISIONS"

# runside SIDE PAIR: swap SIDE's tree into the run directory, keeping the
# build cache, and run one benchmark. Its stdout goes to out/SIDE-PAIR.txt,
# its stderr to out/SIDE-PAIR.log.
runside() {
  find "$dir/run" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
  cp -a "$dir/$1/." "$dir/run/"
  local s=$((seed + $2 - 1))
  echo "ab: pair $2/$pairs seed $s: $1" >&2
  if ! (cd "$dir/run" && bash perfbench/run.sh --workload "$workload" --seed "$s" \
    --seconds "$seconds" --trace 0) > "$dir/out/$1-$2.txt" 2> "$dir/out/$1-$2.log"; then
    echo "ab: the $1 run of pair $2 failed; see $dir/out/$1-$2.log" >&2
    exit 1
  fi
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    runside base "$i"; runside change "$i"
  else
    runside change "$i"; runside base "$i"
  fi
done

# value FILE NAME: set v to the metric's value in the report's last line.
# It runs in the script's own shell, so a report without the metric ends the
# script.
value() {
  v=$(tail -n 1 "$1" | grep -o "\"$2\":{\"value\":[^,}]*" | sed 's/.*://') || true
  if [[ -z $v ]]; then
    echo "ab: $1 reports no $2" >&2
    exit 1
  fi
}

# The end-to-end metrics with their direction and bound, one per line.
metrics=$(awk '
  /"end_to_end"/ { on = 1 }
  /"per_layer"/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
  on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }
' "$root/BENCHMARK.json")

status=0
for side in base change; do
  bad=0 attempted=0 failed=0
  for ((i = 1; i <= pairs; i++)); do
    last=$(tail -n 1 "$dir/out/$side-$i.txt")
    [[ $last == *'"correct":true'* ]] || bad=$((bad + 1))
    a=$(grep -o '"attempted":[0-9]*' <<< "$last" | sed 's/.*://')
    f=$(grep -o '"failed":[0-9]*' <<< "$last" | sed 's/.*://')
    attempted=$((attempted + ${a:-0})) failed=$((failed + ${f:-0}))
  done
  echo "$side: $attempted operations attempted, $failed failed, $bad of $pairs runs incorrect"
  if ((bad > 0 || failed > 0)); then status=1; fi
done

echo "workload $workload, $pairs pairs, seeds $seed-$((seed + pairs - 1)), base $base_name, change $change_name"
printf '%-12s %12s %12s %8s %10s %6s %6s  %s\n' metric base change rel base_iqr/med wins bound flag
while read -r name better bound; do
  rows=()
  for ((i = 1; i <= pairs; i++)); do
    value "$dir/out/base-$i.txt" "$name"; b=$v
    value "$dir/out/change-$i.txt" "$name"
    rows+=("$b $v")
  done
  printf '%s\n' "${rows[@]}" | awk -v name="$name" -v better="$better" -v bound="$bound" -v n="$pairs" '
    function q(a, p,   h, lo) {
      h = (n - 1) * p; lo = int(h)
      return lo + 1 < n ? a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1]) : a[lo + 1]
    }
    function sort(a,   i, j, t) {
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    {
      b[NR] = $1; c[NR] = $2
      if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++
    }
    END {
      sort(b); sort(c)
      mb = q(b, 0.5); mc = q(c, 0.5)
      rel = mb != 0 ? (mc - mb) / mb : 0
      iqr = mb != 0 ? (q(b, 0.75) - q(b, 0.25)) / mb : 0
      worse = better == "lower" ? rel : -rel
      flag = iqr > bound ? "unresolved" : (worse > bound ? "over bound" : "-")
      printf "%-12s %12.4g %12.4g %+7.1f%% %10.3f %3d/%-2d %6.2f  %s\n",
        name, mb, mc, 100 * rel, iqr, wins, n, bound, flag
    }'
done <<< "$metrics"
echo "per-run reports: $dir/out"
exit "$status"
