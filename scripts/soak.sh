#!/usr/bin/env bash
# Runs the workspace test suite N times back to back and reports each run.
#
#   scripts/soak.sh [N]        # N defaults to 10
#
# Each run is `cargo test -q --no-fail-fast` from the repository root, so a
# failing test binary does not hide the binaries after it.  For every run
# the script prints pass/FAIL (or HUNG after RUN_TIMEOUT seconds, when the
# run's whole process group is killed), the wall time and the names of the
# failing tests; it ends with one summary line and exits non-zero if any
# run was not green.  Build first (`cargo build --release`) so the first
# run's wall time is not mostly compilation.
set -u

runs=${1:-10}
RUN_TIMEOUT=1800

cd "$(dirname "$0")/.." || exit 2
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

green=0
walls=()
all_failing=()
for i in $(seq 1 "$runs"); do
    log="$logs/run-$i.log"
    start=$(date +%s.%N)
    # A session of its own, so a hung run's test binaries die with it.
    setsid cargo test -q --no-fail-fast >"$log" 2>&1 &
    pid=$!
    deadline=$((SECONDS + RUN_TIMEOUT))
    hung=0
    while kill -0 "$pid" 2>/dev/null; do
        if ((SECONDS >= deadline)); then
            kill -KILL -- "-$pid" 2>/dev/null
            hung=1
            break
        fi
        sleep 0.1
    done
    wait "$pid"
    rc=$?
    wall=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }')
    walls+=("$wall")
    failing=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | sort -u | tr '\n' ' ')
    if ((hung)); then
        status=HUNG
    elif ((rc == 0)); then
        status=pass
        green=$((green + 1))
    else
        status=FAIL
    fi
    [[ -n $failing ]] && all_failing+=($failing)
    printf 'run %d/%d: %-4s %7ss  %s\n' "$i" "$runs" "$status" "$wall" "$failing"
done

stats=$(printf '%s\n' "${walls[@]}" | sort -n | awk '
    { w[NR] = $1 }
    END { printf "wall min %.1fs median %.1fs max %.1fs", w[1], w[int((NR + 1) / 2)], w[NR] }')
failures=$(printf '%s\n' "${all_failing[@]}" | sed '/^$/d' | sort | uniq -c |
    awk '{ printf "%s%s x%d", sep, $2, $1; sep = ", " }')
printf 'soak: %d/%d runs green; %s; failing tests: %s\n' \
    "$green" "$runs" "$stats" "${failures:-none}"
((green == runs))
