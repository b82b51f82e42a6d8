#!/usr/bin/env bash
# bench-pairs: run the benchmark in alternating pairs, a base revision
# against the working tree, from the root of a checkout:
#
#   scripts/bench-pairs.sh BASE_REV WORKLOAD PAIRS [SECONDS]
#
# BASE_REV is exported with `git archive` into .bench_build/base/. Pair i
# runs `bash benchmark/run.sh --workload WORKLOAD --seed 100+i --seconds
# SECONDS --trace 0` (SECONDS defaults to 25) once in each tree; the side
# that runs first alternates (base first in odd pairs), so a drift in the
# machine's speed falls on both sides alike. Prints every pair's gated
# metrics with the change/base ratio, then per metric the median and
# quartiles of each side and the median ratio. Run logs stay in
# .bench_build/pairs/; the base tree is removed on exit, since `make
# check`'s source greps would read it. Exits non-zero, naming the side,
# when a run fails.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	sed -n '2,16p' "$0" >&2
	exit 2
fi
base_rev=$1 workload=$2 pairs=$3 seconds=${4:-25}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
base=$root/.bench_build/base
logs=$root/.bench_build/pairs
rm -rf "$base"
trap 'rm -rf "$base"' EXIT
mkdir -p "$base" "$logs"
git -C "$root" archive "$base_rev" | tar -x -C "$base"
results=$logs/$workload.tsv
: >"$results"

# run SIDE DIR PAIR SEED: one benchmark run; appends "pair side metric
# value" rows for its gated metrics and its failed count to $results.
run() {
	local side=$1 dir=$2 pair=$3 seed=$4
	local log=$logs/$workload.$seed.$side.log
	if ! (cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0) >"$log" 2>&1; then
		echo "bench-pairs: the $side run of pair $pair (seed $seed) failed; log: $log" >&2
		exit 1
	fi
	tail -n 1 "$log" |
		grep -o -e '"failed":[0-9]*' -e '"[a-z0-9_]*":{"value":[-0-9.e+]*' |
		sed -e 's/"failed":/failed /' -e 's/"\([a-z0-9_]*\)":{"value":/\1 /' |
		while read -r metric value; do
			printf '%s\t%s\t%s\t%s\n' "$pair" "$side" "$metric" "$value" >>"$results"
		done
}

for ((i = 1; i <= pairs; i++)); do
	seed=$((100 + i))
	if ((i % 2)); then
		run base "$base" "$i" "$seed"
		run change "$root" "$i" "$seed"
	else
		run change "$root" "$i" "$seed"
		run base "$base" "$i" "$seed"
	fi
	awk -F'\t' -v p="$i" -v seed="$seed" '
		$1 == p { v[$3, $2] = $4; if (!($3 in seen)) { seen[$3]; order[++n] = $3 } }
		END {
			printf "pair %d (seed %d)\n", p, seed
			for (k = 1; k <= n; k++) {
				m = order[k]; b = v[m, "base"]; c = v[m, "change"]
				r = (b != 0) ? sprintf("%.3f", c / b) : "-"
				printf "  %-16s base %12.6g  change %12.6g  ratio %s\n", m, b, c, r
			}
		}' "$results"
done

# quantile(sorted values a[1..n], p): linear interpolation between ranks.
awk -F'\t' -v workload="$workload" -v base_rev="$base_rev" '
	function quantile(a, n, p,    x, i, f) {
		x = 1 + (n - 1) * p; i = int(x); f = x - i
		return (i < n) ? a[i] + f * (a[i + 1] - a[i]) : a[n]
	}
	function sortn(a, n,    i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	}
	{ v[$1, $3, $2] = $4; if ($1 > np) np = $1; if (!($3 in seen)) { seen[$3]; order[++n] = $3 } }
	END {
		printf "%s, %d pairs, change/base (base %s)\n", workload, np, base_rev
		for (k = 1; k <= n; k++) {
			m = order[k]; nr = 0
			for (p = 1; p <= np; p++) {
				bs[p] = v[p, m, "base"]; cs[p] = v[p, m, "change"]
				if (bs[p] != 0) rs[++nr] = cs[p] / bs[p]
			}
			sortn(bs, np); sortn(cs, np); sortn(rs, nr)
			printf "  %-16s base %.6g (%.6g-%.6g)  change %.6g (%.6g-%.6g)", m,
				quantile(bs, np, .5), quantile(bs, np, .25), quantile(bs, np, .75),
				quantile(cs, np, .5), quantile(cs, np, .25), quantile(cs, np, .75)
			if (nr) printf "  median ratio %.3f", quantile(rs, nr, .5)
			printf "\n"
		}
	}' "$results"
