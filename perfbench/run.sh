#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (keeping the Go build
# cache and the toolchain's own state there too) and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload served_cold --seed 1 --seconds 30 --trace 0
#
# The run is bound to one CPU it may use, and the server processes it starts
# inherit the binding, so nproc (connections in flight, sweep workers,
# GOMAXPROCS) is 1 throughout. Why: on the 2-vCPU hosts this benchmark was
# built on, the host at times runs both vCPUs on one physical CPU; two busy
# threads then take twice as long as one, while one busy thread keeps its
# speed. Runs that kept both vCPUs busy swung by up to 2x in every wall-clock
# metric; runs on one vCPU do not. The benchmark measures the system's work
# per CPU, which is what a change to its code moves.
#
# The CPU is the one that was least busy over half a second before the run
# (the last allowed CPU unless another is idler by more than a tenth of the
# window): a fixed CPU number would put the run on the same CPU as anything
# else bound the same way, such as a second run of this benchmark, and the
# two would share one CPU while the others idle.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$build/perfbench" .
# "pid N's current affinity list: 0-3,6" -> 0 1 2 3 6
allowed=()
list=$(taskset -pc $$)
IFS=, read -ra parts <<<"${list##*: }"
for p in "${parts[@]}"; do
	for ((c = ${p%-*}; c <= ${p#*-}; c++)); do allowed+=("$c"); done
done
# Busy ticks per CPU: user, nice, system, irq, softirq and steal.
busy() { awk '/^cpu[0-9]/ { print substr($1, 4), $2 + $3 + $4 + $7 + $8 + $9 }' /proc/stat; }
declare -A b0 b1
while read -r c t; do b0[$c]=$t; done < <(busy)
sleep 0.5
while read -r c t; do b1[$c]=$t; done < <(busy)
hz=$(getconf CLK_TCK)
cpu=${allowed[-1]}
best=$((b1[$cpu] - b0[$cpu]))
for c in "${allowed[@]}"; do
	d=$((b1[$c] - b0[$c]))
	if ((d < best - hz / 20)); then
		cpu=$c best=$d
	fi
done
exec taskset -c "$cpu" "$build/perfbench" "$@"
