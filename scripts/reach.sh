#!/usr/bin/env bash
# reach: measure what the running system reaches. Builds every binary and
# example with coverage counters, runs what exercises them (the four
# benchmark workloads plain and traced, E1–E11, one chaos-soak seed, the
# federation smoke and retention drills of the CI integration job, auditview
# and policyctl on cmd/lciotd/testdata, the four examples and the root
# B-rows), then prints
#
#   - the share of statements reached in each package (a package that no
#     binary links reads 0 %), and
#   - every function under internal/ that no run reached.
#
#   bash scripts/reach.sh
#
# Exits 1 when an internal/ package reads 0 %: nothing that runs uses it.
# Binaries, counters and run data live under one mktemp directory, removed
# at exit; builds use the Go build cache `go env GOCACHE` names. The
# federation drill listens on 127.0.0.1:7410, 9301 and 9302.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$PWD

work=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]}"; do
        kill -9 "$p" 2>/dev/null || true
        wait "$p" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

bin=$work/bin cov=$work/cov logs=$work/logs
mkdir -p "$bin" "$cov" "$logs" "$work/tmp" "$work/run"
export TMPDIR=$work/tmp GOCOVERDIR=$cov

# -coverpkg must name the main packages too (lciot/... does, ./internal/...
# does not): a binary whose main package is not instrumented writes no
# counter files at exit, and GOCOVERDIR stays empty.
mains="./bench ./cmd/benchharness ./cmd/chaossoak ./cmd/lciotd ./cmd/auditview
./cmd/policyctl ./examples/breakglass ./examples/homemonitor
./examples/quickstart ./examples/smartcity"
# shellcheck disable=SC2086
go build -cover -coverpkg=lciot/... -o "$bin/" $mains

# start runs a command in the background with its output in logs/<name>.log
# and records its pid; the EXIT trap kills whatever is still running.
start() {
    name=$1
    shift
    "$@" >"$logs/$name.log" 2>&1 &
    pids+=($!)
    last=$!
}
# stop sends SIGTERM (or the signal given) and waits for the process.
stop() {
    kill "-${2:-TERM}" "$1" 2>/dev/null || true
    wait "$1" 2>/dev/null || true
}

# The benchmark writes its data and spans relative to its working directory.
cd "$work/run"
for w in ward_pipeline durable_evidence federated_relay reconfig_compliance; do
    for t in 0 1; do
        "$bin/bench" -workload "$w" -seconds 2 -trace "$t" >"$logs/bench-$w-$t.log"
    done
done
"$bin/benchharness" >"$logs/benchharness.log"
timeout 120 "$bin/chaossoak" -seed 1 -phases 2 -phase-dur 2s -dir "$work/soak" >"$logs/chaossoak.log" 2>&1
for ex in breakglass homemonitor quickstart smartcity; do
    timeout 60 "$bin/$ex" >"$logs/$ex.log" 2>&1
done

# The daemon resolves config-relative paths (policy files, the audit
# export) next to its config, so the drills run on a copy of testdata.
cp -r "$repo/cmd/lciotd/testdata" "$work/testdata"
td=$work/testdata
for lcp in "$td"/*.lcp; do
    "$bin/policyctl" validate "$lcp" >/dev/null
    "$bin/policyctl" -explain show "$lcp" >/dev/null
    "$bin/policyctl" lint "$lcp" >/dev/null
done

# Retention drill: 10k scheduled retentions, SIGKILL mid-sweep, resume.
ret=$work/ret
start ret1 "$bin/lciotd" -config "$td/retention.json" -data-dir "$ret" -pump sensor.out=2000
sleep 6
stop "$last" KILL
start ret2 "$bin/lciotd" -config "$td/retention.json" -data-dir "$ret"
sleep 8
stop "$last"
grep -q "retention deadlines resumed" "$logs/ret2.log"
"$bin/auditview" verify "$ret" >/dev/null
"$bin/auditview" retention "$ret" telemetry 3s >/dev/null

# Federation smoke: alpha listens, beta dials and pumps; alpha is killed
# and restarted on the same data dir, and beta's link resumes.
fa=$work/fed-a fb=$work/fed-b
start alpha1 "$bin/lciotd" -config "$td/fed-alpha.json" -data-dir "$fa" -metrics-addr 127.0.0.1:9301
alpha=$last
sleep 1
start beta "$bin/lciotd" -config "$td/fed-beta.json" -data-dir "$fb" -pump sensor.out=200 \
    -metrics-addr 127.0.0.1:9302 -trace-sample 8
beta=$last
sleep 3
grep -q "cross-bus channel established" "$logs/beta.log"
for port in 9301 9302; do
    for path in metrics healthz lanes traces; do
        curl -fsS "http://127.0.0.1:$port/$path" >/dev/null
    done
done
stop "$alpha" KILL
sleep 3
start alpha2 "$bin/lciotd" -config "$td/fed-alpha.json" -data-dir "$fa" -metrics-addr 127.0.0.1:9301
alpha=$last
sleep 5
stop "$alpha"
stop "$beta"
grep -q "recovered .* records, chain intact" "$logs/alpha2.log"
for d in "$fa" "$fb"; do
    "$bin/auditview" verify "$d" >/dev/null
    "$bin/auditview" report "$d" >/dev/null
done

# The root B-rows, which reproduce the paper's §8.2.1, §6, Challenge 1
# and §10.2 claims, run from the test binary.
cd "$repo"
go test -cover -coverpkg=lciot/... -run NONE -bench . -benchtime 1x . \
    -args -test.gocoverdir="$cov" >"$logs/brows.log"

echo "== reach per package (statements reached by any run)"
go list ./... >"$work/pkgs.txt"
go tool covdata percent -i="$cov" >"$work/percent.txt"
# covdata prints a package without statements (the root re-export package)
# as a bare name with no line end, so its output is read as a token stream:
# "<pkg> coverage: <n>%" gives a package's share, and any lciot name seen
# is linked into some binary.
missing=0
awk '
    NR == FNR { pkgs[++np] = $1; next }
    { for (i = 1; i <= NF; i++) t[++nt] = $i }
    END {
        for (i = 1; i <= nt; i++) {
            if (t[i] ~ /^lciot(\/|$)/) linked[t[i]] = 1
            if (t[i] == "coverage:") { v = t[i + 1]; sub(/%/, "", v); pct[t[i - 1]] = v + 0 }
        }
        for (i = 1; i <= np; i++) {
            p = pkgs[i]
            if (p in pct) printf "%6.1f%%  %s\n", pct[p], p
            else if (p in linked) printf "     -   %s (no statements)\n", p
            else printf "%6.1f%%  %s (linked by no binary)\n", 0, p
            if (p ~ /^lciot\/internal\// && !(pct[p] > 0)) bad = 1
        }
        exit bad
    }' "$work/pkgs.txt" "$work/percent.txt" || missing=1
go tool covdata func -i="$cov" >"$work/func.txt"
awk '$1 == "total" { print "total: " $NF " of the statements in linked packages" }' "$work/func.txt"
echo
echo "== functions in internal/ that no run reached"
awk '$1 ~ /\/internal\// && $NF == "0.0%" { print $1, $2 }' "$work/func.txt" | sort
exit "$missing"
