#!/bin/sh
# docs-freshness: fail CI when operator-facing docs still carry claims
# that a past PR made false.
# Each denylist entry is a present-tense claim about the architecture
# that a past PR made false; history sections may *mention* the old
# design ("replaced the single pending list"), but a doc asserting it
# as current fails here. If a new entry false-positives on a history
# mention, rephrase the history — a stale claim shipping to operators
# costs more than a reword.
set -eu
cd "$(dirname "$0")/.."

DOCS="README.md DESIGN.md ROADMAP.md
internal/audit/doc.go internal/cep/doc.go internal/core/doc.go
internal/policy/doc.go internal/sbus/doc.go internal/store/doc.go
internal/pki/doc.go
.claude/skills/verify/SKILL.md"

# grep exits 2 when any listed file is missing, which would otherwise
# read as "no match" and hide every stale claim in the others.
for doc in $DOCS; do
    if [ ! -f "$doc" ]; then
        echo "docs-freshness: $doc is listed in DOCS but does not exist"
        exit 2
    fi
done

fail=0
check() {
    pattern=$1
    why=$2
    status=0
    # shellcheck disable=SC2086
    matches=$(grep -nE -e "$pattern" $DOCS) || status=$?
    if [ "$status" -gt 1 ]; then
        echo "docs-freshness: grep failed (exit $status) on pattern $pattern"
        exit 2
    fi
    if [ "$status" -eq 0 ]; then
        echo "docs-freshness: stale claim — $why"
        echo "$matches"
        echo
        fail=1
    fi
}

check 'single-threaded by design' \
    'CEP offers ShardedEngine lanes; only Engine is externally serialized'
check 'still (runs |run )?single-threaded' \
    'detection→policy→audit dispatch is lane-partitioned per bus shard'
check 'mutex-guarded pending list' \
    'audit ingest stages per lane; only chain-head assignment serializes'
check 'serial(ises|izes) every (access|delivery)' \
    'the domain takes no engine-wide lock around CEP or policy dispatch'
check 'histograms in summary form|latency summaries \(p50/p90/p99\)' \
    '/metrics serves native histograms (le buckets) with companion _quantile gauges'
check 'v5↔v4' \
    'v5 is the only link protocol version; v3/v4 peers are refused with ErrProtocol'
check 'min\(local max' \
    'links no longer negotiate a version at hello time; any other version is refused'
check 'serves four surfaces' \
    'the operator surface has five endpoints: /metrics, /healthz, /traces, /lanes, pprof'
check 'go run \./cmd/benchgate' \
    'cmd/benchgate is gone; CI compares bench/ runs with scripts/bench-compare.sh'
check 'go run \./cmd/benchharness +-[a-z]' \
    'benchharness takes no flags; it only runs E1–E11 (performance is bench/)'
check '-json +BENCH' \
    'the BENCH_<n>.json baselines are gone; bench/ appends results with -out'
check '`mutate2`' \
    'every channel change is one applyRoutes call over all touched shards, locked in ascending order'
check 'NewBus is the single-shard|`NewBus` ≡' \
    'sbus.NewBus is gone; a single-shard bus is NewShardedBus(name, 1, ...)'
check 'exactly like an Engine' \
    'cep.Engine is gone; ShardedEngine is the only engine and its lanes own the patterns'
check "(cloned|clones|clone) (under the shard|(a|the|each) (shard.s )?(whole )?(routing )?(snapshot|index))|copies all four maps" \
    'a routing mutation copies only the buckets it writes (per-bucket copy-on-write), never the whole snapshot'
check 'advances on every AddEdge' \
    'the provenance epoch advances only when the edge set changes; re-adding a present edge is a no-op'
check 'remains the synchronous path' \
    'audit.Log has one ingest path: every record stages and commits in ticket order (Log.Append is gone)'
check 'stage-sample|SetStageSampling|stage_sample' \
    'stage attribution rides the sampled flow trace; `-trace-sample` is the one rate'
check 're-encryption|web of trust' \
    'internal/pki holds only the Ed25519 key pairs attest signs with; the CA, re-encryption and web of trust are gone'
check '(returns|returning) the (discarded|pruned) segment|(discarded|offloaded) segments' \
    'Log.Prune returns the count it dropped and copies nothing; offload reads the range first, or the durable store holds it'
check '(quenching|quench) (mutates|clones)|clone boundar|(Clones|clones) share the clock|per-delivery (copy|clone)' \
    'deliveries share one read-only message; Quench copies only when it removes an attribute'

if [ "$fail" -eq 0 ]; then
    echo "docs-freshness: OK"
fi
exit "$fail"
