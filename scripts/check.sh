#!/bin/sh
# Full verification: vet, build, the non-test Go line count (net lines
# removed is a reported metric), the full test suite (which includes the
# sharded-cell smoke and the scaled-down Figure 5 sharded sweep with its
# bit-identical scatter-gather oracle), a short-mode race lane, the
# crash-recovery and network-chaos harnesses under -race (both enumerate
# sharded schedules too; torture includes the lake journal/compaction/GC
# crash sites and chaos the ten lake storm schedules), one iteration each
# of the parallel query and ingest benchmarks (smoke-checks the concurrent
# read and fast write paths), a miniature run of every processing-farm
# phase (work stealing, preemption, hedging, epoch-keyed memoization with
# its bit-identity oracle) under -race, a short-mode stampede smoke (the
# adaptive overload stack under a 10x open-loop spike), and short runs of
# the WAL, dbnet wire-decode (including the statusOverload response
# parser), columnar segment, shard map/merge and lake journal fuzz
# targets.
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> non-test Go lines outside perfbench/"
make -s loc

echo "==> go test"
go test ./...

echo "==> go test -race -short (race lane)"
go test -race -short ./...

echo "==> processing-farm smoke (stealing, preemption, hedging, memoization; -race)"
go test -race -count=1 -run 'TestTablesScaleSmoke' ./internal/bench/

echo "==> crash-recovery torture harness (-race)"
go test -race -count=1 ./internal/torture/

echo "==> lake torture lane (short: sampled crash sites x all modes)"
go test -race -short -count=1 -run 'TestLake' ./internal/torture/
go test -race -count=1 ./internal/lake/

echo "==> network chaos harness (-race)"
go test -race -count=1 ./internal/chaos/

echo "==> stampede smoke (adaptive overload control under a 10x spike; -race)"
go test -race -short -count=1 -run 'TestStampede' ./internal/chaos/

echo "==> parallel query benchmark (1 iteration)"
go test -run '^$' -bench BenchmarkQueryParallel -benchtime=1x .

echo "==> ingest benchmark (1 iteration)"
go test -run '^$' -bench BenchmarkIngest -benchtime=1x .

# -fuzz accepts a pattern matching exactly one target, so each gets its own
# short smoke run over the checked-in corpus plus fresh mutations. CI can
# shorten (or lengthen) the runs via FUZZTIME without editing this script.
FUZZTIME="${FUZZTIME:-10s}"
for spec in \
	"./internal/minidb/ FuzzDecodeWalOp" \
	"./internal/minidb/ FuzzDecodeValue" \
	"./internal/minidb/ FuzzReadWal" \
	"./internal/dbnet/ FuzzReadFrame" \
	"./internal/dbnet/ FuzzDispatch" \
	"./internal/dbnet/ FuzzParseResponse" \
	"./internal/colseg/ FuzzDecodeSegment" \
	"./internal/shard/ FuzzDecodeShardMap" \
	"./internal/shard/ FuzzMergeReplies" \
	"./internal/lake/ FuzzDecodeJournal"; do
	pkg=${spec% *}
	target=${spec#* }
	echo "==> fuzz smoke: $pkg $target ($FUZZTIME)"
	go test -run '^$' -fuzz "^$target\$" -fuzztime "$FUZZTIME" "$pkg"
done

echo "==> OK"
