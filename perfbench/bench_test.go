package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/colseg"
	"repro/internal/minidb"
	"repro/internal/pl"
	"repro/internal/schema"
	"repro/internal/shard"
)

func TestSummarizePercentileAndBeyond(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[len(ms)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	s := summarize(ms, 0.99)
	if s.N != 1000 || s.P50 != 500 || s.Tail != 990 || s.Beyond != 10 || !s.Valid() {
		t.Fatalf("summary %+v, want p50 500, p99 990 with 10 beyond", s)
	}
	if s := summarize(ms[:999], 0.99); s.Valid() {
		t.Fatalf("999 samples: p99 %v has %d beyond, want fewer than %d", s.Tail, s.Beyond, minBeyond)
	}
	// Ties at the percentile are not beyond it.
	tied := []float64{1, 2, 2, 2, 2}
	if s := summarize(tied, 0.5); s.P50 != 2 || s.Beyond != 0 {
		t.Fatalf("tied summary %+v", s)
	}
	if medianOf([]float64{4, 1, 3, 2}) != 2.5 || medianOf([]float64{3, 1, 2}) != 2 {
		t.Fatal("medianOf")
	}
}

func sp(l layer, start, end int64) span { return span{layer: l, start: start, end: end} }

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	// One page: the web handler inside the client's request, two dm calls
	// inside the handler, a minidb query inside the second.
	spans := []span{
		{layer: opLayer, start: 0, end: 100, kind: "page"},
		sp(webLayer, 10, 90),
		sp(dmLayer, 20, 40),
		sp(dmLayer, 50, 80),
		sp(minidbLayer, 55, 75),
		sp(minidbLayer, 200, 210), // outside every operation: background
	}
	ops, bg := breakdown(spans)
	if len(ops) != 1 {
		t.Fatalf("%d ops", len(ops))
	}
	op := ops[0]
	want := map[layer]int64{opLayer: 20, webLayer: 30, dmLayer: 30, minidbLayer: 20}
	for l, w := range want {
		if op.self[l] != w {
			t.Errorf("%v self %d, want %d", l, op.self[l], w)
		}
	}
	if bg[minidbLayer] != 10 {
		t.Errorf("background minidb %d, want 10", bg[minidbLayer])
	}
}

func TestSelfTimeParallelFanout(t *testing.T) {
	// A scatter-gather: the router's span covers two overlapping shard
	// calls; its self time is its span minus the union of the two.
	spans := []span{
		{layer: opLayer, start: 0, end: 100, kind: "page"},
		sp(shardLayer, 10, 90),
		sp(dbnetLayer, 20, 60),
		sp(dbnetLayer, 30, 70),
	}
	ops, _ := breakdown(spans)
	op := ops[0]
	if op.self[shardLayer] != 80-50 {
		t.Errorf("router self %d, want 30", op.self[shardLayer])
	}
	if op.self[dbnetLayer] != 80 || op.count[dbnetLayer] != 2 {
		t.Errorf("dbnet self %d over %d spans, want 80 over 2", op.self[dbnetLayer], op.count[dbnetLayer])
	}
	if unionLen([][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}}) != 25 {
		t.Error("unionLen")
	}
}

func TestAnalysisPhasesLinkByRequestID(t *testing.T) {
	spans := []span{
		{layer: opLayer, start: 0, end: 100e6, kind: "analysis", cause: "a"},
		{layer: plLayer, start: 10e6, end: 20e6, kind: "prepare", cause: "a"},
		{layer: idlLayer, start: 25e6, end: 75e6, kind: "analyze", cause: "a"},
		{layer: plLayer, start: 80e6, end: 85e6, kind: "deliver", cause: "a"},
		{layer: plLayer, start: 85e6, end: 95e6, kind: "commit", cause: "a"},
	}
	got := analysisPhases(spans)
	want := phaseMeans{queue: 10, prepare: 10, wait: 5, exec: 50, deliver: 5, commit: 10}
	if got != want {
		t.Fatalf("phases %+v, want %+v", got, want)
	}
}

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	db, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	plain := wrapEngine(db, tr, minidbLayer, nil)
	if _, ok := plain.(queryEpocher); ok {
		t.Error("wrapped *minidb.DB gained QueryEpoch")
	}
	if _, ok := plain.(colseg.Runner); ok {
		t.Error("wrapped *minidb.DB gained colseg.Runner")
	}
	router, err := shard.NewRouter(shard.Options{Shards: map[int]minidb.Engine{0: db}, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	w := wrapEngine(router, tr, shardLayer, nil)
	if _, ok := w.(queryEpocher); !ok {
		t.Error("wrapped router lost QueryEpoch: GetHLE would bypass the query cache")
	}
	if _, ok := w.(colseg.Runner); !ok {
		t.Error("wrapped router lost colseg.Runner")
	}
	for _, s := range pl.NewAnalysisStrategies(nil) {
		if _, ok := wrapStrategy(s, tr).(pl.CacheKeyer); !ok {
			t.Errorf("wrapped %s strategy lost CacheKeyer: the frontend would stop memoizing", s.Type())
		}
	}
}

// miniature shrinks a workload to seconds: one short day, few analyses,
// a low page rate. The run is too small for valid tails; the test checks
// that every operation succeeds and every metric is reported.
func miniature(t *testing.T, workload string, trace bool) *run {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 1, trace: trace, work: filepath.Join(t.TempDir(), "work")}
	r, err := newRun(o)
	if err != nil {
		t.Fatal(err)
	}
	r.sp.days, r.sp.dayLength, r.sp.flares = 1, 900, 6
	r.sp.analyses = 8
	r.sp.ingestEvery = 5 * time.Millisecond
	r.sp.pageRate = min(r.sp.pageRate, 100)
	r.sp.readerRate = min(r.sp.readerRate, 50)
	if r.sp.windows > 0 {
		r.sp.windows = 10
	}
	if err := r.execute(); err != nil {
		t.Fatal(err)
	}
	if r.failed > 0 {
		t.Fatalf("%d of %d operations failed: %s", r.failed, r.attempted, r.failureText())
	}
	_, res, _ := r.report()
	want := benchmarkNames(t, trace)
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, name := range want {
		m, ok := res.Metrics[name]
		if !ok || math.IsNaN(m.Value) {
			t.Errorf("metric %s missing", name)
		}
	}
	return r
}

// benchmarkNames reads the metric names BENCHMARK.json declares: the
// end-to-end ones, or with trace the per-layer ones.
func benchmarkNames(t *testing.T, trace bool) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	list := b.EndToEnd
	if trace {
		list = b.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	return names
}

func TestMiniatureBrowseLocal(t *testing.T) { miniature(t, "browse_local", false) }

func TestMiniatureIngestAnalyze(t *testing.T) { miniature(t, "ingest_analyze", false) }

func TestMiniatureBrowseCellTraced(t *testing.T) {
	r := miniature(t, "browse_cell", true)
	for _, name := range []string{"cluster.self_frac", "shard.self_frac", "dbnet.self_frac", "minidb.self_frac"} {
		if r.layerMetrics[name].Value <= 0 {
			t.Errorf("%s = %v: the cell's layers did no traced work", name, r.layerMetrics[name].Value)
		}
	}
}
