package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/telemetry"
)

// perLayerNames are the metrics a traced run prints, in BENCHMARK.json's
// order. Page self times are shares of the traced page time (the layers
// below web do no work on some workloads, where a share of 0 says so);
// unit and analysis phases are absolute.
var perLayerNames = []string{
	"loadgen.late_p99_ms", "loadgen.conns",
	"http.self_frac",
	"web.self_frac", "web.api_calls_per_page", "web.html_kb_per_page",
	"cluster.self_frac", "cluster.failovers", "cluster.sheds", "cluster.degraded_serves",
	"dm.self_frac", "dm.queries_per_page", "dm.query_cache_hit_ratio", "dm.session_cache_hit_ratio", "dm.ingest_self_ms",
	"shard.self_frac", "shard.fanout", "shard.scatter_frac",
	"dbnet.self_frac", "dbnet.calls_per_page", "dbnet.refusals",
	"minidb.self_frac", "minidb.rows_scanned_per_row_returned", "minidb.apply_ms",
	"minidb.txns_per_group_commit", "minidb.bytes_per_raw_byte",
	"lake.bytes_per_raw_byte", "lake.containers",
	"pl.queue_wait_ms", "pl.prepare_ms", "pl.deliver_ms", "pl.commit_ms", "pl.memo_hit_ratio", "pl.steals",
	"idl.wait_ms", "idl.exec_ms", "idl.busy_frac",
	"trace.page_us", "trace.analysis_ms", "trace.unit_ms", "trace.overhead_frac", "trace.breakdown_gap_frac",
}

// counters is a snapshot of the program's own counters on one stack.
type counters struct {
	DMQueries, QHits, QMiss, SHits, SMiss int64
	Single, Scatter, Fanout               uint64
	DBNetOps, DBNetRefusals               int64
	RowsScanned, GroupCommits, Grouped    int64
	RowsReturned                          int64
	Failovers, Sheds, Degraded            int64
	MemoHits, MemoMiss, Steals            int64
	BusyS                                 float64
	Pages, HTMLBytes                      int64
	APICalls                              int
}

func snap(st *stack) counters {
	var c counters
	for _, d := range st.dms {
		s := d.Stats()
		c.DMQueries += s.Queries.Load()
		c.QHits += s.QueryCacheHits.Load()
		c.QMiss += s.QueryCacheMisses.Load()
		c.SHits += s.CacheHits.Load()
		c.SMiss += s.CacheMisses.Load()
	}
	for _, r := range st.routers {
		s := r.Status()
		c.Single += s.SingleShard
		c.Scatter += s.Scatter
		c.Fanout += s.FanoutCalls
	}
	for _, s := range st.servers {
		c.DBNetOps += s.Ops() + s.FreeOps()
		c.DBNetRefusals += s.DeadlineRefusals() + s.OverloadRefusals()
	}
	for _, db := range st.dbs {
		s := db.Stats()
		c.RowsScanned += s.RowsScanned
		c.GroupCommits += s.GroupCommits
		c.Grouped += s.GroupedTxns
	}
	if st.rows != nil {
		c.RowsReturned = st.rows.rows.Load()
	}
	if st.gw != nil {
		s := st.gw.Status()
		c.Failovers, c.Sheds, c.Degraded = s.Failovers, s.Shed, s.DegradedServes
	}
	fs := st.fe.FarmStats()
	c.MemoHits, c.MemoMiss, c.Steals = fs.Memo.Hits, fs.Memo.Misses, fs.Sched.Steals
	for _, m := range st.mgrs {
		c.BusyS += m.Stats().BusySeconds
	}
	ws := st.web.Stats()
	c.Pages, c.HTMLBytes = ws.Pages.Load(), ws.HTMLBytes.Load()
	return c
}

func (c counters) sub(b counters) counters {
	return counters{
		DMQueries: c.DMQueries - b.DMQueries, QHits: c.QHits - b.QHits, QMiss: c.QMiss - b.QMiss,
		SHits: c.SHits - b.SHits, SMiss: c.SMiss - b.SMiss,
		Single: c.Single - b.Single, Scatter: c.Scatter - b.Scatter, Fanout: c.Fanout - b.Fanout,
		DBNetOps: c.DBNetOps - b.DBNetOps, DBNetRefusals: c.DBNetRefusals - b.DBNetRefusals,
		RowsScanned: c.RowsScanned - b.RowsScanned, GroupCommits: c.GroupCommits - b.GroupCommits,
		Grouped: c.Grouped - b.Grouped, RowsReturned: c.RowsReturned - b.RowsReturned,
		Failovers: c.Failovers - b.Failovers, Sheds: c.Sheds - b.Sheds, Degraded: c.Degraded - b.Degraded,
		MemoHits: c.MemoHits - b.MemoHits, MemoMiss: c.MemoMiss - b.MemoMiss, Steals: c.Steals - b.Steals,
		BusyS: c.BusyS - b.BusyS, Pages: c.Pages - b.Pages, HTMLBytes: c.HTMLBytes - b.HTMLBytes,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c counters) queryHitRatio() float64 {
	return ratio(float64(c.QHits), float64(c.QHits+c.QMiss))
}

func (c counters) memoHitRatio() float64 {
	return ratio(float64(c.MemoHits), float64(c.MemoHits+c.MemoMiss))
}

// pass is one measured stretch of a traced run.
type pass struct {
	c     counters
	cpu   time.Duration
	ops   int
	pages int
}

// measure runs fn on st and returns the counter deltas and CPU it cost.
func measure(st *stack, fn func() (ops, pages int)) pass {
	b := snap(st)
	cpu0 := cpuTime()
	ops, pages := fn()
	return pass{c: snap(st).sub(b), cpu: cpuTime() - cpu0, ops: ops, pages: pages}
}

func okCount(res []opResult) int {
	n := 0
	for _, x := range res {
		if x.err == nil {
			n++
		}
	}
	return n
}

// checkFidelity fails the run when the traced path behaved differently
// from the deployed one: a wrapper hiding an optional interface shows up
// as a different cache hit ratio or query count.
func (r *run) checkFidelity(deployed, traced pass) {
	check := func(name string, a, b, tol float64) {
		r.attempt(1)
		if math.Abs(a-b) > tol {
			r.fail(fmt.Errorf("wrapper fidelity: %s %.3f deployed vs %.3f traced", name, a, b))
		}
	}
	check("dm.query_cache_hit_ratio", deployed.c.queryHitRatio(), traced.c.queryHitRatio(), 0.05)
	qa := ratio(float64(deployed.c.DMQueries), float64(deployed.pages))
	qb := ratio(float64(traced.c.DMQueries), float64(traced.pages))
	check("dm.queries_per_page", qa, qb, 0.1*math.Max(qa, 1))
	check("pl.memo_hit_ratio", deployed.c.memoHitRatio(), traced.c.memoHitRatio(), 0.1)
}

// tracePasses is a browse workload's traced run: a deployed untraced
// pass, a traced pass at full load on the twin (counters, busy totals,
// overhead), then the one-at-a-time breakdown pass: pages, then units
// and analyses.
func (r *run) tracePasses(tr *tracer, st, twin *stack, pages []page, ref map[page][]byte, extra []*telemetry.Unit) error {
	third := r.o.seconds / 3
	sub := pages[:max(1, int(r.sp.pageRate*third))]

	w := newWebClient(st, conns)
	defer w.close()
	p0 := measure(st, func() (int, int) {
		n := okCount(r.browseWindow(w, sub, ref, r.sp.pageRate, conns, nil))
		return n, n
	})

	// The twin must render every page exactly as the deployed stack does;
	// this also warms its caches.
	wt := newWebClient(twin, conns)
	defer wt.close()
	for p, want := range ref {
		r.attempt(1)
		body, err := wt.get(p.path, p.session)
		if err == nil && !samePage(body, want) {
			err = errors.New("traced stack renders it differently")
		}
		if err != nil {
			r.fail(fmt.Errorf("twin %s: %w", p.path, err))
		}
	}

	tr.on.Store(true)
	p2 := measure(twin, func() (int, int) {
		n := okCount(r.browseWindow(wt, sub, ref, r.sp.pageRate, conns, tr))
		return n, n
	})
	p2.c.APICalls = countLayer(tr.take(), apiLayer(r.sp))

	// Breakdown: one operation in flight.
	deadline := time.Now().Add(time.Duration(third / 2 * float64(time.Second)))
	for i := 0; i < len(sub) && time.Now().Before(deadline); i++ {
		r.attempt(1)
		if err := r.tracedPage(wt, tr, sub[i], ref); err != nil {
			r.fail(err)
		}
	}
	r.serialWrites(tr, twin, extra, time.Now().Add(time.Duration(third/2*float64(time.Second))))
	tr.on.Store(false)
	r.checkFidelity(p0, p2)
	r.layersFrom(tr.take(), p0, p2, twin)
	return nil
}

// apiLayer is the layer of the dm.API the web tier calls.
func apiLayer(sp spec) layer {
	if sp.cell {
		return clusterLayer
	}
	return dmLayer
}

// countLayer counts the spans at l other than the benchmark's own
// LoadUnits calls.
func countLayer(spans []span, l layer) int {
	n := 0
	for _, s := range spans {
		if s.layer == l && s.kind != "LoadUnits" {
			n++
		}
	}
	return n
}

// tracedPage fetches one page under a root span and checks it.
func (r *run) tracedPage(w *webClient, tr *tracer, p page, ref map[page][]byte) error {
	s := tr.begin()
	body, err := w.get(p.path, p.session)
	tr.end(opLayer, s, "page", "")
	if err != nil {
		return err
	}
	if !samePage(body, ref[p]) {
		return fmt.Errorf("%s: page differs from its reference render", p.path)
	}
	return nil
}

// serialWrites ingests units and runs analyses one at a time, each under
// a root span, until the deadline or the inputs run out (at least two of
// each).
func (r *run) serialWrites(tr *tracer, st *stack, units []*telemetry.Unit, deadline time.Time) {
	specs := anaSpecs(r.rng, r.hles, 64, 0)
	for i := 0; i < len(specs) && (i < 2 || time.Now().Before(deadline)); i++ {
		if i < len(units) {
			r.tracedUnit(tr, st, units[i])
		}
		r.tracedAnalysis(tr, st, specs[i], fmt.Sprintf("serial-%d", i))
	}
}

func (r *run) tracedUnit(tr *tracer, st *stack, u *telemetry.Unit) {
	r.attempt(1)
	s := tr.begin()
	_, err := r.ingestOne(st.ingest, u, tr)
	tr.end(opLayer, s, "unit", "")
	if err != nil {
		r.fail(err)
	}
}

func (r *run) tracedAnalysis(tr *tracer, st *stack, sp anaSpec, id string) {
	r.attempt(1)
	s := tr.begin()
	_, _, err := submit(st.fe, r.sess, sp, id, false, false)
	tr.end(opLayer, s, "analysis", id)
	if err != nil {
		r.fail(err)
	}
}

// traceMixed is ingest_analyze's traced run: the three streams on the
// deployed node untraced, then on the twin traced, then one operation at
// a time on the twin (a reader page, a unit, an analysis, in turn).
func (r *run) traceMixed(tr *tracer, st, twin *stack, ds dataset, fr *fresh) error {
	third := r.o.seconds / 3
	stream := ds.stream
	take := func(d float64) []*telemetry.Unit {
		n := min(len(stream), int(d*float64(time.Second)/float64(r.sp.streamEvery)))
		out := stream[:n]
		stream = stream[n:]
		return out
	}
	p0 := measure(st, func() (int, int) {
		r.pass = 0
		units := take(third)
		res := r.mixedStreams(st, units, fr, third, nil)
		return res.ops, res.pages
	})
	tr.on.Store(true)
	p2 := measure(twin, func() (int, int) {
		r.pass = 2
		units := take(third)
		res := r.mixedStreams(twin, units, fr, third, tr)
		return res.ops, res.pages
	})
	p2.c.APICalls = countLayer(tr.take(), dmLayer)

	wt := newWebClient(twin, 1)
	defer wt.close()
	units := take(third)
	specs := anaSpecs(r.rng, r.hles, 1<<10, r.sp.popularShare)
	deadline := time.Now().Add(time.Duration(third * float64(time.Second)))
	for i := 0; i < len(specs) && (i < 2 || time.Now().Before(deadline)); i++ {
		r.attempt(1)
		id := fr.pickHLE(i)
		s := tr.begin()
		_, err := wt.get("/hle?id="+id, false)
		tr.end(opLayer, s, "page", "")
		if err != nil {
			r.fail(err)
		}
		if i < len(units) {
			r.tracedUnit(tr, twin, units[i])
		}
		r.tracedAnalysis(tr, twin, specs[i], fmt.Sprintf("serial-%d", i))
	}
	tr.on.Store(false)
	r.checkFidelity(p0, p2)
	r.layersFrom(tr.take(), p0, p2, twin)
	return nil
}

// layersFrom turns the breakdown pass's spans and the full-load pass's
// counters into the per-layer metrics.
func (r *run) layersFrom(spans []span, p0, p2 pass, twin *stack) {
	ops, background := breakdown(spans)
	var sum [3][nLayers]float64
	var total [3]float64
	var count [3]int
	var gapNum, gapDen float64
	for _, op := range ops {
		k := map[string]int{"page": 0, "analysis": 1, "unit": 2}[op.kind]
		count[k]++
		total[k] += float64(op.total)
		selfSum := 0.0
		for l := layer(0); l < nLayers; l++ {
			sum[k][l] += float64(op.self[l])
			selfSum += float64(op.self[l])
		}
		gapNum += math.Abs(selfSum - float64(op.total))
		gapDen += float64(op.total)
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	frac := func(l layer) float64 { return ratio(sum[0][l], total[0]) }
	perUnitMS := func(l layer) float64 { return ratio(sum[2][l], float64(count[2])) / 1e6 }

	late := summarize(r.late, 0.99)
	set("loadgen.late_p99_ms", late.Tail, "ms")
	set("loadgen.conns", float64(conns), "count")
	// What the root keeps of a page is outside the web handler: net/http
	// client and server plumbing on loopback.
	set("http.self_frac", frac(opLayer), "frac")
	set("web.self_frac", frac(webLayer), "frac")
	set("web.api_calls_per_page", ratio(float64(p2.c.APICalls), float64(p2.pages)), "count")
	set("web.html_kb_per_page", ratio(float64(p2.c.HTMLBytes), float64(p2.c.Pages))/1024, "KB")
	set("cluster.self_frac", frac(clusterLayer), "frac")
	set("cluster.failovers", float64(p2.c.Failovers), "count")
	set("cluster.sheds", float64(p2.c.Sheds), "count")
	set("cluster.degraded_serves", float64(p2.c.Degraded), "count")
	set("dm.self_frac", frac(dmLayer), "frac")
	set("dm.queries_per_page", ratio(float64(p2.c.DMQueries), float64(p2.pages)), "count")
	set("dm.query_cache_hit_ratio", p2.c.queryHitRatio(), "ratio")
	set("dm.session_cache_hit_ratio", ratio(float64(p2.c.SHits), float64(p2.c.SHits+p2.c.SMiss)), "ratio")
	set("dm.ingest_self_ms", perUnitMS(dmLayer), "ms")
	set("shard.self_frac", frac(shardLayer), "frac")
	set("shard.fanout", ratio(float64(p2.c.Fanout), float64(p2.c.Scatter)), "count")
	set("shard.scatter_frac", ratio(float64(p2.c.Scatter), float64(p2.c.Scatter+p2.c.Single)), "frac")
	set("dbnet.self_frac", frac(dbnetLayer), "frac")
	set("dbnet.calls_per_page", ratio(float64(p2.c.DBNetOps), float64(p2.pages)), "count")
	set("dbnet.refusals", float64(p2.c.DBNetRefusals), "count")
	set("minidb.self_frac", frac(minidbLayer), "frac")
	set("minidb.rows_scanned_per_row_returned", ratio(float64(p2.c.RowsScanned), float64(p2.c.RowsReturned)), "ratio")
	set("minidb.apply_ms", perUnitMS(minidbLayer), "ms")
	set("minidb.txns_per_group_commit", ratio(float64(p2.c.Grouped), float64(p2.c.GroupCommits)), "count")
	set("pl.memo_hit_ratio", p2.c.memoHitRatio(), "ratio")
	set("pl.steals", float64(p2.c.Steals), "count")
	set("idl.busy_frac", ratio(p2.c.BusyS, 2*r.o.seconds/3), "frac")
	phases := analysisPhases(spans)
	set("pl.queue_wait_ms", phases.queue, "ms")
	set("pl.prepare_ms", phases.prepare, "ms")
	set("pl.deliver_ms", phases.deliver, "ms")
	set("pl.commit_ms", phases.commit, "ms")
	set("idl.wait_ms", phases.wait, "ms")
	set("idl.exec_ms", phases.exec, "ms")
	set("trace.page_us", ratio(total[0], float64(count[0]))/1e3, "us")
	set("trace.analysis_ms", ratio(total[1], float64(count[1]))/1e6, "ms")
	set("trace.unit_ms", ratio(total[2], float64(count[2]))/1e6, "ms")
	set("trace.overhead_frac", ratio(float64(p2.cpu)/float64(max(p2.ops, 1)), float64(p0.cpu)/float64(max(p0.ops, 1)))-1, "frac")
	set("trace.breakdown_gap_frac", ratio(gapNum, gapDen), "frac")
	if twin != nil && len(twin.dms) > 0 {
		if a := twin.ingest.DefaultArchive(); a != nil && a.Lake() != nil {
			set("lake.containers", float64(a.Lake().Status().ContainersLive), "count")
		}
	}
	r.layerMetrics = m
	r.counters = map[string]counters{"deployed": p0.c, "traced": p2.c}
	r.background = map[string]float64{}
	for l := layer(0); l < nLayers; l++ {
		if background[l] > 0 {
			r.background[l.String()] = float64(background[l]) / 1e6
		}
	}
}

// phaseMeans are the mean pl and idl phase times of the breakdown pass's
// analyses, linked by request id.
type phaseMeans struct{ queue, prepare, wait, exec, deliver, commit float64 }

func analysisPhases(spans []span) phaseMeans {
	type phases struct {
		root, prepare, exec, deliver, commit *span
	}
	by := map[string]*phases{}
	get := func(id string) *phases {
		p := by[id]
		if p == nil {
			p = &phases{}
			by[id] = p
		}
		return p
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case s.layer == opLayer && s.kind == "analysis":
			get(s.cause).root = s
		case s.layer == plLayer && s.kind == "prepare":
			get(s.cause).prepare = s
		case s.layer == plLayer && s.kind == "deliver":
			get(s.cause).deliver = s
		case s.layer == plLayer && s.kind == "commit":
			get(s.cause).commit = s
		case s.layer == idlLayer:
			get(s.cause).exec = s
		}
	}
	var m phaseMeans
	n := 0
	for _, p := range by {
		if p.root == nil || p.prepare == nil || p.exec == nil || p.deliver == nil || p.commit == nil {
			continue
		}
		n++
		m.queue += float64(p.prepare.start - p.root.start)
		m.prepare += float64(p.prepare.end - p.prepare.start)
		m.wait += float64(p.exec.start - p.prepare.end)
		m.exec += float64(p.exec.end - p.exec.start)
		m.deliver += float64(p.deliver.end - p.deliver.start)
		m.commit += float64(p.commit.end - p.commit.start)
	}
	if n == 0 {
		return m
	}
	k := float64(n) * 1e6
	return phaseMeans{m.queue / k, m.prepare / k, m.wait / k, m.exec / k, m.deliver / k, m.commit / k}
}

// storageLayers adds the on-disk ratios once the deployment is closed.
func (r *run) storageLayers(dir string, dbDirs []string) {
	if r.layerMetrics == nil || r.rawBytes == 0 {
		return
	}
	var db int64
	for _, d := range dbDirs {
		db += dirBytes(filepath.Join(dir, d))
	}
	r.layerMetrics["minidb.bytes_per_raw_byte"] = metric{float64(db) / float64(r.rawBytes), "ratio"}
	r.layerMetrics["lake.bytes_per_raw_byte"] = metric{float64(dirBytes(filepath.Join(dir, "archive"))) / float64(r.rawBytes), "ratio"}
}
