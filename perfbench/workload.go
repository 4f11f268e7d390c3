package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dm"
	"repro/internal/idl"
	"repro/internal/pl"
	"repro/internal/telemetry"
)

// spec sizes one workload. Every workload populates its deployment the
// same way — raw units due on a downlink schedule into dm.LoadUnits, then
// closed-loop analysts committing analyses — and differs in deployment
// and in what its timed window drives.
type spec struct {
	cell bool // browse_cell's deployment; otherwise one hedc.Open node

	// Dataset: days of telemetry cut into units.
	days        int
	dayLength   float64
	flares      int
	unitSeconds float64
	ingestEvery time.Duration // load-phase downlink schedule
	analyses    int           // analyses committed in the load phase

	// Browse window.
	pageRate     float64 // pages per second, open loop
	mix          []pageMix
	windows      int     // distinct browse time windows (0 = none)
	sessionShare float64 // share of page requests carrying a session

	// ingest_analyze window.
	streamDays   int           // extra days of units fed during the window
	streamEvery  time.Duration // window downlink schedule
	readerRate   float64       // reader pages per second, open loop
	analysesPerS float64       // window analysis quota per second of window
	popularShare float64       // share of analyses re-asking popular pairs
}

// think is an analyst's pause between one result and the next request.
// Analysts that never pause saturate both CPUs, and every other figure
// then measures contention for them; their own rate measures the host's
// fsync latency more than the program (commits end in fsyncs).
const think = 60 * time.Millisecond

// imageSize is the imaging resolution analysts request: at the default
// 64 an image takes about a second, fifty times any other type.
const imageSize = 16

// conns bounds the load generator's connections and analysts: one
// process, at most as many as the host has CPUs (2 on the reference host).
var conns = min(runtime.NumCPU(), 2)

var specs = map[string]spec{
	"browse_local": {
		days: 2, dayLength: 3600, flares: 100, unitSeconds: 30,
		ingestEvery: 20 * time.Millisecond, analyses: 120,
		pageRate: 400,
		mix: []pageMix{
			{"index", 4}, {"catalog", 6}, {"hle", 50}, {"browse", 10}, {"ana", 15}, {"img", 15},
		},
	},
	"browse_cell": {
		cell: true,
		days: 2, dayLength: 3600, flares: 100, unitSeconds: 30,
		ingestEvery: 20 * time.Millisecond, analyses: 120,
		pageRate: 200,
		mix: []pageMix{
			{"index", 4}, {"catalog", 6}, {"hle", 60}, {"browse", 12}, {"ana", 18},
		},
		windows: 400, sessionShare: 0.2,
	},
	"ingest_analyze": {
		days: 1, dayLength: 3600, flares: 100, unitSeconds: 15,
		ingestEvery: 10 * time.Millisecond, analyses: 40,
		streamDays: 1, streamEvery: 100 * time.Millisecond, readerRate: 200,
		analysesPerS: 20,
		popularShare: 0.3,
	},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory inside the checkout
}

// run is the state and tallies of one benchmark run.
type run struct {
	o   options
	sp  spec
	rng *rand.Rand

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	setupS    float64
	pageLat   []float64
	pageRes   []opResult
	anaLat    []float64
	anaRate   float64 // analyses per second
	ingestLag []float64
	late      []float64
	ops       int
	cpu       time.Duration
	heapMB    float64
	spaceAmp  float64
	rawBytes  int64
	committed int
	distinct  int

	// Populated by the load phase.
	sess    *dm.Session
	hles    []hleRef
	popular []hleRef // hles, most viewed first
	anas    []anaRef
	units   []*unitAck
	samples []*anaSample

	layerMetrics map[string]metric   // per-layer metrics (trace mode)
	counters     map[string]counters // counter deltas of the traced passes
	background   map[string]float64  // ms per layer outside every breakdown operation

	pass     int                           // numbers analysis ids across windows
	onCommit func(item string, gif []byte) // set while readers want new images
}

type unitAck struct {
	unit, item string
}

// anaSample keeps a committed analysis's delivery for the NoMemo re-run.
type anaSample struct {
	spec  anaSpec
	id    string
	del   *pl.Delivery
	units int // units ingested when it ran
}

// fail records one failed, refused, degraded or wrong operation.
func (r *run) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *run) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// dataset is the seeded input of one run.
type dataset struct {
	load   []*telemetry.Unit // populated in the load phase
	stream []*telemetry.Unit // fed during ingest_analyze's window
	extra  []*telemetry.Unit // a browse workload's serial units in the traced breakdown
}

func (r *run) generate() dataset {
	sp := r.sp
	ds := dataset{load: genUnits(r.o.seed, 1, sp.days, sp.dayLength, sp.flares, sp.unitSeconds)}
	next := 1 + sp.days
	if sp.streamDays > 0 {
		ds.stream = genUnits(r.o.seed, next, sp.streamDays, sp.dayLength, sp.flares, sp.unitSeconds)
		next += sp.streamDays
	}
	if r.o.trace && sp.streamDays == 0 {
		ds.extra = genUnits(r.o.seed, next, 1, sp.dayLength, sp.flares, sp.unitSeconds)
	}
	return ds
}

// ingestOne feeds one unit to LoadUnits and checks the report against
// the generated unit. It returns the events the unit produced.
func (r *run) ingestOne(d *dm.DM, u *telemetry.Unit, tr *tracer) ([]string, error) {
	s := tr.begin()
	reps, err := d.LoadUnits([]*telemetry.Unit{u}, 0)
	tr.end(dmLayer, s, "LoadUnits", "")
	if err != nil {
		return nil, err
	}
	if len(reps) != 1 {
		return nil, fmt.Errorf("unit %s: %d load reports", u.Name(), len(reps))
	}
	rep := reps[0]
	if rep.Photons != len(u.Photons) {
		return nil, fmt.Errorf("unit %s: report says %d photons, unit has %d", u.Name(), rep.Photons, len(u.Photons))
	}
	r.mu.Lock()
	r.rawBytes += rep.RawBytes
	r.units = append(r.units, &unitAck{unit: rep.UnitID, item: rep.ItemID})
	r.mu.Unlock()
	return rep.HLEs, nil
}

// ingestSchedule feeds units open loop, one connection, so event ids are
// assigned in unit order and the page schedules built from them repeat
// for a seed. It returns the lag of each unit from its due time.
func (r *run) ingestSchedule(d *dm.DM, units []*telemetry.Unit, every time.Duration, onEvents func([]string), tr *tracer) ([]float64, []float64) {
	r.attempt(len(units))
	dues := make([]time.Duration, len(units))
	for i := range dues {
		dues[i] = time.Duration(i) * every
	}
	res, late := openLoop(time.Now(), dues, 1, func(i int) error {
		s := tr.begin()
		ids, err := r.ingestOne(d, units[i], tr)
		tr.end(opLayer, s, "unit", "")
		if err == nil && onEvents != nil {
			onEvents(ids)
		}
		return err
	})
	var lag []float64
	for _, x := range res {
		if x.err != nil {
			r.fail(x.err)
			continue
		}
		lag = append(lag, x.latencyMS())
	}
	return lag, late
}

// lookupHLEs resolves event ids into the fields schedules need.
func (r *run) lookupHLEs(d *dm.DM, ids []string) ([]hleRef, error) {
	out := make([]hleRef, 0, len(ids))
	for _, id := range ids {
		h, err := d.GetHLE(r.sess, id)
		if err != nil {
			return nil, err
		}
		out = append(out, hleRef{id: h.ID, day: h.Day, tstart: h.TStart, stop: h.TStop, kind: h.KindHint})
	}
	return out, nil
}

// submit runs one analysis to its committed id on the interactive tier.
func submit(fe *pl.Frontend, sess *dm.Session, sp anaSpec, id string, noMemo, noCommit bool) (*pl.Ticket, string, error) {
	params := idl.Args{"hle_id": sp.hle.id, "tstart": sp.hle.tstart, "tstop": min(sp.hle.stop, sp.hle.tstart+anaWindow)}
	if sp.typ == "imaging" {
		params["image_size"] = float64(imageSize)
	}
	t, err := fe.Submit(&pl.Request{
		ID: id, Type: sp.typ, Session: sess, Params: params,
		Tier: pl.TierInteractive, NoMemo: noMemo, NoCommit: noCommit,
	})
	if err != nil {
		return nil, "", err
	}
	anaID, err := t.Wait(context.Background())
	return t, anaID, err
}

// analyze submits one analysis, publishes it so anonymous pages show it,
// and records it; it returns the Submit→committed latency.
func (r *run) analyze(st *stack, sp anaSpec, id string, tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	s := tr.begin()
	t, anaID, err := submit(st.fe, r.sess, sp, id, false, false)
	tr.end(opLayer, s, "analysis", id)
	lat := time.Since(t0)
	if err != nil {
		return lat, fmt.Errorf("analysis %s %s: %w", sp.typ, sp.hle.id, err)
	}
	if err := st.ingest.Publish(r.sess, "ana", anaID); err != nil {
		return lat, err
	}
	a, err := st.ingest.GetANA(r.sess, anaID)
	if err != nil {
		return lat, err
	}
	r.mu.Lock()
	r.committed++
	r.anas = append(r.anas, anaRef{id: anaID, item: a.ItemID})
	if r.onCommit != nil {
		r.onCommit(a.ItemID, gifOf(t.Delivery().Files))
	}
	if r.committed%8 == 1 {
		r.samples = append(r.samples, &anaSample{spec: sp, id: anaID, del: t.Delivery(), units: len(r.units)})
	}
	r.mu.Unlock()
	return lat, nil
}

// analysts runs conns closed-loop analysts over specs until every spec
// is done or the deadline passes, and returns the latencies.
func (r *run) analysts(st *stack, specs []anaSpec, deadline time.Time, prefix string, tr *tracer) []float64 {
	var next atomic.Int64
	var mu sync.Mutex
	var lat []float64
	closedLoop(conns, deadline, func() bool {
		i := int(next.Add(1) - 1)
		if i >= len(specs) {
			return true
		}
		r.attempt(1)
		d, err := r.analyze(st, specs[i], fmt.Sprintf("%s-%d", prefix, i), tr)
		if err != nil {
			r.fail(err)
			return false
		}
		mu.Lock()
		lat = append(lat, ms(d))
		mu.Unlock()
		time.Sleep(think)
		return false
	})
	return lat
}

// populate is the load phase: the units on their downlink schedule, then
// the analysts. Browse workloads report its ingest and analysis figures.
func (r *run) populate(st *stack, units []*telemetry.Unit, analyses int) error {
	var ids []string
	lag, _ := r.ingestSchedule(st.ingest, units, r.sp.ingestEvery, func(h []string) { ids = append(ids, h...) }, nil)
	if len(ids) == 0 {
		return errors.New("load phase detected no events")
	}
	hles, err := r.lookupHLEs(st.ingest, ids)
	if err != nil {
		return err
	}
	r.hles = hles
	r.popular = popularity(r.rng, hles)
	specs := coverSpecs(r.popular, analyses)
	if r.sp.streamDays > 0 {
		specs = anaSpecs(r.rng, r.hles, analyses, r.sp.popularShare)
	}
	t0 := time.Now()
	lat := r.analysts(st, specs, time.Now().Add(5*time.Minute), "load", nil)
	if r.sp.streamDays == 0 {
		r.ingestLag, r.anaLat = lag, lat
		r.anaRate = float64(len(lat)) / time.Since(t0).Seconds()
	}
	sort.Slice(r.anas, func(i, j int) bool { return r.anas[i].id < r.anas[j].id })
	return nil
}

// references fetches every distinct page of the schedule once: the
// byte-for-byte oracle for the timed window, and its cache warm-up.
func (r *run) references(w *webClient, pages []page) (map[page][]byte, error) {
	ref := make(map[page][]byte)
	for _, p := range pages {
		if _, ok := ref[p]; ok {
			continue
		}
		body, err := w.get(p.path, p.session)
		if err != nil {
			return nil, fmt.Errorf("reference render: %w", err)
		}
		if isDegraded(body) {
			return nil, fmt.Errorf("reference render of %s is degraded", p.path)
		}
		ref[p] = body
	}
	return ref, nil
}

// browseWindow drives pages open loop at the spec's rate and compares
// every response with its reference.
func (r *run) browseWindow(w *webClient, pages []page, ref map[page][]byte, rate float64, conns int, tr *tracer) []opResult {
	r.attempt(len(pages))
	runtime.GC() // start the window without the set-up's garbage
	res, late := openLoop(time.Now().Add(5*time.Millisecond), evenly(len(pages), rate), conns, func(i int) error {
		s := tr.begin()
		body, err := w.get(pages[i].path, pages[i].session)
		tr.end(opLayer, s, "page", "")
		if err != nil {
			return err
		}
		if isDegraded(body) {
			return fmt.Errorf("%s: degraded page", pages[i].path)
		}
		if !samePage(body, ref[pages[i]]) {
			return fmt.Errorf("%s: page differs from its reference render", pages[i].path)
		}
		return nil
	})
	for _, x := range res {
		if x.err != nil {
			r.fail(x.err)
		}
	}
	r.mu.Lock()
	r.late = append(r.late, late...)
	r.mu.Unlock()
	return res
}

// replayNoMemo re-runs sampled analyses without committing: once through
// the result cache and once with it bypassed (NoMemo). Both must deliver
// bit-identical results, and identical to the original delivery when no
// unit has been ingested since (new units overlapping an event's window
// legitimately change what an analysis of it computes).
func (r *run) replayNoMemo(st *stack) {
	for i, s := range r.samples {
		r.attempt(1)
		err := func() error {
			t1, _, err := submit(st.fe, r.sess, s.spec, fmt.Sprintf("replay-%d", i), false, true)
			if err != nil {
				return err
			}
			t2, _, err := submit(st.fe, r.sess, s.spec, fmt.Sprintf("replay-nomemo-%d", i), true, true)
			if err != nil {
				return err
			}
			if err := sameDelivery(t1.Delivery(), t2.Delivery()); err != nil {
				return err
			}
			if s.units == len(r.units) {
				return sameDelivery(s.del, t2.Delivery())
			}
			return nil
		}()
		if err != nil {
			r.fail(fmt.Errorf("NoMemo replay of %s: %w", s.id, err))
		}
	}
}

func sameDelivery(a, b *pl.Delivery) error {
	if a == nil || b == nil {
		return errors.New("missing delivery")
	}
	if len(a.Files) != len(b.Files) {
		return fmt.Errorf("%d files, replay %d", len(a.Files), len(b.Files))
	}
	for i := range a.Files {
		if a.Files[i].Suffix != b.Files[i].Suffix || a.Files[i].Format != b.Files[i].Format {
			return fmt.Errorf("file %d differs in name or format", i)
		}
		// The process log records wall-clock timings; every other file is
		// a pure function of the inputs.
		if a.Files[i].Format == "log" {
			continue
		}
		if !bytes.Equal(a.Files[i].Data, b.Files[i].Data) {
			return fmt.Errorf("file %s differs", a.Files[i].Suffix)
		}
	}
	if !reflect.DeepEqual(a.Result["result"], b.Result["result"]) {
		return errors.New("result differs")
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setupReps is how many times a run sets its deployment up; setup_s is
// the median, so one slow start does not move it.
const setupReps = 3

// timedSetup starts the deployment setupReps times from empty
// directories, keeps the last, and returns the median start time.
func timedSetup[T any](base string, start func(dir string) (T, error), stop func(T)) (T, string, float64, error) {
	var times []float64
	var last T
	var dir string
	for i := 0; i < setupReps; i++ {
		dir = filepath.Join(base, fmt.Sprintf("deploy-%d", i))
		t0 := time.Now()
		d, err := start(dir)
		if err != nil {
			return last, "", 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupReps-1 {
			stop(d)
			if err := os.RemoveAll(dir); err != nil {
				return last, "", 0, err
			}
			continue
		}
		last = d
	}
	return last, dir, medianOf(times), nil
}

// checkReopen reopens a closed node's data directory and reads back
// every acknowledged unit and committed analysis.
func (r *run) checkReopen(dir string) error {
	repo, err := hedc.Open(hedc.Config{DataDir: dir, ImportPassword: importPassword})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer repo.Close()
	sess, err := repo.ImportSession()
	if err != nil {
		return err
	}
	for _, u := range r.units {
		r.attempt(1)
		data, err := repo.ReadItem(sess, u.item)
		if err == nil && len(data) == 0 {
			err = errors.New("empty")
		}
		if err != nil {
			r.fail(fmt.Errorf("reopen: unit %s: %w", u.unit, err))
		}
	}
	for _, a := range r.anas {
		r.attempt(1)
		if _, err := repo.GetAnalysis(sess, a.id); err != nil {
			r.fail(fmt.Errorf("reopen: analysis %s: %w", a.id, err))
		}
	}
	return nil
}

// summaryOf reduces page latencies to their successful samples.
func latencies(res []opResult) []float64 {
	out := make([]float64, 0, len(res))
	for _, x := range res {
		if x.err == nil {
			out = append(out, x.latencyMS())
		}
	}
	return out
}

// failureText joins recorded failures for the report.
func (r *run) failureText() string { return strings.Join(r.failures, "; ") }
