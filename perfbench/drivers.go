package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/dm"
	"repro/internal/telemetry"
)

// readerUser is the account whose session a share of browse_cell's page
// requests carry.
const readerUser, readerPassword = "reader", "reader-pw"

// cellDeploy is browse_cell's deployment: the shard tier with its ingest
// node, and the deployed front.
type cellDeploy struct {
	c     *cell
	front *stack
}

func (d *cellDeploy) close() {
	if d.front != nil {
		d.front.close()
	}
	d.c.close()
}

func startCellDeploy(dir string, tr *tracer) (*cellDeploy, error) {
	c, err := openCell(dir, tr)
	if err != nil {
		return nil, err
	}
	front, err := c.startFront()
	if err != nil {
		c.close()
		return nil, err
	}
	d := &cellDeploy{c: c, front: front}
	if err := waitHealthy(front.gw, cellReplicas); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// login logs the reader account in through st's gateway; the gateway
// pins the session to a replica, so each front needs its own login.
func login(st *stack) error {
	info, err := st.gw.Authenticate(readerUser, readerPassword, "127.0.0.1", dm.SessionHLE)
	if err != nil {
		return err
	}
	st.token = info.Token
	return nil
}

// login opens the import session analyses run under.
func (r *run) login(d *dm.DM) error {
	s, err := d.Authenticate(dm.ImportUser, importPassword, "127.0.0.1", dm.SessionANA)
	if err != nil {
		return err
	}
	r.sess = s
	return nil
}

// runBrowse runs browse_local or browse_cell.
func (r *run) runBrowse(tr *tracer) error {
	t0 := time.Now()
	ds := r.generate()
	genS := time.Since(t0).Seconds()

	var st *stack
	var local *localNode
	var cd *cellDeploy
	var dir string
	var setupS float64
	var err error
	if r.sp.cell {
		cd, dir, setupS, err = timedSetup(r.o.work, func(dir string) (*cellDeploy, error) {
			return startCellDeploy(dir, tr)
		}, (*cellDeploy).close)
		if err != nil {
			return err
		}
		defer cd.close()
		st = cd.front
	} else {
		local, dir, setupS, err = timedSetup(r.o.work, openLocal, func(l *localNode) { l.close() })
		if err != nil {
			return err
		}
		defer local.close()
		st = &local.stack
	}
	r.setupS = genS + setupS

	if err := r.login(st.ingest); err != nil {
		return err
	}
	if r.sp.sessionShare > 0 {
		if err := st.ingest.CreateUser(readerUser, readerPassword, dm.GroupScientist, dm.RightBrowse); err != nil {
			return err
		}
		if err := login(st); err != nil {
			return err
		}
	}
	w := newWebClient(st, conns)
	defer w.close()

	if err := r.populate(st, ds.load, r.sp.analyses); err != nil {
		return err
	}
	pages := browsePages(r.rng, int(r.sp.pageRate*r.o.seconds), r.sp.mix, r.popular, r.anas, r.sp.windows, r.sp.sessionShare)
	ref, err := r.references(w, pages)
	if err != nil {
		return err
	}
	r.distinct = len(ref)

	if r.o.trace {
		var twin *stack
		if r.sp.cell {
			twin, err = cd.c.startTracedFront(tr)
			if err == nil {
				err = waitHealthy(twin.gw, cellReplicas)
			}
			if err == nil {
				err = login(twin)
			}
		} else {
			twin, err = local.twin(tr)
		}
		if err != nil {
			return err
		}
		defer twin.close()
		if err := r.tracePasses(tr, st, twin, pages, ref, ds.extra); err != nil {
			return err
		}
	} else {
		cpu0 := cpuTime()
		r.pageRes = r.browseWindow(w, pages, ref, r.sp.pageRate, conns, nil)
		r.cpu = cpuTime() - cpu0
		r.pageLat = latencies(r.pageRes)
		r.ops = len(r.pageLat)
	}
	r.heapMB = liveHeapMB()
	r.replayNoMemo(st)

	// Close, then weigh what the deployment left on disk.
	w.close()
	if cd != nil {
		cd.close()
	} else {
		local.close()
	}
	if r.rawBytes > 0 {
		r.spaceAmp = float64(dirBytes(dir)) / float64(r.rawBytes)
	}
	if r.sp.cell {
		r.storageLayers(dir, []string{"shard-0", "shard-1"})
	} else {
		r.storageLayers(dir, []string{"db"})
	}
	return nil
}

// fresh tracks what ingest_analyze's readers favour: the newest events
// and the newest committed analysis images.
type fresh struct {
	mu   sync.Mutex
	hles []string
	imgs []freshImage
}

type freshImage struct {
	item string
	gif  []byte
}

func (f *fresh) addHLEs(ids []string) {
	f.mu.Lock()
	f.hles = append(f.hles, ids...)
	f.mu.Unlock()
}

func (f *fresh) addImage(item string, gif []byte) {
	f.mu.Lock()
	f.imgs = append(f.imgs, freshImage{item, gif})
	f.mu.Unlock()
}

// pickHLE returns one of the ten newest events, k choosing which.
func (f *fresh) pickHLE(k int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := min(len(f.hles), 10)
	return f.hles[len(f.hles)-1-k%n]
}

func (f *fresh) pickImage(k int) (freshImage, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := min(len(f.imgs), 10)
	if n == 0 {
		return freshImage{}, false
	}
	return f.imgs[len(f.imgs)-1-k%n], true
}

// gifOf returns the image file of a delivery.
func gifOf(files []dm.StoredFile) []byte {
	for _, f := range files {
		if f.Format == "gif" {
			return f.Data
		}
	}
	return nil
}

// runIngestAnalyze runs ingest_analyze: one node with its maintenance
// loop on, fed units on a downlink schedule while analysts work and
// readers browse what just landed.
func (r *run) runIngestAnalyze(tr *tracer) error {
	t0 := time.Now()
	ds := r.generate()
	genS := time.Since(t0).Seconds()
	local, dir, setupS, err := timedSetup(r.o.work, openLocal, func(l *localNode) { l.close() })
	if err != nil {
		return err
	}
	defer local.close()
	r.setupS = genS + setupS
	st := &local.stack
	if err := r.login(st.ingest); err != nil {
		return err
	}
	if err := r.populate(st, ds.load, r.sp.analyses); err != nil {
		return err
	}
	// Several checkpoint, segment-refresh and lake-compaction cycles per
	// timed window.
	stopMaint := local.node.StartMaintenance(time.Duration(r.o.seconds * float64(time.Second) / 5))
	fr := &fresh{}
	for _, h := range r.hles {
		fr.hles = append(fr.hles, h.id)
	}
	if r.o.trace {
		twin, err := local.twin(tr)
		if err != nil {
			stopMaint()
			return err
		}
		err = r.traceMixed(tr, st, twin, ds, fr)
		twin.close()
		if err != nil {
			stopMaint()
			return err
		}
	} else {
		cpu0 := cpuTime()
		n := min(len(ds.stream), int(r.o.seconds*float64(time.Second)/float64(r.sp.streamEvery)))
		m := r.mixedStreams(st, ds.stream[:n], fr, r.o.seconds, nil)
		r.anaRate = m.anaRate
		r.cpu = cpuTime() - cpu0
		r.ingestLag, r.anaLat, r.pageLat, r.pageRes, r.ops = m.lag, m.ana, m.pageLat, m.reads, m.ops
	}
	stopMaint()
	r.heapMB = liveHeapMB()
	r.replayNoMemo(st)
	local.close()
	if r.rawBytes > 0 {
		r.spaceAmp = float64(dirBytes(dir)) / float64(r.rawBytes)
	}
	r.storageLayers(dir, []string{"db"})
	return r.checkReopen(dir)
}

// mixed is what one run of ingest_analyze's streams measured.
type mixed struct {
	lag, ana, pageLat []float64
	reads             []opResult
	anaRate           float64 // analyses per second while the analysts worked
	ops, pages        int
}

// mixedStreams runs ingest_analyze's three streams together for seconds:
// units open loop on the downlink schedule, closed-loop analysts, and
// readers open loop.
func (r *run) mixedStreams(st *stack, units []*telemetry.Unit, fr *fresh, seconds float64, tr *tracer) mixed {
	sp := r.sp
	draws := make([][2]int, int(sp.readerRate*seconds))
	for i := range draws {
		draws[i] = [2]int{r.rng.Intn(10), r.rng.Intn(1 << 20)}
	}
	// The analysts do a fixed amount of work, sized to the window: a
	// quota, not a deadline, so a slow spell on the host does not also
	// change how much work the run measures.
	specs := anaSpecs(r.rng, r.hles, int(seconds*sp.analysesPerS), sp.popularShare)
	runtime.GC() // start the window without the set-up's garbage
	deadline := time.Now().Add(time.Hour)

	var wg sync.WaitGroup
	var m mixed
	var late []float64
	var reads []opResult
	wg.Add(3)
	go func() {
		defer wg.Done()
		m.lag, late = r.ingestSchedule(st.ingest, units, sp.streamEvery, fr.addHLEs, tr)
	}()
	go func() {
		defer wg.Done()
		t0 := time.Now()
		m.ana = r.analystsFresh(st, specs, deadline, fr, tr)
		m.anaRate = float64(len(m.ana)) / time.Since(t0).Seconds()
	}()
	go func() {
		defer wg.Done()
		reads = r.readers(st, draws, fr, tr)
	}()
	wg.Wait()
	r.mu.Lock()
	r.late = append(r.late, late...)
	r.mu.Unlock()
	m.reads = reads
	m.pageLat = latencies(reads)
	m.pages = len(m.pageLat)
	m.ops = len(m.lag) + len(m.ana) + m.pages
	return m
}

// analystsFresh is analysts that also publish each new image to readers.
func (r *run) analystsFresh(st *stack, specs []anaSpec, deadline time.Time, fr *fresh, tr *tracer) []float64 {
	r.onCommit = fr.addImage
	defer func() { r.onCommit = nil }()
	return r.analysts(st, specs, deadline, fmt.Sprintf("win%d", r.pass), tr)
}

// readers browses what just landed: half the reads are one of the ten
// newest event pages, a third one of the ten newest analysis images, the
// rest the flare browse page.
func (r *run) readers(st *stack, draws [][2]int, fr *fresh, tr *tracer) []opResult {
	w := newWebClient(st, conns)
	defer w.close()
	r.attempt(len(draws))
	res, late := openLoop(time.Now().Add(5*time.Millisecond), evenly(len(draws), r.sp.readerRate), conns, func(i int) error {
		k, c := draws[i][0], draws[i][1]
		s := tr.begin()
		defer tr.end(opLayer, s, "page", "")
		switch {
		case c%6 < 3:
			id := fr.pickHLE(k)
			body, err := w.get("/hle?id="+id, false)
			if err != nil {
				return err
			}
			if isDegraded(body) || !bytes.Contains(body, []byte(id)) {
				return fmt.Errorf("/hle?id=%s: wrong or degraded page", id)
			}
		case c%6 < 5:
			img, ok := fr.pickImage(k)
			if !ok {
				_, err := w.get("/", false)
				return err
			}
			body, err := w.get("/img/"+img.item, false)
			if err != nil {
				return err
			}
			if !bytes.Equal(body, img.gif) {
				return fmt.Errorf("/img/%s: image differs from its delivery", img.item)
			}
		default:
			path := "/browse?kind=flare"
			body, err := w.get(path, false)
			if err != nil {
				return err
			}
			if isDegraded(body) {
				return fmt.Errorf("%s: degraded page", path)
			}
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

// newRun prepares a run of o.workload.
func newRun(o options) (*run, error) {
	sp, ok := specs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	return &run{o: o, sp: sp, rng: rand.New(rand.NewSource(o.seed))}, nil
}

func (r *run) execute() error {
	var tr *tracer
	if r.o.trace {
		tr = newTracer()
	}
	defer os.RemoveAll(r.o.work)
	if r.sp.streamDays > 0 {
		return r.runIngestAnalyze(tr)
	}
	return r.runBrowse(tr)
}
