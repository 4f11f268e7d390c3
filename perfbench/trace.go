package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers are named after the repository's modules, ordered from the
// client down: a span's parent sits at the same or an earlier layer.
// opLayer is the root span the load generator records around one
// operation as its client sees it. pl strategies call the DM directly, so
// minidb spans nest under pl phases.
type layer int

const (
	opLayer layer = iota
	webLayer
	clusterLayer
	plLayer
	idlLayer
	dmLayer
	shardLayer
	dbnetLayer
	minidbLayer
	nLayers
)

var layerNames = [nLayers]string{"op", "web", "cluster", "pl", "idl", "dm", "shard", "dbnet", "minidb"}

func (l layer) String() string { return layerNames[l] }

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch. kind names the call (a page class, an engine
// method, a pl phase); cause links spans across the pl→idl hand-off,
// where the farm runs the routine on a goroutine of its own.
type span struct {
	layer      layer
	start, end int64
	kind       string
	cause      string
}

// tracer keeps spans in memory until the run ends. When off, begin
// returns -1 and end records nothing, so wrappers cost one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return t.now()
}

func (t *tracer) end(l layer, start int64, kind, cause string) {
	if start < 0 {
		return
	}
	s := span{layer: l, start: start, end: t.now(), kind: kind, cause: cause}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take removes and returns every span recorded so far.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// opBreakdown is one root operation with the spans recorded inside it.
type opBreakdown struct {
	kind  string // page, analysis, unit
	total int64  // root span duration
	self  [nLayers]int64
	count [nLayers]int
}

// breakdown groups spans under the root (opLayer) spans that contain them
// and computes every span's self time: its duration minus the union of
// its children's intervals. A span's parent is the innermost span of the
// same operation that contains it and sits at the same or a higher layer.
// This is unambiguous when one operation is in flight at a time; spans
// outside every root are the program's own background work.
func breakdown(spans []span) (ops []opBreakdown, background [nLayers]int64) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	var roots []int
	for i, s := range spans {
		if s.layer == opLayer {
			roots = append(roots, i)
		}
	}
	member := make([][]int, len(roots))
	r := 0
	for i, s := range spans {
		if s.layer == opLayer {
			continue
		}
		for r < len(roots) && spans[roots[r]].end < s.start {
			r++
		}
		if r < len(roots) && spans[roots[r]].start <= s.start && s.end <= spans[roots[r]].end {
			member[r] = append(member[r], i)
			continue
		}
		background[s.layer] += s.end - s.start
	}
	for k, ri := range roots {
		root := spans[ri]
		idx := append([]int{ri}, member[k]...)
		self := selfTimes(spans, idx)
		op := opBreakdown{kind: root.kind, total: root.end - root.start}
		for j, i := range idx {
			op.self[spans[i].layer] += self[j]
			op.count[spans[i].layer]++
		}
		ops = append(ops, op)
	}
	return ops, background
}

// selfTimes returns, for each span in idx (sorted by start, outermost
// first, idx[0] the root), its duration minus the union of its
// children's intervals.
func selfTimes(spans []span, idx []int) []int64 {
	parent := make([]int, len(idx))
	children := make([][]int, len(idx))
	for j := range idx {
		parent[j] = -1
		s := spans[idx[j]]
		// The innermost container is the latest-starting earlier span
		// that still covers s.
		for p := j - 1; p >= 0; p-- {
			c := spans[idx[p]]
			if c.layer <= s.layer && c.start <= s.start && s.end <= c.end {
				parent[j] = p
				break
			}
		}
		if parent[j] >= 0 {
			children[parent[j]] = append(children[parent[j]], j)
		}
	}
	out := make([]int64, len(idx))
	for j := range idx {
		s := spans[idx[j]]
		ivs := make([][2]int64, 0, len(children[j]))
		for _, c := range children[j] {
			ivs = append(ivs, [2]int64{spans[idx[c]].start, spans[idx[c]].end})
		}
		out[j] = (s.end - s.start) - unionLen(ivs)
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = iv
			continue
		}
		if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	return total + cur[1] - cur[0]
}
