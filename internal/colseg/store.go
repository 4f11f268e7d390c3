package colseg

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/minidb"
)

// DefaultSegmentRows is the heap positions one segment covers. 64Ki rows
// keeps a segment's widest column vector around half a megabyte — big
// enough to amortize per-segment costs, small enough that zone maps prune
// at useful granularity on time-range predicates.
const DefaultSegmentRows = 64 * 1024

// Runner executes analytics queries. Three implementations exist: *Store
// (vectorized over local segments), dbnet.Client (ships the query to a
// server that runs a Store), and the row fallback the DM wraps around a
// plain engine when neither is available.
type Runner interface {
	RunAnalytics(q Query) (*Result, error)
}

// Options configures a Store.
type Options struct {
	// DB is the database segments are built from.
	DB *minidb.DB
	// Dir is where segment files live; "" keeps segments memory-only.
	Dir string
	// FS is the filesystem seam (defaults to minidb.OSFS). The torture
	// harness injects a fault FS here.
	FS minidb.VFS
	// SegmentRows overrides DefaultSegmentRows (tests use small segments).
	SegmentRows int
	// Tables restricts segment building to the named tables; nil means
	// every table is eligible (built on first Refresh or query).
	Tables []string
}

// Store manages the columnar segments of one database: building them from
// published snapshots, persisting them through the VFS, validating them
// against the snapshot every query runs on, and executing the vectorized
// chain over valid segments plus the row-at-a-time tail.
//
// Builds take no table or database locks — they read published immutable
// views only — so commits run concurrently with a build; the build's output
// simply fails validation on later snapshots if a concurrent update or
// delete landed, and the next Refresh rebuilds.
type Store struct {
	db      *minidb.DB
	fsys    minidb.VFS
	dir     string
	segRows int64
	allow   map[string]bool // nil = all tables

	mu   sync.Mutex // guards tabs map and per-table swap, never held while building
	tabs map[string]*tableSegs

	stats Stats
}

// tableSegs is one table's immutable segment set: all segments share the
// rewrites label and tile heap positions [0, covered).
type tableSegs struct {
	rewrites uint64
	covered  int64
	segs     []*Segment
}

// Stats counts store activity for the /stats page.
type Stats struct {
	Builds       atomic.Int64 // segments materialized
	Rebuilds     atomic.Int64 // table-wide invalidations (rewrites changed)
	Loads        atomic.Int64 // segments decoded from disk at open
	Discarded    atomic.Int64 // persisted segments rejected (torn/stale)
	QueriesVec   atomic.Int64 // queries served (at least partly) vectorized
	QueriesRow   atomic.Int64 // queries served entirely row-at-a-time
	SegsScanned  atomic.Int64
	SegsPruned   atomic.Int64
	RowsVec      atomic.Int64
	RowsTail     atomic.Int64
	SegsResident atomic.Int64 // current segment count across tables
	RowsCovered  atomic.Int64 // current heap positions under segments
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	Builds, Rebuilds, Loads, Discarded int64
	QueriesVec, QueriesRow             int64
	SegsScanned, SegsPruned            int64
	RowsVec, RowsTail                  int64
	SegsResident, RowsCovered          int64
}

// Open creates a Store and loads any persisted segments that still match
// the database's current snapshots; stale or corrupt files are discarded
// (and rebuilt on the next Refresh), never served.
func Open(opts Options) (*Store, error) {
	if opts.DB == nil {
		return nil, fmt.Errorf("colseg: Options.DB is required")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = minidb.OSFS
	}
	segRows := int64(opts.SegmentRows)
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	s := &Store{
		db: opts.DB, fsys: fsys, dir: opts.Dir, segRows: segRows,
		tabs: make(map[string]*tableSegs),
	}
	if opts.Tables != nil {
		s.allow = make(map[string]bool, len(opts.Tables))
		for _, t := range opts.Tables {
			s.allow[t] = true
		}
	}
	if s.dir != "" {
		if err := fsys.MkdirAll(s.dir, 0o755); err != nil {
			return nil, err
		}
		for _, table := range opts.DB.TableNames() {
			if !s.eligible(table) {
				continue
			}
			s.loadTable(table)
		}
	}
	return s, nil
}

func (s *Store) eligible(table string) bool {
	return s.allow == nil || s.allow[table]
}

// manifestPath and segPath name a table's on-disk artifacts.
func (s *Store) manifestPath(table string) string {
	return filepath.Join(s.dir, table+".manifest")
}

func (s *Store) segPath(name string) string {
	return filepath.Join(s.dir, name)
}

// loadTable restores one table's segments from its manifest, validating
// every file against the current snapshot. Anything invalid — missing
// manifest, bad CRC, stale rewrites, truncated file — silently degrades to
// "no segments": correctness never depends on what disk says.
func (s *Store) loadTable(table string) {
	data, err := s.fsys.ReadFile(s.manifestPath(table))
	if err != nil {
		return
	}
	m, err := decodeManifest(data)
	if err != nil || m.Table != table {
		s.stats.Discarded.Add(1)
		return
	}
	snap, err := s.db.TableSnap(table)
	if err != nil {
		return
	}
	if m.Rewrites != snap.Rewrites() || m.Covered > snap.HeapLen() {
		s.stats.Discarded.Add(int64(len(m.Files)))
		return
	}
	ts := &tableSegs{rewrites: m.Rewrites}
	for _, name := range m.Files {
		data, err := s.fsys.ReadFile(s.segPath(name))
		if err != nil {
			s.stats.Discarded.Add(1)
			return
		}
		seg, err := decodeSegment(data)
		if err != nil || seg.Table != table || seg.Rewrites != m.Rewrites ||
			seg.StartRow != ts.covered || seg.EndRow > m.Covered {
			s.stats.Discarded.Add(1)
			return
		}
		ts.segs = append(ts.segs, seg)
		ts.covered = seg.EndRow
		s.stats.Loads.Add(1)
	}
	if ts.covered != m.Covered {
		s.stats.Discarded.Add(int64(len(ts.segs)))
		return
	}
	s.mu.Lock()
	s.tabs[table] = ts
	s.mu.Unlock()
	s.stats.SegsResident.Add(int64(len(ts.segs)))
	s.stats.RowsCovered.Add(ts.covered)
}

// Refresh brings table's segment set up to date with the current published
// snapshot: a rewrites change drops everything and rebuilds from row zero;
// otherwise only full new chunks past the covered watermark are built. The
// un-covered tail (less than one chunk) is served row-at-a-time by Run.
func (s *Store) Refresh(table string) error {
	if !s.eligible(table) {
		return fmt.Errorf("colseg: table %s not managed by this store", table)
	}
	snap, err := s.db.TableSnap(table)
	if err != nil {
		return err
	}
	s.mu.Lock()
	cur := s.tabs[table]
	s.mu.Unlock()

	base := &tableSegs{rewrites: snap.Rewrites()}
	var stale []string // files of an invalidated generation, removed after the swap
	if cur != nil && cur.rewrites == snap.Rewrites() && snap.HeapLen() >= cur.covered {
		base = cur
	} else if cur != nil {
		s.stats.Rebuilds.Add(1)
		for _, seg := range cur.segs {
			stale = append(stale, segFileName(seg))
		}
	}

	// Build outside any lock: the snapshot is immutable, so this races
	// with nothing — concurrent commits only affect later snapshots.
	var built []*Segment
	for from := base.covered; from+s.segRows <= snap.HeapLen(); from += s.segRows {
		seg, err := BuildSegment(snap, from, from+s.segRows)
		if err != nil {
			return err
		}
		built = append(built, seg)
		s.stats.Builds.Add(1)
	}
	if len(built) == 0 && base == cur {
		return nil // nothing new and nothing invalidated
	}
	next := &tableSegs{
		rewrites: base.rewrites,
		segs:     append(append([]*Segment(nil), base.segs...), built...),
	}
	if n := len(next.segs); n > 0 {
		next.covered = next.segs[n-1].EndRow
	}
	if err := s.persistTable(table, next); err != nil {
		return err
	}
	s.mu.Lock()
	prev := s.tabs[table]
	s.tabs[table] = next
	s.mu.Unlock()
	var prevSegs, prevCov int64
	if prev != nil {
		prevSegs, prevCov = int64(len(prev.segs)), prev.covered
	}
	s.stats.SegsResident.Add(int64(len(next.segs)) - prevSegs)
	s.stats.RowsCovered.Add(next.covered - prevCov)
	if s.dir != "" {
		s.removeStale(stale)
	}
	return nil
}

// RefreshAll refreshes every eligible table.
func (s *Store) RefreshAll() error {
	var firstErr error
	for _, table := range s.db.TableNames() {
		if !s.eligible(table) {
			continue
		}
		if err := s.Refresh(table); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// persistTable writes new segment files and atomically replaces the
// manifest. Segment files are synced before the manifest names them, and
// the manifest lands via tmp + sync + rename — a crash anywhere leaves
// either the old manifest (naming old, intact files) or the new one
// (naming new, synced files), never a manifest pointing at torn data.
func (s *Store) persistTable(table string, ts *tableSegs) error {
	if s.dir == "" {
		return nil
	}
	m := &manifest{Table: table, Rewrites: ts.rewrites, Covered: ts.covered}
	for _, seg := range ts.segs {
		name := segFileName(seg)
		m.Files = append(m.Files, name)
		if err := minidb.ReplaceFile(s.fsys, s.segPath(name), 0o644, minidb.WriteBytes(encodeSegment(seg))); err != nil {
			return err
		}
	}
	return minidb.ReplaceFile(s.fsys, s.manifestPath(table), 0o644, minidb.WriteBytes(encodeManifest(m)))
}

// RunAnalytics implements Runner.
func (s *Store) RunAnalytics(q Query) (*Result, error) { return s.Run(q) }

// Run executes one analytics query: validate the segment set against the
// snapshot the query runs on, vectorized chain over surviving segments,
// row-at-a-time over the tail of the same snapshot. When validation fails
// (a commit rewrote covered rows since the last Refresh) the whole table
// is served row-at-a-time — correct first, fast after the next Refresh.
func (s *Store) Run(q Query) (*Result, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	snap, err := s.db.TableSnap(q.Table)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	ts := s.tabs[q.Table]
	s.mu.Unlock()

	var segs []*Segment
	var covered int64
	if ts != nil && ts.rewrites == snap.Rewrites() && snap.HeapLen() >= ts.covered {
		segs, covered = ts.segs, ts.covered
	}

	a := newAccum(&q)
	fold, err := newRowFold(&q, a, snap.Schema())
	if err != nil {
		return nil, err
	}
	var st ExecStats
	st.Segments = len(segs)
	st.Vectorized = len(segs) > 0
	sel := make([]int32, 0, batchSize)
	for _, seg := range segs {
		var pruned bool
		pruned, sel, err = runSegment(seg, &q, a, sel)
		if err != nil {
			return nil, err
		}
		if pruned {
			st.SegmentsPruned++
		} else {
			st.SegRows += int64(seg.NRows)
		}
	}
	st.TailRows = runRowsSnap(snap, covered, snap.HeapLen(), fold)

	res := a.finish()
	res.Stats = st
	if st.Vectorized {
		s.stats.QueriesVec.Add(1)
	} else {
		s.stats.QueriesRow.Add(1)
	}
	s.stats.SegsScanned.Add(int64(st.Segments - st.SegmentsPruned))
	s.stats.SegsPruned.Add(int64(st.SegmentsPruned))
	s.stats.RowsVec.Add(st.SegRows)
	s.stats.RowsTail.Add(st.TailRows)
	return res, nil
}

// Stats returns a point-in-time copy of the store counters.
func (s *Store) Stats() StatsSnapshot {
	return StatsSnapshot{
		Builds:       s.stats.Builds.Load(),
		Rebuilds:     s.stats.Rebuilds.Load(),
		Loads:        s.stats.Loads.Load(),
		Discarded:    s.stats.Discarded.Load(),
		QueriesVec:   s.stats.QueriesVec.Load(),
		QueriesRow:   s.stats.QueriesRow.Load(),
		SegsScanned:  s.stats.SegsScanned.Load(),
		SegsPruned:   s.stats.SegsPruned.Load(),
		RowsVec:      s.stats.RowsVec.Load(),
		RowsTail:     s.stats.RowsTail.Load(),
		SegsResident: s.stats.SegsResident.Load(),
		RowsCovered:  s.stats.RowsCovered.Load(),
	}
}

// SegmentCount returns the resident segment count for one table.
func (s *Store) SegmentCount(table string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ts := s.tabs[table]; ts != nil {
		return len(ts.segs)
	}
	return 0
}

// segFileName names a segment file; the rewrites label in the name keeps
// generations from colliding, so a rebuild never overwrites a file the
// still-visible old manifest names.
func segFileName(seg *Segment) string {
	return fmt.Sprintf("%s-%d-%d-%d.seg", seg.Table, seg.StartRow, seg.EndRow, seg.Rewrites)
}

// removeStale deletes orphaned segment files best-effort: invisibility
// (the manifest no longer naming a file) is what guarantees correctness,
// deletion only reclaims space.
func (s *Store) removeStale(names []string) {
	for _, name := range names {
		err := s.fsys.Remove(s.segPath(name))
		_ = err // best-effort; a missing file is already the goal state
	}
}
