// Package archive implements HEDC's file store: the actual data (raw units
// and derived products, mostly images) lives in file archives while only
// meta data lives in the DBMS (§4.1). "All file data is read only" — an
// archive enforces write-once semantics, keeps per-file CRC32 checksums,
// tracks capacity, and models the three storage tiers the paper deploys:
// local disk (RAID), NFS-linked remote archives, and a tape archive for
// data not needed on-line (§2.3). Every archive is a lake (internal/lake):
// members live in container files and the commit journal is the source of
// truth. See lakemode.go.
package archive

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lake"
	"repro/internal/minidb"
)

// VFS is the filesystem seam under an archive — the same interface the
// database engine defines (minidb.VFS), so one fault-injecting
// implementation (internal/fault) can torture both tiers in a single
// scripted workload. Production archives use minidb.OSFS.
type VFS = minidb.VFS

// Kind classifies the storage tier backing an archive.
type Kind int

// Archive kinds. Tape archives serve reads with a seek penalty; NFS adds a
// small per-operation latency. Both are simulated with real sleeps scaled
// down far below 2003 hardware, just enough for ablation benchmarks to rank
// the tiers.
const (
	Disk Kind = iota
	NFS
	Tape
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Disk:
		return "disk"
	case NFS:
		return "nfs"
	case Tape:
		return "tape"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// latency returns the simulated per-read penalty of the tier.
func (k Kind) latency() time.Duration {
	switch k {
	case NFS:
		return 200 * time.Microsecond
	case Tape:
		return 5 * time.Millisecond
	}
	return 0
}

// Errors reported by archives.
var (
	ErrOffline  = errors.New("archive: archive is offline")
	ErrExists   = errors.New("archive: file already exists (file data is read only)")
	ErrNotFound = errors.New("archive: file not found")
	ErrFull     = errors.New("archive: capacity exhausted")
	ErrCorrupt  = errors.New("archive: checksum mismatch")
)

// Archive is one storage unit rooted at a directory.
type Archive struct {
	id       string
	kind     Kind
	root     string
	capacity int64 // bytes; 0 = unlimited
	lk       *lake.Lake
	online   atomic.Bool
}

// ID returns the archive identifier referenced by the location tables.
func (a *Archive) ID() string { return a.id }

// Kind returns the storage tier.
func (a *Archive) Kind() Kind { return a.kind }

// Root returns the archive's directory.
func (a *Archive) Root() string { return a.root }

// SetOnline flips the archive's availability; offline archives reject all
// data operations (a disk being repaired or a tape dismounted, §4.3).
func (a *Archive) SetOnline(v bool) { a.online.Store(v) }

// Online reports availability.
func (a *Archive) Online() bool { return a.online.Load() }

// Used returns the bytes of live files.
func (a *Archive) Used() int64 { return a.lk.LiveBytes() }

// CapacityLeft returns the remaining capacity in bytes (MaxInt64 when
// unlimited). Physical bytes, history included, occupy the tier until GC
// retires them.
func (a *Archive) CapacityLeft() int64 {
	if a.capacity == 0 {
		return 1<<63 - 1
	}
	return a.capacity - a.lk.PhysBytes()
}

// Len returns the number of stored files.
func (a *Archive) Len() int { return a.lk.Len() }

// Store writes a new file. Overwrites are rejected: file data is read only.
func (a *Archive) Store(rel string, data []byte) error {
	return a.StoreBatch([]BatchFile{{Rel: rel, Data: data}})
}

// BatchFile is one file of a StoreBatch. Day is the mission-day partition
// key the compactor time-sorts merged containers by.
type BatchFile struct {
	Rel  string
	Day  int64
	Data []byte
}

// StoreBatch stores several new files as ONE container plus ONE journal
// commit, all or nothing. This is the bulk form the ingest pipeline uses:
// a raw unit and its wavelet views arrive together, and storing each alone
// would pay the per-file create, fsync and commit five times over.
// Capacity is enforced against physical bytes (history included), since
// that is what the tier holds until GC runs.
func (a *Archive) StoreBatch(files []BatchFile) error {
	if len(files) == 0 {
		return nil
	}
	if !a.Online() {
		return ErrOffline
	}
	var total int64
	lf := make([]lake.BatchFile, len(files))
	for i, f := range files {
		lf[i] = lake.BatchFile{Rel: f.Rel, Day: f.Day, Data: f.Data}
		total += int64(len(f.Data))
	}
	if a.capacity > 0 {
		if used := a.lk.PhysBytes(); used+total > a.capacity {
			return fmt.Errorf("%w: batch needs %d bytes, %d left", ErrFull, total, a.capacity-used)
		}
	}
	_, err := a.lk.StoreBatch(lf)
	return mapLakeErr(err)
}

// Read returns the file's contents after verifying its checksum. Tape and
// NFS tiers incur their access latency here.
func (a *Archive) Read(rel string) ([]byte, error) {
	if !a.Online() {
		return nil, ErrOffline
	}
	if d := a.kind.latency(); d > 0 {
		time.Sleep(d)
	}
	data, err := a.lk.Read(rel)
	return data, mapLakeErr(err)
}

// Open returns a reader over the file. Members live inside containers, so
// the bytes are materialized (and checksum-verified) first.
func (a *Archive) Open(rel string) (io.ReadCloser, error) {
	data, err := a.Read(rel)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// Stat returns the size of a stored file.
func (a *Archive) Stat(rel string) (int64, error) {
	n, err := a.lk.Stat(rel)
	return n, mapLakeErr(err)
}

// Exists reports whether the file is stored here.
func (a *Archive) Exists(rel string) bool { return a.lk.Exists(rel) }

// Remove deletes a file: a tombstone commit. The bytes stay readable
// through pinned older commits until GC retires them. Only system
// processes (archive relocation, purging, §5.2) call this; it is not
// exposed to users.
func (a *Archive) Remove(rel string) error {
	if !a.Online() {
		return ErrOffline
	}
	_, err := a.lk.Delete([]string{rel})
	return mapLakeErr(err)
}

// List returns stored paths in sorted order.
func (a *Archive) List() []string { return a.lk.List() }

// Verify re-reads every file and checks its checksum, returning the paths
// that fail.
func (a *Archive) Verify() []string { return a.lk.Verify() }

// Copy moves one file's contents from src to dst (both ends verified).
// The source is left untouched; deletion is the relocation process's
// decision, taken only after the copy verifies (§5.2's compensation-aware
// relocation workflow).
func Copy(src, dst *Archive, rel string) error {
	data, err := src.Read(rel)
	if err != nil {
		return err
	}
	if err := dst.Store(rel, data); err != nil {
		return err
	}
	if _, err := dst.Read(rel); err != nil {
		return fmt.Errorf("archive: copy verification failed: %w", err)
	}
	return nil
}

// Set is a registry of archives keyed by id — the in-memory mirror of the
// operational section's archive-status table.
type Set struct {
	mu       sync.RWMutex
	archives map[string]*Archive
}

// NewSet returns an empty registry.
func NewSet() *Set { return &Set{archives: make(map[string]*Archive)} }

// Add registers an archive; duplicate ids are rejected.
func (s *Set) Add(a *Archive) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.archives[a.ID()]; dup {
		return fmt.Errorf("archive: duplicate archive id %s", a.ID())
	}
	s.archives[a.ID()] = a
	return nil
}

// Get returns the archive with the given id, or nil.
func (s *Set) Get(id string) *Archive {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.archives[id]
}

// IDs returns registered archive ids in sorted order.
func (s *Set) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.archives))
	for id := range s.archives {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
