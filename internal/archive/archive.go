// Package archive implements HEDC's file store: the actual data (raw units
// and derived products, mostly images) lives in file archives while only
// meta data lives in the DBMS (§4.1). "All file data is read only" — an
// archive enforces write-once semantics, keeps per-file CRC32 checksums in
// a manifest, tracks capacity, and models the three storage tiers the paper
// deploys: local disk (RAID), NFS-linked remote archives, and a tape
// archive for data not needed on-line (§2.3).
package archive

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lake"
	"repro/internal/minidb"
)

// VFS is the filesystem seam under an archive — the same interface the
// database engine defines (minidb.VFS), so one fault-injecting
// implementation (internal/fault) can torture both tiers in a single
// scripted workload. Production archives use minidb.OSFS.
type VFS = minidb.VFS

// opener is the optional streaming extension: a VFS that can hand out a
// reader without materializing the whole file (the OS filesystem and
// internal/fault both can't/can respectively; archives fall back to
// ReadFile when the VFS lacks it).
type opener interface {
	Open(path string) (io.ReadCloser, error)
}

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

type fileMeta struct {
	size int64
	crc  uint32
	pack string // container file (archive-relative) holding the bytes; "" = own file
	off  int64  // byte offset within pack
}

// Archive is one storage unit rooted at a directory.
type Archive struct {
	id   string
	kind Kind
	root string
	fsys VFS

	mu       sync.RWMutex
	online   bool
	capacity int64 // bytes; 0 = unlimited
	used     int64
	files    map[string]fileMeta
	pending  map[string]bool // paths reserved by an in-flight StoreBatch
	packSeq  int64           // next container-file sequence number

	// lk, when non-nil, puts the archive in lake mode: the commit journal
	// (not MANIFEST.crc) is the source of truth and every data method
	// delegates to it. See lakemode.go.
	lk *lake.Lake
}

const manifestName = "MANIFEST.crc"

// New opens (or creates) an archive rooted at dir. capacityBytes of 0 means
// unlimited. An existing manifest is loaded, so archives survive restarts.
func New(id string, kind Kind, dir string, capacityBytes int64) (*Archive, error) {
	return NewVFS(minidb.OSFS, id, kind, dir, capacityBytes)
}

// NewVFS is New with an explicit filesystem; crash-recovery tests pass a
// fault-injecting one so every store/remove I/O becomes a crash site.
func NewVFS(fsys VFS, id string, kind Kind, dir string, capacityBytes int64) (*Archive, error) {
	if id == "" {
		return nil, fmt.Errorf("archive: empty id")
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	a := &Archive{
		id: id, kind: kind, root: dir, fsys: fsys, online: true,
		capacity: capacityBytes, files: make(map[string]fileMeta),
		pending: make(map[string]bool),
	}
	if err := a.loadManifest(); err != nil {
		return nil, err
	}
	return a, nil
}

// ID returns the archive identifier referenced by the location tables.
func (a *Archive) ID() string { return a.id }

// Kind returns the storage tier.
func (a *Archive) Kind() Kind { return a.kind }

// Root returns the archive's directory.
func (a *Archive) Root() string { return a.root }

// SetOnline flips the archive's availability; offline archives reject all
// data operations (a disk being repaired or a tape dismounted, §4.3).
func (a *Archive) SetOnline(v bool) {
	a.mu.Lock()
	a.online = v
	a.mu.Unlock()
}

// Online reports availability.
func (a *Archive) Online() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.online
}

// Used returns bytes stored; CapacityLeft returns remaining bytes
// (MaxInt64 when unlimited).
func (a *Archive) Used() int64 {
	if a.lk != nil {
		return a.lk.LiveBytes()
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.used
}

// CapacityLeft returns the remaining capacity in bytes.
func (a *Archive) CapacityLeft() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.capacity == 0 {
		return 1<<63 - 1
	}
	if a.lk != nil {
		// Lake mode: physical bytes (history included) occupy the tier
		// until GC retires them.
		return a.capacity - a.lk.PhysBytes()
	}
	return a.capacity - a.used
}

// Len returns the number of stored files.
func (a *Archive) Len() int {
	if a.lk != nil {
		return a.lk.Len()
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.files)
}

// cleanRel validates a relative path (no escapes, no absolutes).
func cleanRel(rel string) (string, error) {
	if rel == "" || strings.HasPrefix(rel, "/") {
		return "", fmt.Errorf("archive: invalid path %q", rel)
	}
	c := filepath.Clean(rel)
	if c == "." || strings.HasPrefix(c, "..") {
		return "", fmt.Errorf("archive: path %q escapes archive", rel)
	}
	return c, nil
}

// Store writes a new file. Overwrites are rejected: file data is read only.
func (a *Archive) Store(rel string, data []byte) error {
	if a.lk != nil {
		return a.lakeStoreBatch([]BatchFile{{Rel: rel, Data: data}})
	}
	rel, err := cleanRel(rel)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.online {
		return ErrOffline
	}
	if _, exists := a.files[rel]; exists {
		return fmt.Errorf("%w: %s", ErrExists, rel)
	}
	if a.pending[rel] {
		return fmt.Errorf("%w: %s (store in flight)", ErrExists, rel)
	}
	if a.capacity > 0 && a.used+int64(len(data)) > a.capacity {
		return fmt.Errorf("%w: %s needs %d bytes, %d left", ErrFull, rel, len(data), a.capacity-a.used)
	}
	abs := filepath.Join(a.root, rel)
	if err := a.fsys.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		return err
	}
	// Durability order: data file written AND fsynced before its manifest
	// line is appended (and itself fsynced). A manifest entry therefore
	// always points at durable bytes; a crash between the two leaves only
	// an orphaned data file, never an acknowledged-but-lost store.
	if err := minidb.WriteFile(a.fsys, abs, 0o444, minidb.WriteBytes(data)); err != nil {
		return err
	}
	meta := fileMeta{size: int64(len(data)), crc: crc32.ChecksumIEEE(data)}
	if err := a.appendManifest(rel, meta); err != nil {
		// The store is not acknowledged: drop the data file so the
		// in-memory state, the manifest and the directory stay aligned.
		_ = a.fsys.Remove(abs)
		return err
	}
	a.files[rel] = meta
	a.used += meta.size
	return nil
}

// BatchFile is one file of a StoreBatch. Day is the mission-day partition
// key used by lake-mode archives to time-sort compacted containers;
// manifest-mode archives ignore it.
type BatchFile struct {
	Rel  string
	Day  int64
	Data []byte
}

// StoreBatch stores several new files as ONE container ("pack") file plus
// ONE manifest append — two fsyncs for the whole group instead of two per
// file. This is the bulk form the ingest pipeline uses: a raw unit and its
// wavelet views arrive together, and storing each as its own file pays the
// small-file penalty (per-file create, fsync, journal commit) five times
// over. Mass-storage systems solve this by aggregating small members into
// containers; the manifest records each member as rel→(pack, offset, size,
// crc), so readers address members exactly as if they were plain files.
//
// The durability order of Store is preserved: the pack's bytes are written
// AND fsynced before any manifest line referencing them, so a crash
// mid-batch leaves at most an orphaned container. The batch is
// all-or-nothing: on any failure the container is removed and the manifest
// keeps its prior tail.
//
// Unlike Store, the container write and fsync happen OUTSIDE the archive
// lock: the batch's paths are reserved first (so concurrent stores conflict
// deterministically), then written, then registered under the lock together
// with the manifest append. Concurrent StoreBatch callers therefore overlap
// their data fsyncs and serialize only on the shared manifest.
func (a *Archive) StoreBatch(files []BatchFile) error {
	if len(files) == 0 {
		return nil
	}
	if a.lk != nil {
		return a.lakeStoreBatch(files)
	}
	// Phase 1 (locked): validate, reserve the paths and the capacity.
	rels := make([]string, len(files))
	var total int64
	a.mu.Lock()
	if !a.online {
		a.mu.Unlock()
		return ErrOffline
	}
	for i, f := range files {
		rel, err := cleanRel(f.Rel)
		if err != nil {
			a.mu.Unlock()
			return err
		}
		if _, exists := a.files[rel]; exists {
			a.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrExists, rel)
		}
		if a.pending[rel] {
			a.mu.Unlock()
			return fmt.Errorf("%w: %s (store in flight)", ErrExists, rel)
		}
		for j := 0; j < i; j++ {
			if rels[j] == rel {
				a.mu.Unlock()
				return fmt.Errorf("%w: %s duplicated in batch", ErrExists, rel)
			}
		}
		rels[i] = rel
		total += int64(len(f.Data))
	}
	if a.capacity > 0 && a.used+total > a.capacity {
		left := a.capacity - a.used
		a.mu.Unlock()
		return fmt.Errorf("%w: batch needs %d bytes, %d left", ErrFull, total, left)
	}
	for _, rel := range rels {
		a.pending[rel] = true
	}
	a.used += total // reserved; released again if the batch fails
	packRel := fmt.Sprintf("packs/p%08d.pack", a.packSeq)
	a.packSeq++
	a.mu.Unlock()

	undo := func(packWritten bool) {
		if packWritten {
			_ = a.fsys.Remove(filepath.Join(a.root, packRel))
		}
		a.mu.Lock()
		for _, rel := range rels {
			delete(a.pending, rel)
		}
		a.used -= total
		a.mu.Unlock()
	}

	// Phase 2 (unlocked): concatenate the members and write the container
	// with one fsync. Safe without the lock — the reservation guarantees
	// nobody else touches these paths, and the sequence number guarantees
	// the container name is fresh (a crash-orphaned container of the same
	// name is unreferenced and safe to overwrite).
	metas := make([]fileMeta, len(files))
	blob := make([]byte, 0, total)
	for i, f := range files {
		metas[i] = fileMeta{
			size: int64(len(f.Data)), crc: crc32.ChecksumIEEE(f.Data),
			pack: packRel, off: int64(len(blob)),
		}
		blob = append(blob, f.Data...)
	}
	abs := filepath.Join(a.root, packRel)
	if err := a.fsys.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		undo(false)
		return err
	}
	if err := minidb.WriteFile(a.fsys, abs, 0o444, minidb.WriteBytes(blob)); err != nil {
		undo(true)
		return err
	}

	// Phase 3 (locked): seal the batch in the manifest and register it.
	a.mu.Lock()
	if err := a.appendManifestBatch(rels, metas); err != nil {
		a.mu.Unlock()
		undo(true)
		return err
	}
	for i := range rels {
		a.files[rels[i]] = metas[i]
		delete(a.pending, rels[i])
	}
	a.mu.Unlock()
	return nil
}

// appendManifestBatch appends one line per file and fsyncs once. A failed
// append truncates back to the prior tail, as in appendManifest.
func (a *Archive) appendManifestBatch(rels []string, metas []fileMeta) error {
	f, err := a.fsys.OpenAppend(a.manifestPath(), 0o644)
	if err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	for i := range rels {
		if _, err = fmt.Fprintf(f, "%s\t%d\t%d\t%s\t%d\n",
			rels[i], metas[i].size, metas[i].crc, metas[i].pack, metas[i].off); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Truncate(size)
		f.Close()
		return err
	}
	return f.Close()
}

// Read returns the file's contents after verifying its checksum. Tape and
// NFS tiers incur their access latency here.
func (a *Archive) Read(rel string) ([]byte, error) {
	if a.lk != nil {
		return a.lakeRead(rel)
	}
	rel, err := cleanRel(rel)
	if err != nil {
		return nil, err
	}
	a.mu.RLock()
	online := a.online
	meta, exists := a.files[rel]
	a.mu.RUnlock()
	if !online {
		return nil, ErrOffline
	}
	if !exists {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, rel)
	}
	if d := a.kind.latency(); d > 0 {
		time.Sleep(d)
	}
	data, err := a.readMember(rel, meta)
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(data) != meta.crc {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, rel)
	}
	return data, nil
}

// readMember fetches a file's raw bytes: its own file for plain entries,
// the right slice of the container for pack members.
func (a *Archive) readMember(rel string, meta fileMeta) ([]byte, error) {
	if meta.pack == "" {
		return a.fsys.ReadFile(filepath.Join(a.root, rel))
	}
	blob, err := a.fsys.ReadFile(filepath.Join(a.root, meta.pack))
	if err != nil {
		return nil, err
	}
	if meta.off < 0 || meta.off+meta.size > int64(len(blob)) {
		return nil, fmt.Errorf("%w: %s (container %s truncated)", ErrCorrupt, rel, meta.pack)
	}
	return blob[meta.off : meta.off+meta.size], nil
}

// Open returns a reader over the file without checksum verification (used
// for streaming large units). Prefer Read when integrity matters.
func (a *Archive) Open(rel string) (io.ReadCloser, error) {
	if a.lk != nil {
		return a.lakeOpen(rel)
	}
	rel, err := cleanRel(rel)
	if err != nil {
		return nil, err
	}
	a.mu.RLock()
	online := a.online
	meta, exists := a.files[rel]
	a.mu.RUnlock()
	if !online {
		return nil, ErrOffline
	}
	if !exists {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, rel)
	}
	if d := a.kind.latency(); d > 0 {
		time.Sleep(d)
	}
	if meta.pack == "" {
		abs := filepath.Join(a.root, rel)
		if o, ok := a.fsys.(opener); ok {
			return o.Open(abs)
		}
	}
	data, err := a.readMember(rel, meta)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(strings.NewReader(string(data))), nil
}

// Stat returns the size of a stored file.
func (a *Archive) Stat(rel string) (int64, error) {
	if a.lk != nil {
		n, err := a.lk.Stat(rel)
		return n, mapLakeErr(err)
	}
	rel, err := cleanRel(rel)
	if err != nil {
		return 0, err
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	meta, exists := a.files[rel]
	if !exists {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, rel)
	}
	return meta.size, nil
}

// Exists reports whether the file is stored here.
func (a *Archive) Exists(rel string) bool {
	if a.lk != nil {
		return a.lk.Exists(rel)
	}
	rel, err := cleanRel(rel)
	if err != nil {
		return false
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	_, ok := a.files[rel]
	return ok
}

// Remove deletes a file. Only system processes (archive relocation,
// purging, §5.2) call this; it is not exposed to users.
func (a *Archive) Remove(rel string) error {
	if a.lk != nil {
		return a.lakeRemove(rel)
	}
	rel, err := cleanRel(rel)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.online {
		return ErrOffline
	}
	meta, exists := a.files[rel]
	if !exists {
		return fmt.Errorf("%w: %s", ErrNotFound, rel)
	}
	// Crash-safe order: publish the shrunken manifest first (atomic tmp +
	// rename), then delete the data file. A crash in between leaves an
	// orphaned unreferenced file — never a manifest entry whose bytes are
	// gone.
	delete(a.files, rel)
	a.used -= meta.size
	if err := a.rewriteManifest(); err != nil {
		a.files[rel] = meta // manifest unchanged on disk; restore state
		a.used += meta.size
		return err
	}
	if meta.pack != "" {
		// A pack member owns no file of its own. The container is deleted
		// only when its last member goes; until then its bytes stay (the
		// space is reclaimed at the end, like a tape aggregate).
		for _, m := range a.files {
			if m.pack == meta.pack {
				return nil
			}
		}
		if err := a.fsys.Remove(filepath.Join(a.root, meta.pack)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return nil
	}
	if err := a.fsys.Remove(filepath.Join(a.root, rel)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// List returns stored paths in sorted order.
func (a *Archive) List() []string {
	if a.lk != nil {
		return a.lk.List()
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.files))
	for p := range a.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Verify re-reads every file and checks it against the manifest, returning
// the paths that fail.
func (a *Archive) Verify() []string {
	if a.lk != nil {
		return a.lk.Verify()
	}
	var bad []string
	for _, p := range a.List() {
		if _, err := a.Read(p); err != nil {
			bad = append(bad, p)
		}
	}
	return bad
}

// Manifest persistence: "path<TAB>size<TAB>crc" lines, appended (and
// fsynced) on store, atomically rewritten on remove. The manifest is the
// archive's source of truth across restarts, so it gets the same durability
// discipline as the database redo log.

func (a *Archive) manifestPath() string { return filepath.Join(a.root, manifestName) }

func (a *Archive) appendManifest(rel string, meta fileMeta) error {
	f, err := a.fsys.OpenAppend(a.manifestPath(), 0o644)
	if err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	if _, err = fmt.Fprintf(f, "%s\t%d\t%d\n", rel, meta.size, meta.crc); err == nil {
		// Fsync before acknowledging: without this, a crash after Store
		// returned could silently lose the file's registration.
		err = f.Sync()
	}
	if err != nil {
		// Keep a clean tail: a half-appended line must not sit in front of
		// lines a later Store would add.
		_ = f.Truncate(size)
		f.Close()
		return err
	}
	return f.Close()
}

func (a *Archive) rewriteManifest() error {
	var sb strings.Builder
	paths := make([]string, 0, len(a.files))
	for p := range a.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		m := a.files[p]
		if m.pack != "" {
			fmt.Fprintf(&sb, "%s\t%d\t%d\t%s\t%d\n", p, m.size, m.crc, m.pack, m.off)
		} else {
			fmt.Fprintf(&sb, "%s\t%d\t%d\n", p, m.size, m.crc)
		}
	}
	// Atomic replace: a crash at any point leaves either the old or the new
	// manifest, never a half-rewritten one.
	return minidb.ReplaceFile(a.fsys, a.manifestPath(), 0o644, minidb.WriteBytes([]byte(sb.String())))
}

func (a *Archive) loadManifest() error {
	data, err := a.fsys.ReadFile(a.manifestPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\t")
		bad := ""
		// 3 fields: a plain file. 5 fields: a pack member — rel, size, crc,
		// container path, offset within the container.
		if len(parts) != 3 && len(parts) != 5 {
			bad = "shape"
		}
		var size, off int64
		var crc uint64
		pack := ""
		if bad == "" {
			if size, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
				bad = "size"
			}
		}
		if bad == "" {
			if crc, err = strconv.ParseUint(parts[2], 10, 32); err != nil {
				bad = "crc"
			}
		}
		if bad == "" && len(parts) == 5 {
			pack = parts[3]
			if off, err = strconv.ParseInt(parts[4], 10, 64); err != nil {
				bad = "offset"
			}
		}
		if bad != "" {
			// A malformed FINAL line with no newline terminator is the torn
			// tail of an append interrupted by a crash — the store it
			// belonged to was never acknowledged, so drop it. Malformed
			// lines anywhere else (or a terminated bad line) are real
			// corruption and must not be silently skipped.
			if i == len(lines)-1 {
				return nil
			}
			return fmt.Errorf("archive: malformed manifest %s in line %q", bad, line)
		}
		a.files[parts[0]] = fileMeta{size: size, crc: uint32(crc), pack: pack, off: off}
		a.used += size
		// Keep the container sequence ahead of every referenced container
		// so fresh batches never collide with live pack files.
		if n := packSeqOf(pack); n >= a.packSeq {
			a.packSeq = n + 1
		}
	}
	return nil
}

// packSeqOf extracts the sequence number from a "packs/p%08d.pack" path,
// returning -1 for plain files or foreign names.
func packSeqOf(pack string) int64 {
	if !strings.HasPrefix(pack, "packs/p") || !strings.HasSuffix(pack, ".pack") {
		return -1
	}
	n, err := strconv.ParseInt(pack[len("packs/p"):len(pack)-len(".pack")], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

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
