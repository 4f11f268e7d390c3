package archive

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lake"
	"repro/internal/minidb"
)

// Every archive is a lake: the commit journal is the source of truth and
// every mutation is a journal commit, which buys the archive time travel
// (OpenAt serves the catalog as of any commit), background compaction of
// small containers, and GC that provably never deletes bytes a live or
// pinned view still references. The only other on-disk format an archive
// still understands is the pre-lake MANIFEST.crc store, and only to import
// it once, on first open (migrateManifest).

// NewLake opens (or creates) an archive rooted at dir. capacityBytes of 0
// means unlimited. A pre-lake archive in dir is imported first.
func NewLake(id string, kind Kind, dir string, capacityBytes int64) (*Archive, error) {
	return NewLakeVFS(minidb.OSFS, id, kind, dir, capacityBytes)
}

// NewLakeVFS is NewLake with an explicit filesystem, so crash-recovery
// tests can make every journal/container/GC I/O a crash site.
func NewLakeVFS(fsys VFS, id string, kind Kind, dir string, capacityBytes int64) (*Archive, error) {
	if id == "" {
		return nil, fmt.Errorf("archive: empty id")
	}
	lk, err := lake.Open(fsys, dir)
	if err != nil {
		return nil, err
	}
	// A directory that already holds a pre-lake archive is imported into
	// the journal before first use: opening it as an empty lake would
	// orphan every file the location tables still reference.
	if err := migrateManifest(fsys, dir, lk); err != nil {
		return nil, fmt.Errorf("archive: manifest→lake migration of %s: %w", dir, err)
	}
	a := &Archive{id: id, kind: kind, root: dir, capacity: capacityBytes, lk: lk}
	a.online.Store(true)
	return a, nil
}

// Lake returns the journal store behind the archive. Callers use it for
// time travel, compaction, GC and stats; the Archive surface covers
// everything else.
func (a *Archive) Lake() *lake.Lake { return a.lk }

// OpenAt opens a read-only view of the archive as of commit seq (0 = the
// current head), durably pinned against GC until the view is closed.
func (a *Archive) OpenAt(seq uint64) (*lake.View, error) {
	if !a.Online() {
		return nil, ErrOffline
	}
	return a.lk.OpenAt(seq)
}

// mapLakeErr translates lake sentinel errors into the archive's, so
// callers keep matching errors.Is(err, archive.ErrNotFound) etc.
func mapLakeErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, lake.ErrNotFound):
		return fmt.Errorf("%w: %s", ErrNotFound, trimLakePrefix(err))
	case errors.Is(err, lake.ErrExists):
		return fmt.Errorf("%w: %s", ErrExists, trimLakePrefix(err))
	case errors.Is(err, lake.ErrCorrupt):
		return fmt.Errorf("%w: %s", ErrCorrupt, trimLakePrefix(err))
	}
	return err
}

func trimLakePrefix(err error) string {
	s := err.Error()
	if i := strings.LastIndex(s, ": "); i >= 0 {
		return s[i+2:]
	}
	return s
}

// --- pre-lake import --------------------------------------------------------
//
// Before the lake, an archive was a MANIFEST.crc of "rel size crc" lines
// (a plain file under dir/rel) and "rel size crc pack off" lines (a member
// at byte off of the container dir/pack). That store is read here and
// nowhere else: nothing writes it any more.

const (
	manifestName = "MANIFEST.crc"
	// migratedManifestName is where a consumed manifest is parked: its
	// presence marks a completed migration, its absence alongside a
	// MANIFEST.crc marks one to (re)run. Kept rather than deleted so an
	// operator can audit what the journal was seeded from.
	migratedManifestName = manifestName + ".migrated"
)

// fileMeta is one manifest member.
type fileMeta struct {
	size int64
	crc  uint32
	pack string // container file (archive-relative) holding the bytes; "" = own file
	off  int64  // byte offset within pack
}

// migrateManifest imports a pre-lake archive into the journal: every
// manifest member is read back (CRC-verified), stored through the lake in
// bounded batches, and only then is the manifest moved aside and the
// legacy bytes dropped. The steps are idempotent — a crash anywhere
// resumes on the next open, skipping members the journal already holds —
// and ordered so the journal owns a member's bytes before the manifest
// copy can disappear.
func migrateManifest(fsys VFS, dir string, lk *lake.Lake) error {
	files, err := loadManifest(fsys, dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	rels := make([]string, 0, len(files))
	for rel := range files {
		rels = append(rels, rel)
	}
	sort.Strings(rels)

	var batch []lake.BatchFile
	var batchBytes int64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		_, err := lk.StoreBatch(batch)
		batch, batchBytes = nil, 0
		return err
	}
	for _, rel := range rels {
		if lk.Exists(rel) {
			continue // an earlier interrupted migration already moved it
		}
		data, err := readMember(fsys, dir, rel, files[rel])
		if err != nil {
			return fmt.Errorf("member %s: %w", rel, err)
		}
		batch = append(batch, lake.BatchFile{Rel: rel, Data: data})
		batchBytes += int64(len(data))
		if batchBytes >= 32<<20 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	// Seal: park the manifest, then drop the now-redundant legacy bytes.
	// A crash between the two leaves unreferenced orphans, never a member
	// whose only copy is gone. Every rel passed the lake's path check
	// above, so none of these removals can leave dir.
	if err := fsys.Rename(filepath.Join(dir, manifestName), filepath.Join(dir, migratedManifestName)); err != nil {
		return err
	}
	packs := make(map[string]bool)
	for rel, meta := range files {
		if meta.pack != "" {
			packs[meta.pack] = true
			continue
		}
		_ = fsys.Remove(filepath.Join(dir, rel))
	}
	for pack := range packs {
		_ = fsys.Remove(filepath.Join(dir, pack))
	}
	return nil
}

// loadManifest parses dir's MANIFEST.crc into its members (an error
// satisfying errors.Is(err, fs.ErrNotExist) when there is none). A
// malformed final line with no newline terminator is the torn tail of an
// append interrupted by a crash — the store it belonged to was never
// acknowledged — so it is dropped. A malformed line anywhere else (or a
// terminated bad line) is real corruption and refuses the whole manifest.
func loadManifest(fsys VFS, dir string) (map[string]fileMeta, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	files := make(map[string]fileMeta)
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\t")
		bad := ""
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
			if i == len(lines)-1 {
				break
			}
			return nil, fmt.Errorf("archive: malformed manifest %s in line %q", bad, line)
		}
		files[parts[0]] = fileMeta{size: size, crc: uint32(crc), pack: pack, off: off}
	}
	return files, nil
}

// readMember fetches one manifest member's bytes — its own file, or its
// slice of a container — and verifies them against the manifest CRC.
func readMember(fsys VFS, dir, rel string, meta fileMeta) ([]byte, error) {
	var data []byte
	if meta.pack == "" {
		var err error
		if data, err = fsys.ReadFile(filepath.Join(dir, rel)); err != nil {
			return nil, err
		}
	} else {
		blob, err := fsys.ReadFile(filepath.Join(dir, meta.pack))
		if err != nil {
			return nil, err
		}
		n := int64(len(blob))
		if meta.off < 0 || meta.size < 0 || meta.size > n || meta.off > n-meta.size {
			return nil, fmt.Errorf("%w: %s (container %s truncated)", ErrCorrupt, rel, meta.pack)
		}
		data = blob[meta.off : meta.off+meta.size]
	}
	if crc32.ChecksumIEEE(data) != meta.crc {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, rel)
	}
	return data, nil
}
