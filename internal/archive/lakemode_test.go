package archive

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lake"
)

// lakeCompactAll makes every container a merge candidate in tests.
func lakeCompactAll() lake.CompactOptions {
	return lake.CompactOptions{SmallBytes: 1 << 20, MinMerge: 2, MaxMerge: 100}
}

func newLakeArchive(t *testing.T) *Archive {
	t.Helper()
	a, err := NewLake("lake-0", Disk, t.TempDir(), 0)
	if err != nil {
		t.Fatalf("NewLake: %v", err)
	}
	return a
}

// TestLakeModeSurface drives the whole Archive surface and checks its
// error contract.
func TestLakeModeSurface(t *testing.T) {
	a := newLakeArchive(t)

	if err := a.Store("fits.gz/u1.fits.gz", []byte("raw-unit")); err != nil {
		t.Fatalf("store: %v", err)
	}
	if err := a.Store("fits.gz/u1.fits.gz", []byte("dup")); !errors.Is(err, ErrExists) {
		t.Fatalf("overwrite: %v", err)
	}
	got, err := a.Read("fits.gz/u1.fits.gz")
	if err != nil || string(got) != "raw-unit" {
		t.Fatalf("read: %q, %v", got, err)
	}
	if n, err := a.Stat("fits.gz/u1.fits.gz"); err != nil || n != 8 {
		t.Fatalf("stat: %d, %v", n, err)
	}
	if !a.Exists("fits.gz/u1.fits.gz") {
		t.Fatal("exists")
	}
	if a.Used() != 8 || a.Len() != 1 {
		t.Fatalf("used %d len %d", a.Used(), a.Len())
	}
	rc, err := a.Open("fits.gz/u1.fits.gz")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(rc)
	rc.Close()
	if buf.String() != "raw-unit" {
		t.Fatalf("open read: %q", buf.String())
	}

	batch := []BatchFile{
		{Rel: "wavelet/u1a.wav", Day: 3, Data: []byte("wave-a")},
		{Rel: "wavelet/u1b.wav", Day: 3, Data: []byte("wave-b")},
	}
	if err := a.StoreBatch(batch); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(a.List()) != 3 {
		t.Fatalf("list: %v", a.List())
	}
	if bad := a.Verify(); len(bad) != 0 {
		t.Fatalf("verify: %v", bad)
	}

	if err := a.Remove("wavelet/u1a.wav"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := a.Read("wavelet/u1a.wav"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read removed: %v", err)
	}
	if err := a.Remove("wavelet/u1a.wav"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}

	// Offline archives reject everything.
	a.SetOnline(false)
	if _, err := a.Read("fits.gz/u1.fits.gz"); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline read: %v", err)
	}
	if err := a.Store("x/y", []byte("z")); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline store: %v", err)
	}
	if err := a.Remove("fits.gz/u1.fits.gz"); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline remove: %v", err)
	}
	if _, err := a.OpenAt(0); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline OpenAt: %v", err)
	}
	a.SetOnline(true)
}

// TestLakeModeTimeTravel checks OpenAt through the Archive surface: the
// store relocation / purge flow deletes a file, but a view pinned before
// the delete still reads it bit-identically.
func TestLakeModeTimeTravel(t *testing.T) {
	a := newLakeArchive(t)
	if err := a.Store("fits.gz/u1.fits.gz", []byte("original calibration")); err != nil {
		t.Fatal(err)
	}
	v, err := a.OpenAt(0)
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}
	defer v.Close()

	if err := a.Remove("fits.gz/u1.fits.gz"); err != nil {
		t.Fatal(err)
	}
	if err := a.Store("fits.gz/u1.fits.gz", []byte("recalibrated")); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Read("fits.gz/u1.fits.gz"); string(got) != "recalibrated" {
		t.Fatalf("head read: %q", got)
	}
	if got, err := v.Read("fits.gz/u1.fits.gz"); err != nil || string(got) != "original calibration" {
		t.Fatalf("pinned read: %q, %v", got, err)
	}

	// Compact + GC must not disturb either generation while the pin holds.
	if _, err := a.Lake().Compact(lakeCompactAll()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Lake().GC(a.Lake().Head()); err != nil {
		t.Fatal(err)
	}
	if got, _ := v.Read("fits.gz/u1.fits.gz"); string(got) != "original calibration" {
		t.Fatalf("pinned read after compact+gc: %q", got)
	}
	if got, _ := a.Read("fits.gz/u1.fits.gz"); string(got) != "recalibrated" {
		t.Fatalf("head read after compact+gc: %q", got)
	}
}

// TestLakeModeCapacity enforces the tier capacity against physical bytes.
func TestLakeModeCapacity(t *testing.T) {
	a, err := NewLake("lake-cap", Disk, t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store("a", make([]byte, 48)); err != nil {
		t.Fatal(err)
	}
	if err := a.Store("b", make([]byte, 32)); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity store: %v", err)
	}
	if left := a.CapacityLeft(); left != 16 {
		t.Fatalf("capacity left = %d", left)
	}
	// A remove alone frees nothing physically; compact+GC does.
	if err := a.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := a.Store("c", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Lake().Compact(lakeCompactAll()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Lake().GC(a.Lake().Head()); err != nil {
		t.Fatal(err)
	}
	if err := a.Store("b", make([]byte, 32)); err != nil {
		t.Fatalf("store after gc reclaim: %v", err)
	}
}

// TestLakeModeRestart reopens a lake archive and checks the catalog and a
// durable pin survive.
func TestLakeModeRestart(t *testing.T) {
	dir := t.TempDir()
	a, err := NewLake("lake-r", Disk, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.Store(fmt.Sprintf("wavelet/u%d.wav", i), []byte(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := a.OpenAt(0)
	if err != nil {
		t.Fatal(err)
	}
	token := v.Token()

	b, err := NewLake("lake-r", Disk, dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if b.Len() != 5 {
		t.Fatalf("len after reopen = %d", b.Len())
	}
	v2, err := b.Lake().AttachPin(token)
	if err != nil {
		t.Fatalf("attach pin: %v", err)
	}
	if got, err := v2.Read("wavelet/u3.wav"); err != nil || string(got) != "w3" {
		t.Fatalf("pinned read after restart: %q, %v", got, err)
	}
}

// prelakeMembers is what testdata/prelake holds: a pre-lake archive
// written by the manifest store with one Store (a plain file, a 3-field
// manifest line), one StoreBatch of three members (a pack container,
// 5-field lines) and one Remove of a batch member (the manifest rewritten
// without it; its bytes stay in the container).
func prelakeMembers() map[string][]byte {
	gen := func(seed byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*37)
		}
		return b
	}
	return map[string][]byte{
		"raw/d001/u1.fits.gz": gen(1, 97),
		"raw/d002/u2.fits.gz": gen(2, 131),
		"wavelet/u2.wav":      gen(3, 64),
	}
}

// prelakeRemoved is the fixture's removed batch member.
const prelakeRemoved = "gif/u2.gif"

// copyPrelake copies the pre-lake fixture into a fresh directory.
func copyPrelake(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", "prelake")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, strings.TrimPrefix(path, src))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// A pre-lake data directory (MANIFEST.crc + plain files + pack containers)
// is imported into the journal on first open, not served as an empty
// catalog that would orphan every file the location tables reference.
func TestManifestArchiveMigratesToLake(t *testing.T) {
	dir := copyPrelake(t)
	want := prelakeMembers()

	a, err := NewLake("disk-0", Disk, dir, 0)
	if err != nil {
		t.Fatalf("NewLake over manifest dir: %v", err)
	}
	if a.Len() != len(want) {
		t.Fatalf("migrated archive holds %d files, want %d (%v)", a.Len(), len(want), a.List())
	}
	for rel, data := range want {
		got, err := a.Read(rel)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("migrated read %s: %q, %v", rel, got, err)
		}
	}
	if a.Exists(prelakeRemoved) {
		t.Fatalf("removed member %s resurrected by migration", prelakeRemoved)
	}
	// The manifest is parked (completion marker), the legacy bytes dropped.
	if exists(filepath.Join(dir, "MANIFEST.crc")) {
		t.Fatal("MANIFEST.crc still present after migration")
	}
	if !exists(filepath.Join(dir, "MANIFEST.crc.migrated")) {
		t.Fatal("parked manifest missing")
	}
	for _, legacy := range []string{"raw/d001/u1.fits.gz", "packs/p00000000.pack"} {
		if exists(filepath.Join(dir, legacy)) {
			t.Fatalf("legacy file %s survived migration", legacy)
		}
	}

	// Reopening is idempotent, and the migrated catalog is time-travelable.
	a2, err := NewLake("disk-0", Disk, dir, 0)
	if err != nil {
		t.Fatalf("reopen migrated archive: %v", err)
	}
	if a2.Len() != len(want) {
		t.Fatalf("reopened archive holds %d files", a2.Len())
	}
	v, err := a2.OpenAt(0)
	if err != nil {
		t.Fatalf("OpenAt over migrated data: %v", err)
	}
	defer v.Close()
	for rel, data := range want {
		got, err := v.Read(rel)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("as-of read %s: %q, %v", rel, got, err)
		}
	}
	// Post-migration mutations behave like any lake archive.
	if err := a2.Store("raw/d003/u3", []byte("post-migration")); err != nil {
		t.Fatalf("store after migration: %v", err)
	}
	if err := a2.Remove("raw/d001/u1.fits.gz"); err != nil {
		t.Fatalf("remove after migration: %v", err)
	}
	if a2.Exists("raw/d001/u1.fits.gz") {
		t.Fatal("removed migrated member still live")
	}
}

// TestManifestTornTailMigrates: a final manifest line with no newline is
// the torn tail of a store that was never acknowledged. Migration drops it
// and imports the acknowledged prefix.
func TestManifestTornTailMigrates(t *testing.T) {
	dir := copyPrelake(t)
	f, err := os.OpenFile(filepath.Join(dir, "MANIFEST.crc"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("log/torn.log\t6"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	a, err := NewLake("disk-0", Disk, dir, 0)
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	want := prelakeMembers()
	if a.Len() != len(want) || a.Exists("log/torn.log") {
		t.Fatalf("migrated %v, want exactly the acknowledged prefix", a.List())
	}
	for rel, data := range want {
		if got, err := a.Read(rel); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("migrated read %s: %q, %v", rel, got, err)
		}
	}
}

// TestManifestMalformedLineRefused: a malformed line that is not the torn
// tail is corruption. Open refuses, and the legacy store stays untouched
// for an operator to repair.
func TestManifestMalformedLineRefused(t *testing.T) {
	dir := copyPrelake(t)
	path := filepath.Join(dir, "MANIFEST.crc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(data, '\n') + 1
	bad := append(append(append([]byte{}, data[:first]...), "garbage line\n"...), data[first:]...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLake("disk-0", Disk, dir, 0); err == nil {
		t.Fatal("manifest with a malformed mid-file line opened")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, bad) {
		t.Fatalf("refused manifest was changed: %v", err)
	}
	for _, legacy := range []string{"raw/d001/u1.fits.gz", "packs/p00000000.pack"} {
		if !exists(filepath.Join(dir, legacy)) {
			t.Fatalf("legacy file %s dropped by a refused migration", legacy)
		}
	}
}
