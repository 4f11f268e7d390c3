package archive

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func newTestArchive(t *testing.T, kind Kind, capacity int64) *Archive {
	t.Helper()
	a, err := NewLake("ar1", kind, t.TempDir(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestStoreReadRoundTrip(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	data := []byte("raw unit payload")
	if err := a.Store("raw/hsi_0001_000.fits.gz", data); err != nil {
		t.Fatal(err)
	}
	got, err := a.Read("raw/hsi_0001_000.fits.gz")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("read %q", got)
	}
	if a.Used() != int64(len(data)) || a.Len() != 1 {
		t.Fatalf("used=%d len=%d", a.Used(), a.Len())
	}
}

func TestWriteOnceEnforced(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	if err := a.Store("f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	err := a.Store("f", []byte("v2"))
	if !errors.Is(err, ErrExists) {
		t.Fatalf("overwrite err = %v, want ErrExists", err)
	}
	got, _ := a.Read("f")
	if string(got) != "v1" {
		t.Fatal("original content lost")
	}
}

func TestCapacityEnforced(t *testing.T) {
	a := newTestArchive(t, Disk, 10)
	if err := a.Store("small", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	err := a.Store("big", []byte("1234567890"))
	if !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if a.CapacityLeft() != 5 {
		t.Fatalf("capacity left = %d", a.CapacityLeft())
	}
}

func TestOfflineRejectsOperations(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	a.Store("f", []byte("x"))
	a.SetOnline(false)
	if _, err := a.Read("f"); !errors.Is(err, ErrOffline) {
		t.Fatalf("read err = %v", err)
	}
	if err := a.Store("g", []byte("y")); !errors.Is(err, ErrOffline) {
		t.Fatalf("store err = %v", err)
	}
	if err := a.Remove("f"); !errors.Is(err, ErrOffline) {
		t.Fatalf("remove err = %v", err)
	}
	a.SetOnline(true)
	if _, err := a.Read("f"); err != nil {
		t.Fatalf("read after re-online: %v", err)
	}
}

func TestPathTraversalRejected(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	for _, p := range []string{"../escape", "/abs/path", "", "a/../../b", "."} {
		if err := a.Store(p, []byte("x")); err == nil {
			t.Fatalf("path %q accepted", p)
		}
	}
}

func TestReadMissing(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	if _, err := a.Read("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := a.Stat("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat err = %v", err)
	}
	if a.Exists("nope") {
		t.Fatal("missing file exists")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	a, err := NewLake("ar1", Disk, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store("f", []byte("pristine")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the member's container behind the archive's back.
	ctrs, err := filepath.Glob(filepath.Join(dir, "containers", "*"))
	if err != nil || len(ctrs) != 1 {
		t.Fatalf("containers: %v, %v", ctrs, err)
	}
	if err := os.Chmod(ctrs[0], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ctrs[0], []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read("f"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read err = %v, want ErrCorrupt", err)
	}
	bad := a.Verify()
	if len(bad) != 1 || bad[0] != "f" {
		t.Fatalf("verify = %v", bad)
	}
}

func TestManifestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	a, _ := NewLake("ar1", Disk, dir, 0)
	a.Store("x/one", []byte("1"))
	a.Store("x/two", []byte("22"))

	b, err := NewLake("ar1", Disk, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || b.Used() != 3 {
		t.Fatalf("reopened len=%d used=%d", b.Len(), b.Used())
	}
	got, err := b.Read("x/two")
	if err != nil || string(got) != "22" {
		t.Fatalf("read after reopen: %q %v", got, err)
	}
}

func TestRemoveUpdatesStateAndManifest(t *testing.T) {
	dir := t.TempDir()
	a, _ := NewLake("ar1", Disk, dir, 0)
	a.Store("f", []byte("xyz"))
	if err := a.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if a.Exists("f") || a.Used() != 0 {
		t.Fatal("remove did not update state")
	}
	b, _ := NewLake("ar1", Disk, dir, 0)
	if b.Exists("f") {
		t.Fatal("removed file resurrected on reopen")
	}
	if err := a.Remove("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestList(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	a.Store("b", []byte("1"))
	a.Store("a", []byte("1"))
	a.Store("c/d", []byte("1"))
	got := a.List()
	want := []string{"a", "b", "c/d"}
	if len(got) != 3 {
		t.Fatalf("list = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list = %v, want %v", got, want)
		}
	}
}

func TestCopyBetweenArchives(t *testing.T) {
	src := newTestArchive(t, Disk, 0)
	dst, _ := NewLake("tape1", Tape, t.TempDir(), 0)
	src.Store("unit/f1", []byte("payload"))
	if err := Copy(src, dst, "unit/f1"); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Read("unit/f1")
	if err != nil || string(got) != "payload" {
		t.Fatalf("dst read: %q %v", got, err)
	}
	// Source is untouched.
	if !src.Exists("unit/f1") {
		t.Fatal("copy removed the source")
	}
	// Copy to an archive that already holds the path fails cleanly.
	if err := Copy(src, dst, "unit/f1"); err == nil {
		t.Fatal("duplicate copy accepted")
	}
}

func TestOpenStreams(t *testing.T) {
	a := newTestArchive(t, NFS, 0)
	a.Store("f", []byte("stream me"))
	rc, err := a.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	buf := make([]byte, 6)
	if _, err := rc.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "stream" {
		t.Fatalf("streamed %q", buf)
	}
}

func TestSetRegistry(t *testing.T) {
	s := NewSet()
	a1, _ := NewLake("disk1", Disk, t.TempDir(), 0)
	a2, _ := NewLake("tape1", Tape, t.TempDir(), 0)
	if err := s.Add(a1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(a2); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(a1); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if s.Get("disk1") != a1 || s.Get("nope") != nil {
		t.Fatal("get wrong")
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != "disk1" || ids[1] != "tape1" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestKindStringAndLatency(t *testing.T) {
	if Disk.String() != "disk" || NFS.String() != "nfs" || Tape.String() != "tape" {
		t.Fatal("kind names wrong")
	}
	if Disk.latency() != 0 || Tape.latency() <= NFS.latency() {
		t.Fatal("latency ordering wrong")
	}
}
