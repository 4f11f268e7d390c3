package archive

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func batchOf(kv ...string) []BatchFile {
	var out []BatchFile
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, BatchFile{Rel: kv[i], Data: []byte(kv[i+1])})
	}
	return out
}

func TestStoreBatchRoundTrip(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	files := batchOf("fits.gz/u1.fits.gz", "raw-unit-bytes", "wavelet/v0.wav", "view-zero", "wavelet/v1.wav", "view-one")
	if err := a.StoreBatch(files); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, f := range files {
		want += int64(len(f.Data))
		got, err := a.Read(f.Rel)
		if err != nil {
			t.Fatalf("read %s: %v", f.Rel, err)
		}
		if string(got) != string(f.Data) {
			t.Fatalf("read %s: %q", f.Rel, got)
		}
		if !a.Exists(f.Rel) {
			t.Fatalf("missing %s", f.Rel)
		}
		n, err := a.Stat(f.Rel)
		if err != nil || n != int64(len(f.Data)) {
			t.Fatalf("stat %s: %d %v", f.Rel, n, err)
		}
	}
	if a.Used() != want || a.Len() != len(files) {
		t.Fatalf("used=%d len=%d", a.Used(), a.Len())
	}
	// Open streams the member too.
	rc, err := a.Open("wavelet/v1.wav")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rc)
	rc.Close()
	if string(b) != "view-one" {
		t.Fatalf("open: %q", b)
	}
}

func TestStoreBatchSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	a, err := NewLake("ar1", Disk, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.StoreBatch(batchOf("a/one", "1111", "b/two", "22")); err != nil {
		t.Fatal(err)
	}
	// A single-file store after the batch must coexist in the same journal.
	if err := a.Store("c/three", []byte("333")); err != nil {
		t.Fatal(err)
	}
	b, err := NewLake("ar1", Disk, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rel, want := range map[string]string{"a/one": "1111", "b/two": "22", "c/three": "333"} {
		got, err := b.Read(rel)
		if err != nil || string(got) != want {
			t.Fatalf("reopen read %s: %q %v", rel, got, err)
		}
	}
	if b.Used() != a.Used() {
		t.Fatalf("used drift: %d != %d", b.Used(), a.Used())
	}
	// And a fresh batch on the reopened archive must not collide with the
	// existing container.
	if err := b.StoreBatch(batchOf("d/four", "4444")); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Read("a/one"); string(got) != "1111" {
		t.Fatalf("old member clobbered: %q", got)
	}
}

func TestStoreBatchConflicts(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	if err := a.Store("x", []byte("plain")); err != nil {
		t.Fatal(err)
	}
	if err := a.StoreBatch(batchOf("y", "1", "x", "2")); !errors.Is(err, ErrExists) {
		t.Fatalf("existing member: %v", err)
	}
	if a.Exists("y") {
		t.Fatal("failed batch left a member registered")
	}
	if err := a.StoreBatch(batchOf("y", "1", "y", "2")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate in batch: %v", err)
	}
	if err := a.StoreBatch(batchOf("../escape", "1")); err == nil {
		t.Fatal("path escape accepted")
	}
	a.SetOnline(false)
	if err := a.StoreBatch(batchOf("z", "1")); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline: %v", err)
	}
}

func TestStoreBatchCapacity(t *testing.T) {
	a := newTestArchive(t, Disk, 10)
	if err := a.StoreBatch(batchOf("a", "123456", "b", "7890x")); !errors.Is(err, ErrFull) {
		t.Fatalf("over capacity: %v", err)
	}
	if a.Used() != 0 {
		t.Fatalf("failed batch kept reservation: %d", a.Used())
	}
	if err := a.StoreBatch(batchOf("a", "12345", "b", "67890")); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 10 {
		t.Fatalf("used=%d", a.Used())
	}
}

func TestStoreBatchRemoveMembers(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	if err := a.StoreBatch(batchOf("m/a", "aa", "m/b", "bbb")); err != nil {
		t.Fatal(err)
	}
	if err := a.Remove("m/a"); err != nil {
		t.Fatal(err)
	}
	if a.Exists("m/a") {
		t.Fatal("removed member still listed")
	}
	// The surviving member still reads while the container is shared.
	if got, err := a.Read("m/b"); err != nil || string(got) != "bbb" {
		t.Fatalf("survivor: %q %v", got, err)
	}
	if err := a.Remove("m/b"); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 0 || a.Used() != 0 {
		t.Fatalf("len=%d used=%d", a.Len(), a.Used())
	}
	// Both members tombstoned: re-storing the same names must work.
	if err := a.StoreBatch(batchOf("m/a", "again")); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Read("m/a"); string(got) != "again" {
		t.Fatalf("re-store: %q", got)
	}
}

func TestStoreBatchConcurrent(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	const workers, batches = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				files := batchOf(
					fmt.Sprintf("u/%d-%d/raw", w, b), strings.Repeat("r", 10+w),
					fmt.Sprintf("u/%d-%d/view", w, b), strings.Repeat("v", 5+b),
				)
				if err := a.StoreBatch(files); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if a.Len() != workers*batches*2 {
		t.Fatalf("len=%d", a.Len())
	}
	if bad := a.Verify(); len(bad) != 0 {
		t.Fatalf("verify: %v", bad)
	}
}
