package archive_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/archive"
	"repro/internal/fault"
)

// newFaultArchive opens an archive over a fault filesystem.
func newFaultArchive(t *testing.T, fs *fault.FS) *archive.Archive {
	t.Helper()
	a, err := archive.NewLakeVFS(fs, "t0", archive.Disk, "arch", 0)
	if err != nil {
		t.Fatalf("open archive: %v", err)
	}
	return a
}

// TestAcknowledgedStoreSurvivesCrash: once Store returns, a power cut that
// drops every unsynced byte must not lose the file or its journal commit.
func TestAcknowledgedStoreSurvivesCrash(t *testing.T) {
	fs := fault.NewFS()
	a := newFaultArchive(t, fs)
	data := []byte("acknowledged payload")
	if err := a.Store("gif/item.gif", data); err != nil {
		t.Fatalf("store: %v", err)
	}
	// Crash at the very next operation: nothing unsynced survives.
	fs.SetFault(fs.OpCount()+1, fault.ModeCrash)
	_ = a.Store("gif/other.gif", []byte("in flight"))
	if !fs.Crashed() {
		t.Fatal("second store did not hit the injected crash")
	}
	fs.Recover()

	a2 := newFaultArchive(t, fs)
	got, err := a2.Read("gif/item.gif")
	if err != nil {
		t.Fatalf("acknowledged store lost after crash: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("acknowledged store corrupted after crash: %q", got)
	}
	if _, err := a2.Read("gif/other.gif"); !errors.Is(err, archive.ErrNotFound) {
		t.Fatalf("un-acknowledged store surfaced after power cut: %v", err)
	}
}

// TestRemoveCrashNeverLosesOtherFiles enumerates every crash site of a
// Remove: whatever the interleaving, files that were not being removed stay
// intact, the removed file is either intact or gone, and an acknowledged
// removal stays removed.
func TestRemoveCrashNeverLosesOtherFiles(t *testing.T) {
	for site := 1; ; site++ {
		fs := fault.NewFS()
		a := newFaultArchive(t, fs)
		if err := a.Store("a/keep.dat", []byte("keep")); err != nil {
			t.Fatal(err)
		}
		if err := a.Store("a/drop.dat", []byte("drop")); err != nil {
			t.Fatal(err)
		}
		base := fs.OpCount()
		fs.SetFault(base+site, fault.ModeCrash)
		err := a.Remove("a/drop.dat")
		if !fs.Crashed() {
			// site walked past the remove's last operation.
			if site == 1 {
				t.Fatal("fault never fired")
			}
			return
		}
		fs.Recover()
		a2 := newFaultArchive(t, fs)
		if got, rerr := a2.Read("a/keep.dat"); rerr != nil || string(got) != "keep" {
			t.Fatalf("site %d: unrelated file damaged by crashed remove: %q, %v", site, got, rerr)
		}
		// The removed file either still exists intact or is fully gone —
		// and gone for sure once the remove was acknowledged (a crash in
		// post-acknowledgement I/O leaves err nil).
		if got, rerr := a2.Read("a/drop.dat"); rerr == nil {
			if err == nil {
				t.Fatalf("site %d: acknowledged remove undone by crash", site)
			}
			if string(got) != "drop" {
				t.Fatalf("site %d: half-removed file has wrong content: %q", site, got)
			}
		} else if !errors.Is(rerr, archive.ErrNotFound) {
			t.Fatalf("site %d: journal points at missing bytes: %v", site, rerr)
		}
	}
}

// TestStoreBatchCrashAtomic enumerates every crash site of a StoreBatch:
// after recovery either every member of the batch is readable with the right
// bytes, or none is listed — never a partial batch, never a lost
// acknowledged one, and never damage to files stored before it.
func TestStoreBatchCrashAtomic(t *testing.T) {
	members := []archive.BatchFile{
		{Rel: "u/raw.fits.gz", Data: []byte("raw-bytes")},
		{Rel: "u/v0.wav", Data: []byte("view-zero")},
		{Rel: "u/v1.wav", Data: []byte("view-one")},
	}
	for site := 1; ; site++ {
		fs := fault.NewFS()
		a := newFaultArchive(t, fs)
		if err := a.Store("prior/keep.dat", []byte("keep")); err != nil {
			t.Fatal(err)
		}
		base := fs.OpCount()
		fs.SetFault(base+site, fault.ModeCrash)
		err := a.StoreBatch(members)
		if !fs.Crashed() {
			if site == 1 {
				t.Fatal("fault never fired")
			}
			return
		}
		fs.Recover()
		a2 := newFaultArchive(t, fs)
		if got, rerr := a2.Read("prior/keep.dat"); rerr != nil || string(got) != "keep" {
			t.Fatalf("site %d: prior file damaged by crashed batch: %q, %v", site, got, rerr)
		}
		listed := 0
		for _, m := range members {
			got, rerr := a2.Read(m.Rel)
			if rerr == nil {
				if !bytes.Equal(got, m.Data) {
					t.Fatalf("site %d: member %s has wrong content: %q", site, m.Rel, got)
				}
				listed++
			} else if !errors.Is(rerr, archive.ErrNotFound) {
				t.Fatalf("site %d: member %s unreadable: %v", site, m.Rel, rerr)
			}
		}
		if listed != 0 && listed != len(members) {
			t.Fatalf("site %d: partial batch surfaced: %d of %d members", site, listed, len(members))
		}
		if err == nil && listed == 0 {
			t.Fatalf("site %d: acknowledged batch lost", site)
		}
	}
}
