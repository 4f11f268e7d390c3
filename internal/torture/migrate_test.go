package torture

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/fault"
	"repro/internal/lake"
	"repro/internal/minidb"
)

// Migration torture: a pre-lake archive (the manifest-store fixture in
// internal/archive/testdata/prelake) is imported into the journal the
// first time NewLakeVFS opens it. Crash that import at every mutating I/O
// under each fault mode, reboot, and check against a clean migration
// (whose result internal/archive's fixture test pins byte for byte):
//   - after the reopen exactly the clean run's members are live, each
//     bit-identical — none lost, none resurrected;
//   - MANIFEST.crc is parked only after the journal holds every member:
//     a recovered directory without it must already serve every member
//     from the journal alone.

const (
	migrateDir = "prelake"
	prelakeSrc = "../archive/testdata/prelake"
)

// readPrelake returns the fixture's files, path -> content.
func readPrelake(t *testing.T) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(prelakeSrc, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		rel, _ := filepath.Rel(prelakeSrc, p)
		files[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil || len(files) == 0 {
		t.Fatalf("read fixture: %d files, %v", len(files), err)
	}
	return files
}

// loadPrelake writes the fixture durably into a fresh fault filesystem.
func loadPrelake(t *testing.T, files map[string][]byte) *fault.FS {
	t.Helper()
	fsys := fault.NewFS()
	rels := make([]string, 0, len(files))
	for rel := range files {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		p := path.Join(migrateDir, rel)
		if err := fsys.MkdirAll(path.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := minidb.WriteFile(fsys, p, 0o644, minidb.WriteBytes(files[rel])); err != nil {
			t.Fatal(err)
		}
	}
	return fsys
}

func fileExists(fsys *fault.FS, p string) (bool, error) {
	_, err := fsys.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

// sameMembers checks that list and read serve exactly the members of want.
func sameMembers(want map[string][]byte, list []string, read func(string) ([]byte, error)) error {
	if len(list) != len(want) {
		return fmt.Errorf("%d members live (%v), want %d", len(list), list, len(want))
	}
	for rel, data := range want {
		got, err := read(rel)
		if err != nil {
			return fmt.Errorf("member %s lost: %w", rel, err)
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("member %s diverged", rel)
		}
	}
	return nil
}

// verifyMigration checks a rebooted filesystem after a crashed import.
func verifyMigration(fsys *fault.FS, want map[string][]byte) error {
	manifest, err := fileExists(fsys, path.Join(migrateDir, "MANIFEST.crc"))
	if err != nil {
		return err
	}
	if !manifest {
		parked, err := fileExists(fsys, path.Join(migrateDir, "MANIFEST.crc.migrated"))
		if err != nil || !parked {
			return fmt.Errorf("MANIFEST.crc gone but not parked (%v)", err)
		}
		// Parked: the journal alone (no migration on this open) must
		// already hold every member.
		lk, err := lake.Open(fsys, migrateDir)
		if err != nil {
			return fmt.Errorf("journal does not open: %w", err)
		}
		if err := sameMembers(want, lk.List(), lk.Read); err != nil {
			return fmt.Errorf("manifest parked before the journal held every member: %w", err)
		}
	}
	a, err := archive.NewLakeVFS(fsys, "a0", archive.Disk, migrateDir, 0)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	if err := sameMembers(want, a.List(), a.Read); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	if left, _ := fileExists(fsys, path.Join(migrateDir, "MANIFEST.crc")); left {
		return fmt.Errorf("reopen did not finish the migration")
	}
	return nil
}

// TestMigrationCrashEnumeration crashes the manifest→lake import at every
// mutating I/O of NewLakeVFS under the crash, torn and partialfsync modes.
func TestMigrationCrashEnumeration(t *testing.T) {
	fixture := readPrelake(t)
	fsys := loadPrelake(t, fixture)
	base := fsys.OpCount()
	clean, err := archive.NewLakeVFS(fsys, "a0", archive.Disk, migrateDir, 0)
	if err != nil {
		t.Fatalf("clean migration: %v", err)
	}
	total := fsys.OpCount() - base
	want := make(map[string][]byte)
	for _, rel := range clean.List() {
		if want[rel], err = clean.Read(rel); err != nil {
			t.Fatalf("clean migration: %v", err)
		}
	}
	if len(want) == 0 {
		t.Fatal("clean migration imported nothing")
	}
	if err := verifyMigration(fsys, want); err != nil {
		t.Fatalf("clean migration: %v", err)
	}
	t.Logf("manifest→lake migration performs %d mutating I/O operations", total)

	for _, mode := range []fault.Mode{fault.ModeCrash, fault.ModeTorn, fault.ModePartialFsync} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			for n := 1; n <= total; n++ {
				fsys := loadPrelake(t, fixture)
				fsys.SetFault(fsys.OpCount()+n, mode)
				_, err := archive.NewLakeVFS(fsys, "a0", archive.Disk, migrateDir, 0)
				if !fsys.Crashed() {
					t.Fatalf("crash site %d/%d: migration did not crash (err=%v)", n, total, err)
				}
				fsys.Recover()
				if verr := verifyMigration(fsys, want); verr != nil {
					t.Fatalf("crash site %d/%d (crashed in %q): %v\nsurviving files: %s",
						n, total, err, verr, strings.Join(fsys.Paths(), " "))
				}
			}
		})
	}
}
