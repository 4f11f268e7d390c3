package minidb

import (
	"errors"
	"io"
	"io/fs"
	"os"
)

// VFS is the filesystem seam under the engine. Every durable byte the
// database writes — redo-log records, snapshot checkpoints, the rename that
// publishes a checkpoint — flows through one of these methods, so a test
// can interpose a fault-injecting implementation (internal/fault) and crash
// the "process" at any single I/O operation. Production code uses OSFS.
//
// internal/archive and internal/lake alias this interface, and
// internal/fault's FS implements it. Outside internal/fault, files are
// created only through WriteFile and ReplaceFile.
type VFS interface {
	// MkdirAll creates a directory path (and parents) if absent.
	MkdirAll(path string, perm fs.FileMode) error
	// Create opens path for writing, truncating any existing content.
	Create(path string, perm fs.FileMode) (File, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string, perm fs.FileMode) (File, error)
	// ReadFile returns the whole content of path. A missing file yields an
	// error satisfying errors.Is(err, fs.ErrNotExist).
	ReadFile(path string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path. A missing file yields fs.ErrNotExist.
	Remove(path string) error
}

// File is a writable file handle from a VFS. Writes are sequential
// (append-order); the engine never seeks.
type File interface {
	io.Writer
	// Sync forces written data to stable storage. Data not yet synced may
	// be lost by a crash.
	Sync() error
	// Truncate discards file content beyond size (crash-recovery path:
	// dropping a torn tail before appending fresh records).
	Truncate(size int64) error
	// Size returns the current file size.
	Size() (int64, error)
	Close() error
}

// WriteFile creates path holding what write produces and forces it to
// stable storage: unlink any leftover, Create, write, Sync, Close. The
// unlink is the crash-litter fix: a read-only (0444) file orphaned by a
// crash under a reused name would make Create fail with EACCES for
// non-root users, wedging exactly the recovery paths that overwrite
// orphans.
func WriteFile(fsys VFS, path string, perm fs.FileMode, write func(io.Writer) error) error {
	if err := fsys.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f, err := fsys.Create(path, perm)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReplaceFile atomically replaces path: WriteFile to path+".tmp", then
// Rename over path. A crash at any point leaves either the old content or
// the new, never a torn file.
func ReplaceFile(fsys VFS, path string, perm fs.FileMode, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	if err := WriteFile(fsys, tmp, perm, write); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// WriteBytes adapts an in-memory file image to WriteFile and ReplaceFile.
func WriteBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// OSFS is the production VFS, backed by the real filesystem.
var OSFS VFS = osFS{}

type osFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Create(path string, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) OpenAppend(path string, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// Open streams a file for reading. Not part of VFS — consumers that can
// stream (internal/archive) discover it by type assertion.
func (osFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }
