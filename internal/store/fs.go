package store

import (
	"os"
	"path/filepath"
)

// FS is the narrow filesystem surface the store writes and recovers
// through. Production uses OSFS; the store tests' fault injectors wrap
// an FS to tear writes, slow I/O, or fail operations transiently, so
// crash-safety and degradation are testable without killing processes.
type FS interface {
	// ReadFile reads the named file into a fresh slice.
	ReadFile(path string) ([]byte, error)
	// WriteAtomic durably replaces path with data: the implementation
	// must guarantee that after a crash the file at path is either the
	// old content or the new content, never a prefix of the new one.
	WriteAtomic(path string, data []byte) error
	ReadDir(dir string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	MkdirAll(dir string, perm os.FileMode) error
	Stat(path string) (os.FileInfo, error)
}

// OSFS is the real filesystem with a crash-safe write discipline.
type OSFS struct{}

// ReadFile reads the named file into a fresh slice.
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// ReadDir lists the named directory.
func (OSFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

// Rename renames oldpath to newpath.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// MkdirAll creates dir and any missing parents.
func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// Stat stats the named file.
func (OSFS) Stat(path string) (os.FileInfo, error) { return os.Stat(path) }

// WriteAtomic writes data via temp file + fsync + rename + directory
// fsync. The fsync before the rename is what makes the rename a
// commit point: without it a crash can leave the rename durable but
// the data blocks not, i.e. a torn file at the final path — exactly
// the shape the boot-time recovery scan quarantines.
func (OSFS) WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Persist the rename itself; best-effort (some filesystems reject
	// directory fsync, and the data is already safe on the common ones).
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
	return nil
}
