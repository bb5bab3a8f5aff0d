package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FileStore keeps each object fragment as a file under a directory, the
// way the prototype's storage agents used "the standard Unix file system".
// Object names are flattened: path separators become "__".
type FileStore struct {
	dir string
}

// NewFileStore creates (if needed) and opens a directory-backed store.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the backing directory.
func (f *FileStore) Dir() string { return f.dir }

func (f *FileStore) path(name string) string {
	flat := strings.ReplaceAll(name, string(os.PathSeparator), "__")
	flat = strings.ReplaceAll(flat, "/", "__")
	return filepath.Join(f.dir, flat)
}

// Open implements Store.
func (f *FileStore) Open(name string, create bool) (Object, error) {
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
	}
	fd, err := os.OpenFile(f.path(name), flags, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotExist
	}
	if err != nil {
		return nil, err
	}
	return &fileObject{f: fd}, nil
}

// Stat implements Store.
func (f *FileStore) Stat(name string) (int64, error) {
	fi, err := os.Stat(f.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, ErrNotExist
	}
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Remove implements Store.
func (f *FileStore) Remove(name string) error {
	err := os.Remove(f.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return ErrNotExist
	}
	return err
}

// List implements Store.
func (f *FileStore) List() ([]string, error) {
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, strings.ReplaceAll(e.Name(), "__", "/"))
		}
	}
	sort.Strings(names)
	return names, nil
}

type fileObject struct {
	f *os.File
}

func (o *fileObject) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o *fileObject) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o *fileObject) Truncate(size int64) error                { return o.f.Truncate(size) }
func (o *fileObject) Sync() error                              { return o.f.Sync() }
func (o *fileObject) Close() error                             { return o.f.Close() }

// Size is the file's length, found by seeking to its end rather than by
// Stat, which allocates a FileInfo on every call: the integrity envelope
// asks for the size on every ReadAt and WriteAt. ReadAt and WriteAt are
// pread and pwrite, so moving the file offset affects none of them, and
// SEEK_END reads the length the inode holds now, whoever wrote it.
func (o *fileObject) Size() (int64, error) { return o.f.Seek(0, io.SeekEnd) }
