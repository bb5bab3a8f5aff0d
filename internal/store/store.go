// Package store provides the object stores backing a storage agent. The
// prototype "used file system facilities to name and store objects"; this
// package offers the same contract over three backings: process memory
// (tests, examples), the host file system (deployment), and a modeled disk
// wrapped around either (measured experiments).
package store

import (
	"errors"
	"io"
	"sort"
	"sync"
)

// ErrNotExist is returned for operations on absent objects.
var ErrNotExist = errors.New("store: object does not exist")

// Store names and opens object fragments on one storage agent.
type Store interface {
	// Open opens the named object, creating it when create is set.
	Open(name string, create bool) (Object, error)
	// Stat returns the object's size, or ErrNotExist.
	Stat(name string) (int64, error)
	// Remove deletes the object.
	Remove(name string) error
	// List returns the names of all objects, sorted.
	List() ([]string, error)
}

// Object is one open object fragment. Implementations must support
// concurrent calls (the agent serves each open file from its own handler
// but multiple handlers may share an object).
type Object interface {
	io.ReaderAt
	io.WriterAt
	Size() (int64, error)
	Truncate(size int64) error
	// Sync flushes buffered data to stable storage.
	Sync() error
	Close() error
}

// Mem is an in-memory Store. The zero value is ready to use.
type Mem struct {
	mu   sync.Mutex
	objs map[string]*memObject
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{objs: make(map[string]*memObject)} }

// Open implements Store.
func (m *Mem) Open(name string, create bool) (Object, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.objs == nil {
		m.objs = make(map[string]*memObject)
	}
	o := m.objs[name]
	if o == nil {
		if !create {
			return nil, ErrNotExist
		}
		o = &memObject{}
		m.objs[name] = o
	}
	return o, nil
}

// Stat implements Store.
func (m *Mem) Stat(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := m.objs[name]
	if o == nil {
		return 0, ErrNotExist
	}
	return o.Size()
}

// Remove implements Store.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objs[name]; !ok {
		return ErrNotExist
	}
	delete(m.objs, name)
	return nil
}

// List implements Store.
func (m *Mem) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.objs))
	for n := range m.objs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

type memObject struct {
	mu   sync.RWMutex
	data []byte
}

func (o *memObject) ReadAt(p []byte, off int64) (int, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if off < 0 {
		return 0, errors.New("store: negative offset")
	}
	if off >= int64(len(o.data)) {
		return 0, io.EOF
	}
	n := copy(p, o.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (o *memObject) WriteAt(p []byte, off int64) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if off < 0 {
		return 0, errors.New("store: negative offset")
	}
	end := off + int64(len(p))
	if end > int64(len(o.data)) {
		o.grow(end)
	}
	copy(o.data[off:end], p)
	return len(p), nil
}

// grow extends the object to size bytes, doubling capacity so sequential
// appends stay amortized O(1) per byte (a fresh fragment is appended to
// thousands of times during a striped write).
func (o *memObject) grow(size int64) {
	if size <= int64(cap(o.data)) {
		n := len(o.data)
		o.data = o.data[:size]
		// The reslice exposes old bytes only up to the previous
		// length; clear anything between len and the new size that
		// may hold stale truncated data.
		clear(o.data[n:])
		return
	}
	newCap := 2 * cap(o.data)
	if int64(newCap) < size {
		newCap = int(size)
	}
	grown := make([]byte, size, newCap)
	copy(grown, o.data)
	o.data = grown
}

func (o *memObject) Size() (int64, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return int64(len(o.data)), nil
}

func (o *memObject) Truncate(size int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case size < 0:
		return errors.New("store: negative size")
	case size <= int64(len(o.data)):
		o.data = o.data[:size]
	default:
		o.grow(size)
	}
	return nil
}

func (o *memObject) Sync() error  { return nil }
func (o *memObject) Close() error { return nil }
