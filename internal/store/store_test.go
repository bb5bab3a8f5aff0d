package store

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"swift/internal/disk"
)

// storeFactories returns constructors for every Store implementation so
// the same behavioural suite runs against all of them.
func storeFactories(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMem() },
		"file": func() Store {
			fs, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
		"disk": func() Store {
			dev := disk.NewDevice(disk.ProfileSunSCSI(),
				disk.WithSleeper(func(time.Duration) {}))
			return NewDiskStore(NewMem(), dev)
		},
	}
}

func TestStoreContract(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()

			// Absent objects.
			if _, err := s.Open("missing", false); err != ErrNotExist {
				t.Fatalf("open missing: %v", err)
			}
			if _, err := s.Stat("missing"); err != ErrNotExist {
				t.Fatalf("stat missing: %v", err)
			}
			if err := s.Remove("missing"); err != ErrNotExist {
				t.Fatalf("remove missing: %v", err)
			}

			// Create, write, read back.
			o, err := s.Open("a", true)
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			data := []byte("hello, fragment")
			if _, err := o.WriteAt(data, 100); err != nil {
				t.Fatalf("write: %v", err)
			}
			if sz, _ := o.Size(); sz != 100+int64(len(data)) {
				t.Fatalf("size = %d", sz)
			}
			got := make([]byte, len(data))
			if _, err := o.ReadAt(got, 100); err != nil && err != io.EOF {
				t.Fatalf("read: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read mismatch")
			}

			// The hole reads as zeros.
			hole := make([]byte, 100)
			if _, err := o.ReadAt(hole, 0); err != nil {
				t.Fatalf("read hole: %v", err)
			}
			for i, b := range hole {
				if b != 0 {
					t.Fatalf("hole[%d] = %#x", i, b)
				}
			}

			// Reads past EOF return short counts with EOF.
			n, err := o.ReadAt(make([]byte, 50), 100+int64(len(data))-10)
			if n != 10 || err != io.EOF {
				t.Fatalf("eof read = %d, %v", n, err)
			}

			// Truncate shrinks and grows.
			if err := o.Truncate(50); err != nil {
				t.Fatalf("truncate: %v", err)
			}
			if sz, _ := o.Size(); sz != 50 {
				t.Fatalf("size after shrink = %d", sz)
			}
			if err := o.Truncate(200); err != nil {
				t.Fatalf("grow: %v", err)
			}
			if sz, _ := o.Size(); sz != 200 {
				t.Fatalf("size after grow = %d", sz)
			}
			if err := o.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
			if err := o.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			// Stat and List see it; Remove deletes it.
			if sz, err := s.Stat("a"); err != nil || sz != 200 {
				t.Fatalf("stat = %d, %v", sz, err)
			}
			names, err := s.List()
			if err != nil || len(names) != 1 || names[0] != "a" {
				t.Fatalf("list = %v, %v", names, err)
			}
			if err := s.Remove("a"); err != nil {
				t.Fatalf("remove: %v", err)
			}
			if _, err := s.Stat("a"); err != ErrNotExist {
				t.Fatalf("stat after remove: %v", err)
			}
		})
	}
}

func TestFileStoreNameFlattening(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o, err := fs.Open("videos/clip.mpg", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	o.WriteAt([]byte("x"), 0)
	o.Close()
	if sz, err := fs.Stat("videos/clip.mpg"); err != nil || sz != 1 {
		t.Fatalf("stat = %d, %v", sz, err)
	}
}

func TestDiskStoreChargesTime(t *testing.T) {
	var mu sync.Mutex
	var total time.Duration
	dev := disk.NewDevice(disk.ProfileSunSCSI(), disk.WithSleeper(func(d time.Duration) {
		mu.Lock()
		total += d
		mu.Unlock()
	}))
	ds := NewDiskStore(NewMem(), dev)
	ds.SyncWrites = true
	o, _ := ds.Open("a", true)
	o.WriteAt(make([]byte, 8192), 0)
	if total < 10*time.Millisecond {
		t.Fatalf("sync write charged only %v", total)
	}
	before := total
	o.ReadAt(make([]byte, 8192), 0)
	if total <= before {
		t.Fatal("read charged nothing")
	}
}

// TestMemQuickAgainstBuffer cross-checks memObject against a plain slice
// model under random WriteAt/ReadAt/Truncate.
func TestMemQuickAgainstBuffer(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewMem()
		o, _ := s.Open("x", true)
		var model []byte
		for i := 0; i < 30; i++ {
			switch rng.Intn(3) {
			case 0: // write
				off := rng.Int63n(2000)
				n := rng.Intn(500)
				b := make([]byte, n)
				rng.Read(b)
				o.WriteAt(b, off)
				if end := off + int64(n); end > int64(len(model)) {
					grown := make([]byte, end)
					copy(grown, model)
					model = grown
				}
				copy(model[off:], b)
			case 1: // truncate
				sz := rng.Int63n(2500)
				o.Truncate(sz)
				if sz <= int64(len(model)) {
					model = model[:sz]
				} else {
					grown := make([]byte, sz)
					copy(grown, model)
					model = grown
				}
			case 2: // read
				if len(model) == 0 {
					continue
				}
				off := rng.Int63n(int64(len(model)))
				n := rng.Intn(500) + 1
				got := make([]byte, n)
				rn, _ := o.ReadAt(got, off)
				want := model[off:]
				if int64(n) < int64(len(want)) {
					want = want[:n]
				}
				if rn != len(want) || !bytes.Equal(got[:rn], want) {
					return false
				}
			}
		}
		sz, _ := o.Size()
		return sz == int64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestFileObjectSizeShared pins that a file object reports its length
// without allocating, and exactly while another open object on the same
// file grows and shrinks it.
func TestFileObjectSizeShared(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, err := fs.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := fs.Open("obj", false)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	grow := func(o Object, size int64) error { _, err := o.WriteAt([]byte{1}, size-1); return err }
	for _, step := range []struct {
		op   func(Object, int64) error
		by   Object
		size int64
	}{{grow, a, 100}, {grow, b, 4096}, {Object.Truncate, a, 7}, {Object.Truncate, b, 0}, {grow, a, 12345}} {
		if err := step.op(step.by, step.size); err != nil {
			t.Fatal(err)
		}
		for _, o := range []Object{a, b} {
			if got, err := o.Size(); err != nil || got != step.size {
				t.Fatalf("size = %d, %v; want %d", got, err, step.size)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { a.Size() }); n != 0 {
		t.Errorf("Size allocated %v times, want 0", n)
	}
}
