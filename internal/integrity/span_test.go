package integrity

import (
	"bytes"
	"math/rand"
	"testing"

	"swift/internal/store"
)

// countingObject counts the data calls the envelope makes on its inner
// object.
type countingObject struct {
	store.Object
	reads, writes int
}

func (o *countingObject) ReadAt(p []byte, off int64) (int, error) {
	o.reads++
	return o.Object.ReadAt(p, off)
}

func (o *countingObject) WriteAt(p []byte, off int64) (int, error) {
	o.writes++
	return o.Object.WriteAt(p, off)
}

// calls returns the reads and writes since the last call.
func (o *countingObject) calls() (reads, writes int) {
	reads, writes = o.reads, o.writes
	o.reads, o.writes = 0, 0
	return reads, writes
}

// TestEnvelopeSpanIO pins the envelope's cost per call, in inner store
// calls and allocations rather than time: a block-aligned 64 KiB read or
// write is one inner call and allocates nothing once the span pool is
// warm; an unaligned write adds at most one merge read per partly
// covered edge block, and an unaligned read none.
func TestEnvelopeSpanIO(t *testing.T) {
	const bs = DefaultBlockSize
	const unit = 64 << 10
	raw, err := store.NewMem().Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingObject{Object: raw}
	o := NewObject(inner, bs)
	image := make([]byte, 4*unit)
	rand.New(rand.NewSource(11)).Read(image)
	if _, err := o.WriteAt(image, 0); err != nil {
		t.Fatal(err)
	}
	inner.calls()

	buf := make([]byte, unit)
	check := func(what string, wantReads, wantWrites int) {
		t.Helper()
		if r, w := inner.calls(); r > wantReads || w != wantWrites {
			t.Errorf("%s: %d inner reads and %d writes, want at most %d and exactly %d", what, r, w, wantReads, wantWrites)
		}
		got := make([]byte, len(image))
		if _, err := o.ReadAt(got, 0); err != nil {
			t.Fatalf("%s: read back: %v", what, err)
		}
		if !bytes.Equal(got, image) {
			t.Fatalf("%s: object no longer matches its image", what)
		}
		inner.calls()
	}

	// Aligned: exactly one inner call each way.
	if _, err := o.ReadAt(buf, unit); err != nil {
		t.Fatal(err)
	}
	if r, w := inner.calls(); r != 1 || w != 0 {
		t.Errorf("aligned 64 KiB read: %d inner reads and %d writes, want 1 and 0", r, w)
	}
	if !bytes.Equal(buf, image[unit:2*unit]) {
		t.Fatal("aligned read returned the wrong bytes")
	}
	rand.New(rand.NewSource(12)).Read(buf)
	copy(image[2*unit:], buf)
	if _, err := o.WriteAt(buf, 2*unit); err != nil {
		t.Fatal(err)
	}
	check("aligned 64 KiB write", 0, 1)

	// Unaligned: the read is still one call; the write reads its two
	// edge blocks to merge them and then writes once.
	const skew = 1000
	if _, err := o.ReadAt(buf, unit+skew); err != nil {
		t.Fatal(err)
	}
	if r, w := inner.calls(); r != 1 || w != 0 {
		t.Errorf("unaligned 64 KiB read: %d inner reads and %d writes, want 1 and 0", r, w)
	}
	if !bytes.Equal(buf, image[unit+skew:2*unit+skew]) {
		t.Fatal("unaligned read returned the wrong bytes")
	}
	rand.New(rand.NewSource(13)).Read(buf)
	copy(image[unit+skew:], buf)
	if _, err := o.WriteAt(buf, unit+skew); err != nil {
		t.Fatal(err)
	}
	check("unaligned 64 KiB write", 2, 1)

	// A write that starts on a block boundary merges only the block it
	// ends in, and not even that one when it replaces every valid byte
	// the block holds — the tail block here, extended twice.
	if _, err := o.WriteAt(buf[:bs+skew], 0); err != nil {
		t.Fatal(err)
	}
	copy(image, buf[:bs+skew])
	check("write ending mid-block", 1, 1)
	for _, n := range []int{skew, 2 * skew} {
		if _, err := o.WriteAt(buf[:n], 4*unit); err != nil {
			t.Fatal(err)
		}
		image = append(image[:4*unit], buf[:n]...)
		check("write covering the tail block", 0, 1)
	}

	// Steady state allocates nothing: the span comes from the pool and
	// every block is verified or sealed in place.
	if raceEnabled {
		t.Log("allocation bounds skipped under the race detector")
		return
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := o.ReadAt(buf, unit); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("aligned 64 KiB read allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := o.WriteAt(buf, 2*unit); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("aligned 64 KiB write allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := o.WriteAt(buf, unit+skew); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("unaligned 64 KiB write (the merge path) allocates %v times per call, want 0", n)
	}
}
