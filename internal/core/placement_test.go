package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"swift/internal/stripe"
)

// newLayoutFile builds a detached File good enough to exercise the pure
// placement helpers (placeGlobal, gather) without any network.
func newLayoutFile(l stripe.Layout) *File {
	return &File{c: &Client{cfg: Config{Parity: l.Parity}, layout: l}}
}

// TestGatherPlaceInverse: for random layouts and ranges, gathering
// fragment bytes from a logical buffer and then placing them back
// reconstructs the original bytes — the core invariant connecting the
// write path's packet building to the read path's packet scattering.
func TestGatherPlaceInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := stripe.Layout{
			Unit:   int64(64 + rng.Intn(4000)),
			Agents: 1 + rng.Intn(6),
		}
		if l.Agents >= 3 && rng.Intn(2) == 0 {
			l.Parity = true
		}
		file := newLayoutFile(l)

		base := rng.Int63n(1 << 20)
		n := 1 + rng.Int63n(6*l.Unit)
		src := make([]byte, n)
		rng.Read(src)

		dst := make([]byte, n)
		// For each agent extent, gather fragment payloads in random
		// packet sizes and place them back.
		for agent, set := range l.LocalExtents(base, n) {
			for _, e := range set.Extents() {
				for off := e.Off; off < e.End(); {
					m := 1 + rng.Int63n(1300)
					if off+m > e.End() {
						m = e.End() - off
					}
					payload := make([]byte, m)
					file.gather(agent, off, payload, src, base, &parityUnits{})
					file.placeGlobal(agent, off, payload, dst, base)
					off += m
				}
			}
		}
		return bytes.Equal(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGatherParityUnits: with parity enabled, gathering a parity unit's
// fragment range sources bytes from the parity buffer, zero-padded.
func TestGatherParityUnits(t *testing.T) {
	l := stripe.Layout{Unit: 100, Agents: 3, Parity: true}
	file := newLayoutFile(l)
	pbuf := make([]byte, 100)
	for i := range pbuf {
		pbuf[i] = byte(i + 1)
	}
	pbufs := &parityUnits{r0: 0, r1: 0, k: 1, unit: 100, buf: pbuf}
	pa := l.ParityAgent(0)

	out := make([]byte, 100)
	file.gather(pa, 0, out, nil, 0, pbufs)
	if !bytes.Equal(out, pbuf) {
		t.Fatal("parity gather mismatch")
	}

	// A row without a computed buffer gathers zeros.
	out2 := make([]byte, 100)
	out2[5] = 0xff
	file.gather(l.ParityAgent(1), l.ParityLocal(1), out2, nil, 0, pbufs)
	for i, b := range out2 {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

// TestPlaceGlobalIgnoresParity: read-path placement must skip fragment
// bytes that belong to parity units (no logical address).
func TestPlaceGlobalIgnoresParity(t *testing.T) {
	l := stripe.Layout{Unit: 100, Agents: 3, Parity: true}
	file := newLayoutFile(l)
	dst := make([]byte, 300)
	payload := bytes.Repeat([]byte{0xAA}, 100)
	pa := l.ParityAgent(0)
	file.placeGlobal(pa, l.ParityLocal(0), payload, dst, 0)
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("parity payload leaked into logical byte %d", i)
		}
	}
}

// TestPlaceGlobalClipsToBuffer: payloads mapping outside the logical
// buffer are clipped, not panicking or corrupting.
func TestPlaceGlobalClipsToBuffer(t *testing.T) {
	l := stripe.Layout{Unit: 100, Agents: 2}
	file := newLayoutFile(l)
	dst := make([]byte, 50)
	payload := bytes.Repeat([]byte{1}, 100)
	// This fragment range maps to logical [200,300) — outside dst.
	file.placeGlobal(0, 100, payload, dst, 0)
	for _, b := range dst {
		if b != 0 {
			t.Fatal("out-of-range placement corrupted buffer")
		}
	}
	// And one straddling the end is clipped.
	file.placeGlobal(0, 0, payload, dst, 0)
	for i := 0; i < 50; i++ {
		if dst[i] != 1 {
			t.Fatalf("in-range byte %d not placed", i)
		}
	}
}

// TestCopyWindow pins gather's window copy against the byte loop it
// replaced: out[i] = src[at+i] where that index exists, zero elsewhere,
// and stale bytes in out never survive.
func TestCopyWindow(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	cases := []struct {
		name string
		src  []byte
		at   int64
		n    int
	}{
		{"inside", src, 2, 4},
		{"whole", src, 0, 8},
		{"window entirely before", src, -10, 4},
		{"window ends where src begins", src, -4, 4},
		{"straddles the start", src, -3, 6},
		{"straddles the end", src, 5, 6},
		{"straddles both ends", src, -2, 12},
		{"starts at the end", src, 8, 3},
		{"past the end", src, 20, 3},
		{"nil source", nil, 0, 5},
		{"nil source, negative", nil, -2, 5},
		{"empty out", src, 3, 0},
	}
	for _, tc := range cases {
		want := make([]byte, tc.n)
		for i := range want {
			if j := tc.at + int64(i); j >= 0 && j < int64(len(tc.src)) {
				want[i] = tc.src[j]
			}
		}
		got := bytes.Repeat([]byte{0xEE}, tc.n)
		copyWindow(got, tc.src, tc.at)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: copyWindow(at=%d, n=%d) = %v, want %v", tc.name, tc.at, tc.n, got, want)
		}
	}
}
