package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// streamHash hashes (kind, offset, length, stamp) of a fixed pattern of
// ops from every client's generator of a workload.
func streamHash(s *spec, seed int64) uint64 {
	h := fnv.New64a()
	var rec [25]byte
	for client := 0; client < s.clients; client++ {
		g := newGenerator(s, seed, client)
		for i := 0; i < 4000; i++ {
			o := g.next(i/500%2 == 0) // 500 writes, 500 reads, ...
			rec[0] = 0
			if o.write {
				rec[0] = 1
			}
			binary.LittleEndian.PutUint64(rec[1:], uint64(o.off))
			binary.LittleEndian.PutUint64(rec[9:], uint64(o.n))
			binary.LittleEndian.PutUint64(rec[17:], o.stamp)
			h.Write(rec[:])
		}
	}
	return h.Sum64()
}

func TestGeneratorDeterminism(t *testing.T) {
	for i := range workloads {
		s := &workloads[i]
		if a, b := streamHash(s, 7), streamHash(s, 7); a != b {
			t.Errorf("%s: same seed gave op streams %x and %x", s.name, a, b)
		}
		if a, b := streamHash(s, 7), streamHash(s, 8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", s.name)
		}
	}
}

func TestGeneratorOpsStayInsideObject(t *testing.T) {
	for i := range workloads {
		s := &workloads[i]
		g := newGenerator(s, 3, 0)
		seen := map[int64]bool{}
		for i := 0; i < 20000; i++ {
			o := g.next(i%2 == 0)
			if o.off < 0 || o.off+o.n > s.objectBytes || o.off%o.n != 0 || o.n != s.opBytes {
				t.Fatalf("%s: op %+v outside a %d-byte object of %d-byte ops", s.name, o, s.objectBytes, s.opBytes)
			}
			if o.write == (o.stamp == 0) {
				t.Fatalf("%s: op %+v: writes carry a stamp, reads none", s.name, o)
			}
			seen[o.off] = true
		}
		if s.hotBytes == 0 && int64(len(seen)) != s.objectBytes/s.opBytes {
			t.Errorf("%s: sequential stream touched %d of %d offsets", s.name, len(seen), s.objectBytes/s.opBytes)
		}
	}
}

func TestRandomGeneratorHotSetAndCoverage(t *testing.T) {
	s := findWorkload("small-rand")
	g := newGenerator(s, 11, 0)
	blocks := s.objectBytes / stripeUnit
	hotBlocks := s.hotBytes / stripeUnit

	// The permutation is one: every block exactly once.
	count := make([]int, blocks)
	for _, b := range g.perm {
		count[b]++
	}
	for b, c := range count {
		if c != 1 {
			t.Fatalf("block %d appears %d times in the permutation", b, c)
		}
	}
	// ... and it scatters: the hot set is not the object's first blocks.
	moved := 0
	hot := map[int64]bool{}
	for i := int64(0); i < hotBlocks; i++ {
		hot[int64(g.perm[i])] = true
		if int64(g.perm[i]) >= hotBlocks {
			moved++
		}
	}
	if moved < int(hotBlocks)/2 {
		t.Errorf("only %d of %d hot blocks left the head of the object", moved, hotBlocks)
	}

	const n = 200000
	inHot := 0
	touched := make([]bool, blocks)
	for i := 0; i < n; i++ {
		o := g.next(false)
		b := o.off / stripeUnit
		touched[b] = true
		if hot[b] {
			inHot++
		}
	}
	// A hot-set draw always lands in the hot set; a uniform draw lands
	// there by chance.
	want := hotShare + (1-hotShare)*float64(hotBlocks)/float64(blocks)
	if got := float64(inHot) / n; math.Abs(got-want) > 0.01 {
		t.Errorf("hot-set share %.4f, want %.4f ± 0.01", got, want)
	}
	for b, ok := range touched {
		if !ok {
			t.Errorf("block %d never touched in %d ops", b, n)
		}
	}
}

func TestFillDependsOnStampAndPosition(t *testing.T) {
	a, b := make([]byte, 4096), make([]byte, 4096)
	fill(a, 5, 8192)
	fill(b, 5, 8192)
	if !bytes.Equal(a, b) {
		t.Fatal("same stamp and offset gave different payloads")
	}
	fill(b, 6, 8192)
	if bytes.Equal(a, b) {
		t.Fatal("another stamp gave the same payload")
	}
	// The same bytes one word later in the object must differ, or a
	// misplaced payload would verify.
	fill(b, 5, 8200)
	if bytes.Equal(a, b) {
		t.Fatal("another offset gave the same payload")
	}
}

func TestMiniatureKeepsShape(t *testing.T) {
	for i := range workloads {
		s := workloads[i]
		m := s.miniature()
		if m.opBytes != s.opBytes || m.agents != s.agents || m.parity != s.parity || m.udp != s.udp || m.clients != s.clients {
			t.Errorf("%s: miniature changed more than sizes", s.name)
		}
		if m.objectBytes >= s.objectBytes || m.objectBytes%m.opBytes != 0 {
			t.Errorf("%s: miniature object of %d bytes", s.name, m.objectBytes)
		}
	}
}
