package ec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// xorInto is the reference computed copy the k=1 codec must reproduce:
// dst ^= src, byte by byte, over the overlapping prefix.
func xorInto(dst, src []byte) {
	for i := 0; i < len(dst) && i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// ---------------------------------------------------------------------
// GF(2^8) algebra.

func TestGFFieldAxioms(t *testing.T) {
	// Spot-check the multiplication table against slow carry-less
	// polynomial multiplication mod 0x11d.
	slowMul := func(a, b byte) byte {
		var p int
		ai, bi := int(a), int(b)
		for bi > 0 {
			if bi&1 != 0 {
				p ^= ai
			}
			ai <<= 1
			if ai&0x100 != 0 {
				ai ^= gfPoly
			}
			bi >>= 1
		}
		return byte(p)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := gfMulByte(byte(a), byte(b)), slowMul(byte(a), byte(b)); got != want {
				t.Fatalf("gfMul[%d][%d] = %d, want %d", a, b, got, want)
			}
		}
	}
	// Inverses: a * inv(a) == 1 for all nonzero a.
	for a := 1; a < 256; a++ {
		if got := gfMulByte(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
	}
	// Division round-trips multiplication.
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			prod := gfMulByte(byte(a), byte(b))
			if got := gfDiv(prod, byte(b)); got != byte(a) {
				t.Fatalf("(%d*%d)/%d = %d, want %d", a, b, b, got, a)
			}
		}
	}
}

// wordsPath runs the word-wide Go kernels alone — the whole path where
// there is no vector kernel — over the overlapping prefix, as
// mulAddSlice (add) or mulSlice does.
func wordsPath(c byte, in, out []byte, add bool) {
	n := min(len(in), len(out))
	in, out = in[:n], out[:n]
	switch {
	case add && c == 1:
		xorWords(in, out)
	case add:
		mulAddWords(&gfMul[c], in, out)
	default:
		mulWords(&gfMul[c], in, out)
	}
}

// checkMulSlice runs one kernel call both ways — mulSlice or mulAddSlice
// (the vector kernel where the CPU has one) and wordsPath — on in and on
// out's window into outBack, starting from the same old bytes. Both must
// leave outBack byte for byte as the scalar product says: c·in (xored
// into the old bytes when add) over the overlapping prefix, nothing
// changed elsewhere.
func checkMulSlice(t *testing.T, c byte, in, outBack []byte, at, outLen int, add bool) {
	t.Helper()
	n := min(len(in), outLen)
	old := append([]byte(nil), outBack...)
	want := append([]byte(nil), outBack...)
	for i := 0; i < n; i++ {
		p := gfMulByte(c, in[i])
		if add {
			p ^= want[at+i]
		}
		want[at+i] = p
	}
	what := "mulSlice"
	if add {
		what = "mulAddSlice"
	}
	for _, path := range []string{what, "word-wide"} {
		copy(outBack, old)
		out := outBack[at : at+outLen]
		switch {
		case path == "word-wide":
			wordsPath(c, in, out, add)
		case add:
			mulAddSlice(c, in, out)
		default:
			mulSlice(c, in, out)
		}
		if !bytes.Equal(outBack, want) {
			i := 0
			for outBack[i] == want[i] {
				i++
			}
			t.Fatalf("%s (%s path) c=%d len(in)=%d len(out)=%d at=%d: byte %d of the backing array is %d, want %d",
				what, path, c, len(in), outLen, at, i-at, outBack[i], want[i])
		}
	}
}

// TestMulSliceKernels holds the slice kernels — the vector kernel where
// the CPU has one and the word-wide Go loops — to the scalar product for
// every coefficient: every length 0–200 and 64 KiB + 7 (whole vector
// blocks, whole words and scalar tails), input and output starting at
// every offset 0–31 into shared backing arrays, unequal input and output
// lengths, and no byte written outside the overlapping prefix.
func TestMulSliceKernels(t *testing.T) {
	const long = 64<<10 + 7
	rng := rand.New(rand.NewSource(1))
	inBack, outBack := make([]byte, long+64), make([]byte, long+64)
	rng.Read(inBack)
	rng.Read(outBack)
	for c := 0; c < 256; c++ {
		if raceEnabled && c > 2 && c%16 != 15 {
			continue // instrumented, all 256 take ~20× as long; the plain run sweeps them
		}
		for start := 0; start < 32; start++ {
			for n := 0; n <= 200; n++ {
				in := inBack[start : start+n]
				checkMulSlice(t, byte(c), in, outBack[:232], 31-start, n, false)
				checkMulSlice(t, byte(c), in, outBack[:232], 31-start, n, true)
			}
		}
		// The long length runs each coefficient at one offset pair; the
		// sweep over c covers all 32.
		start := c % 32
		for _, add := range []bool{false, true} {
			checkMulSlice(t, byte(c), inBack[start:start+long], outBack, 31-start, long, add)
		}
		// Unequal lengths: only the overlapping prefix is touched.
		for _, ln := range [][2]int{{21, 13}, {13, 21}, {0, 9}, {9, 0}, {100, 67}, {67, 100}, {200, 32}, {long, 45}} {
			for _, add := range []bool{false, true} {
				checkMulSlice(t, byte(c), inBack[1:1+ln[0]], outBack[:ln[1]+64], 3, ln[1], add)
			}
		}
	}
}

// FuzzMulSlice holds both slice kernels on both paths to the scalar
// product for any coefficient, data, lengths and offsets.
func FuzzMulSlice(f *testing.F) {
	f.Add(byte(2), []byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(0), uint8(3), uint16(50))
	f.Add(byte(1), bytes.Repeat([]byte{0xa5, 0x5a, 0xff}, 100), uint8(7), uint8(31), uint16(290))
	f.Add(byte(0x8e), bytes.Repeat([]byte{0x0f, 0xf0}, 64), uint8(31), uint8(0), uint16(16))
	f.Fuzz(func(t *testing.T, c byte, data []byte, inOff, outOff uint8, outLen uint16) {
		in := data[min(int(inOff)%32, len(data)):]
		at, ol := int(outOff)%32, int(outLen)%1024
		outBack := make([]byte, at+ol+32)
		for i := range outBack {
			outBack[i] = byte(i*7 + 3)
		}
		checkMulSlice(t, c, in, outBack, at, ol, false)
		checkMulSlice(t, c, in, outBack, at, ol, true)
	})
}

// ---------------------------------------------------------------------
// Matrix algebra and code construction.

func TestMatrixInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 8; n++ {
		// Random matrices are invertible with high probability; retry
		// on singular until one inverts, then check A·inv(A) = I.
		for tries := 0; ; tries++ {
			m := newMatrix(n, n)
			rng.Read(m.data)
			inv, err := m.invert()
			if err != nil {
				if tries > 50 {
					t.Fatalf("no invertible %d×%d matrix in 50 tries", n, n)
				}
				continue
			}
			prod := m.mul(inv)
			want := identity(n)
			if !bytes.Equal(prod.data, want.data) {
				t.Fatalf("m·inv(m) != I for n=%d", n)
			}
			break
		}
	}
	// Singular matrix is reported, not mis-inverted.
	s := newMatrix(2, 2)
	s.set(0, 0, 3)
	s.set(0, 1, 5)
	s.set(1, 0, 3)
	s.set(1, 1, 5)
	if _, err := s.invert(); err == nil {
		t.Fatal("inverting a singular matrix succeeded")
	}
}

func TestCodingMatrixProperties(t *testing.T) {
	for _, mk := range [][2]int{{2, 1}, {3, 1}, {4, 2}, {8, 2}, {8, 3}, {10, 4}, {16, 4}} {
		m, k := mk[0], mk[1]
		a := codingMatrix(m, k)
		// Row 0 and column 0 must be all ones: this is what makes the
		// first parity unit plain XOR and keeps the k=1 code
		// byte-identical to the paper's XOR computed copy.
		for j := 0; j < m; j++ {
			if a.at(0, j) != 1 {
				t.Fatalf("m=%d k=%d: A[0][%d] = %d, want 1", m, k, j, a.at(0, j))
			}
		}
		for i := 0; i < k; i++ {
			if a.at(i, 0) != 1 {
				t.Fatalf("m=%d k=%d: A[%d][0] = %d, want 1", m, k, i, a.at(i, 0))
			}
			for j := 0; j < m; j++ {
				if a.at(i, j) == 0 {
					t.Fatalf("m=%d k=%d: A[%d][%d] = 0 (Cauchy elements are nonzero)", m, k, i, j)
				}
			}
		}
	}
}

// TestMDSProperty exhaustively verifies that every m-subset of the
// generator rows is invertible for a representative set of schemes —
// i.e. ANY k erasures are recoverable, the defining property of an MDS
// code.
func TestMDSProperty(t *testing.T) {
	for _, mk := range [][2]int{{2, 2}, {4, 2}, {5, 3}, {8, 2}, {6, 4}} {
		m, k := mk[0], mk[1]
		a := codingMatrix(m, k)
		total := m + k
		// Enumerate all subsets of size m of the m+k generator rows.
		var rowsOf func(mask uint32) matrix
		rowsOf = func(mask uint32) matrix {
			sub := newMatrix(m, m)
			r := 0
			for i := 0; i < total; i++ {
				if mask&(1<<uint(i)) == 0 {
					continue
				}
				if i < m {
					sub.set(r, i, 1)
				} else {
					copy(sub.row(r), a.row(i-m))
				}
				r++
			}
			return sub
		}
		for mask := uint32(0); mask < 1<<uint(total); mask++ {
			if popcount(mask) != m {
				continue
			}
			if _, err := rowsOf(mask).invert(); err != nil {
				t.Fatalf("m=%d k=%d: generator rows %#x singular: %v", m, k, mask, err)
			}
		}
	}
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// ---------------------------------------------------------------------
// Codec round trips.

func mkShards(t testing.TB, rng *rand.Rand, m, k, width int) [][]byte {
	t.Helper()
	shards := make([][]byte, m+k)
	for i := 0; i < m; i++ {
		shards[i] = make([]byte, width)
		rng.Read(shards[i])
	}
	for i := m; i < m+k; i++ {
		shards[i] = make([]byte, width)
	}
	return shards
}

func cloneShards(s [][]byte) [][]byte {
	out := make([][]byte, len(s))
	for i, sh := range s {
		if sh != nil {
			out[i] = append([]byte(nil), sh...)
		}
	}
	return out
}

func TestRoundTripAllErasureSets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, mk := range [][2]int{{2, 1}, {4, 1}, {4, 2}, {8, 2}, {5, 3}, {6, 4}} {
		m, k := mk[0], mk[1]
		for _, newc := range []func(int, int) (Codec, error){New} {
			c, err := newc(m, k)
			if err != nil {
				t.Fatal(err)
			}
			shards := mkShards(t, rng, m, k, 512)
			if err := c.Encode(shards); err != nil {
				t.Fatal(err)
			}
			if ok, err := c.Verify(shards); err != nil || !ok {
				t.Fatalf("%s: Verify after Encode: ok=%v err=%v", c, ok, err)
			}
			total := m + k
			// Every erasure set of size <= k must decode byte-identically.
			for mask := uint32(1); mask < 1<<uint(total); mask++ {
				nerased := popcount(mask)
				if nerased > k {
					continue
				}
				work := cloneShards(shards)
				for i := 0; i < total; i++ {
					if mask&(1<<uint(i)) != 0 {
						work[i] = nil
					}
				}
				if err := c.Reconstruct(work); err != nil {
					t.Fatalf("%s: Reconstruct mask %#x: %v", c, mask, err)
				}
				for i := 0; i < total; i++ {
					if !bytes.Equal(work[i], shards[i]) {
						t.Fatalf("%s: shard %d differs after reconstructing mask %#x", c, i, mask)
					}
				}
			}
			// One erasure beyond the correction power must be refused.
			work := cloneShards(shards)
			for i := 0; i <= k; i++ {
				work[i] = nil
			}
			if err := c.Reconstruct(work); err == nil && k+1 <= total-m {
				t.Fatalf("%s: reconstructing %d erasures succeeded, want error", c, k+1)
			}
		}
	}
}

func TestShortTailShards(t *testing.T) {
	// Data units at the end of a file can be shorter than the striping
	// unit; they are treated as zero-padded. Encoding with a short
	// shard must match encoding its zero-padded twin.
	rng := rand.New(rand.NewSource(4))
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := mkShards(t, rng, 4, 2, 256)
	for i := 100; i < 256; i++ {
		full[3][i] = 0 // zero tail in the padded version
	}
	if err := c.Encode(full); err != nil {
		t.Fatal(err)
	}
	short := cloneShards(full)
	short[3] = short[3][:100]
	short[4] = make([]byte, 256)
	short[5] = make([]byte, 256)
	if err := c.Encode(short); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(short[4], full[4]) || !bytes.Equal(short[5], full[5]) {
		t.Fatal("short-shard parity differs from zero-padded parity")
	}
	if ok, _ := c.Verify(short); !ok {
		t.Fatal("Verify rejects short tail shard")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, mk := range [][2]int{{4, 1}, {8, 2}} {
		c, err := New(mk[0], mk[1])
		if err != nil {
			t.Fatal(err)
		}
		shards := mkShards(t, rng, mk[0], mk[1], 128)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		shards[1][7] ^= 0x40
		if ok, err := c.Verify(shards); err != nil || ok {
			t.Fatalf("%s: Verify accepted a corrupt shard (ok=%v err=%v)", c, ok, err)
		}
	}
}

// TestReconstructIntoWanted: only the shards out names are rebuilt — data
// or parity alike, into the caller's memory — and, the code being
// byte-wise, any same byte range of the present shards rebuilds that
// range of the missing ones.
func TestReconstructIntoWanted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	shards := mkShards(t, rng, 4, 3, 300)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	const a, b = 37, 250
	in := make([][]byte, 7)
	for _, i := range []int{0, 3, 4, 6} { // shards 1, 2, 5 are gone
		in[i] = shards[i][a:b]
	}
	out := make([][]byte, 7)
	back := bytes.Repeat([]byte{0xa5}, 2*(b-a)+2)
	out[2], out[5] = back[:b-a], back[b-a+1:2*(b-a)+1]
	if err := c.ReconstructInto(in, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[2], shards[2][a:b]) || !bytes.Equal(out[5], shards[5][a:b]) {
		t.Fatal("byte range of the wanted shards differs from the encoded row")
	}
	if back[b-a] != 0xa5 || back[len(back)-1] != 0xa5 {
		t.Fatal("ReconstructInto wrote outside the wanted shards")
	}
	if in[1] != nil || out[1] != nil {
		t.Fatal("a missing shard nobody asked for was rebuilt")
	}
	d := c.Stats().Sub(before)
	if d.ReconstructCalls != 1 || d.ReconstructBytes != 2*(b-a) || d.ByMissing[2] != 1 {
		t.Fatalf("stats delta %+v, want 1 call, %d bytes, byMissing[2]=1", d, 2*(b-a))
	}
	// Nothing wanted: no work, no count, even below m present shards.
	if err := c.ReconstructInto(make([][]byte, 7), make([][]byte, 7)); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ReconstructCalls; got != before.ReconstructCalls+1 {
		t.Fatalf("an empty request counted as a reconstruction (%d calls)", got-before.ReconstructCalls)
	}
	out[2] = nil
	if err := c.ReconstructInto(make([][]byte, 7), out); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("no present shards: err = %v, want ErrTooFewShards", err)
	}
	if err := c.ReconstructInto(in, out[:6]); !errors.Is(err, ErrShardCount) {
		t.Fatalf("short out: err = %v, want ErrShardCount", err)
	}
}

// TestWideSchemeRoundTrip: every scheme New accepts decodes erasures at
// any shard index — the decode-matrix cache key holds all 256.
func TestWideSchemeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		m, k   int
		erased []int
	}{
		{40, 2, []int{35}},
		{40, 2, []int{33, 41}},
		{252, 4, []int{32, 64, 200, 255}},
		{128, 128, []int{0, 31, 32, 63, 64, 127, 128, 255}},
	} {
		c, err := New(tc.m, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		shards := mkShards(t, rng, tc.m, tc.k, 41)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		work := cloneShards(shards)
		for _, i := range tc.erased {
			work[i] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatalf("%s erased %v: %v", c, tc.erased, err)
		}
		for i := range work {
			if !bytes.Equal(work[i], shards[i]) {
				t.Fatalf("%s erased %v: shard %d differs", c, tc.erased, i)
			}
		}
	}
}

// TestReconstructNoAllocs: once the failure set's decode matrix is
// cached, rebuilding into caller memory allocates nothing.
func TestReconstructNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, mk := range [][2]int{{3, 2}, {8, 2}} {
		m, k := mk[0], mk[1]
		c, err := New(m, k)
		if err != nil {
			t.Fatal(err)
		}
		shards := mkShards(t, rng, m, k, 4096)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		in := cloneShards(shards)
		out := make([][]byte, m+k)
		in[0], in[1] = nil, nil
		out[0], out[1] = make([]byte, 4096), make([]byte, 4096)
		allocs := testing.AllocsPerRun(20, func() {
			if err := c.ReconstructInto(in, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocs per ReconstructInto on a cache hit, want 0", c, allocs)
		}
		if !bytes.Equal(out[0], shards[0]) || !bytes.Equal(out[1], shards[1]) {
			t.Fatalf("%s: rebuilt shards differ", c)
		}
	}
}

// ---------------------------------------------------------------------
// XOR compatibility: the contract that lets internal/core swap the
// legacy parity path for ec.Codec without rewriting any stored byte.

func TestXORCompat(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, m := range []int{1, 2, 3, 4, 7, 8, 15} {
		data := make([][]byte, m)
		for i := range data {
			data[i] = make([]byte, 333)
			rng.Read(data[i])
		}
		legacy := make([]byte, 333)
		for _, d := range data {
			xorInto(legacy, d)
		}

		c, err := New(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([][]byte, m+1)
		copy(shards, data)
		shards[m] = make([]byte, 333)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(shards[m], legacy) {
			t.Fatalf("m=%d: k=1 parity is not the XOR of the data units", m)
		}
		// Reconstruction of a lost data unit must also match the
		// legacy XOR-of-survivors path.
		lost := rng.Intn(m)
		want := append([]byte(nil), legacy...)
		for i, d := range data {
			if i != lost {
				xorInto(want, d)
			}
		}
		work := cloneShards(shards)
		work[lost] = nil
		if err := c.Reconstruct(work); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(work[lost], want) {
			t.Fatalf("m=%d: k=1 reconstruction differs from the XOR of the survivors", m)
		}
	}
}

// TestParityGolden pins the parity bytes Encode writes for a seeded 3+2
// row and a seeded 8+2 row, so parity already on disk keeps decoding
// whichever kernel computes it (TestXORCompat pins k=1). The 8237-byte
// units and the 5003-byte last data unit run every kernel path: whole
// 32-byte vector blocks, whole words, a scalar tail and zero padding.
func TestParityGolden(t *testing.T) {
	for _, tc := range []struct {
		m, k int
		want string // SHA-256 of the parity units, in order
	}{
		{3, 2, "041ca12c35142f43b114f986b9b6a7c159be51c4cb45b6b14f7ca564c3bd5a2d"},
		{8, 2, "57cae9f49d9fb3fc088ee1189fa2267206c99341ecc85468250618d66d71a05b"},
	} {
		c, err := New(tc.m, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		shards := mkShards(t, rand.New(rand.NewSource(27)), tc.m, tc.k, 8237)
		shards[tc.m-1] = shards[tc.m-1][:5003]
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range shards[tc.m:] {
			h.Write(p)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Fatalf("%s parity digest %s, want %s", c, got, tc.want)
		}
		// The pinned parity rebuilds the first k data units.
		work := cloneShards(shards)
		for i := 0; i < tc.k; i++ {
			work[i] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.k; i++ {
			if !bytes.Equal(work[i], shards[i]) {
				t.Fatalf("%s: data unit %d rebuilt from the pinned parity differs", c, i)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Inversion cache and stats.

func TestInversionCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	shards := mkShards(t, rng, 6, 3, 64)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	erase := func() [][]byte {
		w := cloneShards(shards)
		w[1], w[4] = nil, nil
		return w
	}
	for i := 0; i < 5; i++ {
		if err := c.Reconstruct(erase()); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.InvCacheMisses != 1 || s.InvCacheHits != 4 {
		t.Fatalf("cache stats: misses=%d hits=%d, want 1/4", s.InvCacheMisses, s.InvCacheHits)
	}
	if s.ReconstructCalls != 5 || s.ByMissing[2] != 5 {
		t.Fatalf("reconstruct stats: calls=%d byMissing[2]=%d, want 5/5", s.ReconstructCalls, s.ByMissing[2])
	}
	if s.EncodeCalls != 1 || s.EncodeBytes != 6*64 {
		t.Fatalf("encode stats: calls=%d bytes=%d, want 1/%d", s.EncodeCalls, s.EncodeBytes, 6*64)
	}
	// A different failure set computes a fresh inverse.
	w := cloneShards(shards)
	w[0], w[7] = nil, nil
	if err := c.Reconstruct(w); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().InvCacheMisses; got != 2 {
		t.Fatalf("cache misses after new failure set: %d, want 2", got)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{EncodeCalls: 5, EncodeBytes: 100, ByMissing: []int64{0, 3, 1}}
	b := Stats{EncodeCalls: 2, EncodeBytes: 40, ByMissing: []int64{0, 1, 0}}
	d := a.Sub(b)
	if d.EncodeCalls != 3 || d.EncodeBytes != 60 || d.ByMissing[1] != 2 || d.ByMissing[2] != 1 {
		t.Fatalf("Sub: %+v", d)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("New(0,1) succeeded")
	}
	if _, err := New(4, 0); err == nil {
		t.Fatal("New(4,0) succeeded")
	}
	if _, err := New(250, 10); err == nil {
		t.Fatal("New(250,10) succeeded (m+k > 256)")
	}
	c2, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.String() != "4+2" {
		t.Fatalf("String() = %q, want 4+2", c2.String())
	}
}

// ---------------------------------------------------------------------
// Fuzzing: random scheme, random data, random erasure set of size <= k
// must always decode byte-identically.

func FuzzECRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint16(64), uint32(0x3))
	f.Add(int64(2), uint8(16), uint8(4), uint16(1), uint32(0xf))
	f.Add(int64(3), uint8(1), uint8(1), uint16(4096), uint32(0x1))
	f.Add(int64(4), uint8(8), uint8(3), uint16(512), uint32(0x700))
	f.Add(int64(5), uint8(5), uint8(1), uint16(1028), uint32(0x22))      // odd width: scalar tail
	f.Add(int64(6), uint8(39), uint8(3), uint16(76), uint32(0x80000005)) // m+k = 44: shards 43 and 41 erased
	f.Fuzz(func(t *testing.T, seed int64, mb, kb uint8, widthB uint16, eraseMask uint32) {
		m := int(mb)%48 + 1 // 1..48
		k := int(kb)%4 + 1  // 1..4
		width := int(widthB)%4096 + 1
		c, err := New(m, k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		shards := mkShards(t, rng, m, k, width)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		if ok, err := c.Verify(shards); err != nil || !ok {
			t.Fatalf("Verify after Encode: ok=%v err=%v", ok, err)
		}
		// Trim the erasure mask to at most k set bits within range; its
		// top bit moves the whole set to the row's last shards, past
		// index 32 on wide schemes.
		total := m + k
		work := cloneShards(shards)
		erased := 0
		for i := 0; i < min(total, 31) && erased < k; i++ {
			if eraseMask&(1<<uint(i)) != 0 {
				at := i
				if eraseMask&(1<<31) != 0 {
					at = total - 1 - i
				}
				work[at] = nil
				erased++
			}
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatalf("Reconstruct (m=%d k=%d erased=%d): %v", m, k, erased, err)
		}
		for i := range work {
			if !bytes.Equal(work[i], shards[i]) {
				t.Fatalf("shard %d differs after round trip (m=%d k=%d)", i, m, k)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Throughput gate and benchmarks.

// TestEncodeThroughputGate enforces the acceptance floor: the m=8,k=2
// encode kernel must sustain >= 300 MB/s of data throughput. Best of
// three one-shot runs to ride out scheduler noise on shared CI.
func TestEncodeThroughputGate(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("throughput gate skipped under the race detector")
	}
	const (
		m, k  = 8, 2
		unit  = 64 << 10
		floor = 300.0 // MB/s over data bytes consumed
	)
	c, err := New(m, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	shards := mkShards(t, rng, m, k, unit)
	best := 0.0
	for run := 0; run < 3; run++ {
		res := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(m * unit))
			for i := 0; i < b.N; i++ {
				if err := c.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
		if res.T <= 0 {
			continue
		}
		mbps := float64(res.Bytes) * float64(res.N) / res.T.Seconds() / 1e6
		if mbps > best {
			best = mbps
		}
	}
	t.Logf("encode m=%d k=%d unit=%dKiB: best %.1f MB/s", m, k, unit>>10, best)
	if best < floor {
		t.Fatalf("encode throughput %.1f MB/s below %.0f MB/s floor", best, floor)
	}
}

func benchEncode(b *testing.B, m, k, unit int) {
	c, err := New(m, k)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	shards := mkShards(b, rng, m, k, unit)
	b.SetBytes(int64(m * unit))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReconstruct(b *testing.B, m, k, unit, nlost int) {
	c, err := New(m, k)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	shards := mkShards(b, rng, m, k, unit)
	if err := c.Encode(shards); err != nil {
		b.Fatal(err)
	}
	in := cloneShards(shards)
	out := make([][]byte, len(shards))
	for j := 0; j < nlost; j++ {
		in[j], out[j] = nil, make([]byte, unit)
	}
	b.SetBytes(int64(nlost * unit))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReconstructInto(in, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, cfg := range []struct{ m, k, unit int }{
		{3, 1, 4 << 10}, {3, 1, 64 << 10},
		{3, 2, 64 << 10},
		{8, 2, 4 << 10}, {8, 2, 64 << 10}, {8, 2, 1 << 20},
		{16, 4, 64 << 10},
	} {
		b.Run(fmt.Sprintf("m%d_k%d_%dKiB", cfg.m, cfg.k, cfg.unit>>10), func(b *testing.B) {
			benchEncode(b, cfg.m, cfg.k, cfg.unit)
		})
	}
}

func BenchmarkReconstruct(b *testing.B) {
	for _, cfg := range []struct{ m, k, unit, lost int }{
		{3, 1, 64 << 10, 1},
		{3, 2, 64 << 10, 2},
		{8, 2, 64 << 10, 1}, {8, 2, 64 << 10, 2},
		{16, 4, 64 << 10, 4},
	} {
		b.Run(fmt.Sprintf("m%d_k%d_%dKiB_lost%d", cfg.m, cfg.k, cfg.unit>>10, cfg.lost), func(b *testing.B) {
			benchReconstruct(b, cfg.m, cfg.k, cfg.unit, cfg.lost)
		})
	}
}
