//go:build amd64 && !purego

package ec

// The AVX2 kernel (gf_amd64.s) multiplies 32 bytes per step with two
// VPSHUFB lookups into per-coefficient nibble tables. It runs only when
// the CPU has AVX2 and the OS saves YMM state; otherwise, and on every
// other architecture or under the purego build tag (gf_generic.go), the
// word-wide Go loops in gf.go do all the work.

var (
	// hasAVX2 is set once by initKernel and never changes.
	hasAVX2 bool

	// gfNib[c] is c's split-nibble product table: gfNib[c][x] = c·x and
	// gfNib[c][16+x] = c·(x<<4) for x < 16.
	gfNib [256][32]byte
)

func initKernel() {
	hasAVX2 = cpuHasAVX2()
	for c := range gfNib {
		for x := 0; x < 16; x++ {
			gfNib[c][x] = gfMul[c][x]
			gfNib[c][16+x] = gfMul[c][x<<4]
		}
	}
}

// cpuHasAVX2 reports whether AVX2 instructions are usable.
func cpuHasAVX2() bool

// mulAVX2 sets out = c·in and mulAddAVX2 xors c·in into out, for the
// coefficient whose gfNib row is tbl, over the first len(in)&^31 bytes;
// out must be at least that long.
//
//go:noescape
func mulAVX2(tbl *[32]byte, in, out []byte)

//go:noescape
func mulAddAVX2(tbl *[32]byte, in, out []byte)

// mulVec sets out = c·in over the longest 32-byte-multiple prefix the
// vector kernel can take and returns its length (0 without AVX2). in
// and out have equal lengths.
func mulVec(c byte, in, out []byte) int {
	n := len(in) &^ 31
	if !hasAVX2 || n == 0 {
		return 0
	}
	mulAVX2(&gfNib[c], in[:n], out[:n])
	return n
}

// mulAddVec is mulVec's accumulating twin: out ^= c·in over the prefix
// whose length it returns.
func mulAddVec(c byte, in, out []byte) int {
	n := len(in) &^ 31
	if !hasAVX2 || n == 0 {
		return 0
	}
	mulAddAVX2(&gfNib[c], in[:n], out[:n])
	return n
}
