// Package ec implements Swift's erasure coding: systematic Reed–Solomon
// codes over GF(2^8) with m data and k parity units per stripe row. The
// k=1 member of the family is the paper's computed copy — "resiliency in
// the presence of a single failure (per group)" — and larger k tolerates
// any k simultaneous failures, which is what production-scale arrays
// standardize on once rebuild windows make double failures routine.
//
// The package is deliberately clock-free and allocation-light: all hot
// kernels operate on caller-provided byte slices using precomputed
// lookup tables, and the only synchronization is a read-mostly cache of
// decode matrices.
package ec

import "encoding/binary"

// GF(2^8) arithmetic with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), the conventional choice for storage Reed–Solomon codes.
//
// Two table families are precomputed at init:
//
//   - gfExp/gfLog: exponential and logarithm tables for scalar mul/div
//     and matrix algebra (code construction, inversion).
//   - gfMul: full 256×256 product table. The word-wide slice kernels
//     fix a coefficient c and read only its 256-byte row gfMul[c], which
//     stays in L1 for the length of a shard.
//
// initKernel then derives whatever the platform's vector kernel needs
// from gfMul (gf_amd64.go; nothing in gf_generic.go).

const gfPoly = 0x11d

var (
	gfExp [512]byte // gfExp[i] = α^i, doubled so mul can skip a mod
	gfLog [256]byte // gfLog[α^i] = i; gfLog[0] unused

	gfMul [256][256]byte // gfMul[a][b] = a·b
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		la := int(gfLog[a])
		for b := 1; b < 256; b++ {
			gfMul[a][b] = gfExp[la+int(gfLog[b])]
		}
	}
	initKernel()
}

// gfMulByte returns the GF(2^8) product a·b.
func gfMulByte(a, b byte) byte { return gfMul[a][b] }

// gfDiv returns a/b. Division by zero panics: the code construction
// guarantees every divisor is a nonzero Cauchy element, so a zero here
// is a programming error, not an input condition.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("ec: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte { return gfDiv(1, a) }

// The slice kernels operate over the overlapping prefix of in and out —
// a short tail shard contributes only the bytes it has. The vector
// kernel (mulVec, mulAddVec) takes the longest 32-byte-multiple prefix
// it can; the word-wide loops below take the rest, or everything where
// there is no vector kernel: one 64-bit load of in, eight lookups in the
// coefficient's product row assembled into a word, one
// load-xor-store of out, and a scalar loop over the last len%8 bytes.

// mul4 returns the four byte-wise products of v under the product row
// t. (Two halves rather than one eight-byte helper: this one inlines.)
func mul4(t *[256]byte, v uint32) uint32 {
	return uint32(t[byte(v)]) | uint32(t[byte(v>>8)])<<8 |
		uint32(t[byte(v>>16)])<<16 | uint32(t[v>>24])<<24
}

// mulSlice sets out = c·in element-wise over the overlapping prefix.
// c==0 zeroes it; c==1 copies.
//
//swift:hotpath
func mulSlice(c byte, in, out []byte) {
	n := min(len(in), len(out))
	in, out = in[:n], out[:n]
	switch c {
	case 0:
		clearSlice(out)
		return
	case 1:
		copy(out, in)
		return
	}
	v := mulVec(c, in, out)
	mulWords(&gfMul[c], in[v:], out[v:])
}

// mulAddSlice xors c·in into out element-wise over the overlapping
// prefix. c==0 is a no-op; c==1 degenerates to plain XOR, which is the
// whole k=1 parity path.
//
//swift:hotpath
func mulAddSlice(c byte, in, out []byte) {
	n := min(len(in), len(out))
	in, out = in[:n], out[:n]
	if c == 0 {
		return
	}
	v := mulAddVec(c, in, out)
	if c == 1 {
		xorWords(in[v:], out[v:])
		return
	}
	mulAddWords(&gfMul[c], in[v:], out[v:])
}

// mulWords sets out = t[in] byte-wise, where t is a coefficient's
// product row; in and out have equal lengths.
func mulWords(t *[256]byte, in, out []byte) {
	n := len(in)
	out = out[:n]
	words := n &^ 7
	for i := 0; i < words; i += 8 {
		v := binary.LittleEndian.Uint64(in[i : i+8 : i+8])
		w := uint64(mul4(t, uint32(v))) | uint64(mul4(t, uint32(v>>32)))<<32
		binary.LittleEndian.PutUint64(out[i:i+8:i+8], w)
	}
	for i := words; i < n; i++ {
		out[i] = t[in[i]]
	}
}

// mulAddWords xors t[in] into out byte-wise; in and out have equal
// lengths.
func mulAddWords(t *[256]byte, in, out []byte) {
	n := len(in)
	out = out[:n]
	words := n &^ 7
	for i := 0; i < words; i += 8 {
		v := binary.LittleEndian.Uint64(in[i : i+8 : i+8])
		w := uint64(mul4(t, uint32(v))) | uint64(mul4(t, uint32(v>>32)))<<32
		o := out[i : i+8 : i+8]
		binary.LittleEndian.PutUint64(o, binary.LittleEndian.Uint64(o)^w)
	}
	for i := words; i < n; i++ {
		out[i] ^= t[in[i]]
	}
}

// xorWords xors in into out; in and out have equal lengths.
func xorWords(in, out []byte) {
	n := len(in)
	out = out[:n]
	words := n &^ 7
	for i := 0; i < words; i += 8 {
		o := out[i : i+8 : i+8]
		binary.LittleEndian.PutUint64(o, binary.LittleEndian.Uint64(o)^binary.LittleEndian.Uint64(in[i:i+8:i+8]))
	}
	for i := words; i < n; i++ {
		out[i] ^= in[i]
	}
}

// clearSlice zeroes b (the compiler recognizes this loop as memclr).
func clearSlice(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
