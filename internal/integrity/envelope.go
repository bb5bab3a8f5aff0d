// Package integrity provides the at-rest data-integrity envelope for
// store objects: every fragment is stored as a sequence of fixed-size
// blocks, each prefixed with a small versioned header carrying a CRC32C
// of the block's payload. Writes checksum, reads verify, and any
// mismatch surfaces as a typed *CorruptError instead of being served
// back as data.
//
// The envelope is deliberately simple — the paper's position is that
// striping across many agents must be paired with redundancy "as in
// RAID"; the parity path reconstructs lost fragments, and this package
// supplies the missing detection half: without checksums a bit-flip at
// rest is indistinguishable from correct data and silently defeats the
// redundancy.
//
// # On-store layout
//
// A fragment with logical size L and block size B is stored as
// ceil(L/B) blocks. Block b occupies the physical range
// [b*(HeaderSize+B), ...): a 16-byte header followed by up to B data
// bytes. Every block except the last occupies the full stride; the
// tail block is cut at its valid length, so the physical size maps
// bijectively to the logical size (see PhysicalSize / LogicalSize).
//
// Header layout (big endian):
//
//	magic   uint16  0x5342 "SB"
//	version uint8   1
//	flags   uint8   reserved, 0
//	length  uint32  valid data bytes in this block (<= block size)
//	index   uint32  block index, catches misplaced writes
//	sum     uint32  CRC32C over data[:length]
//
// An all-zero header marks a hole: a block that was never written
// (sparse files arise from seeks past EOF) and reads as zeros. Holes
// cost nothing to create — the underlying store zero-fills gaps — and
// any non-zero byte under a hole header is corruption by definition.
package integrity

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

const (
	// BlockMagic marks every written block header ("SB").
	BlockMagic = 0x5342
	// Version is the envelope version written by this package.
	Version = 1
	// HeaderSize is the encoded size of a BlockHeader.
	HeaderSize = 16
	// DefaultBlockSize is the checksum granularity when none is given.
	DefaultBlockSize = 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C (Castagnoli) checksum the envelope uses.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// BlockHeader is the decoded per-block header.
type BlockHeader struct {
	Version uint8
	Flags   uint8
	Length  uint32 // valid data bytes in the block
	Index   uint32 // block index within the fragment
	Sum     uint32 // CRC32C over data[:Length]
}

// MarshalHeader encodes h into a fresh HeaderSize-byte slice.
func MarshalHeader(h BlockHeader) []byte {
	b := make([]byte, HeaderSize)
	putHeader(b, h)
	return b
}

// putHeader encodes h over b[:HeaderSize].
//
//swift:hotpath
func putHeader(b []byte, h BlockHeader) {
	binary.BigEndian.PutUint16(b[0:2], BlockMagic)
	b[2] = h.Version
	b[3] = h.Flags
	binary.BigEndian.PutUint32(b[4:8], h.Length)
	binary.BigEndian.PutUint32(b[8:12], h.Index)
	binary.BigEndian.PutUint32(b[12:16], h.Sum)
}

// UnmarshalHeader decodes a block header. hole reports an all-zero
// header, which marks a never-written (sparse) block that reads as
// zeros. The decoder is fuzz-safe: arbitrary input never panics.
func UnmarshalHeader(b []byte) (h BlockHeader, hole bool, err error) {
	if len(b) < HeaderSize {
		return h, false, fmt.Errorf("integrity: short header: %d bytes", len(b))
	}
	h, hole, f := parseHeader(b)
	if f.kind != faultNone {
		return BlockHeader{}, false, errors.New(f.detail())
	}
	return h, hole, nil
}

// parseHeader decodes the header at b[:HeaderSize], reporting a header
// it cannot accept as a fault rather than an error so that the
// verification path builds no message unless one is asked for.
//
//swift:hotpath
func parseHeader(b []byte) (h BlockHeader, hole bool, f fault) {
	b = b[:HeaderSize]
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return h, true, f
	}
	if m := binary.BigEndian.Uint16(b[0:2]); m != BlockMagic {
		return h, false, fault{kind: faultMagic, a: int64(m)}
	}
	if b[2] != Version {
		return h, false, fault{kind: faultVersion, a: int64(b[2])}
	}
	h.Version = b[2]
	h.Flags = b[3]
	h.Length = binary.BigEndian.Uint32(b[4:8])
	h.Index = binary.BigEndian.Uint32(b[8:12])
	h.Sum = binary.BigEndian.Uint32(b[12:16])
	return h, false, f
}

// fault is one block's verification failure as plain numbers: what was
// wrong, in which block, and the two values the message quotes. The
// zero fault means the block verified.
type fault struct {
	kind  faultKind
	block int64
	a, b  int64
}

type faultKind uint8

const (
	faultNone faultKind = iota
	faultShortHeader
	faultMagic
	faultVersion
	faultHoleData
	faultLengthBlock
	faultLengthStored
	faultIndex
	faultSum
	faultTail
)

// detail renders the fault as the Detail of a CorruptError.
func (f fault) detail() string {
	switch f.kind {
	case faultShortHeader:
		return "truncated block header"
	case faultMagic:
		return fmt.Sprintf("integrity: bad block magic %#04x", f.a)
	case faultVersion:
		return fmt.Sprintf("integrity: unsupported block version %d", f.a)
	case faultHoleData:
		return "data under hole header"
	case faultLengthBlock:
		return fmt.Sprintf("block length %d exceeds block size %d", f.a, f.b)
	case faultLengthStored:
		return fmt.Sprintf("block length %d beyond stored bytes %d", f.a, f.b)
	case faultIndex:
		return fmt.Sprintf("block index %d, want %d", f.a, f.b)
	case faultSum:
		return fmt.Sprintf("checksum mismatch: stored %#08x, computed %#08x", f.a, f.b)
	case faultTail:
		return fmt.Sprintf("tail block length %d, want %d", f.a, f.b)
	}
	return "verified"
}

// PhysicalSize returns the on-store (envelope) size of a fragment whose
// logical size is n, for the given block size.
func PhysicalSize(n, blockSize int64) int64 {
	if n <= 0 {
		return 0
	}
	stride := HeaderSize + blockSize
	nb := (n + blockSize - 1) / blockSize
	tail := n - (nb-1)*blockSize
	return (nb-1)*stride + HeaderSize + tail
}

// LogicalSize inverts PhysicalSize: the logical fragment size implied
// by an on-store size. A physical size that cuts a header short (which
// only external damage can produce) is clamped down to the last whole
// block.
func LogicalSize(phys, blockSize int64) int64 {
	if phys <= 0 {
		return 0
	}
	stride := HeaderSize + blockSize
	full := phys / stride
	rem := phys % stride
	if rem <= HeaderSize {
		// rem == 0: the tail block exactly fills its stride.
		// 0 < rem <= HeaderSize: a truncated trailing header;
		// clamp to the blocks that are whole.
		return full * blockSize
	}
	return full*blockSize + (rem - HeaderSize)
}

// ErrCorrupt is the sentinel all corruption errors match with
// errors.Is.
var ErrCorrupt = errors.New("integrity: corrupt data")

// corruptMarker is the canonical prefix of a CorruptError message. It
// survives the trip through the wire protocol's string-carrying TError
// payload, so clients can recover the typed error with ParseCorrupt.
const corruptMarker = "integrity: corrupt range ["

// CorruptError reports a verification failure over a logical byte range
// of one fragment. Offset/Length are fragment-local logical
// coordinates, rounded out to the enclosing envelope blocks.
type CorruptError struct {
	Offset int64
	Length int64
	Detail string
}

// Error renders the canonical, machine-recoverable form (see
// ParseCorrupt).
func (e *CorruptError) Error() string {
	return fmt.Sprintf("%s%d,+%d): %s", corruptMarker, e.Offset, e.Length, e.Detail)
}

// Is makes errors.Is(err, ErrCorrupt) true for CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// IsCorrupt reports whether err indicates at-rest corruption — either
// directly (a *CorruptError anywhere in the chain) or as a remote error
// string forwarded by a storage agent over the wire.
func IsCorrupt(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrCorrupt) {
		return true
	}
	_, ok := ParseCorrupt(err.Error())
	return ok
}

// ParseCorrupt recovers a CorruptError embedded in an error message
// (typically a wire.RemoteError carrying an agent-side corruption
// report). It returns false when msg does not contain the canonical
// corrupt-range form.
func ParseCorrupt(msg string) (*CorruptError, bool) {
	i := strings.Index(msg, corruptMarker)
	if i < 0 {
		return nil, false
	}
	rest := msg[i+len(corruptMarker):]
	j := strings.IndexByte(rest, ',')
	if j < 0 {
		return nil, false
	}
	off, err := strconv.ParseInt(rest[:j], 10, 64)
	if err != nil || off < 0 {
		return nil, false
	}
	rest = rest[j+1:]
	if !strings.HasPrefix(rest, "+") {
		return nil, false
	}
	rest = rest[1:]
	k := strings.IndexByte(rest, ')')
	if k < 0 {
		return nil, false
	}
	n, err := strconv.ParseInt(rest[:k], 10, 64)
	if err != nil || n < 0 {
		return nil, false
	}
	detail := strings.TrimPrefix(rest[k+1:], ":")
	detail = strings.TrimPrefix(detail, " ")
	return &CorruptError{Offset: off, Length: n, Detail: detail}, true //lint:allow hotalloc corruption reports are the cold path
}
