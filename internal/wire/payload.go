package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Payload codecs for the control messages whose bodies carry structured
// data. Data packets carry raw bytes and need no codec.

// ErrShortPayload reports a truncated control payload.
var ErrShortPayload = errors.New("wire: short control payload")

// OpenRequest is the body of a TOpen packet (and, name only, of TStat
// and TRemove).
type OpenRequest struct {
	Name string // object name, as stored by the agent
	// MaxPacket is the largest data packet the client's medium carries
	// and Window the data bytes it keeps in flight towards the agent
	// (write window × burst size); together they are the client's half
	// of the datagram-size agreement. Both zero — the encoding of every
	// client before the agreement existed — means the base packet.
	MaxPacket uint32
	Window    uint32
}

// AppendOpenRequest encodes r. The limits trail the name and are left
// out when zero, so a base client's open is byte-identical to the
// original protocol's.
func AppendOpenRequest(dst []byte, r *OpenRequest) []byte {
	dst = appendString(dst, r.Name)
	if r.MaxPacket == 0 && r.Window == 0 {
		return dst
	}
	dst = binary.BigEndian.AppendUint32(dst, r.MaxPacket)
	return binary.BigEndian.AppendUint32(dst, r.Window)
}

// ParseOpenRequest decodes a TOpen payload; an absent (or cut-short)
// limits field decodes as zero.
func ParseOpenRequest(b []byte) (OpenRequest, error) {
	name, rest, err := parseString(b)
	r := OpenRequest{Name: name}
	if err == nil && len(rest) >= 8 {
		r.MaxPacket = binary.BigEndian.Uint32(rest)
		r.Window = binary.BigEndian.Uint32(rest[4:])
	}
	return r, err
}

// OpenReply is the body of a TOpenReply packet.
type OpenReply struct {
	Port string // private port for further traffic on this file
	Size int64  // current fragment size in bytes
	// Packet is the data-packet size the agent agreed to for this
	// session. Zero — every agent before the agreement existed — means
	// the base packet; read it through DataPayload.
	Packet uint32
}

// AppendOpenReply encodes r. The agreed size trails the fragment size
// and is left out when zero.
func AppendOpenReply(dst []byte, r *OpenReply) []byte {
	dst = appendString(dst, r.Port)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Size))
	if r.Packet == 0 {
		return dst
	}
	return binary.BigEndian.AppendUint32(dst, r.Packet)
}

// ParseOpenReply decodes a TOpenReply payload; an absent (or cut-short)
// agreed size decodes as zero.
func ParseOpenReply(b []byte) (OpenReply, error) {
	port, rest, err := parseString(b)
	if err != nil {
		return OpenReply{}, err
	}
	if len(rest) < 8 {
		return OpenReply{}, ErrShortPayload
	}
	r := OpenReply{Port: port, Size: int64(binary.BigEndian.Uint64(rest))}
	if len(rest) >= 12 {
		r.Packet = binary.BigEndian.Uint32(rest[8:])
	}
	return r, nil
}

// StatReply is the body of a TStatReply packet.
type StatReply struct {
	Size   int64
	Exists bool
}

// AppendStatReply encodes r.
func AppendStatReply(dst []byte, r *StatReply) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Size))
	if r.Exists {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// ParseStatReply decodes a TStatReply payload.
func ParseStatReply(b []byte) (StatReply, error) {
	if len(b) < 9 {
		return StatReply{}, ErrShortPayload
	}
	return StatReply{
		Size:   int64(binary.BigEndian.Uint64(b)),
		Exists: b[8] != 0,
	}, nil
}

// Range is a missing byte range carried in a TResend payload.
type Range struct {
	Off int64
	Len int64
}

// MaxResendRanges bounds the ranges in one TResend packet so the packet
// stays within MaxPayload.
const MaxResendRanges = (MaxPayload - 2) / 16

// AppendResend encodes a resend request listing missing ranges. If more
// than MaxResendRanges are supplied, only the first MaxResendRanges are
// encoded; the remainder will be discovered by a later round.
func AppendResend(dst []byte, ranges []Range) []byte {
	if len(ranges) > MaxResendRanges {
		ranges = ranges[:MaxResendRanges]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ranges)))
	for _, r := range ranges {
		dst = binary.BigEndian.AppendUint64(dst, uint64(r.Off))
		dst = binary.BigEndian.AppendUint64(dst, uint64(r.Len))
	}
	return dst
}

// ParseResend decodes a TResend payload.
func ParseResend(b []byte) ([]Range, error) {
	if len(b) < 2 {
		return nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n*16 {
		return nil, ErrShortPayload
	}
	out := make([]Range, n)
	for i := 0; i < n; i++ {
		out[i].Off = int64(binary.BigEndian.Uint64(b[i*16:]))
		out[i].Len = int64(binary.BigEndian.Uint64(b[i*16+8:]))
	}
	return out, nil
}

// AppendNames encodes as many of names as fit in one TListReply payload,
// returning the payload and the number of names consumed.
func AppendNames(dst []byte, names []string) ([]byte, int) {
	count := 0
	counterAt := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, 0)
	for _, n := range names {
		if len(dst)+2+len(n) > MaxPayload {
			break
		}
		dst = appendString(dst, n)
		count++
	}
	binary.BigEndian.PutUint16(dst[counterAt:], uint16(count))
	return dst, count
}

// ParseNames decodes a TListReply payload.
func ParseNames(b []byte) ([]string, error) {
	if len(b) < 2 {
		return nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, rest, err := parseString(b)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		b = rest
	}
	return out, nil
}

// PingReply is the body of a TPingReply packet: an agent's status.
type PingReply struct {
	Objects  uint32 // objects in the store
	Sessions uint32 // open file sessions
	Bytes    int64  // total fragment bytes stored
}

// AppendPingReply encodes r.
func AppendPingReply(dst []byte, r *PingReply) []byte {
	dst = binary.BigEndian.AppendUint32(dst, r.Objects)
	dst = binary.BigEndian.AppendUint32(dst, r.Sessions)
	return binary.BigEndian.AppendUint64(dst, uint64(r.Bytes))
}

// ParsePingReply decodes a TPingReply payload.
func ParsePingReply(b []byte) (PingReply, error) {
	if len(b) < 16 {
		return PingReply{}, ErrShortPayload
	}
	return PingReply{
		Objects:  binary.BigEndian.Uint32(b),
		Sessions: binary.BigEndian.Uint32(b[4:]),
		Bytes:    int64(binary.BigEndian.Uint64(b[8:])),
	}, nil
}

// AppendError encodes a TError payload from a message string.
func AppendError(dst []byte, msg string) []byte { return appendString(dst, msg) }

// ParseError decodes a TError payload into an error value.
func ParseError(b []byte) error {
	msg, _, err := parseString(b)
	if err != nil {
		return fmt.Errorf("wire: malformed error payload: %w", err)
	}
	return &RemoteError{Msg: msg}
}

// RemoteError is an error reported by a storage agent.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "agent: " + e.Msg }

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func parseString(b []byte) (s string, rest []byte, err error) {
	if len(b) < 2 {
		return "", nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, ErrShortPayload
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}
