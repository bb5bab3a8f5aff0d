// Package wire defines the packet format of Swift's light-weight
// data-transfer protocol. The prototype in the paper abandoned TCP for a
// thin protocol layered directly on UDP datagrams: every packet is
// self-describing (type, file handle, request id, object offset, length),
// so the kernel can scatter-gather payloads directly into user buffers and
// either side can detect and re-request lost packets without per-packet
// acknowledgements.
//
// Packet layout (big endian):
//
//	offset size field
//	0      2    magic 0x5357 ("SW")
//	2      1    version: 1, +1 with the trace extension, +2 with the deadline extension
//	3      1    type
//	4      4    request id
//	8      8    file handle
//	16     8    object offset
//	24     4    request length
//	28     2    flags
//	30     2    payload length
//	32     n    payload
//	32+n   4    CRC-32 (IEEE) over bytes [0, 32+n)
//
// A version-2 packet carries a 17-byte trace extension between the fixed
// header and the payload — the distributed-tracing context (trace id,
// parent span id, flag bits) minted at the client op and joined by each
// hop:
//
//	offset size field          (version 2 only)
//	32     8    trace id
//	40     8    span id
//	48     1    trace flags (bit 0: head-sampled)
//	49     n    payload
//	49+n   4    CRC-32 (IEEE) over bytes [0, 49+n)
//
// A version-3 packet carries an 8-byte deadline extension instead: the
// request's remaining time budget in nanoseconds, measured at send time.
// The budget travels as a relative duration — not an absolute wall-clock
// instant — so hops need no clock synchronization; each receiver anchors
// it against its own clock at receipt and can refuse work that is
// already dead (see TPushback). Version 4 carries both extensions, trace
// first:
//
//	offset size field          (version 4; version 3 omits bytes 32..49)
//	32     17   trace extension (as version 2)
//	49     8    deadline: remaining budget in nanoseconds (nonzero)
//	57     n    payload
//	57+n   4    CRC-32 (IEEE) over bytes [0, 57+n)
//
// Packets without a trace context or deadline are always emitted as
// version 1, byte for byte identical to the pre-tracing protocol, so old
// peers keep decoding them; only control packets ever carry extensions —
// data packets (TData) stay version 1 so the per-packet hot path never
// pays for them.
//
// The datagram is the unit of loss and of retransmission, but not of
// system calls: a Batch lays a burst's equal-size data packets end to end
// so that the transport moves up to transport.MaxRun bytes of them in one
// call (transport.WriteSegments; udpnet's UDP segmentation offload), and the
// receive loops take a coalesced run the same way and decode it in place,
// datagram by datagram. Each datagram on the wire is byte for byte the one
// AppendPacket makes, so neither end needs to know the other batches.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"swift/internal/obs"
	"swift/internal/transport"
)

// Protocol constants.
const (
	Magic   = 0x5357 // "SW"
	Version = 1
	// VersionTraced marks a packet carrying the trace extension.
	VersionTraced = 2
	// VersionDeadline marks a packet carrying the deadline extension.
	VersionDeadline = 3
	// VersionTracedDeadline marks a packet carrying both extensions
	// (trace first, then deadline).
	VersionTracedDeadline = 4

	// A version byte is Version plus one flag per extension it carries,
	// so versions 1–4 are the four combinations.
	extTrace    = VersionTraced - Version
	extDeadline = VersionDeadline - Version

	// HeaderSize is the fixed header length in bytes.
	HeaderSize = 32
	// TraceExtSize is the length of the version-2 trace extension.
	TraceExtSize = 17
	// DeadlineExtSize is the length of the deadline extension: the
	// remaining request budget in nanoseconds.
	DeadlineExtSize = 8
	// TrailerSize is the CRC trailer length in bytes.
	TrailerSize = 4
	// MaxPacket is the largest datagram the protocol emits. It is chosen
	// to fit in a single Ethernet frame with IP/UDP headers, as the
	// prototype's packets did.
	MaxPacket = 1400
	// MaxPayload is the largest payload a single packet can carry.
	MaxPayload = MaxPacket - HeaderSize - TrailerSize
	// MaxTracedPayload is the payload ceiling once the trace extension
	// has claimed its bytes.
	MaxTracedPayload = MaxPayload - TraceExtSize
	// MaxExtPayload is the payload ceiling with every extension present
	// (trace + deadline) — the floor any control payload must fit.
	MaxExtPayload = MaxPayload - TraceExtSize - DeadlineExtSize

	// JumboPayload is the data payload of a session whose two ends agreed
	// at open that the medium between them carries large datagrams: two
	// 4 KiB atoms, and small enough for a 9000-byte jumbo frame. Only
	// TData packets ever grow to it; every control packet, and every data
	// packet of a session that did not agree, stays within MaxPacket.
	JumboPayload = 8192
	// JumboPacket is the datagram that carries a JumboPayload.
	JumboPacket = HeaderSize + JumboPayload + TrailerSize

	// BurstPackets is the default burst, in full data packets of the
	// session: what a client asks of one agent at a time unless it is
	// configured otherwise, and what the agent reads from its store in
	// one call while serving a read.
	BurstPackets = 42
)

// SessionPacket returns the data-packet size one end of a session can
// run at: JumboPacket when its medium sends a datagram that large whole
// (maxDatagram) and its receive buffer (recvBuffer) holds the bytes the
// peer keeps in flight towards it (window) at the two-for-one a kernel
// socket charges, MaxPacket otherwise. Unknown limits are zero and so
// yield MaxPacket. A session runs at JumboPacket only when both ends
// can.
func SessionPacket(maxDatagram, recvBuffer int, window int64) int {
	if maxDatagram >= JumboPacket && int64(recvBuffer) >= 2*window {
		return JumboPacket
	}
	return MaxPacket
}

// DataPayload returns the data payload a session carries per datagram
// once its ends have agreed on packet-byte datagrams: JumboPayload for
// JumboPacket, MaxPayload for anything else (an absent or unknown
// agreement is the base packet).
func DataPayload(packet int) int {
	if packet == JumboPacket {
		return JumboPayload
	}
	return MaxPayload
}

// Type identifies the kind of a protocol packet.
type Type uint8

// Packet types. Open/Stat/Remove are served on the agent's well-known
// port; the rest flow on the per-file private port established at open.
const (
	TInvalid     Type = iota
	TOpen             // client→agent: open/create an object fragment
	TOpenReply        // agent→client: handle + private port + fragment size
	TRead             // client→agent: request [offset,offset+length) of the fragment
	TData             // either direction: payload carrying part of a request
	TWrite            // client→agent: announce a write burst [offset,offset+length)
	TWriteAck         // agent→client: write burst fully received & applied
	TResend           // agent→client: list of missing ranges in a write burst
	TClose            // client→agent: release the handle and private port
	TCloseReply       // agent→client: close acknowledged
	TStat             // client→agent (well-known port): fragment size query
	TStatReply        // agent→client: fragment size
	TRemove           // client→agent (well-known port): delete an object fragment
	TRemoveReply      // agent→client: remove acknowledged
	TSync             // client→agent: flush the fragment to stable storage
	TSyncReply        // agent→client: sync acknowledged
	TTrunc            // client→agent: truncate fragment to request length
	TTruncReply       // agent→client: truncate acknowledged
	TList             // client→agent (well-known port): enumerate objects
	TListReply        // agent→client: object names; FLast marks the final packet
	TPing             // client→agent (well-known port): liveness + status probe
	TPingReply        // agent→client: agent status
	TError            // agent→client: request failed; payload holds message

	// Mediator control plane (served by medrpc on a mediator replica's
	// well-known port; same packet envelope, different port).
	TMedOpen        // client→mediator: admit a session (requirements)
	TMedOpenReply   // mediator→client: the admitted session record
	TMedRenew       // client→mediator: renew-or-adopt; payload carries the record
	TMedRenewReply  // mediator→client: the session's current home replica
	TMedClose       // client→mediator: release session Handle
	TMedCloseReply  // mediator→client: close acknowledged
	TMedMirror      // mediator→mediator: session replication update
	TMedMirrorReply // mediator→mediator: update applied
	TMedStatus      // client→mediator: replica status query
	TMedStatusReply // mediator→client: replica status
	TMedDrain       // admin→mediator: hand live sessions to peers
	TMedDrainReply  // mediator→admin: drain done; Length counts handoffs

	// TPushback is an agent's explicit load-shed reply: the request was
	// refused — not failed — because its deadline had already expired or
	// the agent's service queue was over quota. The payload (PushbackInfo)
	// carries the reason and a retry-after hint. Pushback is a healthy
	// agent protecting itself; clients must not feed it into the
	// failure-domain lifecycle.
	TPushback

	// Cache-coherence extension of the mediator control plane: a client
	// rides one TMedInvalidate round per heartbeat, declaring the objects
	// it caches (with generations) and the objects it wrote; the reply
	// names the stale set. Appended after TPushback so every earlier type
	// keeps its wire value.
	TMedInvalidate      // client→mediator: cache-coherence sync round
	TMedInvalidateReply // mediator→client: stale cached objects
	tMax
)

var typeNames = [...]string{
	"invalid", "open", "openreply", "read", "data", "write", "writeack",
	"resend", "close", "closereply", "stat", "statreply", "remove",
	"removereply", "sync", "syncreply", "trunc", "truncreply",
	"list", "listreply", "ping", "pingreply", "error",
	"medopen", "medopenreply", "medrenew", "medrenewreply",
	"medclose", "medclosereply", "medmirror", "medmirrorreply",
	"medstatus", "medstatusreply", "meddrain", "meddrainreply",
	"pushback", "medinvalidate", "medinvalidatereply",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Flag bits.
const (
	// FLast marks the final data packet of a read reply burst.
	FLast uint16 = 1 << iota
	// FCreate asks open to create the fragment if absent.
	FCreate
	// FTrunc asks open to truncate an existing fragment.
	FTrunc
	// FSyncWrite asks the agent to write this burst synchronously.
	FSyncWrite
)

// Header is the fixed portion of every packet.
type Header struct {
	Type   Type
	ReqID  uint32
	Handle uint64
	Offset int64
	Length uint32
	Flags  uint16
}

// Packet is a decoded protocol packet: header plus payload, plus the
// optional extensions. A zero Trace and zero Deadline encode as a
// version-1 packet; a valid Trace adds the trace extension, a positive
// Deadline the deadline extension, and the version byte reflects which
// are present.
type Packet struct {
	Header
	Trace obs.SpanContext
	// Deadline is the request's remaining time budget, measured when the
	// packet is encoded. Zero means no deadline (the extension is
	// omitted); the receiver anchors a positive budget against its own
	// clock at receipt.
	Deadline time.Duration
	Payload  []byte
}

// Decoding errors.
var (
	ErrTooShort   = errors.New("wire: packet too short")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadCRC     = errors.New("wire: checksum mismatch")
	ErrBadLength  = errors.New("wire: payload length mismatch")
	ErrOversize   = errors.New("wire: payload exceeds the packet's limit")
)

// AppendPacket encodes the packet and appends it to dst, returning the
// extended slice. It returns an error if the payload exceeds the
// packet's limit — MaxPayload, or JumboPayload for a data packet (the
// sender slices data at what its session agreed) — less the bytes any
// attached extensions claim.
//
//swift:hotpath
func AppendPacket(dst []byte, p *Packet) ([]byte, error) {
	traced := p.Trace.Valid()
	deadlined := p.Deadline > 0
	version := uint8(Version)
	limit := MaxPayload
	if p.Type == TData {
		limit = JumboPayload
	}
	if traced {
		version += extTrace
		limit -= TraceExtSize
	}
	if deadlined {
		version += extDeadline
		limit -= DeadlineExtSize
	}
	if len(p.Payload) > limit {
		return dst, ErrOversize
	}
	start := len(dst)
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = version
	hdr[3] = uint8(p.Type)
	binary.BigEndian.PutUint32(hdr[4:8], p.ReqID)
	binary.BigEndian.PutUint64(hdr[8:16], p.Handle)
	binary.BigEndian.PutUint64(hdr[16:24], uint64(p.Offset))
	binary.BigEndian.PutUint32(hdr[24:28], p.Length)
	binary.BigEndian.PutUint16(hdr[28:30], p.Flags)
	binary.BigEndian.PutUint16(hdr[30:32], uint16(len(p.Payload)))
	dst = append(dst, hdr[:]...)
	if traced {
		var ext [TraceExtSize]byte
		binary.BigEndian.PutUint64(ext[0:8], p.Trace.TraceID)
		binary.BigEndian.PutUint64(ext[8:16], p.Trace.SpanID)
		ext[16] = p.Trace.Flags
		dst = append(dst, ext[:]...)
	}
	if deadlined {
		var ext [DeadlineExtSize]byte
		binary.BigEndian.PutUint64(ext[:], uint64(p.Deadline))
		dst = append(dst, ext[:]...)
	}
	dst = append(dst, p.Payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	var tr [TrailerSize]byte
	binary.BigEndian.PutUint32(tr[:], crc)
	return append(dst, tr[:]...), nil
}

// encodedLen is the datagram AppendPacket makes of p.
func encodedLen(p *Packet) int {
	n := HeaderSize + len(p.Payload) + TrailerSize
	if p.Trace.Valid() {
		n += TraceExtSize
	}
	if p.Deadline > 0 {
		n += DeadlineExtSize
	}
	return n
}

// Marshal encodes the packet into a fresh buffer.
func Marshal(p *Packet) ([]byte, error) {
	buf := make([]byte, 0, encodedLen(p)) //lint:allow hotalloc Marshal returns a fresh buffer by contract; hot senders use AppendPacket with caller scratch
	return AppendPacket(buf, p)
}

// Batch is a peer-bound send buffer: it marshals packets end to end so
// that a run of equal-size data packets leaves in one
// transport.WriteSegments call, while every datagram stays the one
// AppendPacket makes. A run ends when a packet cannot join it — another
// peer, a larger datagram, no room left — and is sent when it ends with a
// shorter datagram, when it is full, or on Flush. Packets other than TData
// are never held: each leaves at once, after whatever run preceded it, so
// control traffic keeps its order and its latency. Over a conn that cannot
// send a run in one call, every packet leaves at once too.
//
// A Batch belongs to one goroutine; its buffer is reused from run to run.
type Batch struct {
	conn  transport.PacketConn
	limit int    // bytes a run may hold; 0 holds nothing back
	buf   []byte // the run: datagrams of seg bytes, the last possibly shorter
	seg   int
	to    string
}

// NewBatch returns a batch sending on conn packets of at most datagram
// bytes.
func NewBatch(conn transport.PacketConn, datagram int) *Batch {
	b := &Batch{conn: conn}
	if _, ok := conn.(transport.SegmentWriter); ok {
		b.limit = transport.MaxRun
	}
	b.buf = make([]byte, 0, max(b.limit, datagram))
	return b
}

// Send marshals p into the run bound for addr, sending what the rules
// above say is ready. An error is the send's, and may concern packets of
// the run before p.
//
//swift:hotpath
func (b *Batch) Send(p *Packet, addr string) error {
	n := encodedLen(p)
	if len(b.buf) > 0 && (addr != b.to || n > b.seg) {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	buf, err := AppendPacket(b.buf, p)
	if err != nil {
		return err
	}
	if len(b.buf) == 0 {
		b.seg, b.to = n, addr
	}
	b.buf = buf
	if p.Type != TData || n < b.seg || len(buf)+b.seg > b.limit || len(buf) >= transport.MaxSegments*b.seg {
		return b.Flush()
	}
	return nil
}

// Flush sends the run held back, if any.
//
//swift:hotpath
func (b *Batch) Flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	err := transport.WriteSegments(b.conn, b.buf, b.seg, b.to)
	b.buf = b.buf[:0]
	return err
}

// Unmarshal decodes buf into p. Versions 1 through 4 are accepted;
// p.Trace and p.Deadline are zeroed when the respective extension is
// absent. The returned packet's Payload aliases buf; callers that retain
// the packet past the buffer's reuse must copy it.
//
//swift:hotpath
func Unmarshal(buf []byte, p *Packet) error {
	if len(buf) < HeaderSize+TrailerSize {
		return ErrTooShort
	}
	if binary.BigEndian.Uint16(buf[0:2]) != Magic {
		return ErrBadMagic
	}
	exts := buf[2] - Version // wraps past the flags for a version byte of 0
	if exts > extTrace|extDeadline {
		return ErrBadVersion
	}
	traceExt, dlExt := 0, 0
	if exts&extTrace != 0 {
		traceExt = TraceExtSize
	}
	if exts&extDeadline != 0 {
		dlExt = DeadlineExtSize
	}
	ext := traceExt + dlExt
	if len(buf) < HeaderSize+ext+TrailerSize {
		return ErrTooShort
	}
	body := buf[:len(buf)-TrailerSize]
	want := binary.BigEndian.Uint32(buf[len(buf)-TrailerSize:])
	if crc32.ChecksumIEEE(body) != want {
		return ErrBadCRC
	}
	plen := int(binary.BigEndian.Uint16(buf[30:32]))
	if HeaderSize+ext+plen != len(body) {
		return ErrBadLength
	}
	p.Type = Type(buf[3])
	p.ReqID = binary.BigEndian.Uint32(buf[4:8])
	p.Handle = binary.BigEndian.Uint64(buf[8:16])
	p.Offset = int64(binary.BigEndian.Uint64(buf[16:24]))
	p.Length = binary.BigEndian.Uint32(buf[24:28])
	p.Flags = binary.BigEndian.Uint16(buf[28:30])
	if traceExt != 0 {
		p.Trace.TraceID = binary.BigEndian.Uint64(buf[HeaderSize : HeaderSize+8])
		p.Trace.SpanID = binary.BigEndian.Uint64(buf[HeaderSize+8 : HeaderSize+16])
		p.Trace.Flags = buf[HeaderSize+16]
		// A traced packet with a zero trace id would re-encode without
		// the extension and break the round-trip invariant; reject it.
		if !p.Trace.Valid() {
			return ErrBadVersion
		}
	} else {
		p.Trace = obs.SpanContext{}
	}
	if dlExt != 0 {
		budget := binary.BigEndian.Uint64(buf[HeaderSize+traceExt : HeaderSize+traceExt+DeadlineExtSize])
		// Zero or unrepresentable budgets would re-encode without the
		// extension; reject them for the same round-trip invariant.
		if budget == 0 || budget > uint64(maxDuration) {
			return ErrBadVersion
		}
		p.Deadline = time.Duration(budget)
	} else {
		p.Deadline = 0
	}
	p.Payload = buf[HeaderSize+ext : HeaderSize+ext+plen]
	return nil
}

// maxDuration is the largest encodable deadline budget.
const maxDuration = time.Duration(1<<63 - 1)
