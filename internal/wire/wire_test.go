package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"swift/internal/obs"
)

func TestRoundTrip(t *testing.T) {
	p := &Packet{
		Header: Header{
			Type: TData, ReqID: 42, Handle: 7, Offset: 123456789,
			Length: 999, Flags: FLast,
		},
		Payload: []byte("hello striped world"),
	}
	buf, err := Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var q Packet
	if err := Unmarshal(buf, &q); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if q.Header != p.Header || !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", q, p)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(typ uint8, reqID uint32, handle uint64, off int64, length uint32, flags uint16, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		if off < 0 {
			off = -off
		}
		p := &Packet{
			Header: Header{
				Type: Type(typ), ReqID: reqID, Handle: handle,
				Offset: off, Length: length, Flags: flags,
			},
			Payload: payload,
		}
		buf, err := Marshal(p)
		if err != nil {
			return false
		}
		if len(buf) > MaxPacket {
			return false
		}
		var q Packet
		if err := Unmarshal(buf, &q); err != nil {
			return false
		}
		return q.Header == p.Header && bytes.Equal(q.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	p := &Packet{Payload: make([]byte, MaxPayload+1)}
	if _, err := Marshal(p); err != ErrOversize {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	p := &Packet{Header: Header{Type: TRead, ReqID: 1}, Payload: []byte("abcdef")}
	good, _ := Marshal(p)
	rng := rand.New(rand.NewSource(42))
	var q Packet
	for i := 0; i < 200; i++ {
		buf := append([]byte(nil), good...)
		buf[rng.Intn(len(buf))] ^= 1 << uint(rng.Intn(8))
		if err := Unmarshal(buf, &q); err == nil {
			t.Fatalf("flip %d: corruption not detected", i)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	p := &Packet{Header: Header{Type: TRead}, Payload: []byte("abcdef")}
	good, _ := Marshal(p)
	var q Packet
	for n := 0; n < len(good); n++ {
		if err := Unmarshal(good[:n], &q); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	p := &Packet{Header: Header{Type: TRead}}
	good, _ := Marshal(p)
	var q Packet

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if err := Unmarshal(bad, &q); err != ErrBadMagic {
		t.Fatalf("bad magic: err = %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[2] = 99
	if err := Unmarshal(bad, &q); err != ErrBadVersion {
		t.Fatalf("bad version: err = %v", err)
	}
}

func TestOpenPayloads(t *testing.T) {
	req := &OpenRequest{Name: "videos/clip.mpg"}
	b := AppendOpenRequest(nil, req)
	got, err := ParseOpenRequest(b)
	if err != nil || got != *req {
		t.Fatalf("open request: %v %v", got, err)
	}

	rep := &OpenReply{Port: "40123", Size: 1 << 33}
	b = AppendOpenReply(nil, rep)
	gr, err := ParseOpenReply(b)
	if err != nil || gr != *rep {
		t.Fatalf("open reply: %v %v", gr, err)
	}

	// Without the size agreement's fields both encode exactly as they did
	// before the fields existed, so either end may be from before then.
	if want := []byte{0, 15, 'v', 'i', 'd', 'e', 'o', 's', '/', 'c', 'l', 'i', 'p', '.', 'm', 'p', 'g'}; !bytes.Equal(AppendOpenRequest(nil, req), want) {
		t.Fatalf("base open request encodes as %x, want %x", AppendOpenRequest(nil, req), want)
	}
	if want := []byte{0, 5, '4', '0', '1', '2', '3', 0, 0, 0, 2, 0, 0, 0, 0}; !bytes.Equal(b, want) {
		t.Fatalf("base open reply encodes as %x, want %x", b, want)
	}

	// With them, they round-trip; cut short inside the fields, they
	// decode as absent.
	req = &OpenRequest{Name: "obj", MaxPacket: JumboPacket, Window: 2 * 42 * JumboPayload}
	b = AppendOpenRequest(nil, req)
	if got, err = ParseOpenRequest(b); err != nil || got != *req {
		t.Fatalf("jumbo open request: %v %v", got, err)
	}
	if got, err = ParseOpenRequest(b[:len(b)-1]); err != nil || got != (OpenRequest{Name: "obj"}) {
		t.Fatalf("cut-short open request: %v %v", got, err)
	}
	rep.Packet = JumboPacket
	b = AppendOpenReply(nil, rep)
	if gr, err = ParseOpenReply(b); err != nil || gr != *rep {
		t.Fatalf("jumbo open reply: %v %v", gr, err)
	}
	if gr, err = ParseOpenReply(b[:len(b)-1]); err != nil || gr.Packet != 0 || gr.Size != rep.Size {
		t.Fatalf("cut-short open reply: %v %v", gr, err)
	}
}

// TestSessionPacket pins the two data-packet sizes and the rule that
// picks between them.
func TestSessionPacket(t *testing.T) {
	if JumboPayload != 2*4096 || JumboPacket > 9000-28 {
		t.Fatalf("jumbo payload %d in a %d-byte packet: want two 4 KiB atoms inside a 9000-byte frame", JumboPayload, JumboPacket)
	}
	const window = 2 * 42 * JumboPayload
	cases := []struct {
		maxDatagram, recvBuffer int
		want                    int
	}{
		{9000, 2 * window, JumboPacket},
		{JumboPacket, 2 * window, JumboPacket},
		{JumboPacket - 1, 2 * window, MaxPacket}, // medium too small
		{1500, 1 << 30, MaxPacket},
		{65508, 2*window - 1, MaxPacket}, // buffer too small
		{65508, 425984, MaxPacket},       // Linux's default rmem_max, doubled
		{0, 0, MaxPacket},                // nothing known
	}
	for _, c := range cases {
		if got := SessionPacket(c.maxDatagram, c.recvBuffer, window); got != c.want {
			t.Errorf("SessionPacket(%d, %d, %d) = %d, want %d", c.maxDatagram, c.recvBuffer, window, got, c.want)
		}
	}
	for packet, want := range map[int]int{JumboPacket: JumboPayload, MaxPacket: MaxPayload, 0: MaxPayload, 65535: MaxPayload} {
		if got := DataPayload(packet); got != want {
			t.Errorf("DataPayload(%d) = %d, want %d", packet, got, want)
		}
	}

	// Only data packets may carry the jumbo payload.
	data := &Packet{Header: Header{Type: TData}, Payload: make([]byte, JumboPayload)}
	buf, err := Marshal(data)
	if err != nil || len(buf) != JumboPacket {
		t.Fatalf("jumbo data packet: %d bytes, %v", len(buf), err)
	}
	var back Packet
	if err := Unmarshal(buf, &back); err != nil || len(back.Payload) != JumboPayload {
		t.Fatalf("jumbo data packet decodes to %d payload bytes, %v", len(back.Payload), err)
	}
	data.Payload = make([]byte, JumboPayload+1)
	if _, err := Marshal(data); err != ErrOversize {
		t.Fatalf("data payload over the jumbo limit: err = %v, want ErrOversize", err)
	}
	ctl := &Packet{Header: Header{Type: TListReply}, Payload: make([]byte, MaxPayload+1)}
	if _, err := Marshal(ctl); err != ErrOversize {
		t.Fatalf("control payload over MaxPayload: err = %v, want ErrOversize", err)
	}
}

func TestStatReplyPayload(t *testing.T) {
	for _, exists := range []bool{true, false} {
		b := AppendStatReply(nil, &StatReply{Size: 12345, Exists: exists})
		got, err := ParseStatReply(b)
		if err != nil || got.Size != 12345 || got.Exists != exists {
			t.Fatalf("stat reply: %+v %v", got, err)
		}
	}
}

func TestResendPayload(t *testing.T) {
	in := []Range{{0, 100}, {500, 1364}, {1 << 40, 7}}
	b := AppendResend(nil, in)
	out, err := ParseResend(b)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("range %d = %v, want %v", i, out[i], in[i])
		}
	}
}

func TestResendCapped(t *testing.T) {
	in := make([]Range, MaxResendRanges+50)
	b := AppendResend(nil, in)
	if len(b) > MaxPayload {
		t.Fatalf("resend payload %d exceeds MaxPayload", len(b))
	}
	out, err := ParseResend(b)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(out) != MaxResendRanges {
		t.Fatalf("len = %d, want %d", len(out), MaxResendRanges)
	}
}

func TestErrorPayload(t *testing.T) {
	b := AppendError(nil, "fragment missing")
	err := ParseError(b)
	if err == nil || err.Error() != "agent: fragment missing" {
		t.Fatalf("error = %v", err)
	}
}

func TestShortControlPayloads(t *testing.T) {
	if _, err := ParseOpenReply([]byte{0, 3, 'a'}); err == nil {
		t.Fatal("short open reply accepted")
	}
	if _, err := ParseStatReply([]byte{1, 2}); err == nil {
		t.Fatal("short stat reply accepted")
	}
	if _, err := ParseResend([]byte{0, 9}); err == nil {
		t.Fatal("short resend accepted")
	}
}

func TestNamesPayload(t *testing.T) {
	names := []string{"a", "videos/clip.mpg", "", "z"}
	b, consumed := AppendNames(nil, names)
	if consumed != len(names) {
		t.Fatalf("consumed = %d", consumed)
	}
	got, err := ParseNames(b)
	if err != nil || len(got) != len(names) {
		t.Fatalf("parse: %v %v", got, err)
	}
	for i := range names {
		if got[i] != names[i] {
			t.Fatalf("name %d = %q", i, got[i])
		}
	}
}

func TestNamesPayloadCapacity(t *testing.T) {
	// More names than fit in one packet: AppendNames must stop at the
	// payload limit and report how many it consumed.
	var names []string
	for i := 0; i < 2000; i++ {
		names = append(names, fmt.Sprintf("object-%04d-with-padding-padding", i))
	}
	b, consumed := AppendNames(nil, names)
	if len(b) > MaxPayload {
		t.Fatalf("payload %d exceeds max", len(b))
	}
	if consumed == 0 || consumed >= len(names) {
		t.Fatalf("consumed = %d of %d", consumed, len(names))
	}
	got, err := ParseNames(b)
	if err != nil || len(got) != consumed {
		t.Fatalf("parse: %d, %v", len(got), err)
	}
	// The remainder fits in subsequent packets.
	rest := names[consumed:]
	total := consumed
	for len(rest) > 0 {
		_, c := AppendNames(nil, rest)
		if c == 0 {
			t.Fatal("no progress")
		}
		total += c
		rest = rest[c:]
	}
	if total != len(names) {
		t.Fatalf("total consumed %d != %d", total, len(names))
	}
}

func TestPingReplyPayload(t *testing.T) {
	in := &PingReply{Objects: 42, Sessions: 7, Bytes: 9 << 30}
	b := AppendPingReply(nil, in)
	got, err := ParsePingReply(b)
	if err != nil || got != *in {
		t.Fatalf("ping reply = %+v, %v", got, err)
	}
	if _, err := ParsePingReply(b[:15]); err == nil {
		t.Fatal("short ping reply accepted")
	}
}

func TestParseNamesShort(t *testing.T) {
	if _, err := ParseNames([]byte{0}); err == nil {
		t.Fatal("short names accepted")
	}
	if _, err := ParseNames([]byte{0, 2, 0, 9, 'x'}); err == nil {
		t.Fatal("truncated name accepted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	p := &Packet{
		Header: Header{Type: TRead, ReqID: 9, Handle: 3, Offset: 4096, Length: 65536},
		Trace:  obs.SpanContext{TraceID: 0xdeadbeefcafef00d, SpanID: 0x0123456789abcdef, Flags: obs.SpanSampled},
	}
	buf, err := Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if buf[2] != VersionTraced {
		t.Fatalf("version = %d, want %d", buf[2], VersionTraced)
	}
	if len(buf) != HeaderSize+TraceExtSize+TrailerSize {
		t.Fatalf("len = %d, want %d", len(buf), HeaderSize+TraceExtSize+TrailerSize)
	}
	var q Packet
	if err := Unmarshal(buf, &q); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if q.Header != p.Header || q.Trace != p.Trace {
		t.Fatalf("round trip mismatch: %+v vs %+v", q, p)
	}
	if !q.Trace.Sampled() {
		t.Fatal("sampled flag lost")
	}
}

// TestUntracedByteIdentical pins wire compatibility: a packet without a
// trace context must encode byte for byte as the pre-tracing (version 1)
// protocol did, so old peers keep decoding new traffic.
func TestUntracedByteIdentical(t *testing.T) {
	p := &Packet{
		Header:  Header{Type: TWrite, ReqID: 7, Handle: 11, Offset: 1 << 20, Length: 4096, Flags: FSyncWrite},
		Payload: []byte("payload bytes"),
	}
	got, err := Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// The version-1 encoding, built by hand from the documented layout.
	want := make([]byte, 0, HeaderSize+len(p.Payload)+TrailerSize)
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = uint8(p.Type)
	binary.BigEndian.PutUint32(hdr[4:8], p.ReqID)
	binary.BigEndian.PutUint64(hdr[8:16], p.Handle)
	binary.BigEndian.PutUint64(hdr[16:24], uint64(p.Offset))
	binary.BigEndian.PutUint32(hdr[24:28], p.Length)
	binary.BigEndian.PutUint16(hdr[28:30], p.Flags)
	binary.BigEndian.PutUint16(hdr[30:32], uint16(len(p.Payload)))
	want = append(want, hdr[:]...)
	want = append(want, p.Payload...)
	var tr [TrailerSize]byte
	binary.BigEndian.PutUint32(tr[:], crc32.ChecksumIEEE(want))
	want = append(want, tr[:]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("untraced encoding differs from version-1 layout:\ngot:  %x\nwant: %x", got, want)
	}
}

func TestTracedPayloadCeiling(t *testing.T) {
	ctx := obs.SpanContext{TraceID: 1, SpanID: 2}
	p := &Packet{Trace: ctx, Payload: make([]byte, MaxTracedPayload)}
	buf, err := Marshal(p)
	if err != nil {
		t.Fatalf("max traced payload rejected: %v", err)
	}
	if len(buf) > MaxPacket {
		t.Fatalf("traced packet %d exceeds MaxPacket", len(buf))
	}
	p.Payload = make([]byte, MaxTracedPayload+1)
	if _, err := Marshal(p); err != ErrOversize {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
	// The same payload fits untraced.
	p.Trace = obs.SpanContext{}
	if _, err := Marshal(p); err != nil {
		t.Fatalf("untraced MaxPayload-1 rejected: %v", err)
	}
}

func TestTracedZeroIDRejected(t *testing.T) {
	// A version-2 packet whose trace id is zero cannot round-trip (it
	// would re-encode as version 1), so the decoder rejects it.
	p := &Packet{Header: Header{Type: TRead}, Trace: obs.SpanContext{TraceID: 1, SpanID: 2}}
	buf, _ := Marshal(p)
	for i := HeaderSize; i < HeaderSize+8; i++ {
		buf[i] = 0
	}
	body := buf[:len(buf)-TrailerSize]
	binary.BigEndian.PutUint32(buf[len(buf)-TrailerSize:], crc32.ChecksumIEEE(body))
	var q Packet
	if err := Unmarshal(buf, &q); err != ErrBadVersion {
		t.Fatalf("zero-id traced packet: err = %v, want ErrBadVersion", err)
	}
}

// TestAppendPacketZeroAlloc pins the hot-path acceptance criterion: with
// no trace context attached, encode and decode of a full-size data packet
// into a reused buffer allocate nothing.
func TestAppendPacketZeroAlloc(t *testing.T) {
	payload := make([]byte, MaxPayload)
	p := &Packet{Header: Header{Type: TData, ReqID: 1, Handle: 2, Length: uint32(len(payload))}, Payload: payload}
	buf := make([]byte, 0, MaxPacket)
	var q Packet
	allocs := testing.AllocsPerRun(500, func() {
		out, err := AppendPacket(buf[:0], p)
		if err != nil {
			t.Fatal(err)
		}
		if err := Unmarshal(out, &q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced encode+decode allocated %v per packet, want 0", allocs)
	}
}

func TestTypeString(t *testing.T) {
	if TData.String() != "data" || TOpen.String() != "open" {
		t.Fatal("type names wrong")
	}
	if Type(200).String() == "" {
		t.Fatal("unknown type produced empty string")
	}
	if TPushback.String() != "pushback" {
		t.Fatalf("TPushback = %q", TPushback.String())
	}
	if len(typeNames) != int(tMax) {
		t.Fatalf("typeNames has %d entries for %d types", len(typeNames), int(tMax))
	}
}

func TestDeadlineRoundTrip(t *testing.T) {
	p := &Packet{
		Header:   Header{Type: TRead, ReqID: 12, Handle: 5, Offset: 8192, Length: 32768},
		Deadline: 250 * time.Millisecond,
	}
	buf, err := Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if buf[2] != VersionDeadline {
		t.Fatalf("version = %d, want %d", buf[2], VersionDeadline)
	}
	if len(buf) != HeaderSize+DeadlineExtSize+TrailerSize {
		t.Fatalf("len = %d, want %d", len(buf), HeaderSize+DeadlineExtSize+TrailerSize)
	}
	var q Packet
	if err := Unmarshal(buf, &q); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if q.Header != p.Header || q.Deadline != p.Deadline || q.Trace.Valid() {
		t.Fatalf("round trip mismatch: %+v vs %+v", q, p)
	}
}

func TestTracedDeadlineRoundTrip(t *testing.T) {
	p := &Packet{
		Header:   Header{Type: TWrite, ReqID: 3, Handle: 1, Offset: 64, Length: 128},
		Trace:    obs.SpanContext{TraceID: 0xfeedface, SpanID: 0xabad1dea, Flags: obs.SpanSampled},
		Deadline: 2 * time.Second,
		Payload:  []byte("announce"),
	}
	buf, err := Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if buf[2] != VersionTracedDeadline {
		t.Fatalf("version = %d, want %d", buf[2], VersionTracedDeadline)
	}
	if len(buf) != HeaderSize+TraceExtSize+DeadlineExtSize+len(p.Payload)+TrailerSize {
		t.Fatalf("len = %d", len(buf))
	}
	var q Packet
	if err := Unmarshal(buf, &q); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if q.Header != p.Header || q.Trace != p.Trace || q.Deadline != p.Deadline ||
		!bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", q, p)
	}
}

// TestDeadlineByteIdentical pins the version-3 layout byte for byte, and
// re-verifies that a packet with neither extension still encodes as the
// version-1 protocol — the compatibility discipline the trace extension
// established.
func TestDeadlineByteIdentical(t *testing.T) {
	p := &Packet{
		Header:   Header{Type: TRead, ReqID: 21, Handle: 9, Offset: 512, Length: 2048},
		Deadline: 125 * time.Millisecond,
		Payload:  []byte("xy"),
	}
	got, err := Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	want := make([]byte, 0, HeaderSize+DeadlineExtSize+len(p.Payload)+TrailerSize)
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = VersionDeadline
	hdr[3] = uint8(p.Type)
	binary.BigEndian.PutUint32(hdr[4:8], p.ReqID)
	binary.BigEndian.PutUint64(hdr[8:16], p.Handle)
	binary.BigEndian.PutUint64(hdr[16:24], uint64(p.Offset))
	binary.BigEndian.PutUint32(hdr[24:28], p.Length)
	binary.BigEndian.PutUint16(hdr[28:30], p.Flags)
	binary.BigEndian.PutUint16(hdr[30:32], uint16(len(p.Payload)))
	want = append(want, hdr[:]...)
	var ext [DeadlineExtSize]byte
	binary.BigEndian.PutUint64(ext[:], uint64(p.Deadline))
	want = append(want, ext[:]...)
	want = append(want, p.Payload...)
	var tr [TrailerSize]byte
	binary.BigEndian.PutUint32(tr[:], crc32.ChecksumIEEE(want))
	want = append(want, tr[:]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("deadline encoding differs from documented layout:\ngot:  %x\nwant: %x", got, want)
	}
}

func TestDeadlineZeroBudgetRejected(t *testing.T) {
	// A version-3 packet with a zero budget cannot round-trip (it would
	// re-encode as version 1), so the decoder rejects it — the same
	// invariant as the zero trace id.
	p := &Packet{Header: Header{Type: TRead}, Deadline: time.Second}
	buf, _ := Marshal(p)
	for i := HeaderSize; i < HeaderSize+DeadlineExtSize; i++ {
		buf[i] = 0
	}
	body := buf[:len(buf)-TrailerSize]
	binary.BigEndian.PutUint32(buf[len(buf)-TrailerSize:], crc32.ChecksumIEEE(body))
	var q Packet
	if err := Unmarshal(buf, &q); err != ErrBadVersion {
		t.Fatalf("zero-budget packet: err = %v, want ErrBadVersion", err)
	}
	// An unrepresentable budget (top bit set) is rejected the same way.
	buf, _ = Marshal(p)
	buf[HeaderSize] = 0xFF
	body = buf[:len(buf)-TrailerSize]
	binary.BigEndian.PutUint32(buf[len(buf)-TrailerSize:], crc32.ChecksumIEEE(body))
	if err := Unmarshal(buf, &q); err != ErrBadVersion {
		t.Fatalf("overflow-budget packet: err = %v, want ErrBadVersion", err)
	}
}

func TestDeadlinePayloadCeiling(t *testing.T) {
	p := &Packet{Deadline: time.Second, Payload: make([]byte, MaxPayload-DeadlineExtSize)}
	buf, err := Marshal(p)
	if err != nil {
		t.Fatalf("max deadlined payload rejected: %v", err)
	}
	if len(buf) > MaxPacket {
		t.Fatalf("deadlined packet %d exceeds MaxPacket", len(buf))
	}
	p.Payload = append(p.Payload, 0)
	if _, err := Marshal(p); err != ErrOversize {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
	p.Trace = obs.SpanContext{TraceID: 1, SpanID: 2}
	p.Payload = make([]byte, MaxExtPayload)
	if buf, err = Marshal(p); err != nil || len(buf) > MaxPacket {
		t.Fatalf("max dual-extension payload: %v (len %d)", err, len(buf))
	}
	p.Payload = append(p.Payload, 0)
	if _, err := Marshal(p); err != ErrOversize {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
}

func TestPushbackPayload(t *testing.T) {
	for _, in := range []PushbackInfo{
		{Reason: PushQueueFull, RetryAfter: 40 * time.Millisecond},
		{Reason: PushDeadlineExpired},
		{Reason: PushOverQuota, RetryAfter: time.Second},
	} {
		b := AppendPushback(nil, &in)
		got, err := ParsePushback(b)
		if err != nil || got != in {
			t.Fatalf("pushback %+v: got %+v, %v", in, got, err)
		}
	}
	if _, err := ParsePushback([]byte{1, 0, 0}); err == nil {
		t.Fatal("short pushback accepted")
	}
	overflow := AppendPushback(nil, &PushbackInfo{Reason: PushQueueFull, RetryAfter: time.Second})
	overflow[1] = 0xFF
	if _, err := ParsePushback(overflow); err == nil {
		t.Fatal("overflowing retry-after accepted")
	}
	// A negative hint clamps to zero on encode.
	b := AppendPushback(nil, &PushbackInfo{Reason: PushQueueFull, RetryAfter: -time.Second})
	got, err := ParsePushback(b)
	if err != nil || got.RetryAfter != 0 {
		t.Fatalf("negative retry-after: %+v, %v", got, err)
	}
	if PushQueueFull.String() != "queue-full" || PushDeadlineExpired.String() != "deadline-expired" ||
		PushOverQuota.String() != "over-quota" {
		t.Fatal("pushback reason names wrong")
	}
}
