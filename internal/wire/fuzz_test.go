package wire

import (
	"bytes"
	"testing"

	"swift/internal/obs"
)

// FuzzUnmarshal hammers the packet decoder with arbitrary bytes: it must
// never panic, and anything it accepts must re-marshal to the same bytes.
func FuzzUnmarshal(f *testing.F) {
	seed := func(p *Packet) {
		buf, err := Marshal(p)
		if err == nil {
			f.Add(buf)
		}
	}
	seed(&Packet{Header: Header{Type: TOpen}, Payload: AppendOpenRequest(nil, &OpenRequest{Name: "x"})})
	seed(&Packet{Header: Header{Type: TData, ReqID: 7, Handle: 9, Offset: 1 << 30, Length: 100}, Payload: bytes.Repeat([]byte{0xA5}, 100)})
	seed(&Packet{Header: Header{Type: TResend}, Payload: AppendResend(nil, []Range{{1, 2}})})
	// Traced (version-2) packets: the 17-byte trace extension between
	// header and payload, with and without payload, sampled and not.
	ctx := obs.SpanContext{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff01, Flags: obs.SpanSampled}
	seed(&Packet{Header: Header{Type: TRead, ReqID: 3, Offset: 8192, Length: 65536}, Trace: ctx})
	seed(&Packet{Header: Header{Type: TWrite, ReqID: 4, Length: 100}, Trace: obs.SpanContext{TraceID: 1, SpanID: 2}, Payload: []byte("wb")})
	seed(&Packet{Header: Header{Type: TMedOpen}, Trace: ctx, Payload: AppendMedOpenRequest(nil, &MedOpenRequest{Rate: 1e6, Key: "t"})})
	// Deadlined (version-3) and dual-extension (version-4) packets: the
	// 8-byte remaining-budget extension rides after the trace extension.
	seed(&Packet{Header: Header{Type: TRead, ReqID: 8, Offset: 4096, Length: 8192}, Deadline: 250000000})
	seed(&Packet{Header: Header{Type: TMedOpen}, Trace: ctx, Deadline: 1 << 32, Payload: AppendMedOpenRequest(nil, &MedOpenRequest{Rate: 1e6, Key: "t"})})
	seed(&Packet{Header: Header{Type: TPushback, ReqID: 5}, Payload: AppendPushback(nil, &PushbackInfo{Reason: PushQueueFull, RetryAfter: 40000000})})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x53, 0x57}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		if err := Unmarshal(data, &p); err != nil {
			return
		}
		// Accepted packets round trip byte-for-byte.
		out, err := Marshal(&p)
		if err != nil {
			t.Fatalf("remarshal of accepted packet failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("roundtrip mismatch:\n in: %x\nout: %x", data, out)
		}
		// And the control payload parsers must not panic on it either.
		switch p.Type {
		case TOpen, TStat, TRemove:
			ParseOpenRequest(p.Payload)
		case TOpenReply:
			ParseOpenReply(p.Payload)
		case TStatReply:
			ParseStatReply(p.Payload)
		case TResend:
			ParseResend(p.Payload)
		case TListReply:
			ParseNames(p.Payload)
		case TPingReply:
			ParsePingReply(p.Payload)
		case TError:
			ParseError(p.Payload)
		case TPushback:
			ParsePushback(p.Payload)
		}
	})
}

// FuzzControlPayloads hammers every control-payload parser directly with
// arbitrary bytes — no packet framing or CRC to hide behind, which is
// exactly what a corruption burst that happens to preserve the frame check
// would deliver. No parser may panic, and anything a parser accepts must
// survive a re-encode/re-parse round trip unchanged.
func FuzzControlPayloads(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendOpenRequest(nil, &OpenRequest{Name: "obj"}))
	f.Add(AppendOpenReply(nil, &OpenReply{Port: "data9", Size: 1 << 40}))
	f.Add(AppendStatReply(nil, &StatReply{Size: 12345, Exists: true}))
	f.Add(AppendResend(nil, []Range{{0, 4096}, {1 << 20, 512}}))
	names, _ := AppendNames(nil, []string{"a", "bb", "ccc"})
	f.Add(names)
	f.Add(AppendPingReply(nil, &PingReply{Objects: 3, Sessions: 2, Bytes: 1 << 33}))
	f.Add(AppendError(nil, "no such object"))
	f.Add(AppendMedOpenRequest(nil, &MedOpenRequest{Rate: 1e6, Redundancy: true, ParityShards: 2, Key: "tenant-a"}))
	rec := MedRecord{
		ID: 0x1234000000000007, Key: "tenant-a", Home: "med-b", Expires: 1 << 60,
		Unit: 65536, Parity: true, Shards: 2, Rate: 1e6,
		Agents: []uint16{0, 2, 3, 5, 6}, Addrs: []string{"h0:9000", "h2:9000", "h3:9000", "h5:9000", "h6:9000"},
	}
	f.Add(AppendMedRecord(nil, &rec))
	f.Add(AppendMedMirror(nil, &MedMirror{Op: 1, From: "med-a", Rec: rec}))
	f.Add(AppendMedHome(nil, &MedHome{Home: "med-c"}))
	f.Add(AppendMedStatus(nil, &MedStatus{
		Name: "med-a", Role: "draining", Sessions: 4, HomeSessions: 2,
		LastHandoff: 99, Failovers: 1, Handoffs: 2, Expirations: 0,
		AgentReserved: []float64{0.5, 0, 1}, NetReserved: []float64{0.25},
	}))
	f.Add(AppendPushback(nil, &PushbackInfo{Reason: PushOverQuota, RetryAfter: 123456789}))
	f.Add([]byte{0xFF, 0xFF}) // huge length prefixes with no body
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// Trace-context-shaped bytes (a version-2 extension: 8+8+1) fed to
	// every payload parser — corruption can slide the extension into the
	// payload window, and no parser may choke on it.
	f.Add([]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88,
		0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x01, 0x01})
	// The datagram-size agreement's trailing fields: whole, and cut short
	// inside the field (which must decode as absent, not as an error).
	jumboReq := AppendOpenRequest(nil, &OpenRequest{Name: "obj", MaxPacket: JumboPacket, Window: 2 * 42 * JumboPayload})
	f.Add(jumboReq)
	f.Add(jumboReq[:len(jumboReq)-3])
	jumboRep := AppendOpenReply(nil, &OpenReply{Port: "data9", Size: 1 << 40, Packet: JumboPacket})
	f.Add(jumboRep)
	f.Add(jumboRep[:len(jumboRep)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := ParseOpenRequest(data); err == nil {
			if r2, err := ParseOpenRequest(AppendOpenRequest(nil, &r)); err != nil || r2 != r {
				t.Fatalf("OpenRequest roundtrip: %+v -> %+v, %v", r, r2, err)
			}
		}
		if r, err := ParseOpenReply(data); err == nil {
			if r2, err := ParseOpenReply(AppendOpenReply(nil, &r)); err != nil || r2 != r {
				t.Fatalf("OpenReply roundtrip: %+v -> %+v, %v", r, r2, err)
			}
		}
		if r, err := ParseStatReply(data); err == nil {
			if r2, err := ParseStatReply(AppendStatReply(nil, &r)); err != nil || r2 != r {
				t.Fatalf("StatReply roundtrip: %+v -> %+v, %v", r, r2, err)
			}
		}
		if rs, err := ParseResend(data); err == nil && len(rs) <= MaxResendRanges {
			rs2, err := ParseResend(AppendResend(nil, rs))
			if err != nil || len(rs2) != len(rs) {
				t.Fatalf("Resend roundtrip: %d ranges -> %d, %v", len(rs), len(rs2), err)
			}
			for i := range rs {
				if rs[i] != rs2[i] {
					t.Fatalf("Resend range %d: %+v -> %+v", i, rs[i], rs2[i])
				}
			}
		}
		if ns, err := ParseNames(data); err == nil {
			enc, count := AppendNames(nil, ns)
			if count == len(ns) {
				ns2, err := ParseNames(enc)
				if err != nil || len(ns2) != len(ns) {
					t.Fatalf("Names roundtrip: %d -> %d, %v", len(ns), len(ns2), err)
				}
				for i := range ns {
					if ns[i] != ns2[i] {
						t.Fatalf("Name %d: %q -> %q", i, ns[i], ns2[i])
					}
				}
			}
		}
		if r, err := ParsePingReply(data); err == nil {
			if r2, err := ParsePingReply(AppendPingReply(nil, &r)); err != nil || r2 != r {
				t.Fatalf("PingReply roundtrip: %+v -> %+v, %v", r, r2, err)
			}
		}
		// The mediator control-plane payloads contain floats (NaN != NaN)
		// and slices, so round trips compare the re-encoded bytes: encode
		// must be a fixed point after one parse.
		if r, err := ParseMedOpenRequest(data); err == nil {
			b1 := AppendMedOpenRequest(nil, &r)
			r2, err := ParseMedOpenRequest(b1)
			if err != nil || !bytes.Equal(b1, AppendMedOpenRequest(nil, &r2)) {
				t.Fatalf("MedOpenRequest roundtrip: %+v, %v", r, err)
			}
		}
		if r, err := ParseMedRecord(data); err == nil {
			b1 := AppendMedRecord(nil, &r)
			r2, err := ParseMedRecord(b1)
			if err != nil || !bytes.Equal(b1, AppendMedRecord(nil, &r2)) {
				t.Fatalf("MedRecord roundtrip: %+v, %v", r, err)
			}
		}
		if u, err := ParseMedMirror(data); err == nil {
			b1 := AppendMedMirror(nil, &u)
			u2, err := ParseMedMirror(b1)
			if err != nil || !bytes.Equal(b1, AppendMedMirror(nil, &u2)) {
				t.Fatalf("MedMirror roundtrip: %+v, %v", u, err)
			}
		}
		if h, err := ParseMedHome(data); err == nil {
			if h2, err := ParseMedHome(AppendMedHome(nil, &h)); err != nil || h2 != h {
				t.Fatalf("MedHome roundtrip: %+v -> %+v, %v", h, h2, err)
			}
		}
		if s, err := ParseMedStatus(data); err == nil {
			b1 := AppendMedStatus(nil, &s)
			s2, err := ParseMedStatus(b1)
			if err != nil || !bytes.Equal(b1, AppendMedStatus(nil, &s2)) {
				t.Fatalf("MedStatus roundtrip: %+v, %v", s, err)
			}
		}
		if pb, err := ParsePushback(data); err == nil {
			if pb2, err := ParsePushback(AppendPushback(nil, &pb)); err != nil || pb2 != pb {
				t.Fatalf("Pushback roundtrip: %+v -> %+v, %v", pb, pb2, err)
			}
		}
		// ParseError returns an error value either way: a RemoteError for
		// well-formed payloads, a wrapped ErrShortPayload otherwise —
		// never nil, never a panic.
		if err := ParseError(data); err == nil {
			t.Fatal("ParseError returned nil")
		}
	})
}
