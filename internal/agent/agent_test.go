package agent

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"swift/internal/store"
	"swift/internal/transport"
	"swift/internal/transport/memnet"
	"swift/internal/wire"
)

// testRig is a raw-protocol harness: an agent plus a bare client conn, so
// tests can exercise the wire protocol directly, including its failure
// handling.
type testRig struct {
	t     *testing.T
	agent *Agent
	st    store.Store
	conn  transport.PacketConn
	buf   []byte
	req   uint32
}

func newRig(t *testing.T, cfg Config) *testRig { return newRigOn(t, cfg, store.NewMem()) }

// newRigOn is newRig serving st.
func newRigOn(t *testing.T, cfg Config, st store.Store) *testRig {
	t.Helper()
	n := memnet.New(1)
	seg := n.NewSegment("s", memnet.SegmentConfig{BandwidthBps: 1e10, FrameOverhead: 46})
	ah := n.MustHost("agent", memnet.HostConfig{}, seg)
	ch := n.MustHost("client", memnet.HostConfig{}, seg)
	if cfg.ResendCheck == 0 {
		cfg.ResendCheck = 5 * time.Millisecond
	}
	if cfg.ResendAfter == 0 {
		cfg.ResendAfter = 10 * time.Millisecond
	}
	a, err := New(ah, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ch.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		a.Close()
		n.Close()
	})
	return &testRig{t: t, agent: a, st: st, conn: conn, buf: make([]byte, wire.MaxPacket)}
}

func (r *testRig) send(to string, p *wire.Packet) {
	r.t.Helper()
	buf, err := wire.Marshal(p)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.conn.WriteTo(buf, to); err != nil {
		r.t.Fatal(err)
	}
}

func (r *testRig) recv(timeout time.Duration) *wire.Packet {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(timeout))
	n, _, err := r.conn.ReadFrom(r.buf)
	if err != nil {
		return nil
	}
	var p wire.Packet
	if err := wire.Unmarshal(r.buf[:n], &p); err != nil {
		r.t.Fatalf("bad packet: %v", err)
	}
	p.Payload = append([]byte(nil), p.Payload...)
	return &p
}

func (r *testRig) nextReq() uint32 { r.req++; return r.req }

// open performs the open handshake and returns the session address and
// handle.
func (r *testRig) open(name string, flags uint16) (string, uint64) {
	r.t.Helper()
	id := r.nextReq()
	r.send(r.agent.Addr(), &wire.Packet{
		Header:  wire.Header{Type: wire.TOpen, ReqID: id, Flags: flags},
		Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: name}),
	})
	reply := r.recv(time.Second)
	if reply == nil {
		r.t.Fatal("no open reply")
	}
	if reply.Type == wire.TError {
		r.t.Fatalf("open failed: %v", wire.ParseError(reply.Payload))
	}
	or, err := wire.ParseOpenReply(reply.Payload)
	if err != nil {
		r.t.Fatal(err)
	}
	ahost, _, _ := transport.SplitAddr(r.agent.Addr())
	return transport.JoinAddr(ahost, or.Port), reply.Handle
}

func TestOpenCreatesPrivatePort(t *testing.T) {
	r := newRig(t, Config{})
	addr, handle := r.open("obj", wire.FCreate)
	if addr == r.agent.Addr() {
		t.Fatal("session port equals control port")
	}
	if handle == 0 {
		t.Fatal("zero handle")
	}
	// A second open gets a different port and handle.
	addr2, handle2 := r.open("obj", wire.FCreate)
	if addr2 == addr || handle2 == handle {
		t.Fatal("sessions not distinct")
	}
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	r := newRig(t, Config{})
	id := r.nextReq()
	r.send(r.agent.Addr(), &wire.Packet{
		Header:  wire.Header{Type: wire.TOpen, ReqID: id},
		Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: "absent"}),
	})
	reply := r.recv(time.Second)
	if reply == nil || reply.Type != wire.TError {
		t.Fatalf("want TError, got %+v", reply)
	}
}

func TestWriteAnnounceDataAck(t *testing.T) {
	r := newRig(t, Config{})
	addr, h := r.open("obj", wire.FCreate)

	data := []byte("hello swift agent")
	id := r.nextReq()
	r.send(addr, &wire.Packet{Header: wire.Header{
		Type: wire.TWrite, ReqID: id, Handle: h, Offset: 0, Length: uint32(len(data)),
	}})
	r.send(addr, &wire.Packet{
		Header:  wire.Header{Type: wire.TData, ReqID: id, Handle: h, Offset: 0, Length: uint32(len(data))},
		Payload: data,
	})
	ack := r.recv(time.Second)
	if ack == nil || ack.Type != wire.TWriteAck || ack.ReqID != id {
		t.Fatalf("want ack, got %+v", ack)
	}
	// The store saw the bytes.
	if sz, err := r.st.Stat("obj"); err != nil || sz != int64(len(data)) {
		t.Fatalf("store size = %d, %v", sz, err)
	}
}

func TestDataBeforeAnnounceStillAcks(t *testing.T) {
	r := newRig(t, Config{})
	addr, h := r.open("obj", wire.FCreate)
	data := []byte("out of order")
	id := r.nextReq()
	// Data first, announcement second (datagrams reorder).
	r.send(addr, &wire.Packet{
		Header:  wire.Header{Type: wire.TData, ReqID: id, Handle: h, Offset: 0, Length: uint32(len(data))},
		Payload: data,
	})
	r.send(addr, &wire.Packet{Header: wire.Header{
		Type: wire.TWrite, ReqID: id, Handle: h, Offset: 0, Length: uint32(len(data)),
	}})
	if ack := r.recv(time.Second); ack == nil || ack.Type != wire.TWriteAck {
		t.Fatalf("want ack, got %+v", ack)
	}
}

func TestIncompleteWriteTriggersResendRequest(t *testing.T) {
	r := newRig(t, Config{ResendCheck: 5 * time.Millisecond, ResendAfter: 10 * time.Millisecond})
	addr, h := r.open("obj", wire.FCreate)

	id := r.nextReq()
	// Announce 3000 bytes but deliver only the middle 1000.
	r.send(addr, &wire.Packet{Header: wire.Header{
		Type: wire.TWrite, ReqID: id, Handle: h, Offset: 0, Length: 3000,
	}})
	payload := make([]byte, 1000)
	r.send(addr, &wire.Packet{
		Header:  wire.Header{Type: wire.TData, ReqID: id, Handle: h, Offset: 1000, Length: 1000},
		Payload: payload,
	})

	resend := r.recv(time.Second)
	if resend == nil || resend.Type != wire.TResend || resend.ReqID != id {
		t.Fatalf("want resend request, got %+v", resend)
	}
	ranges, err := wire.ParseResend(resend.Payload)
	if err != nil {
		t.Fatal(err)
	}
	want := []wire.Range{{Off: 0, Len: 1000}, {Off: 2000, Len: 1000}}
	if len(ranges) != 2 || ranges[0] != want[0] || ranges[1] != want[1] {
		t.Fatalf("resend ranges = %v, want %v", ranges, want)
	}

	// Supply the missing pieces; the ack follows.
	for _, rg := range want {
		r.send(addr, &wire.Packet{
			Header:  wire.Header{Type: wire.TData, ReqID: id, Handle: h, Offset: rg.Off, Length: uint32(rg.Len)},
			Payload: payload,
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		p := r.recv(200 * time.Millisecond)
		if p != nil && p.Type == wire.TWriteAck {
			return
		}
	}
	t.Fatal("no ack after resending missing data")
}

func TestDuplicateAnnounceAfterCompletionReAcks(t *testing.T) {
	r := newRig(t, Config{})
	addr, h := r.open("obj", wire.FCreate)
	data := []byte("dup")
	id := r.nextReq()
	announce := &wire.Packet{Header: wire.Header{
		Type: wire.TWrite, ReqID: id, Handle: h, Offset: 0, Length: uint32(len(data)),
	}}
	r.send(addr, announce)
	r.send(addr, &wire.Packet{
		Header:  wire.Header{Type: wire.TData, ReqID: id, Handle: h, Offset: 0, Length: uint32(len(data))},
		Payload: data,
	})
	if ack := r.recv(time.Second); ack == nil || ack.Type != wire.TWriteAck {
		t.Fatalf("first ack missing: %+v", ack)
	}
	// The ack was "lost": the client re-announces.
	r.send(addr, announce)
	if ack := r.recv(time.Second); ack == nil || ack.Type != wire.TWriteAck {
		t.Fatalf("duplicate announce not re-acked: %+v", ack)
	}
}

func TestReadStreamsDataWithFLast(t *testing.T) {
	r := newRig(t, Config{})
	// Seed the store directly.
	obj, _ := r.st.Open("obj", true)
	content := bytes.Repeat([]byte("0123456789abcdef"), 600) // 9600 bytes
	obj.WriteAt(content, 0)

	addr, h := r.open("obj", 0)
	id := r.nextReq()
	r.send(addr, &wire.Packet{Header: wire.Header{
		Type: wire.TRead, ReqID: id, Handle: h, Offset: 0, Length: uint32(len(content)),
	}})

	got := make([]byte, len(content))
	received := 0
	sawLast := false
	for received < len(content) {
		p := r.recv(time.Second)
		if p == nil {
			t.Fatalf("stream stalled at %d/%d", received, len(content))
		}
		if p.Type != wire.TData || p.ReqID != id {
			continue
		}
		copy(got[p.Offset:], p.Payload)
		received += len(p.Payload)
		if p.Flags&wire.FLast != 0 {
			sawLast = true
		}
	}
	if !bytes.Equal(got, content) {
		t.Fatal("read stream mismatch")
	}
	if !sawLast {
		t.Fatal("no FLast on final packet")
	}
}

func TestReadPastEOFZeroFills(t *testing.T) {
	r := newRig(t, Config{})
	obj, _ := r.st.Open("obj", true)
	obj.WriteAt([]byte("abc"), 0)

	addr, h := r.open("obj", 0)
	id := r.nextReq()
	r.send(addr, &wire.Packet{Header: wire.Header{
		Type: wire.TRead, ReqID: id, Handle: h, Offset: 0, Length: 100,
	}})
	p := r.recv(time.Second)
	if p == nil || p.Type != wire.TData || len(p.Payload) != 100 {
		t.Fatalf("bad read reply: %+v", p)
	}
	if !bytes.Equal(p.Payload[:3], []byte("abc")) {
		t.Fatal("prefix mismatch")
	}
	for i := 3; i < 100; i++ {
		if p.Payload[i] != 0 {
			t.Fatalf("byte %d not zero-filled", i)
		}
	}
}

func TestStatRemoveList(t *testing.T) {
	r := newRig(t, Config{})
	obj, _ := r.st.Open("a", true)
	obj.WriteAt(make([]byte, 500), 0)
	r.st.Open("b", true)

	// Stat.
	id := r.nextReq()
	r.send(r.agent.Addr(), &wire.Packet{
		Header:  wire.Header{Type: wire.TStat, ReqID: id},
		Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: "a"}),
	})
	p := r.recv(time.Second)
	if p == nil || p.Type != wire.TStatReply {
		t.Fatalf("stat reply: %+v", p)
	}
	sr, _ := wire.ParseStatReply(p.Payload)
	if !sr.Exists || sr.Size != 500 {
		t.Fatalf("stat = %+v", sr)
	}

	// List.
	id = r.nextReq()
	r.send(r.agent.Addr(), &wire.Packet{Header: wire.Header{Type: wire.TList, ReqID: id}})
	p = r.recv(time.Second)
	if p == nil || p.Type != wire.TListReply || p.Flags&wire.FLast == 0 {
		t.Fatalf("list reply: %+v", p)
	}
	names, err := wire.ParseNames(p.Payload)
	if err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v, %v", names, err)
	}

	// Remove.
	id = r.nextReq()
	r.send(r.agent.Addr(), &wire.Packet{
		Header:  wire.Header{Type: wire.TRemove, ReqID: id},
		Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: "a"}),
	})
	if p = r.recv(time.Second); p == nil || p.Type != wire.TRemoveReply {
		t.Fatalf("remove reply: %+v", p)
	}
	if _, err := r.st.Stat("a"); err != store.ErrNotExist {
		t.Fatal("object not removed")
	}
}

func TestTruncAndSync(t *testing.T) {
	r := newRig(t, Config{})
	obj, _ := r.st.Open("obj", true)
	obj.WriteAt(make([]byte, 1000), 0)
	addr, h := r.open("obj", 0)

	id := r.nextReq()
	r.send(addr, &wire.Packet{Header: wire.Header{Type: wire.TTrunc, ReqID: id, Handle: h, Offset: 100}})
	if p := r.recv(time.Second); p == nil || p.Type != wire.TTruncReply {
		t.Fatalf("trunc reply: %+v", p)
	}
	if sz, _ := r.st.Stat("obj"); sz != 100 {
		t.Fatalf("size after trunc = %d", sz)
	}

	id = r.nextReq()
	r.send(addr, &wire.Packet{Header: wire.Header{Type: wire.TSync, ReqID: id, Handle: h}})
	if p := r.recv(time.Second); p == nil || p.Type != wire.TSyncReply {
		t.Fatalf("sync reply: %+v", p)
	}
}

func TestCloseReleasesSession(t *testing.T) {
	r := newRig(t, Config{})
	addr, h := r.open("obj", wire.FCreate)

	id := r.nextReq()
	r.send(addr, &wire.Packet{Header: wire.Header{Type: wire.TClose, ReqID: id, Handle: h}})
	if p := r.recv(time.Second); p == nil || p.Type != wire.TCloseReply {
		t.Fatalf("close reply: %+v", p)
	}
	r.agent.mu.Lock()
	n := len(r.agent.sessions)
	r.agent.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d sessions remain after close", n)
	}
}

func TestSessionIdleTimeout(t *testing.T) {
	r := newRig(t, Config{
		ResendCheck: 5 * time.Millisecond,
		SessionIdle: 30 * time.Millisecond,
	})
	r.open("obj", wire.FCreate)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		r.agent.mu.Lock()
		n := len(r.agent.sessions)
		r.agent.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("idle session never reaped")
}

func TestMaxSessionsEnforced(t *testing.T) {
	r := newRig(t, Config{MaxSessions: 3})
	for i := 0; i < 3; i++ {
		r.open(fmt.Sprintf("obj%d", i), wire.FCreate)
	}
	if r.agent.SessionCount() != 3 {
		t.Fatalf("sessions = %d", r.agent.SessionCount())
	}
	// The fourth open is rejected.
	id := r.nextReq()
	r.send(r.agent.Addr(), &wire.Packet{
		Header:  wire.Header{Type: wire.TOpen, ReqID: id, Flags: wire.FCreate},
		Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: "overflow"}),
	})
	reply := r.recv(time.Second)
	if reply == nil || reply.Type != wire.TError {
		t.Fatalf("overflow open = %+v, want TError", reply)
	}
}

func TestPingStatus(t *testing.T) {
	r := newRig(t, Config{})
	obj, _ := r.st.Open("x", true)
	obj.WriteAt(make([]byte, 1234), 0)
	r.open("x", 0)

	id := r.nextReq()
	r.send(r.agent.Addr(), &wire.Packet{Header: wire.Header{Type: wire.TPing, ReqID: id}})
	reply := r.recv(time.Second)
	if reply == nil || reply.Type != wire.TPingReply {
		t.Fatalf("ping reply = %+v", reply)
	}
	pr, err := wire.ParsePingReply(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Objects != 1 || pr.Sessions != 1 || pr.Bytes != 1234 {
		t.Fatalf("ping status = %+v", pr)
	}
}

func TestAgentCloseIsIdempotent(t *testing.T) {
	r := newRig(t, Config{})
	r.open("obj", wire.FCreate)
	if err := r.agent.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.agent.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineExpiredReadShed(t *testing.T) {
	r := newRig(t, Config{})
	obj, _ := r.st.Open("obj", true)
	obj.WriteAt([]byte("abc"), 0)
	addr, h := r.open("obj", 0)

	// Slow the agent at runtime so a tight budget is spent before service.
	r.agent.SetReadDelay(20 * time.Millisecond)
	id := r.nextReq()
	r.send(addr, &wire.Packet{
		Header:   wire.Header{Type: wire.TRead, ReqID: id, Handle: h, Offset: 0, Length: 3},
		Deadline: time.Millisecond,
	})
	p := r.recv(time.Second)
	if p == nil || p.Type != wire.TPushback || p.ReqID != id {
		t.Fatalf("want pushback, got %+v", p)
	}
	info, err := wire.ParsePushback(p.Payload)
	if err != nil || info.Reason != wire.PushDeadlineExpired {
		t.Fatalf("pushback = %+v, %v", info, err)
	}

	// Restore speed: the same request with budget to spare is served.
	r.agent.SetReadDelay(0)
	id = r.nextReq()
	r.send(addr, &wire.Packet{
		Header:   wire.Header{Type: wire.TRead, ReqID: id, Handle: h, Offset: 0, Length: 3},
		Deadline: time.Second,
	})
	if p := r.recv(time.Second); p == nil || p.Type != wire.TData {
		t.Fatalf("want data after recovery, got %+v", p)
	}
}

func TestQueueFullReadShed(t *testing.T) {
	r := newRig(t, Config{MaxInflightReads: 1, ReadDelay: 200 * time.Millisecond})
	obj, _ := r.st.Open("obj", true)
	obj.WriteAt([]byte("abc"), 0)
	addr1, h1 := r.open("obj", 0)
	addr2, h2 := r.open("obj", 0)

	// First read occupies the only service slot (held in the injected
	// delay); the second must be shed with a pacing hint, not queued.
	id1 := r.nextReq()
	r.send(addr1, &wire.Packet{Header: wire.Header{
		Type: wire.TRead, ReqID: id1, Handle: h1, Offset: 0, Length: 3,
	}})
	time.Sleep(20 * time.Millisecond) // let the first read enter service
	id2 := r.nextReq()
	r.send(addr2, &wire.Packet{Header: wire.Header{
		Type: wire.TRead, ReqID: id2, Handle: h2, Offset: 0, Length: 3,
	}})
	p := r.recv(100 * time.Millisecond)
	if p == nil || p.Type != wire.TPushback || p.ReqID != id2 {
		t.Fatalf("want pushback for second read, got %+v", p)
	}
	info, err := wire.ParsePushback(p.Payload)
	if err != nil || info.Reason != wire.PushQueueFull || info.RetryAfter <= 0 {
		t.Fatalf("pushback = %+v, %v", info, err)
	}
	// The first read still completes: shedding is selective.
	for {
		p = r.recv(time.Second)
		if p == nil {
			t.Fatal("first read never completed")
		}
		if p.Type == wire.TData && p.ReqID == id1 {
			return
		}
	}
}
