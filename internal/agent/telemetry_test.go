package agent

import (
	"strings"
	"testing"
	"time"

	"swift/internal/obs"
	"swift/internal/wire"
)

// TestAgentTelemetryAdvance: a read and a write burst through the raw
// protocol must advance the agent's service-time histograms and traffic
// counters, and the series must appear in a shared registry's export.
func TestAgentTelemetryAdvance(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRig(t, Config{Obs: reg})

	sess, h := r.open("tele", wire.FCreate)

	// One write burst: announce + data, wait for the ack.
	payload := []byte("telemetry payload")
	id := r.nextReq()
	r.send(sess, &wire.Packet{
		Header: wire.Header{Type: wire.TWrite, ReqID: id, Handle: h,
			Offset: 0, Length: uint32(len(payload))},
	})
	r.send(sess, &wire.Packet{
		Header: wire.Header{Type: wire.TData, ReqID: id, Handle: h,
			Offset: 0, Length: uint32(len(payload))},
		Payload: payload,
	})
	if ack := r.recv(time.Second); ack == nil || ack.Type != wire.TWriteAck {
		t.Fatalf("no write ack: %+v", ack)
	}

	// One read request, drain the data packets.
	id = r.nextReq()
	r.send(sess, &wire.Packet{
		Header: wire.Header{Type: wire.TRead, ReqID: id, Handle: h,
			Offset: 0, Length: uint32(len(payload))},
	})
	if pkt := r.recv(time.Second); pkt == nil || pkt.Type != wire.TData {
		t.Fatalf("no read data: %+v", pkt)
	}

	// The agent records a read's telemetry as the serve returns, which
	// races the data packet to this goroutine: let the serve finish.
	tel := r.agent.tel
	for end := time.Now().Add(time.Second); tel.readServeLat.Count() == 0 && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if tel.opens.Load() != 1 {
		t.Errorf("opens = %d, want 1", tel.opens.Load())
	}
	if tel.sessions.Load() != 1 {
		t.Errorf("sessions gauge = %d, want 1", tel.sessions.Load())
	}
	if tel.readReqs.Load() != 1 || tel.readBytes.Load() != int64(len(payload)) {
		t.Errorf("read telemetry: reqs=%d bytes=%d", tel.readReqs.Load(), tel.readBytes.Load())
	}
	if tel.readServeLat.Count() != 1 {
		t.Errorf("read serve histogram count = %d, want 1", tel.readServeLat.Count())
	}
	if tel.writeBursts.Load() != 1 || tel.writeBytes.Load() != int64(len(payload)) {
		t.Errorf("write telemetry: bursts=%d bytes=%d", tel.writeBursts.Load(), tel.writeBytes.Load())
	}
	if tel.writeLat.Count() != 1 {
		t.Errorf("write burst histogram count = %d, want 1", tel.writeLat.Count())
	}
	if tel.dataPackets.Load() != 1 {
		t.Errorf("data packets = %d, want 1", tel.dataPackets.Load())
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"swift_agent_opens_total 1",
		"swift_agent_sessions 1",
		"swift_agent_read_serve_seconds_count 1",
		"swift_agent_write_bursts_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q", want)
		}
	}
}

// TestAgentOpenRejectCounted: opens beyond MaxSessions must be counted as
// rejects and traced.
func TestAgentOpenRejectCounted(t *testing.T) {
	r := newRig(t, Config{MaxSessions: 1})
	r.open("one", wire.FCreate)

	id := r.nextReq()
	r.send(r.agent.Addr(), &wire.Packet{
		Header:  wire.Header{Type: wire.TOpen, ReqID: id, Flags: wire.FCreate},
		Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: "two"}),
	})
	reply := r.recv(time.Second)
	if reply == nil || reply.Type != wire.TError {
		t.Fatalf("expected error reply, got %+v", reply)
	}
	if r.agent.tel.openRejects.Load() != 1 {
		t.Errorf("open rejects = %d, want 1", r.agent.tel.openRejects.Load())
	}
	var traced bool
	for _, e := range r.agent.Trace().Snapshot() {
		if e.Kind == "open_reject" {
			traced = true
		}
	}
	if !traced {
		t.Error("no open_reject trace event")
	}
}
