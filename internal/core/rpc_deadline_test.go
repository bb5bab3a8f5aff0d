package core

import (
	"testing"
	"time"

	"swift/internal/backoff"
	"swift/internal/transport/memnet"
	"swift/internal/wire"
)

// TestRPCCarriesDeadlineBudget pins the control-plane deadline contract:
// every transmission of a client RPC — including retransmits — carries
// the remaining retry budget in the packet's deadline extension, and the
// budget shrinks across attempts. This is the retry path deadlineflow
// exists to guard; before the fix, core RPCs sent no deadline at all.
func TestRPCCarriesDeadlineBudget(t *testing.T) {
	n := memnet.New(1)
	defer n.Close()
	seg := n.NewSegment("lab", memnet.SegmentConfig{BandwidthBps: 1e10, FrameOverhead: 46})
	ah := n.MustHost("agent", memnet.HostConfig{}, seg)
	ch := n.MustHost("client", memnet.HostConfig{}, seg)

	srv, err := ah.Listen("7")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Fake agent: swallow the first attempt (forcing a retransmit),
	// record each attempt's deadline, reply on the second.
	deadlines := make(chan time.Duration, 2)
	go func() {
		buf := make([]byte, wire.MaxPacket)
		var pkt wire.Packet
		for i := 0; i < 2; i++ {
			nr, from, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			if err := wire.Unmarshal(buf[:nr], &pkt); err != nil {
				continue
			}
			deadlines <- pkt.Deadline
			if i == 1 {
				reply, _ := wire.Marshal(&wire.Packet{
					Header: wire.Header{Type: wire.TStatReply, ReqID: pkt.ReqID},
				})
				srv.WriteTo(reply, from)
			}
		}
	}()

	c := &Client{
		cfg: Config{RetryTimeout: 20 * time.Millisecond, MaxRetries: 5},
		bo:  backoff.New(20*time.Millisecond, 80*time.Millisecond),
	}
	c.tel = newTelemetry(c)
	conn, err := ch.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := &wire.Packet{Header: wire.Header{Type: wire.TStat, ReqID: 9}}
	if _, err := c.rpcAttempts(conn, ah.Name()+":7", req, 9, c.cfg.MaxRetries); err != nil {
		t.Fatalf("rpc: %v", err)
	}

	first := <-deadlines
	second := <-deadlines
	if first <= 0 {
		t.Fatalf("first attempt carried no deadline budget: %v", first)
	}
	if second <= 0 {
		t.Fatalf("retransmit carried no deadline budget: %v", second)
	}
	if second >= first {
		t.Fatalf("budget did not shrink across attempts: first %v, retransmit %v", first, second)
	}
}
