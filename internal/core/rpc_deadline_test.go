package core

import (
	"testing"
	"time"

	"swift/internal/backoff"
	"swift/internal/medrpc"
	"swift/internal/transport/memnet"
	"swift/internal/wire"
)

// TestRPCCarriesDeadlineBudget pins the control-plane deadline contract
// of wire.Exchange for both of its callers, core's agent RPCs and
// medrpc's mediator stub: every transmission — including retransmits —
// carries the remaining retry budget in the packet's deadline extension,
// and the budget shrinks across attempts.
func TestRPCCarriesDeadlineBudget(t *testing.T) {
	cases := []struct {
		name string
		call func(t *testing.T, host *memnet.Host, addr string) error
	}{
		{"core", func(t *testing.T, host *memnet.Host, addr string) error {
			c := &Client{
				cfg: Config{RetryTimeout: 20 * time.Millisecond, MaxRetries: 5},
				bo:  backoff.New(20*time.Millisecond, 80*time.Millisecond),
			}
			c.tel = newTelemetry(c)
			conn, err := host.Listen("0")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_, err = c.rpc(conn, addr, &wire.Packet{Header: wire.Header{Type: wire.TStat}})
			return err
		}},
		{"medrpc", func(t *testing.T, host *memnet.Host, addr string) error {
			c, err := medrpc.NewClient(medrpc.ClientConfig{Host: host, Addr: addr})
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.Drain()
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := memnet.New(1)
			defer n.Close()
			seg := n.NewSegment("lab", memnet.SegmentConfig{BandwidthBps: 1e10, FrameOverhead: 46})
			sh := n.MustHost("server", memnet.HostConfig{}, seg)
			ch := n.MustHost("client", memnet.HostConfig{}, seg)
			srv, err := sh.Listen("7")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			// Fake server: swallow the first transmission (forcing a
			// retransmit), record each one's deadline, reply to the second.
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
						reply, _ := wire.Marshal(&wire.Packet{Header: wire.Header{Type: pkt.Type + 1, ReqID: pkt.ReqID}})
						srv.WriteTo(reply, from)
					}
				}
			}()

			if err := tc.call(t, ch, sh.Name()+":7"); err != nil {
				t.Fatalf("rpc: %v", err)
			}
			first, second := <-deadlines, <-deadlines
			if first <= 0 || second <= 0 {
				t.Fatalf("a transmission carried no deadline budget: first %v, retransmit %v", first, second)
			}
			if second >= first {
				t.Fatalf("budget did not shrink across attempts: first %v, retransmit %v", first, second)
			}
		})
	}
}
