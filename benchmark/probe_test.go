package main

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"swift/internal/store"
	"swift/internal/transport"
)

// scriptConn is a PacketConn that records what is written to it (copying,
// as the real transports do) and replays a script of datagrams.
type scriptConn struct {
	mu     sync.Mutex
	wrote  [][]byte
	script [][]byte
}

func (c *scriptConn) WriteTo(p []byte, addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrote = append(c.wrote, append([]byte(nil), p...))
	return nil
}

func (c *scriptConn) ReadFrom(p []byte) (int, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.script) == 0 {
		return 0, "", transport.ErrTimeout
	}
	d := c.script[0]
	c.script = c.script[1:]
	return copy(p, d), "peer:1", nil
}

func (c *scriptConn) SetReadDeadline(time.Time) error { return nil }
func (c *scriptConn) LocalAddr() string               { return "script:0" }
func (c *scriptConn) Close() error                    { return nil }

type scriptHost struct{ conn *scriptConn }

func (h scriptHost) Listen(string) (transport.PacketConn, error) { return h.conn, nil }
func (h scriptHost) Name() string                                { return "script" }

func TestProbedConnScriptedExchange(t *testing.T) {
	inner := &scriptConn{script: [][]byte{[]byte("reply-one"), []byte("reply-two!")}}
	var probe counters
	conn, err := probedHost{Host: scriptHost{inner}, c: &probe}.Listen("0")
	if err != nil {
		t.Fatal(err)
	}

	// Sends pass through unchanged, and the probe keeps no reference to
	// the caller's buffer: scribbling on it afterwards changes nothing
	// that was sent.
	sends := [][]byte{[]byte("alpha"), []byte("bravo-bravo"), []byte("c")}
	sentBytes := 0
	for _, s := range sends {
		buf := append([]byte(nil), s...)
		if err := conn.WriteTo(buf, "peer:1"); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'X'
		}
		sentBytes += len(s)
	}
	for i, s := range sends {
		if !bytes.Equal(inner.wrote[i], s) {
			t.Errorf("datagram %d arrived as %q, sent %q", i, inner.wrote[i], s)
		}
	}

	// Receives land in the caller's buffer unchanged; a later receive
	// into another buffer leaves the first alone.
	first, second := make([]byte, 32), make([]byte, 32)
	n1, from, err := conn.ReadFrom(first)
	if err != nil || from != "peer:1" || string(first[:n1]) != "reply-one" {
		t.Fatalf("first receive: %q from %q, %v", first[:n1], from, err)
	}
	time.Sleep(5 * time.Millisecond) // the owner "works" between receives
	n2, _, err := conn.ReadFrom(second)
	if err != nil || string(second[:n2]) != "reply-two!" || string(first[:n1]) != "reply-one" {
		t.Fatalf("second receive: %q (first now %q), %v", second[:n2], first[:n1], err)
	}
	if _, _, err := conn.ReadFrom(second); !transport.IsTimeout(err) {
		t.Fatalf("third receive: %v, want the script's timeout", err)
	}

	got := probe.totals()
	if got[sendPkts] != 3 || got[sendBytes] != int64(sentBytes) {
		t.Errorf("send counters %d pkts %d bytes, want 3 and %d", got[sendPkts], got[sendBytes], sentBytes)
	}
	if got[recvPkts] != 2 || got[recvBytes] != int64(n1+n2) {
		t.Errorf("receive counters %d pkts %d bytes, want 2 and %d (a timeout is not a datagram)", got[recvPkts], got[recvBytes], n1+n2)
	}
	if got[outsideNs] < int64(5*time.Millisecond) {
		t.Errorf("outside-ReadFrom time %v, want at least the 5ms slept between receives", time.Duration(got[outsideNs]))
	}
	if got[sendNs] <= 0 || got[recvNs] <= 0 {
		t.Errorf("no time recorded: send %d ns, receive %d ns", got[sendNs], got[recvNs])
	}
}

// Counters are exact when many goroutines share one host's conns, which is
// how the agents use them. Run under -race.
func TestProbedConnConcurrentCounts(t *testing.T) {
	var probe counters
	host := probedHost{Host: scriptHost{&scriptConn{}}, c: &probe}
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		conn, err := host.Listen("0")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 100)
			for i := 0; i < each; i++ {
				if err := conn.WriteTo(buf, "peer:1"); err != nil {
					t.Error(err)
					return
				}
				conn.ReadFrom(buf) // script is empty: times out, counts no datagram
			}
		}()
	}
	wg.Wait()
	got := probe.totals()
	if got[sendPkts] != workers*each || got[sendBytes] != workers*each*100 || got[recvPkts] != 0 {
		t.Errorf("counters %+v, want %d sends of 100 bytes and no receives", got.named(connCounterNames), workers*each)
	}
	if d := got.sub(got); d != (totals{}) {
		t.Errorf("totals minus themselves = %v", d)
	}
}

func TestProbedStorePassesBytesAndCounts(t *testing.T) {
	var probe counters
	st := probedStore{Store: store.NewMem(), c: &probe}
	obj, err := st.Open("o", true)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	data := payload(10000)
	buf := append([]byte(nil), data...)
	if n, err := obj.WriteAt(buf, 300); err != nil || n != len(data) {
		t.Fatalf("write: %d, %v", n, err)
	}
	for i := range buf {
		buf[i] = 0
	}
	got := make([]byte, len(data))
	for off := 0; off < len(got); off += 4096 {
		end := min(off+4096, len(got))
		if _, err := obj.ReadAt(got[off:end], int64(300+off)); err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bytes changed on the way through the probe")
	}
	tot := probe.totals()
	if tot[writeCalls] != 1 || tot[writeBytes] != 10000 || tot[readCalls] != 3 || tot[readBytes] != 10000 {
		t.Errorf("counters %v, want 1 write and 3 reads of 10000 bytes each way", tot.named(storeCounterNames))
	}
	if tot.storeCalls() != 4 || tot.storeBytes() != 20000 || tot.storeNs() <= 0 {
		t.Errorf("calls %d bytes %d ns %d", tot.storeCalls(), tot.storeBytes(), tot.storeNs())
	}
}
