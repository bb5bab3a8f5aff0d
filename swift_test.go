package swift_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"swift"
	"swift/internal/transport/udpnet"
)

// startCluster boots n in-process storage agents over real UDP loopback
// and dials a client — the full deployment stack.
func startCluster(t *testing.T, n int, cfg swift.Config) *swift.FS {
	t.Helper()
	host := udpnet.NewHost("127.0.0.1")
	var addrs []string
	for i := 0; i < n; i++ {
		a, err := swift.StartAgent(host, swift.NewMemStore(), swift.AgentConfig{Port: "0"})
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
		t.Cleanup(func() { a.Close() })
		addrs = append(addrs, a.Addr())
	}
	cfg.Host = host
	cfg.Agents = addrs
	fs, err := swift.Dial(cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func TestFacadeOverUDP(t *testing.T) {
	fs := startCluster(t, 3, swift.Config{Unit: 8 * 1024})

	data := make([]byte, 300_000)
	rand.New(rand.NewSource(1)).Read(data)

	f, err := fs.Create("facade")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	size, err := fs.Stat("facade")
	if err != nil || size != int64(len(data)) {
		t.Fatalf("stat = %d, %v", size, err)
	}

	g, err := fs.Open("facade")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer g.Close()
	back, err := io.ReadAll(g)
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip mismatch")
	}

	names, err := fs.List()
	if err != nil || len(names) != 1 || names[0] != "facade" {
		t.Fatalf("list = %v, %v", names, err)
	}
	if err := fs.Remove("facade"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := fs.Stat("facade"); err == nil {
		t.Fatal("stat after remove succeeded")
	}
}

func TestFacadeParityDegradedOverUDP(t *testing.T) {
	host := udpnet.NewHost("127.0.0.1")
	agents := make([]*swift.Agent, 4)
	var addrs []string
	for i := range agents {
		a, err := swift.StartAgent(host, swift.NewMemStore(), swift.AgentConfig{Port: "0"})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		addrs = append(addrs, a.Addr())
	}
	defer func() {
		for _, a := range agents {
			if a != nil {
				a.Close()
			}
		}
	}()
	fs, err := swift.Dial(swift.Config{
		Host: host, Agents: addrs,
		Unit: 4 * 1024, Parity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	data := make([]byte, 150_000)
	rand.New(rand.NewSource(2)).Read(data)
	f, err := fs.Create("p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()

	agents[1].Close()
	agents[1] = nil
	fs.MarkDown(1, true)

	g, err := fs.Open("p")
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer g.Close()
	back := make([]byte, len(data))
	if _, err := g.ReadAt(back, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("degraded read mismatch")
	}
}

func TestSeekSemantics(t *testing.T) {
	fs := startCluster(t, 2, swift.Config{Unit: 1024})
	f, err := fs.Create("seek")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "hello, ")
	fmt.Fprintf(f, "world")
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(all) != "hello, world" {
		t.Fatalf("got %q", all)
	}
	if pos, _ := f.Seek(-5, io.SeekEnd); pos != 7 {
		t.Fatalf("seek end pos = %d", pos)
	}
	tail, _ := io.ReadAll(f)
	if string(tail) != "world" {
		t.Fatalf("tail = %q", tail)
	}
}

func TestFacadeRSDoubleFailureOverUDP(t *testing.T) {
	host := udpnet.NewHost("127.0.0.1")
	agents := make([]*swift.Agent, 5)
	var addrs []string
	for i := range agents {
		a, err := swift.StartAgent(host, swift.NewMemStore(), swift.AgentConfig{Port: "0"})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		addrs = append(addrs, a.Addr())
	}
	defer func() {
		for _, a := range agents {
			if a != nil {
				a.Close()
			}
		}
	}()
	fs, err := swift.Dial(swift.Config{
		Host: host, Agents: addrs,
		Unit: 4 * 1024, DataShards: 3, ParityShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if s := fs.Scheme(); s != "3+2" {
		t.Fatalf("scheme = %q, want 3+2", s)
	}

	data := make([]byte, 150_000)
	rand.New(rand.NewSource(3)).Read(data)
	f, err := fs.Create("rs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Two agents die; the 3+2 scheme still serves exact bytes.
	for _, i := range []int{1, 3} {
		agents[i].Close()
		agents[i] = nil
		fs.MarkDown(i, true)
	}
	g, err := fs.Open("rs")
	if err != nil {
		t.Fatalf("double-degraded open: %v", err)
	}
	defer g.Close()
	back := make([]byte, len(data))
	if _, err := g.ReadAt(back, 0); err != nil {
		t.Fatalf("double-degraded read: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("double-degraded read mismatch")
	}
}

func TestFacadeShardMismatchRejected(t *testing.T) {
	host := udpnet.NewHost("127.0.0.1")
	_, err := swift.Dial(swift.Config{
		Host:   host,
		Agents: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		// 3 agents cannot be 3 data + 2 parity.
		DataShards: 3, ParityShards: 2,
	})
	if err == nil {
		t.Fatal("shard/agent mismatch accepted")
	}
}
