//go:build linux

package udpnet

import (
	"bytes"
	"encoding/binary"
	"sync"
	"syscall"
	"testing"
	"time"

	"swift/internal/transport"
)

// jumbo is the session data datagram, wire.JumboPacket.
const jumbo = 32 + 8192 + 4

// segPair is a sender and a receiver on loopback, each on its own Host so
// that each side's Stats are its own.
type segPair struct {
	sendHost, recvHost *Host
	a, b               *conn
}

func newSegPair(t *testing.T) *segPair {
	t.Helper()
	p := &segPair{sendHost: NewHost("127.0.0.1"), recvHost: NewHost("127.0.0.1")}
	a, err := p.sendHost.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := p.recvHost.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	p.a, p.b = a.(*conn), b.(*conn)
	p.b.SetReadDeadline(time.Now().Add(10 * time.Second))
	return p
}

// offload reports whether this kernel moves runs both ways; without it
// every assertion about datagrams still holds, those about calls do not.
func (p *segPair) offload() bool { return p.a.gso.Load() && p.b.gro }

// run returns count datagrams of seg bytes, the last one last bytes long
// (seg when last is 0), each filled with its own index.
func run(count, seg, last int) []byte {
	var b []byte
	for i := 0; i < count; i++ {
		n := seg
		if i == count-1 && last > 0 {
			n = last
		}
		b = append(b, bytes.Repeat([]byte{byte(i + 1)}, n)...)
	}
	return b
}

// datagrams cuts a run into its datagrams.
func datagrams(b []byte, seg int) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		var d []byte
		d, b = transport.NextSegment(b, seg)
		out = append(out, d)
	}
	return out
}

// readSegments receives with ReadSegments until want datagrams have
// arrived and returns them with the number of calls it took.
func (p *segPair) readSegments(t *testing.T, want int) (got [][]byte, calls int) {
	t.Helper()
	buf := make([]byte, transport.RunBytes)
	for len(got) < want {
		n, seg, from, err := p.b.ReadSegments(buf)
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", len(got), want, err)
		}
		if from != p.a.LocalAddr() {
			t.Fatalf("run from %q, want %q", from, p.a.LocalAddr())
		}
		if n > transport.MaxRun {
			t.Fatalf("a %d-byte run, more than one send carries", n)
		}
		for _, d := range datagrams(buf[:n], seg) {
			got = append(got, bytes.Clone(d))
		}
		calls++
	}
	return got, calls
}

// readFroms receives want datagrams one ReadFrom at a time.
func (p *segPair) readFroms(t *testing.T, want int) [][]byte {
	t.Helper()
	var got [][]byte
	buf := make([]byte, 2*jumbo)
	for len(got) < want {
		n, from, err := p.b.ReadFrom(buf)
		if err != nil || from != p.a.LocalAddr() {
			t.Fatalf("datagram %d of %d from %q: %v", len(got), want, from, err)
		}
		got = append(got, bytes.Clone(buf[:n]))
	}
	return got
}

func sameDatagrams(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d datagrams arrived, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("datagram %d arrived as %d bytes starting %d, want %d bytes of %d", i, len(got[i]), got[i][0], len(want[i]), want[i][0])
		}
	}
}

// TestSegmentRunArrivesWhole: a run of seven 8228-byte datagrams leaves in
// one send and arrives in one receive as the same seven datagrams from the
// sender's address, whichever receive call hands them out; the host
// counters count datagrams, not calls, so a sender's out and a receiver's
// in still balance.
func TestSegmentRunArrivesWhole(t *testing.T) {
	p := newSegPair(t)
	b := run(7, jumbo, 0)
	want := datagrams(b, jumbo)
	if err := p.a.WriteSegments(b, jumbo, p.b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	got, calls := p.readSegments(t, 7)
	sameDatagrams(t, got, want)
	t.Logf("segmentation offload %v: the run took %d receives", p.offload(), calls)
	if p.offload() && calls != 1 {
		t.Errorf("the run took %d receives, want 1", calls)
	}
	// The same run through the per-datagram call.
	if err := p.a.WriteSegments(b, jumbo, p.b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	sameDatagrams(t, p.readFroms(t, 7), want)

	out, in := p.sendHost.Stats(), p.recvHost.Stats()
	if out.PacketsOut != 14 || in.PacketsIn != 14 || out.BytesOut != int64(2*len(b)) || in.BytesIn != int64(2*len(b)) {
		t.Errorf("sender counted %d datagrams and %d bytes out, receiver %d and %d in; want 14 and %d each",
			out.PacketsOut, out.BytesOut, in.PacketsIn, in.BytesIn, 2*len(b))
	}
}

// TestSegmentShortLast: the last datagram of a run may be shorter.
func TestSegmentShortLast(t *testing.T) {
	p := newSegPair(t)
	b := run(7, jumbo, 100)
	want := datagrams(b, jumbo)
	if len(want[6]) != 100 {
		t.Fatalf("fixture: last datagram %d bytes", len(want[6]))
	}
	if err := p.a.WriteSegments(b, jumbo, p.b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	got, calls := p.readSegments(t, 7)
	sameDatagrams(t, got, want)
	if p.offload() && calls != 1 {
		t.Errorf("the run took %d receives, want 1", calls)
	}
	if err := p.a.WriteSegments(b, jumbo, p.b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	sameDatagrams(t, p.readFroms(t, 7), want)
}

// TestSegmentRunSplit: a run longer than one send carries leaves in
// sends of whole datagrams, each at most MaxRun bytes and MaxSegments
// datagrams.
func TestSegmentRunSplit(t *testing.T) {
	for _, tc := range []struct {
		count, seg, sends int
	}{
		{20, jumbo, 3}, // 7 + 7 + 6: bytes bound
		{100, 1400, 3}, // 46 + 46 + 8: bytes bound
		{130, 200, 3},  // 64 + 64 + 2: datagrams bound
		{47, 1400, 2},  // 46 + a lone datagram
		{2, 65507, 2},  // the largest datagram, one per send
	} {
		p := newSegPair(t)
		b := run(tc.count, tc.seg, 0)
		if err := p.a.WriteSegments(b, tc.seg, p.b.LocalAddr()); err != nil {
			t.Fatalf("%d x %d bytes: %v", tc.count, tc.seg, err)
		}
		got, calls := p.readSegments(t, tc.count)
		sameDatagrams(t, got, datagrams(b, tc.seg))
		if p.offload() && calls != tc.sends {
			t.Errorf("%d x %d bytes arrived in %d runs, want %d", tc.count, tc.seg, calls, tc.sends)
		}
	}
}

// TestSegmentRefusalFallsBack forces the kernel's refusal — a socket that
// sends without UDP checksums may not segment (EINVAL), as a device without
// checksum offload may not (EIO) — and checks that the run still arrives
// whole, datagram by datagram, and that the conn stops trying.
func TestSegmentRefusalFallsBack(t *testing.T) {
	p := newSegPair(t)
	if !p.a.gso.Load() {
		t.Skip("this kernel does not segment UDP sends")
	}
	rc, err := p.a.uc.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Skipf("cannot turn UDP checksums off: %v %v", err, serr)
	}
	b := run(7, jumbo, 100)
	for round := 0; round < 2; round++ {
		if err := p.a.WriteSegments(b, jumbo, p.b.LocalAddr()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if p.a.gso.Load() {
			t.Fatalf("round %d: the conn still segments after the kernel refused", round)
		}
		got, calls := p.readSegments(t, 7)
		sameDatagrams(t, got, datagrams(b, jumbo))
		if calls != 7 {
			t.Errorf("round %d: %d receives for 7 datagrams sent one by one", round, calls)
		}
	}
	if out := p.sendHost.Stats(); out.PacketsOut != 14 {
		t.Errorf("sender counted %d datagrams, want 14", out.PacketsOut)
	}
}

// groCmsg is the control message the kernel hands a UDP_GRO receive: a
// header and an int gso_size, padded.
func groCmsg(seg int32) []byte {
	b := make([]byte, syscall.CmsgSpace(4))
	putCmsgLen(b, syscall.CmsgLen(4))
	binary.NativeEndian.PutUint32(b[cmsgLenSize:], syscall.IPPROTO_UDP)
	binary.NativeEndian.PutUint32(b[cmsgLenSize+4:], udpGRO)
	binary.NativeEndian.PutUint32(b[syscall.CmsgLen(0):], uint32(seg))
	return b
}

func TestGROSegmentParse(t *testing.T) {
	other := segmentCmsg(make([]byte, segmentOOB), 1400) // a UDP_SEGMENT message is not a GRO report
	for _, tc := range []struct {
		name string
		oob  []byte
		want int
	}{
		{"none", nil, 0},
		{"gro", groCmsg(8228), 8228},
		{"after another message", append(bytes.Clone(other), groCmsg(1400)...), 1400},
		{"only another message", other, 0},
		{"negative", groCmsg(-5), 0},
		{"cut short", groCmsg(8228)[:syscall.CmsgLen(0)+2], 0},
		{"header only", groCmsg(8228)[:syscall.CmsgLen(0)], 0},
	} {
		if got := groSegment(tc.oob); got != tc.want {
			t.Errorf("%s: gso_size %d, want %d", tc.name, got, tc.want)
		}
	}
}

// FuzzGROControl feeds the receive path's control-message walk what a
// kernel could put in the buffer, lengths included: it must never read
// outside the buffer or report a negative size, and a well-formed GRO
// report behind any well-formed message is found.
func FuzzGROControl(f *testing.F) {
	f.Add([]byte{}, int32(8228))
	f.Add(groCmsg(1400), int32(1400))
	f.Add(segmentCmsg(make([]byte, segmentOOB), 8228), int32(8228))
	f.Add(bytes.Repeat([]byte{0xff}, 40), int32(-1))
	f.Fuzz(func(t *testing.T, oob []byte, seg int32) {
		if got := groSegment(oob); got < 0 {
			t.Fatalf("gso_size %d from %x", got, oob)
		}
		// oob as the data of some other message, then the GRO report.
		data := oob[:min(len(oob), 64)]
		lead := make([]byte, syscall.CmsgSpace(len(data)))
		putCmsgLen(lead, syscall.CmsgLen(len(data)))
		binary.NativeEndian.PutUint32(lead[cmsgLenSize:], syscall.SOL_SOCKET)
		copy(lead[syscall.CmsgLen(0):], data)
		want := max(int(seg), 0)
		if got := groSegment(append(lead, groCmsg(seg)...)); got != want {
			t.Fatalf("gso_size %d behind a %d-byte message, want %d", got, len(data), want)
		}
	})
}

// TestConcurrentReadFromShareRuns: readers on several goroutines share
// one conn's runs; between them they get every datagram exactly once.
func TestConcurrentReadFromShareRuns(t *testing.T) {
	p := newSegPair(t)
	const runs, per, readers = 20, 7, 3
	b := run(per, jumbo, 0)
	got := make(chan byte, 2*runs*per) // every datagram, and room for duplicates
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, jumbo)
			for {
				n, _, err := p.b.ReadFrom(buf)
				if err != nil {
					return // the read deadline ends every reader
				}
				if n != jumbo || !bytes.Equal(buf[:n], bytes.Repeat(buf[:1], n)) {
					t.Errorf("a %d-byte datagram of mixed bytes", n)
					return
				}
				got <- buf[0]
			}
		}()
	}
	for i := 0; i < runs; i++ {
		if err := p.a.WriteSegments(b, jumbo, p.b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[byte]int)
	timeout := time.After(10 * time.Second)
	for i := 0; i < runs*per; i++ {
		select {
		case d := <-got:
			seen[d]++
		case <-timeout:
			t.Fatalf("%d of %d datagrams arrived", i, runs*per)
		}
	}
	p.b.SetReadDeadline(time.Now())
	wg.Wait()
	close(got)
	for d := range got {
		seen[d]++
	}
	for i := 1; i <= per; i++ {
		if seen[byte(i)] != runs {
			t.Errorf("datagram %d of the run arrived %d times over %d runs", i, seen[byte(i)], runs)
		}
	}
}
