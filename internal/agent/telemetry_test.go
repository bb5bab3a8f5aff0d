package agent

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"swift/internal/obs"
	"swift/internal/store"
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
	if tel.Load(evOpen, -1) != 1 {
		t.Errorf("opens = %d, want 1", tel.Load(evOpen, -1))
	}
	if tel.sessions.Load() != 1 {
		t.Errorf("sessions gauge = %d, want 1", tel.sessions.Load())
	}
	if tel.Load(evReadRequest, -1) != 1 || tel.Load(evReadBytes, -1) != int64(len(payload)) {
		t.Errorf("read telemetry: reqs=%d bytes=%d", tel.Load(evReadRequest, -1), tel.Load(evReadBytes, -1))
	}
	if tel.readServeLat.Count() != 1 {
		t.Errorf("read serve histogram count = %d, want 1", tel.readServeLat.Count())
	}
	if tel.Load(evWriteBurst, -1) != 1 || tel.Load(evWriteBytes, -1) != int64(len(payload)) {
		t.Errorf("write telemetry: bursts=%d bytes=%d", tel.Load(evWriteBurst, -1), tel.Load(evWriteBytes, -1))
	}
	if tel.writeLat.Count() != 1 {
		t.Errorf("write burst histogram count = %d, want 1", tel.writeLat.Count())
	}
	if tel.Load(evDataPacket, -1) != 1 {
		t.Errorf("data packets = %d, want 1", tel.Load(evDataPacket, -1))
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
	if r.agent.tel.Load(evOpenReject, -1) != 1 {
		t.Errorf("open rejects = %d, want 1", r.agent.tel.Load(evOpenReject, -1))
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

// truncFailStore is a store whose objects refuse to truncate.
type truncFailStore struct{ store.Store }

type truncFailObject struct{ store.Object }

func (s truncFailStore) Open(name string, create bool) (store.Object, error) {
	o, err := s.Store.Open(name, create)
	if err != nil {
		return nil, err
	}
	return truncFailObject{o}, nil
}

func (truncFailObject) Truncate(int64) error { return errors.New("truncate refused") }

// TestAgentOpenRejectCountedOnStoreFailure: an open that fails after the
// object opened — here its truncate — is a rejected open like any other.
func TestAgentOpenRejectCountedOnStoreFailure(t *testing.T) {
	r := newRigOn(t, Config{}, truncFailStore{store.NewMem()})
	r.send(r.agent.Addr(), &wire.Packet{
		Header:  wire.Header{Type: wire.TOpen, ReqID: r.nextReq(), Flags: wire.FCreate | wire.FTrunc},
		Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: "obj"}),
	})
	if reply := r.recv(time.Second); reply == nil || reply.Type != wire.TError {
		t.Fatalf("expected error reply, got %+v", reply)
	}
	if got := r.agent.tel.Load(evOpenReject, -1); got != 1 {
		t.Errorf("open rejects = %d, want 1", got)
	}
}

// TestAgentLoggedEventPrintedOnce: a logged incident reaches Config.Logf
// exactly once, as its own line, with or without Verbose — whose tee
// skips the logged kinds and, being buffered, prints the rest by Close.
func TestAgentLoggedEventPrintedOnce(t *testing.T) {
	for _, verbose := range []bool{false, true} {
		t.Run(fmt.Sprintf("verbose=%v", verbose), func(t *testing.T) {
			var mu sync.Mutex
			var lines []string
			r := newRig(t, Config{Verbose: verbose, Logf: func(format string, args ...any) {
				mu.Lock()
				lines = append(lines, fmt.Sprintf(format, args...))
				mu.Unlock()
			}})
			r.open("obj", wire.FCreate) // a traced, unlogged event
			if err := r.conn.WriteTo([]byte{0xff}, r.agent.Addr()); err != nil {
				t.Fatal(err)
			}
			for end := time.Now().Add(time.Second); r.agent.tel.Load(evBadPacket, -1) == 0 && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			mu.Lock() // the logged line is printed synchronously
			printed := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "agent: bad packet: ") }) >= 0
			mu.Unlock()
			r.agent.Close() // drains the Verbose tee
			mu.Lock()
			defer mu.Unlock()
			var logged, teed int
			for _, l := range lines {
				switch {
				case strings.HasPrefix(l, "agent: bad packet: "):
					logged++
				case strings.HasPrefix(l, "trace: ") && strings.Contains(l, " agent/open "):
					teed++
				default:
					t.Errorf("unexpected line %q", l)
				}
			}
			wantTeed := 0
			if verbose {
				wantTeed = 1
			}
			if !printed || logged != 1 || teed != wantTeed {
				t.Fatalf("one bad packet logged %d lines (before Close: %v), %d teed opens; want 1 (true), %d: %q",
					logged, printed, teed, wantTeed, lines)
			}
		})
	}
}

// TestAgentEventTable pins each event kind's trace Kind — the strings
// trace consumers match on — and the span marks and log lines its notes
// make.
func TestAgentEventTable(t *testing.T) {
	want := map[*obs.EventKind]string{
		evOpen: "open", evOpenReject: "open_reject", evResendPrompt: "resend_prompt",
		evBadPacket: "bad_packet", evOrphanBurst: "orphan_burst", evIdleReap: "idle_reap",
		evCorrupt: "corrupt", evShedDeadline: "shed", evShedQueue: "shed",
	}
	for _, k := range events.Kinds() {
		if k.Trace != want[k] {
			t.Errorf("%s: trace kind %q, want %q", k.Series, k.Trace, want[k])
		}
		if k.Series == "" {
			t.Errorf("%s exports no series", k.Trace)
		}
		if retry, fault := k == evResendPrompt, k == evShedDeadline || k == evShedQueue; k.Retry != retry || k.Fault != fault {
			t.Errorf("%s: retry=%v fault=%v, want %v %v", k.Series, k.Retry, k.Fault, retry, fault)
		}
		if k.Logged != (k == evBadPacket) {
			t.Errorf("%s: logged=%v", k.Series, k.Logged)
		}
	}
	if evShedDeadline.Also != evPushback || evShedQueue.Also != evPushback {
		t.Error("a shed is not counted as a pushback")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/registry.golden")

// TestAgentTelemetryRegistry pins the agent's metric families — every
// HELP and TYPE line and every series' label set — to
// testdata/registry.golden (values aside).
func TestAgentTelemetryRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	newRig(t, Config{Obs: reg})
	matchFamilies(t, reg, "testdata/registry.golden")
}

// families renders reg's metric families: HELP and TYPE lines whole,
// series lines cut at their value, de-duplicated and sorted so
// registration order is free.
func families(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var shape []string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		shape = append(shape, line)
	}
	slices.Sort(shape)
	return strings.Join(slices.Compact(shape), "\n") + "\n"
}

// matchFamilies compares reg's families with the golden file, first
// rewriting it from them when -update is set.
func matchFamilies(t *testing.T, reg *obs.Registry, golden string) {
	t.Helper()
	got := families(t, reg)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metric families differ from %s:\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
