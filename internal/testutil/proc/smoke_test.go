//go:build smoke

// The end-to-end smokes: real swiftd, swiftctl and swift-load processes
// over loopback UDP and HTTP. Run them with
//
//	go test -tags smoke -count=1 -v ./internal/testutil/proc/
//
// or one case with -run 'TestSmoke/<case>'.
package proc

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
)

func TestMain(m *testing.M) { Main(m) }

func TestSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"scrub", smokeScrub},
		{"failover", smokeFailover},
		{"trace", smokeTrace},
		{"overload", smokeOverload},
		{"cache", smokeCache},
		{"obs", smokeObs},
	} {
		t.Run(tc.name, tc.run)
	}
}

// randomFile writes n random bytes to dir/name and returns the path and
// the bytes.
func randomFile(t *testing.T, dir, name string, n int) (string, []byte) {
	t.Helper()
	b := make([]byte, n)
	rand.Read(b)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, b
}

// sameBytes fails the test unless the file at path holds want.
func sameBytes(t *testing.T, path string, want []byte) {
	t.Helper()
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the %d bytes stored (%v)", path, len(want), err)
	}
}

// has fails the test unless every regexp in res matches out.
func has(t *testing.T, out, why string, res ...string) {
	t.Helper()
	for _, re := range res {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Fatalf("%s: no match for %q in\n%s", why, re, out)
		}
	}
}

// lacks fails the test if re matches out.
func lacks(t *testing.T, out, why, re string) {
	t.Helper()
	if m := regexp.MustCompile(re).FindString(out); m != "" {
		t.Fatalf("%s: %q in\n%s", why, m, out)
	}
}

// agents starts n storage agents on -port 0, agent i with args(i), and
// returns them with their comma-joined addresses.
func agents(t *testing.T, n int, args func(i int) []string) ([]*Swiftd, string) {
	t.Helper()
	var ds []*Swiftd
	var addrs []string
	for i := 0; i < n; i++ {
		ds = append(ds, StartSwiftd(t, append([]string{"-port", "0"}, args(i)...)...))
		addrs = append(addrs, ds[i].Agent)
	}
	return ds, strings.Join(addrs, ",")
}

// modelOf is the mediator's admission model: each agent at 400 KB/s.
func modelOf(addrs string) string { return strings.ReplaceAll(addrs, ",", "@400,") + "@400" }

// smokeScrub: a parity-protected installation of four file-backed,
// integrity-enveloped agents. A fragment rotted on disk beneath the
// envelope must make `swiftctl scrub` exit non-zero reporting it;
// `scrub -repair` must heal it from parity and exit zero; a
// verification scrub must be spotless; the object must read back
// byte-identical; and the rotted agent's /metrics must count the
// corruption. A five-agent 3+2 Reed-Solomon volume then walks the same
// verdicts with two fragments of one stripe row rotted, beyond XOR.
func smokeScrub(t *testing.T) {
	tmp := t.TempDir()
	payload, want := randomFile(t, tmp, "payload", 262144)
	dirs := func(prefix string, extra map[int][]string) func(int) []string {
		return func(i int) []string {
			return append([]string{"-dir", filepath.Join(tmp, fmt.Sprint(prefix, i)), "-integrity"}, extra[i]...)
		}
	}
	act := func(addrs, layout, scheme, obj string, rotted ...string) {
		ctl := func(args ...string) []string {
			return append(append([]string{"-agents", addrs, "-unit", "4096"}, strings.Fields(layout)...), args...)
		}
		MustRun(t, "swiftctl", ctl("put", payload, obj)...)
		stdout, _ := MustRun(t, "swiftctl", ctl("stat", obj)...)
		has(t, stdout, "stat", "scheme="+regexp.QuoteMeta(scheme))
		MustRun(t, "swiftctl", ctl("scrub", obj)...) // the baseline is clean

		for _, dir := range rotted {
			// 16 bytes of 0xFF into a data block, past its 16-byte
			// header: they disagree with random payload somewhere.
			f, err := os.OpenFile(filepath.Join(tmp, dir, obj), os.O_WRONLY, 0)
			if err == nil {
				_, err = f.WriteAt(bytes.Repeat([]byte{0xFF}, 16), 5000)
				f.Close()
			}
			if err != nil {
				t.Fatalf("rot fragment: %v", err)
			}
		}
		stdout, stderr, err := Run(t, "swiftctl", ctl("scrub", obj)...)
		if err == nil {
			t.Fatalf("scrub exited 0 over corrupt media:\n%s%s", stdout, stderr)
		}
		has(t, stdout+stderr, "scrub over rot", `corrupt=[1-9]`)
		stdout, _ = MustRun(t, "swiftctl", ctl("scrub", "-repair", obj)...)
		has(t, stdout, "repair pass", `repaired=[1-9]`, `unrepairable=0`)
		stdout, _ = MustRun(t, "swiftctl", ctl("scrub", obj)...)
		has(t, stdout, "verification scrub", "corrupt=0 parity_mismatch=0 repaired=0 unrepairable=0 skipped=0")

		back := filepath.Join(tmp, obj+".back")
		MustRun(t, "swiftctl", ctl("get", obj, back)...)
		sameBytes(t, back, want)
	}

	ds, addrs := agents(t, 4, dirs("agent", map[int][]string{1: {"-metrics", AnyAddr}}))
	act(addrs, "-parity", "3+1", "smoke-obj", "agent1")
	if n := Scrape(t, ds[1].Addrs, "swift_store_corruptions_total"); n < 1 {
		t.Fatalf("swift_store_corruptions_total = %v, never advanced", n)
	}
	_, rsAddrs := agents(t, 5, dirs("rs-agent", nil))
	act(rsAddrs, "-parity-shards 2", "3+2", "rs-obj", "rs-agent1", "rs-agent2")
}

// smokeFailover: four storage agents and three mediator-only replicas
// peered into a federated tier. Act 1 SIGKILLs a leased client's home
// replica mid-session: the client must log a failover and finish with
// no failed heartbeat, a put/get through the survivors must round-trip,
// `swiftctl mediators` must show the dead replica DOWN and two live
// ones, and the survivors must count a failover and no lapsed lease.
// Act 2 SIGTERMs the next home: it must drain, handing its session to
// a peer, with the same client guarantees, and the last replica must
// still count no lapsed lease.
func smokeFailover(t *testing.T) {
	tmp := t.TempDir()
	_, addrs := agents(t, 4, func(int) []string { return []string{"-mem"} })
	names := []string{"med-a", "med-b", "med-c"}
	var endpoints []string
	for _, name := range names {
		endpoints = append(endpoints, name+"=127.0.0.1:"+ReservePort(t))
	}
	meds := map[string]*Swiftd{}
	for i, name := range names {
		peers := append(append([]string(nil), endpoints[:i]...), endpoints[i+1:]...)
		meds[name] = StartSwiftd(t, "-mediator", strings.TrimPrefix(endpoints[i], name+"=127.0.0.1:"),
			"-mediator-name", name, "-mediator-peers", strings.Join(peers, ","),
			"-mediator-agents", modelOf(addrs), "-lease-ttl", "5s", "-metrics", AnyAddr)
	}
	ctl := func(args ...string) []string {
		return append([]string{"-mediators", strings.Join(endpoints, ","), "-rate", "800", "-lease-ttl", "5s"}, args...)
	}
	// failHome runs a heartbeating leased client and sends sig to its
	// home replica once every other live replica mirrors the session;
	// the client must outlive its home with no failed heartbeat.
	failHome := func(sig syscall.Signal) (client *Proc, home *Swiftd, name string) {
		client = Start(t, "swiftctl", ctl("stats", "-watch", "-every", "1s", "-rounds", "8", "-mb", "1")...)
		name = client.WaitFor(regexp.MustCompile(`via (med-[abc])`))[1]
		home = meds[name]
		delete(meds, name)
		for peer, m := range meds {
			Eventually(t, peer+" to mirror the session", func() bool {
				return Scrape(t, m.Addrs, "swift_mediator_sessions") >= 1
			})
		}
		home.Signal(sig)
		home.Wait()
		client.WaitOK()
		lacks(t, client.Stderr(), "a heartbeat exhausted every replica", `mediator heartbeat:`)
		return client, home, name
	}
	// noLapses checks that `swiftctl mediators` lists exactly the live
	// replicas and that none of them has reaped a lease.
	noLapses := func() string {
		report, _, _ := Run(t, "swiftctl", ctl("mediators")...)
		if live := regexp.MustCompile(`(?m)^med-\S+ +\S+ +\d`).FindAllString(report, -1); len(live) != len(meds) {
			t.Fatalf("expected %d live replicas, saw %d:\n%s", len(meds), len(live), report)
		}
		for name, m := range meds {
			if n := Scrape(t, m.Addrs, "swift_mediator_lease_expirations_total"); n != 0 {
				t.Fatalf("replica %s reaped %v leases", name, n)
			}
		}
		return report
	}

	client, _, dead := failHome(syscall.SIGKILL)
	has(t, client.Stderr(), "client re-targeted", `mediator failover`)
	payload, want := randomFile(t, tmp, "payload", 1<<20)
	_, stderr := MustRun(t, "swiftctl", ctl("put", payload, "fo-obj")...)
	has(t, stderr, "put reports its serving replica", `via med-`)
	MustRun(t, "swiftctl", ctl("get", "fo-obj", filepath.Join(tmp, "back"))...)
	sameBytes(t, filepath.Join(tmp, "back"), want)
	has(t, noLapses(), "dead replica", `(?m)^`+dead+` +DOWN`)
	var failovers float64
	for _, m := range meds {
		failovers += Scrape(t, m.Addrs, "swift_mediator_failovers_total")
	}
	if failovers < 1 {
		t.Fatal("no survivor adopted the session (failovers=0)")
	}

	_, drained, _ := failHome(syscall.SIGTERM)
	has(t, drained.Stderr(), "draining replica", `mediator drained: [1-9][0-9]* sessions handed to peers`)
	noLapses()
}

// smokeTrace: one swiftd serving a traced storage agent, with a 25 ms
// read delay injected, and a mediator replica. A leased traced client
// must be leased and assemble write and read waterfalls with per-agent
// child spans; the agent's collector, read with `swiftctl trace -from
// ... -slow`, must hold the service span carrying the injected delay,
// tail-kept as a fault; its JSON export must carry trace ids.
func smokeTrace(t *testing.T) {
	agentPort := ReservePort(t)
	d := StartSwiftd(t, "-mem", "-port", agentPort, "-trace", "1", "-read-delay", "25ms",
		"-metrics", AnyAddr, "-mediator", "0", "-mediator-name", "med-a",
		"-mediator-agents", "127.0.0.1:"+agentPort+"@400")
	stdout, stderr := MustRun(t, "swiftctl", "-mediators", "med-a="+d.Mediator, "-rate", "100", "trace", "-mb", "1")
	has(t, stdout+stderr, "client trace", `session .* leased`, `op=write`, `op=read`, `agent_read`, `agent_write`)
	stdout, stderr = MustRun(t, "swiftctl", "trace", "-from", d.MetricsURL(), "-slow")
	has(t, stdout+stderr, "agent trace", `agent_read_serve`, `injected read delay 25ms`, `FAULT`, `keep=fault`)
	has(t, Get(t, d.MetricsURL()+"/trace/ops?format=json&slow=1"), "JSON export", `"trace"`)
}

// smokeOverload: three agents with read queues bounded at 3 and a 5 ms
// injected read service time face six concurrent parity clients, about
// twice the queue capacity. Each client must complete or fail with an
// explicit overload error, and at least one must complete; the agents
// must count queue sheds and pushbacks; no agent may leave healthy in a
// completed client's snapshot or a final health probe (zero lifecycle
// flaps); an object stored before the surge must read back
// byte-identical after it.
func smokeOverload(t *testing.T) {
	tmp := t.TempDir()
	ds, addrs := agents(t, 3, func(int) []string {
		return []string{"-mem", "-metrics", AnyAddr, "-max-inflight-reads", "3", "-read-delay", "5ms"}
	})
	seed, want := randomFile(t, tmp, "seed", 512*1024)
	MustRun(t, "swiftctl", "-agents", addrs, "-parity", "put", seed, "smoke-obj")

	var surge []*Proc
	for i := 0; i < 6; i++ {
		surge = append(surge, Start(t, "swiftctl", "-agents", addrs, "-parity", "-op-timeout", "30s", "-hedge", "stats", "-mb", "2"))
	}
	overloadErr := regexp.MustCompile(`shedding load|operation deadline|retry budget`)
	completed := 0
	for _, c := range surge {
		err := c.Wait()
		out := c.Stdout() + c.Stderr()
		switch {
		case err == nil:
			completed++
		case !overloadErr.MatchString(out):
			t.Fatalf("%s failed with a non-overload error (%v):\n%s", c, err, out)
		}
		// Only a completed client prints a stats snapshot.
		if strings.Contains(out, "\noverload: pushbacks=") {
			lacks(t, out, "an agent left healthy under pure overload", `agent [0-9].*(suspect|down)`)
		}
	}
	if completed < 1 {
		t.Fatal("every client was shed: goodput collapsed")
	}
	var qsheds, pushed float64
	for _, d := range ds {
		qsheds += Scrape(t, d.Addrs, "swift_agent_shed_queue_total")
		pushed += Scrape(t, d.Addrs, "swift_agent_pushbacks_total")
	}
	t.Logf("clients completed=%d of 6; queue sheds=%v pushback replies=%v", completed, qsheds, pushed)
	if qsheds == 0 || pushed == 0 {
		t.Fatal("no queue sheds or no pushback replies under 2x overdemand")
	}

	stdout, stderr := MustRun(t, "swiftctl", "-agents", addrs, "health")
	lacks(t, stdout+stderr, "an agent is unhealthy after the surge", `suspect|down`)
	MustRun(t, "swiftctl", "-agents", addrs, "-parity", "get", "smoke-obj", filepath.Join(tmp, "after"))
	sameBytes(t, filepath.Join(tmp, "after"), want)
}

// smokeCache: three agents and one mediator replica as the coherence
// channel. A cached reader in one process re-reads an object in three
// passes while a writer in another overwrites it after pass 1, both on
// coherence-only sessions (-mediators with explicit -agents and no
// -rate, so the layout comes from the flags). Pass 1 must hash to v1
// and passes 2 and 3 to v2; the reader's cache must count hits (pass 3
// came from cache) and an invalidation; the bytes it saved on the
// final pass must be v2.
func smokeCache(t *testing.T) {
	tmp := t.TempDir()
	_, addrs := agents(t, 3, func(int) []string { return []string{"-mem"} })
	med := StartSwiftd(t, "-mediator", "0", "-mediator-name", "med-a", "-mediator-agents", modelOf(addrs))
	ctl := func(args ...string) []string {
		return append([]string{"-agents", addrs, "-mediators", "med-a=" + med.Mediator}, args...)
	}
	v1, b1 := randomFile(t, tmp, "v1", 1<<20)
	v2, b2 := randomFile(t, tmp, "v2", 1<<20)
	MustRun(t, "swiftctl", ctl("put", v1, "cobj")...)

	back := filepath.Join(tmp, "back")
	reader := Start(t, "swiftctl", ctl("-readahead", "131072", "reread", "-n", "3", "-pause", "6s", "-out", back, "cobj")...)
	reader.WaitFor(regexp.MustCompile(`(?m)^pass 1: `)) // now in its first pause
	MustRun(t, "swiftctl", ctl("put", v2, "cobj")...)
	reader.WaitOK()
	pass := func(n int, b []byte) string {
		return fmt.Sprintf(`(?m)^pass %d: 1048576 bytes sha256=%x$`, n, sha256.Sum256(b))
	}
	has(t, reader.Stdout(), "reader", pass(1, b1), pass(2, b2), pass(3, b2),
		`(?m)^cache: .*hits=[1-9]`, `(?m)^cache: .*invalidations=[1-9]`)
	sameBytes(t, back, b2)
}

// smokeObs: swift-load and a swiftd agent serve their telemetry while
// traffic flows. The load's client series must advance mid-flight;
// series from every layer (client, modeled network, storage agent) must
// be scrapeable, in Prometheus text and JSON; /trace and the pprof index
// must answer; the load must finish cleanly with its epilogue.
func smokeObs(t *testing.T) {
	load := Start(t, "swift-load", "-requests", "1500", "-rate", "40", "-metrics", AnyAddr)
	agent := StartSwiftd(t, "-mem", "-port", "0", "-metrics", AnyAddr)
	loadURL := "http://" + load.WaitFor(MetricsLine)[1]

	var text string
	Eventually(t, "the client write series to advance", func() bool {
		text = Get(t, loadURL+"/metrics")
		n, _ := Metric(text, "swift_client_write_seconds_count")
		return n > 0
	})
	has(t, text, "swift-load /metrics", `swift_client_read_seconds`, `swift_client_agent_read_bursts_total`,
		`swift_net_frames_total`, `swift_net_utilization`, `(?m)^# TYPE swift_client_read_seconds summary`)
	has(t, Get(t, loadURL+"/metrics?format=json"), "JSON export", `"name":"swift_client_read_seconds"`)
	Get(t, loadURL+"/trace")
	has(t, Get(t, loadURL+"/debug/pprof/"), "pprof index", `goroutine`)
	has(t, Get(t, agent.MetricsURL()+"/metrics"), "swiftd /metrics", `swift_agent_sessions`, `swift_udp_packets_in_total`)

	load.WaitOK()
	has(t, load.Stdout(), "load epilogue", `protocol:`, `(?m)^net `)
}
