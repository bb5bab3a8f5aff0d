package swift_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swift"
	"swift/internal/faultinject"
	"swift/internal/integrity"
	"swift/internal/mediator"
	"swift/internal/medrpc"
	"swift/internal/obs"
	"swift/internal/store"
	"swift/internal/transport/memnet"
)

// TestChaosSoak is the tier-1 robustness proof: a parity-protected
// installation absorbs a deterministic, seeded schedule of serialized
// faults — agent crashes with restarts, partitions with heals, latency
// spikes, loss bursts, and at-rest bitrot beneath the integrity
// envelope — while continuous read/write traffic flows, and
//
//   - every read returns exactly the bytes the in-memory mirror predicts:
//     corrupt blocks are detected by the envelope and never served;
//   - no operation errors, because at most one agent is impaired at a
//     time and computed-copy redundancy masks a single failure;
//   - every crashed or partitioned agent is re-admitted automatically by
//     the background health monitor (observed via FS.Health()), with its
//     fragments rebuilt from parity — the test never calls a manual
//     recovery entry point;
//   - seeded bitrot is fully healed: after a scrub-and-repair pass, a
//     verification scrub finds zero corruptions and zero mismatches.
func TestChaosSoak(t *testing.T) {
	const (
		nAgents = 4
		objSize = 128 * 1024
		nObjs   = 3
	)
	n := memnet.New(1)
	seg := n.NewSegment("lab", memnet.SegmentConfig{
		// Unthrottled: the soak exercises faults, not timing, and a burst
		// crosses as runs that loss and corruption still hit per datagram.
		BandwidthBps:  1e15,
		FrameOverhead: 46,
		Seed:          3,
	})

	agentCfg := swift.AgentConfig{
		ResendCheck: 5 * time.Millisecond,
		ResendAfter: 10 * time.Millisecond,
	}
	// Each agent keeps its fragments in the integrity envelope over a raw
	// in-memory store; bitrot events flip bytes in the raw image, beneath
	// the checksums, exactly like decaying media.
	const blockSize = 4096
	agents := make([]*swift.Agent, nAgents)
	hosts := make([]*memnet.Host, nAgents)
	raw := make([]*store.Mem, nAgents)
	sts := make([]store.Store, nAgents)
	addrs := make([]string, nAgents)
	for i := 0; i < nAgents; i++ {
		hosts[i] = n.MustHost(fmt.Sprintf("agent%d", i), memnet.HostConfig{}, seg)
		raw[i] = store.NewMem()
		sts[i] = integrity.NewStore(raw[i], blockSize)
		a, err := swift.StartAgent(hosts[i], sts[i], agentCfg)
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
		agents[i] = a
		addrs[i] = a.Addr()
	}
	defer func() {
		for _, a := range agents {
			if a != nil {
				a.Close()
			}
		}
	}()

	clientHost := n.MustHost("client", memnet.HostConfig{}, seg)
	fs, err := swift.Dial(swift.Config{
		Host:   clientHost,
		Agents: addrs,
		Unit:   4096,
		Parity: true,
		// Small no-progress budget (20 × 15ms ≈ 300ms) so failure
		// attribution outpaces the fault schedule, and a fast monitor so
		// re-admission fits inside the recovery gaps.
		RetryTimeout: 15 * time.Millisecond,
		MaxRetries:   20,
		Monitor: swift.MonitorConfig{
			Interval: 25 * time.Millisecond,
			Rebuild:  true,
			// Background scrubbing heals bitrot between fault windows, so
			// damage cannot accumulate into a same-row double corruption.
			ScrubInterval: 100 * time.Millisecond,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer fs.Close()

	// Pre-fill the object set and its in-memory mirrors.
	rng := rand.New(rand.NewSource(9))
	files := make([]*swift.File, nObjs)
	mirrors := make([][]byte, nObjs)
	for i := range files {
		f, err := fs.Create(fmt.Sprintf("obj%d", i))
		if err != nil {
			t.Fatalf("create obj%d: %v", i, err)
		}
		defer f.Close()
		m := make([]byte, objSize)
		rng.Read(m)
		if _, err := f.WriteAt(m, 0); err != nil {
			t.Fatalf("prefill obj%d: %v", i, err)
		}
		files[i], mirrors[i] = f, m
	}

	// The fault schedule: serialized windows covering all four required
	// families, deterministic in the seed. Crash and restart route
	// through callbacks that own the agent processes.
	ctl := faultinject.New(faultinject.Cluster{
		Net:        n,
		Segments:   []*memnet.Segment{seg},
		AgentHosts: hosts,
		Crash: func(i int) error {
			if agents[i] == nil {
				return nil
			}
			agents[i].Close()
			agents[i] = nil
			return nil
		},
		Restart: func(i int) error {
			if agents[i] != nil {
				return nil
			}
			a, err := swift.StartAgent(hosts[i], sts[i], agentCfg)
			if err != nil {
				return err
			}
			agents[i] = a
			return nil
		},
		// Bitrot: flip a few bytes of one object's raw fragment image on
		// agent i — beneath the integrity envelope, like decaying media.
		// Deterministic in the event seed.
		Bitrot: func(i int, seed int64) error {
			r := rand.New(rand.NewSource(seed))
			names, err := raw[i].List()
			if err != nil || len(names) == 0 {
				return err
			}
			obj, err := raw[i].Open(names[r.Intn(len(names))], false)
			if err != nil {
				return err
			}
			defer obj.Close()
			size, err := obj.Size()
			if err != nil || size == 0 {
				return err
			}
			flips := 1 + r.Intn(3)
			b := make([]byte, 1)
			for k := 0; k < flips; k++ {
				off := r.Int63n(size)
				if _, err := obj.ReadAt(b, off); err != nil {
					return err
				}
				b[0] ^= byte(1 + r.Intn(255))
				if _, err := obj.WriteAt(b, off); err != nil {
					return err
				}
			}
			return nil
		},
	}, t.Logf)
	sched := faultinject.RandomSchedule(11, faultinject.ScheduleOpts{
		Agents:   nAgents,
		Segments: 1,
		Duration: 4200 * time.Millisecond,
		MinFault: 150 * time.Millisecond,
		MaxFault: 300 * time.Millisecond,
		Gap:      400 * time.Millisecond,
		Kinds: []faultinject.Kind{
			faultinject.KindCrashAgent,
			faultinject.KindPartition,
			faultinject.KindLatencySpike,
			faultinject.KindLossBurst,
			faultinject.KindBitrot,
		},
	})
	if len(sched) < 8 {
		t.Fatalf("schedule too short to cover all families: %d events", len(sched))
	}

	chaosErr := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		chaosErr <- ctl.Run(sched, nil)
	}()

	// Continuous traffic until the schedule completes. The schedule is
	// serialized (at most one agent impaired at any instant), so with
	// parity every operation must succeed and every read must match the
	// mirror exactly.
	ops, opErrs := 0, 0
	buf := make([]byte, 16*1024)
soak:
	for {
		select {
		case <-done:
			break soak
		default:
		}
		obj := rng.Intn(nObjs)
		off := rng.Intn(objSize - len(buf))
		sz := 1 + rng.Intn(len(buf))
		ops++
		if rng.Float64() < 0.5 {
			got := buf[:sz]
			if _, err := files[obj].ReadAt(got, int64(off)); err != nil {
				opErrs++
				t.Errorf("op %d: read obj%d[%d:+%d]: %v", ops, obj, off, sz, err)
				continue
			}
			if !bytes.Equal(got, mirrors[obj][off:off+sz]) {
				t.Fatalf("op %d: read obj%d[%d:+%d] returned wrong bytes", ops, obj, off, sz)
			}
		} else {
			rng.Read(buf[:sz])
			if _, err := files[obj].WriteAt(buf[:sz], int64(off)); err != nil {
				opErrs++
				t.Errorf("op %d: write obj%d[%d:+%d]: %v", ops, obj, off, sz, err)
				continue
			}
			copy(mirrors[obj][off:off+sz], buf[:sz])
		}
	}
	if err := <-chaosErr; err != nil {
		t.Fatalf("chaos schedule: %v", err)
	}
	if opErrs != 0 {
		t.Fatalf("%d of %d operations failed with at most one agent impaired", opErrs, ops)
	}
	if ops < 20 {
		t.Fatalf("soak performed only %d operations", ops)
	}

	// All five fault families must actually have fired.
	applied := strings.Join(ctl.Log(), "\n")
	for _, family := range []string{"crash-agent", "partition", "latency-spike", "loss-burst", "bitrot"} {
		if !strings.Contains(applied, family) {
			t.Fatalf("fault family %s never applied:\n%s", family, applied)
		}
	}

	// Automatic re-admission: the background monitor must return every
	// agent to healthy — sessions reopened, fragments rebuilt — with no
	// manual intervention.
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := 0
		for _, h := range fs.Health() {
			if h.State == swift.StateHealthy {
				healthy++
			}
		}
		if healthy == nAgents {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("agents never all re-admitted: %+v", fs.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Health says every agent answers probes, but per-file sessions to a
	// restarted agent are re-established asynchronously. A scrub pass
	// only counts a row when every session is live and every agent
	// healthy, so a clean (skip-free, finding-free) pass over the open
	// set proves the stripe is whole before the drill seeds new damage.
	deadline = time.Now().Add(5 * time.Second)
	for {
		rep := fs.ScrubOpen()
		if rep.Clean() {
			break
		}
		if time.Now().After(deadline) {
			t.Logf("health at timeout: %+v", fs.Health())
			t.Fatalf("stripe never quiesced after the soak: %s", rep)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Deterministic bitrot drill. Flip one byte in a data unit of every
	// agent's fragment of obj0 — agent i at stripe row i, and with four
	// agents ParityAgent(i) = 3-i is never i, so each flip lands in data —
	// plus one byte in a parity unit (agent 3 holds row 4's parity). All
	// five flips sit in distinct rows, so single-parity repair covers
	// every one.
	flip := func(agent int, localOff int64) {
		b := localOff / blockSize
		phys := b*(blockSize+integrity.HeaderSize) + integrity.HeaderSize + localOff%blockSize
		obj, err := raw[agent].Open("obj0", false)
		if err != nil {
			t.Fatalf("drill: open raw obj0 on agent %d: %v", agent, err)
		}
		defer obj.Close()
		var one [1]byte
		if _, err := obj.ReadAt(one[:], phys); err != nil {
			t.Fatalf("drill: read raw byte on agent %d: %v", agent, err)
		}
		one[0] ^= 0xA5
		if _, err := obj.WriteAt(one[:], phys); err != nil {
			t.Fatalf("drill: flip raw byte on agent %d: %v", agent, err)
		}
	}
	before := fs.Stats().Counters
	for i := 0; i < nAgents; i++ {
		flip(i, int64(i)*4096+137)
	}
	flip(3, 4*4096+512) // row 4's parity unit lives on agent 3

	// The rotten bytes must never be served: the envelope detects them
	// and read-repair reconstructs from parity on the fly.
	got := make([]byte, objSize)
	if _, err := files[0].ReadAt(got, 0); err != nil {
		t.Fatalf("bitrot drill read: %v", err)
	}
	if !bytes.Equal(got, mirrors[0]) {
		t.Fatal("bitrot drill read returned corrupt bytes")
	}
	// Scrub-and-repair heals what reads do not touch (the parity unit);
	// the verification pass must then be spotless.
	if _, err := files[0].Scrub(swift.ScrubOptions{Repair: true}); err != nil {
		t.Fatalf("scrub repair: %v", err)
	}
	rep, err := files[0].Scrub(swift.ScrubOptions{})
	if err != nil {
		t.Fatalf("verification scrub: %v", err)
	}
	if rep.Corruptions != 0 || rep.ParityMismatches != 0 || rep.Unrepairable != 0 {
		t.Fatalf("verification scrub not clean: %s", rep)
	}
	delta := fs.Stats().Counters.Sub(before)
	if delta.Corruptions == 0 {
		t.Fatal("drill: no corruption detected (flips were served or missed)")
	}
	if delta.Repairs == 0 {
		t.Fatal("drill: no unit repaired")
	}
	if m := fs.Stats().Counters; m.Unrepairable != 0 {
		t.Fatalf("unrepairable corruption events: %d", m.Unrepairable)
	}

	// Final end-to-end audit: every object reads back exactly as the
	// mirror predicts, through the healthy (non-degraded) path.
	for i, f := range files {
		got := make([]byte, objSize)
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("final read obj%d: %v", i, err)
		}
		if !bytes.Equal(got, mirrors[i]) {
			t.Fatalf("final read obj%d does not match mirror", i)
		}
	}
	t.Logf("soak: %d ops, %d faults applied, %d corruptions detected, %d units repaired, all agents re-admitted",
		ops, len(ctl.Log()), fs.Stats().Counters.Corruptions, fs.Stats().Counters.Repairs)

	// Sixth drill: double failure under Reed-Solomon. A fresh five-agent
	// 3+2 volume loses TWO agents mid-traffic — damage beyond the
	// single-XOR ceiling — and must keep serving exact bytes.
	chaosDoubleKillK2(t)

	// Seventh drill: mediator federation failover. The active mediator
	// replica is killed (and later drained) mid-traffic under 3+2; the
	// client's lease must survive on a surviving replica with zero
	// operation errors and convergent reservation accounting.
	chaosMediatorFailover(t)

	// Eighth drill: distributed tracing under faults. Injected agent
	// latency (a read timeout) and at-rest bitrot (a read repair) must
	// both surface as annotated spans inside assembled cross-layer span
	// trees — client op → mediator admit → per-agent service →
	// resend/repair children, with correct parent/child IDs and
	// durations.
	chaosTraceSpans(t)

	// Ninth drill: cooperative overload control. 2.5× overdemand plus one
	// straggling agent must be absorbed by pushback, hedged reads and the
	// retry budget — goodput within 15% of degraded capacity, every
	// served byte exact, and zero failure-domain lifecycle flaps.
	chaosOverload(t)

	// Tenth drill: cache coherence under mediator faults. Two clients
	// share a 3+2 object — one writes mid-stream through write-behind
	// while the other serves from its block cache — as the mediator
	// replica anchoring the coherence channel is killed and restarted.
	// Reads are never stale past an invalidation, dirty data survives a
	// client losing its lease (crash-flush), and zero operations fail.
	chaosCacheCoherence(t)
}

// chaosDoubleKillK2 is TestChaosSoak's sixth drill. It boots a
// five-agent 3+2 Reed-Solomon volume, streams mirrored traffic, and
// kills two agents at staggered points while operations continue:
//
//   - zero operation errors — k=2 masks both failures, reads and writes
//     run degraded through matrix reconstruction;
//   - every degraded read is byte-identical to the in-memory mirror;
//   - both agents restart and the background monitor re-admits them
//     with fragments rebuilt from the surviving three — no manual
//     recovery call;
//   - a verification scrub over the open set comes back spotless and
//     the unrepairable counter never moves.
func chaosDoubleKillK2(t *testing.T) {
	const (
		nAgents = 5
		objSize = 96 * 1024
		nObjs   = 3
		nOps    = 150
	)
	n := memnet.New(2)
	seg := n.NewSegment("rs-lab", memnet.SegmentConfig{
		BandwidthBps:  1e15,
		FrameOverhead: 46,
		Seed:          7,
	})
	agentCfg := swift.AgentConfig{
		ResendCheck: 5 * time.Millisecond,
		ResendAfter: 10 * time.Millisecond,
	}
	const blockSize = 4096
	agents := make([]*swift.Agent, nAgents)
	hosts := make([]*memnet.Host, nAgents)
	sts := make([]store.Store, nAgents)
	addrs := make([]string, nAgents)
	for i := 0; i < nAgents; i++ {
		hosts[i] = n.MustHost(fmt.Sprintf("rs-agent%d", i), memnet.HostConfig{}, seg)
		sts[i] = integrity.NewStore(store.NewMem(), blockSize)
		a, err := swift.StartAgent(hosts[i], sts[i], agentCfg)
		if err != nil {
			t.Fatalf("drill6: agent %d: %v", i, err)
		}
		agents[i] = a
		addrs[i] = a.Addr()
	}
	defer func() {
		for _, a := range agents {
			if a != nil {
				a.Close()
			}
		}
	}()

	clientHost := n.MustHost("rs-client", memnet.HostConfig{}, seg)
	fs, err := swift.Dial(swift.Config{
		Host:         clientHost,
		Agents:       addrs,
		Unit:         4096,
		DataShards:   3,
		ParityShards: 2,
		RetryTimeout: 15 * time.Millisecond,
		MaxRetries:   20,
		Monitor: swift.MonitorConfig{
			Interval:      25 * time.Millisecond,
			Rebuild:       true,
			ScrubInterval: 100 * time.Millisecond,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("drill6: dial: %v", err)
	}
	defer fs.Close()
	if got := fs.Scheme(); got != "3+2" {
		t.Fatalf("drill6: scheme = %q, want 3+2", got)
	}

	rng := rand.New(rand.NewSource(17))
	files := make([]*swift.File, nObjs)
	mirrors := make([][]byte, nObjs)
	for i := range files {
		f, err := fs.Create(fmt.Sprintf("rs-obj%d", i))
		if err != nil {
			t.Fatalf("drill6: create rs-obj%d: %v", i, err)
		}
		defer f.Close()
		m := make([]byte, objSize)
		rng.Read(m)
		if _, err := f.WriteAt(m, 0); err != nil {
			t.Fatalf("drill6: prefill rs-obj%d: %v", i, err)
		}
		files[i], mirrors[i] = f, m
	}

	// Traffic with two staggered kills. Both victims stay down for the
	// back half of the loop, so reads and writes run doubly degraded.
	victims := []int{1, 3}
	ops, opErrs := 0, 0
	buf := make([]byte, 16*1024)
	for ops < nOps {
		switch ops {
		case nOps / 3:
			t.Logf("drill6: killing agent %d mid-traffic", victims[0])
			agents[victims[0]].Close()
			agents[victims[0]] = nil
		case nOps / 2:
			t.Logf("drill6: killing agent %d mid-traffic", victims[1])
			agents[victims[1]].Close()
			agents[victims[1]] = nil
		}
		obj := rng.Intn(nObjs)
		off := rng.Intn(objSize - len(buf))
		sz := 1 + rng.Intn(len(buf))
		ops++
		if rng.Float64() < 0.5 {
			got := buf[:sz]
			if _, err := files[obj].ReadAt(got, int64(off)); err != nil {
				opErrs++
				t.Errorf("drill6 op %d: read rs-obj%d[%d:+%d]: %v", ops, obj, off, sz, err)
				continue
			}
			if !bytes.Equal(got, mirrors[obj][off:off+sz]) {
				t.Fatalf("drill6 op %d: read rs-obj%d[%d:+%d] returned wrong bytes", ops, obj, off, sz)
			}
		} else {
			rng.Read(buf[:sz])
			if _, err := files[obj].WriteAt(buf[:sz], int64(off)); err != nil {
				opErrs++
				t.Errorf("drill6 op %d: write rs-obj%d[%d:+%d]: %v", ops, obj, off, sz, err)
				continue
			}
			copy(mirrors[obj][off:off+sz], buf[:sz])
		}
	}
	if opErrs != 0 {
		t.Fatalf("drill6: %d of %d operations failed with two agents down under k=2", opErrs, ops)
	}

	// Full doubly-degraded audit before recovery: every object must read
	// back exactly through three survivors and matrix reconstruction.
	for i, f := range files {
		got := make([]byte, objSize)
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("drill6: degraded read rs-obj%d: %v", i, err)
		}
		if !bytes.Equal(got, mirrors[i]) {
			t.Fatalf("drill6: degraded read rs-obj%d does not match mirror", i)
		}
	}

	// Restart both victims; the monitor must re-admit them and
	// Monitor.Rebuild must reconstruct their stale fragments from the
	// survivors — the test never calls a manual recovery entry point.
	for _, v := range victims {
		a, err := swift.StartAgent(hosts[v], sts[v], agentCfg)
		if err != nil {
			t.Fatalf("drill6: restart agent %d: %v", v, err)
		}
		agents[v] = a
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := 0
		for _, h := range fs.Health() {
			if h.State == swift.StateHealthy {
				healthy++
			}
		}
		if healthy == nAgents {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drill6: agents never all re-admitted: %+v", fs.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Spotless verification scrub after readmit: rebuilt fragments,
	// fresh parity, nothing corrupt, nothing unrepairable.
	deadline = time.Now().Add(10 * time.Second)
	for {
		rep := fs.ScrubOpen()
		if rep.Clean() {
			break
		}
		if time.Now().After(deadline) {
			t.Logf("drill6: health at timeout: %+v", fs.Health())
			t.Fatalf("drill6: stripe never quiesced after double kill: %s", rep)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m := fs.Stats().Counters; m.Unrepairable != 0 {
		t.Fatalf("drill6: unrepairable corruption events: %d", m.Unrepairable)
	}

	// Final audit through the healthy path.
	for i, f := range files {
		got := make([]byte, objSize)
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("drill6: final read rs-obj%d: %v", i, err)
		}
		if !bytes.Equal(got, mirrors[i]) {
			t.Fatalf("drill6: final read rs-obj%d does not match mirror", i)
		}
	}
	t.Logf("drill6: %d ops with two agents killed under 3+2, zero errors, rebuilt and spotless", ops)
}

// chaosMediatorFailover is TestChaosSoak's seventh drill: the federated
// mediator tier under fire. A five-agent 3+2 volume is admitted through a
// three-replica mediator federation; the session's home replica is killed
// mid-traffic, later restarted (reconciling from peers), and finally the
// new home is gracefully drained — all through the faultinject mediator
// fault family — while continuous mirrored traffic flows:
//
//   - zero operation errors: the data path never depends on a live
//     mediator, and the lease heartbeat transparently re-targets;
//   - the session resumes on a surviving replica (broker failover >= 1,
//     renew failures == 0) and no replica ever reaps the lease
//     (expirations == 0 everywhere) — zero leases lapse;
//   - after the killed replica is readmitted, session counts and
//     reservation accounting (AgentLoad/NetLoad) converge across all
//     three replicas;
//   - the drain hands the session off (handoffs >= 1) with zero rejected
//     renewals, and the client follows to the new home;
//   - a verification scrub over the open set comes back spotless, and
//     closing the session returns every replica to zero load.
func chaosMediatorFailover(t *testing.T) {
	const (
		nAgents  = 5
		nMeds    = 3
		objSize  = 96 * 1024
		nObjs    = 2
		nOps     = 150
		leaseTTL = 500 * time.Millisecond
	)
	n := memnet.New(2)
	seg := n.NewSegment("fed-lab", memnet.SegmentConfig{
		BandwidthBps:  1e15,
		FrameOverhead: 46,
		Seed:          23,
	})
	agentCfg := swift.AgentConfig{
		ResendCheck: 5 * time.Millisecond,
		ResendAfter: 10 * time.Millisecond,
	}
	const blockSize = 4096
	agents := make([]*swift.Agent, nAgents)
	hosts := make([]*memnet.Host, nAgents)
	addrs := make([]string, nAgents)
	for i := 0; i < nAgents; i++ {
		hosts[i] = n.MustHost(fmt.Sprintf("fed-agent%d", i), memnet.HostConfig{}, seg)
		st := integrity.NewStore(store.NewMem(), blockSize)
		a, err := swift.StartAgent(hosts[i], st, agentCfg)
		if err != nil {
			t.Fatalf("drill7: agent %d: %v", i, err)
		}
		agents[i] = a
		addrs[i] = a.Addr()
	}
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()

	// Three federated mediator replicas over the shared installation
	// model, real-clock leases short enough that a stalled heartbeat
	// would visibly lapse inside the drill.
	medAgents := make([]swift.MediatorAgentInfo, nAgents)
	for i, addr := range addrs {
		medAgents[i] = swift.MediatorAgentInfo{Addr: addr, Rate: 1e6, Net: 0}
	}
	fed, err := swift.NewMediatorFederation([]string{"med-a", "med-b", "med-c"}, swift.MediatorConfig{
		Agents:   medAgents,
		Nets:     []swift.MediatorNetInfo{{Name: "fed-lab", Capacity: 1e9}},
		LeaseTTL: leaseTTL,
	})
	if err != nil {
		t.Fatalf("drill7: federation: %v", err)
	}
	defer fed.Close()
	medIdx := func(name string) int {
		for i, nm := range fed.Names() {
			if nm == name {
				return i
			}
		}
		t.Fatalf("drill7: unknown replica %q", name)
		return -1
	}

	var endpoints []swift.MediatorEndpoint
	for _, m := range fed.Mediators() {
		endpoints = append(endpoints, m)
	}
	broker, err := swift.NewMediatorBroker(swift.BrokerConfig{
		Endpoints:    endpoints,
		Key:          "drill7",
		RetryTimeout: 5 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("drill7: broker: %v", err)
	}

	// Admit a 3+2 session through the tier and dial from its plan. 2.5
	// MB/s over 1 MB/s agents needs 3 data agents; +2 parity = all five.
	rec, err := broker.OpenSession(swift.MediatorRequirements{Rate: 2.5e6, ParityShards: 2})
	if err != nil {
		t.Fatalf("drill7: open session: %v", err)
	}
	if got := len(rec.Plan.Addrs); got != nAgents {
		t.Fatalf("drill7: plan spans %d agents, want %d", got, nAgents)
	}
	clientHost := n.MustHost("fed-client", memnet.HostConfig{}, seg)
	cfg := swift.Config{
		Host:         clientHost,
		RetryTimeout: 15 * time.Millisecond,
		MaxRetries:   20,
		Monitor: swift.MonitorConfig{
			Interval:      25 * time.Millisecond,
			Rebuild:       true,
			ScrubInterval: 100 * time.Millisecond,
			Heartbeat:     broker.Heartbeat,
		},
		Logf: t.Logf,
	}
	cfg.ApplyPlan(&rec.Plan)
	fs, err := swift.Dial(cfg)
	if err != nil {
		t.Fatalf("drill7: dial: %v", err)
	}
	defer fs.Close()
	if got := fs.Scheme(); got != "3+2" {
		t.Fatalf("drill7: scheme = %q, want 3+2", got)
	}

	// The mediator fault family routes through the same controller the
	// agent faults use.
	ctl := faultinject.New(faultinject.Cluster{
		Net:      n,
		Segments: []*memnet.Segment{seg},
		KillMediator: func(i int) error {
			fed.Kill(i)
			return nil
		},
		RestartMediator: func(i int) error {
			return fed.Restart(i)
		},
		DrainMediator: func(i int) error {
			_, err := fed.Drain(i)
			return err
		},
	}, t.Logf)

	rng := rand.New(rand.NewSource(29))
	files := make([]*swift.File, nObjs)
	mirrors := make([][]byte, nObjs)
	for i := range files {
		f, err := fs.Create(fmt.Sprintf("fed-obj%d", i))
		if err != nil {
			t.Fatalf("drill7: create fed-obj%d: %v", i, err)
		}
		defer f.Close()
		m := make([]byte, objSize)
		rng.Read(m)
		if _, err := f.WriteAt(m, 0); err != nil {
			t.Fatalf("drill7: prefill fed-obj%d: %v", i, err)
		}
		files[i], mirrors[i] = f, m
	}

	firstHome := broker.Home()
	killed := medIdx(firstHome)
	t.Logf("drill7: session homed on %s", firstHome)

	// Traffic with the home replica killed a third of the way in and
	// restarted at two thirds. Ops are paced so the drill spans many
	// heartbeat rounds and a healthy fraction of the lease TTL.
	ops, opErrs := 0, 0
	buf := make([]byte, 16*1024)
	for ops < nOps {
		switch ops {
		case nOps / 3:
			t.Logf("drill7: killing home mediator %s mid-traffic", firstHome)
			if err := ctl.Apply(faultinject.Event{Kind: faultinject.KindKillMediator, Mediator: killed}); err != nil {
				t.Fatalf("drill7: kill mediator: %v", err)
			}
		case 2 * nOps / 3:
			// By now the heartbeat must have re-targeted; readmit the
			// crashed replica, which reconciles from the survivors.
			if broker.Home() == firstHome {
				t.Fatalf("drill7: session still homed on killed replica %s", firstHome)
			}
			if err := ctl.Apply(faultinject.Event{Kind: faultinject.KindRestartMediator, Mediator: killed}); err != nil {
				t.Fatalf("drill7: restart mediator: %v", err)
			}
		}
		obj := rng.Intn(nObjs)
		off := rng.Intn(objSize - len(buf))
		sz := 1 + rng.Intn(len(buf))
		ops++
		if rng.Float64() < 0.5 {
			got := buf[:sz]
			if _, err := files[obj].ReadAt(got, int64(off)); err != nil {
				opErrs++
				t.Errorf("drill7 op %d: read fed-obj%d[%d:+%d]: %v", ops, obj, off, sz, err)
				continue
			}
			if !bytes.Equal(got, mirrors[obj][off:off+sz]) {
				t.Fatalf("drill7 op %d: read fed-obj%d[%d:+%d] returned wrong bytes", ops, obj, off, sz)
			}
		} else {
			rng.Read(buf[:sz])
			if _, err := files[obj].WriteAt(buf[:sz], int64(off)); err != nil {
				opErrs++
				t.Errorf("drill7 op %d: write fed-obj%d[%d:+%d]: %v", ops, obj, off, sz, err)
				continue
			}
			copy(mirrors[obj][off:off+sz], buf[:sz])
		}
		time.Sleep(2 * time.Millisecond)
	}
	if opErrs != 0 {
		t.Fatalf("drill7: %d of %d operations failed across a mediator crash", opErrs, ops)
	}
	if broker.Failovers() < 1 {
		t.Fatalf("drill7: failovers = %d, want >= 1", broker.Failovers())
	}
	if broker.RenewFailures() != 0 {
		t.Fatalf("drill7: %d renew rounds exhausted every replica", broker.RenewFailures())
	}

	// Readmission convergence: all three replicas know the session and
	// agree on the reservation accounting, and none ever reaped the lease.
	fed.WaitMirrors()
	ref := fed.Mediator(0)
	for i, med := range fed.Mediators() {
		if got := med.Sessions(); got != 1 {
			t.Fatalf("drill7: replica %d tracks %d sessions, want 1", i, got)
		}
		for a := 0; a < nAgents; a++ {
			if med.AgentLoad(a) != ref.AgentLoad(a) {
				t.Fatalf("drill7: replica %d agent %d load %g diverges from %g",
					i, a, med.AgentLoad(a), ref.AgentLoad(a))
			}
		}
		if med.NetLoad(0) != ref.NetLoad(0) {
			t.Fatalf("drill7: replica %d net load diverges", i)
		}
		st, err := med.Status()
		if err != nil {
			t.Fatalf("drill7: replica %d status: %v", i, err)
		}
		if st.Expirations != 0 {
			t.Fatalf("drill7: replica %d reaped %d leases — a lease lapsed", i, st.Expirations)
		}
	}

	// Drain the current home mid-traffic: the session is handed to a peer
	// before the replica goes away, and the heartbeat follows it.
	drainHome := broker.Home()
	drainIdx := medIdx(drainHome)
	t.Logf("drill7: draining home mediator %s", drainHome)
	if err := ctl.Apply(faultinject.Event{Kind: faultinject.KindDrainMediator, Mediator: drainIdx}); err != nil {
		t.Fatalf("drill7: drain mediator: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := files[i%nObjs].ReadAt(buf[:4096], 0); err != nil {
			t.Fatalf("drill7: read during drain: %v", err)
		}
		broker.Heartbeat()
	}
	if broker.Home() == drainHome {
		t.Fatalf("drill7: session still heartbeats drained replica %s", drainHome)
	}
	if broker.RenewFailures() != 0 {
		t.Fatalf("drill7: renewals rejected during drain: %d", broker.RenewFailures())
	}
	st, err := fed.Mediator(drainIdx).Status()
	if err != nil {
		t.Fatalf("drill7: drained replica status: %v", err)
	}
	if st.Role != "draining" || st.Handoffs < 1 || st.LastHandoff.IsZero() {
		t.Fatalf("drill7: drain did not hand off: %+v", st)
	}

	// Spotless verification scrub, then byte-exact final audit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep := fs.ScrubOpen()
		if rep.Clean() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drill7: stripe never quiesced: %s", rep)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, f := range files {
		got := make([]byte, objSize)
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("drill7: final read fed-obj%d: %v", i, err)
		}
		if !bytes.Equal(got, mirrors[i]) {
			t.Fatalf("drill7: final read fed-obj%d does not match mirror", i)
		}
	}

	// Close the session through the broker: every replica must return to
	// exactly zero reserved capacity — accounting converged, nothing leaked.
	if err := broker.CloseSession(); err != nil {
		t.Fatalf("drill7: close session: %v", err)
	}
	fed.WaitMirrors()
	for i, med := range fed.Mediators() {
		if got := med.Sessions(); got != 0 {
			t.Fatalf("drill7: replica %d still tracks %d sessions after close", i, got)
		}
		for a := 0; a < nAgents; a++ {
			if l := med.AgentLoad(a); l != 0 {
				t.Fatalf("drill7: replica %d agent %d load %g after close", i, a, l)
			}
		}
	}
	t.Logf("drill7: %d ops across mediator kill+restart+drain, zero errors, %d failovers, leases never lapsed",
		ops, broker.Failovers())
}

// chaosTraceSpans is TestChaosSoak's eighth drill: the observability
// proof. One shared tracer spans a four-agent parity installation, a
// wire-served mediator replica, and the client; one agent carries an
// injected read delay twice the client's retry timeout, and one raw
// fragment image is bitrotted beneath the integrity envelope. The drill
// asserts the assembled span trees, not just the op outcomes:
//
//   - the admission walk is one tree: the client-side med_admit root
//     with the replica's wire-joined mediator/admit span as its direct
//     child, nested in time;
//   - a read op against the delayed agent assembles client-op →
//     agent_read → agent-layer agent_read_serve with correct parent
//     links, the injected delay annotated in the serve span and the
//     serve span at least as long as the delay, plus a read-timeout
//     resend annotation — and the tail sampler keeps it as slow;
//   - the bitrot read assembles a degraded_read or read_repair child
//     under the op root, retry-marked and kept by the tail sampler.
func chaosTraceSpans(t *testing.T) {
	const (
		nAgents   = 4
		objSize   = 64 * 1024
		blockSize = 4096
		readDelay = 30 * time.Millisecond
	)
	n := memnet.New(1)
	seg := n.NewSegment("trace-lab", memnet.SegmentConfig{
		BandwidthBps:  1e15,
		FrameOverhead: 46,
		Seed:          31,
	})
	tracer := obs.NewTracer(obs.TracerConfig{Rate: 1})

	agents := make([]*swift.Agent, nAgents)
	raw := make(map[string]*store.Mem, nAgents)
	addrs := make([]string, nAgents)
	medAgents := make([]mediator.AgentInfo, nAgents)
	for i := 0; i < nAgents; i++ {
		host := n.MustHost(fmt.Sprintf("trace-agent%d", i), memnet.HostConfig{}, seg)
		r := store.NewMem()
		cfg := swift.AgentConfig{
			ResendCheck: 5 * time.Millisecond,
			ResendAfter: 10 * time.Millisecond,
			Tracer:      tracer,
		}
		if i == 1 {
			// The injected fault: agent 1 stalls every read it serves
			// for twice the client's retry timeout, so read bursts
			// against it time out and resend before the data lands.
			cfg.ReadDelay = readDelay
		}
		a, err := swift.StartAgent(host, integrity.NewStore(r, blockSize), cfg)
		if err != nil {
			t.Fatalf("drill8: agent %d: %v", i, err)
		}
		agents[i] = a
		addrs[i] = a.Addr()
		raw[a.Addr()] = r
		medAgents[i] = mediator.AgentInfo{Addr: a.Addr(), Rate: 1e6, Net: 0}
	}
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()

	// The mediator replica is served over the wire, so its admit span is
	// joined from the propagated trace context, not an in-process call.
	med, err := mediator.New(mediator.Config{
		Agents: medAgents,
		Nets:   []mediator.NetInfo{{Name: "trace-lab", Capacity: 1e9}},
		Self:   "trace-med",
	})
	if err != nil {
		t.Fatalf("drill8: mediator: %v", err)
	}
	defer med.Close()
	medHost := n.MustHost("trace-med", memnet.HostConfig{}, seg)
	medSrv, err := medrpc.Serve(medrpc.ServerConfig{
		Host: medHost, Port: "7060", Med: med, Logf: t.Logf, Tracer: tracer,
	})
	if err != nil {
		t.Fatalf("drill8: medrpc serve: %v", err)
	}
	defer medSrv.Close()

	clientHost := n.MustHost("trace-client", memnet.HostConfig{}, seg)
	stub, err := medrpc.NewClient(medrpc.ClientConfig{
		Host: clientHost, Name: "trace-med", Addr: "trace-med:7060",
	})
	if err != nil {
		t.Fatalf("drill8: medrpc client: %v", err)
	}
	broker, err := swift.NewMediatorBroker(swift.BrokerConfig{
		Endpoints: []swift.MediatorEndpoint{stub},
		Key:       "drill8",
		Tracer:    tracer,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("drill8: broker: %v", err)
	}
	// 2.5 MB/s over 1 MB/s agents needs 3 data agents; +1 XOR parity = 4.
	rec, err := broker.OpenSession(swift.MediatorRequirements{Rate: 2.5e6, Redundancy: true})
	if err != nil {
		t.Fatalf("drill8: open session: %v", err)
	}
	if got := len(rec.Plan.Addrs); got != nAgents {
		t.Fatalf("drill8: plan spans %d agents, want %d", got, nAgents)
	}
	cfg := swift.Config{
		Host:         clientHost,
		RetryTimeout: 15 * time.Millisecond,
		MaxRetries:   50,
		Tracer:       tracer,
		Logf:         t.Logf,
	}
	cfg.ApplyPlan(&rec.Plan)
	// The plan's unit (64 KiB for a four-agent session) would put the
	// whole test object in one stripe row on one data agent; shrink it so
	// the object stripes across every agent, the delayed one included.
	cfg.Unit = 4096
	fs, err := swift.Dial(cfg)
	if err != nil {
		t.Fatalf("drill8: dial: %v", err)
	}
	defer fs.Close()

	f, err := fs.Create("trace-obj")
	if err != nil {
		t.Fatalf("drill8: create: %v", err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(41))
	mirror := make([]byte, objSize)
	rng.Read(mirror)
	if _, err := f.WriteAt(mirror, 0); err != nil {
		t.Fatalf("drill8: prefill: %v", err)
	}

	// The slow read: every burst against agent 1 sleeps past the retry
	// timeout, so the op retries and still returns exact bytes.
	got := make([]byte, objSize)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("drill8: slow read: %v", err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("drill8: slow read returned wrong bytes")
	}

	// The repair read: one data-unit byte of the plan's first agent rots
	// beneath the envelope (local offset 137 sits in stripe row 0, whose
	// parity lives elsewhere), so the full read must detect, reconstruct
	// and repair.
	before := fs.Stats().Counters
	r := raw[rec.Plan.Addrs[0]]
	obj, err := r.Open("trace-obj", false)
	if err != nil {
		t.Fatalf("drill8: open raw fragment: %v", err)
	}
	const localOff = 137
	phys := int64(integrity.HeaderSize + localOff)
	var one [1]byte
	if _, err := obj.ReadAt(one[:], phys); err != nil {
		obj.Close()
		t.Fatalf("drill8: read raw byte: %v", err)
	}
	one[0] ^= 0xA5
	if _, err := obj.WriteAt(one[:], phys); err != nil {
		obj.Close()
		t.Fatalf("drill8: flip raw byte: %v", err)
	}
	obj.Close()
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("drill8: repair read: %v", err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("drill8: repair read returned corrupt bytes")
	}
	if d := fs.Stats().Counters.Sub(before); d.Corruptions == 0 {
		t.Fatal("drill8: flipped byte never detected — the repair read did not exercise the envelope")
	}

	// Span-tree assertions. Traces flush when their last span finishes;
	// retransmitted bursts leave serve spans sleeping on the delayed
	// agent after the op returns, so poll briefly.
	spanByName := func(tr swift.OpTrace, name string) *swift.SpanRecord {
		for i := range tr.Spans {
			if tr.Spans[i].Name == name {
				return &tr.Spans[i]
			}
		}
		return nil
	}
	spanByID := func(tr swift.OpTrace, id uint64) *swift.SpanRecord {
		for i := range tr.Spans {
			if tr.Spans[i].SpanID == id {
				return &tr.Spans[i]
			}
		}
		return nil
	}
	hasNote := func(s *swift.SpanRecord, substr string) bool {
		for _, nt := range s.Notes {
			if strings.Contains(nt.Msg, substr) {
				return true
			}
		}
		return false
	}

	var admitTr, slowTr, repairTr *swift.OpTrace
	deadline := time.Now().Add(5 * time.Second)
	for {
		admitTr, slowTr, repairTr = nil, nil, nil
		traces := tracer.Traces()
		for i := range traces {
			tr := &traces[i]
			switch {
			case tr.Op == "med_admit":
				admitTr = tr
			case tr.Op != "read":
				continue
			}
			var delayed, repaired bool
			for j := range tr.Spans {
				if hasNote(&tr.Spans[j], "injected read delay") {
					delayed = true
				}
				if tr.Spans[j].Name == "read_repair" || tr.Spans[j].Name == "degraded_read" {
					repaired = true
				}
			}
			if delayed && !repaired && slowTr == nil {
				slowTr = tr
			}
			if repaired {
				repairTr = tr
			}
		}
		if admitTr != nil && slowTr != nil && repairTr != nil {
			break
		}
		if time.Now().After(deadline) {
			for _, tr := range tracer.Traces() {
				t.Logf("kept trace:\n%s", tr.Waterfall())
			}
			t.Fatalf("drill8: traces never assembled: admit=%v slow=%v repair=%v of %d kept",
				admitTr != nil, slowTr != nil, repairTr != nil, len(tracer.Traces()))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Admission: client-side root, wire-joined mediator child, nested in
	// both identity and time.
	root := spanByName(*admitTr, "med_admit")
	if root == nil || root.Parent != 0 || root.Layer != "core" {
		t.Fatalf("drill8: admit trace has no core-layer med_admit root: %+v", admitTr.Spans)
	}
	admit := spanByName(*admitTr, "admit")
	if admit == nil || admit.Layer != "mediator" {
		t.Fatalf("drill8: admit trace has no mediator-layer admit span: %+v", admitTr.Spans)
	}
	if admit.Parent != root.SpanID {
		t.Fatalf("drill8: admit span parent %x, want med_admit root %x", admit.Parent, root.SpanID)
	}
	if admit.Dur <= 0 || admit.Dur > root.Dur {
		t.Fatalf("drill8: admit span %v not nested in root %v", admit.Dur, root.Dur)
	}

	// The slow read: op root → agent_read → wire-joined serve span with
	// the injected delay annotated and at least the delay's length, plus
	// a resend annotation; kept by a tail criterion, not head sampling.
	root = spanByName(*slowTr, "read")
	if root == nil || root.Parent != 0 || root.Layer != "core" {
		t.Fatalf("drill8: slow read trace has no core-layer read root: %+v", slowTr.Spans)
	}
	var serveOK, resendOK bool
	for i := range slowTr.Spans {
		s := &slowTr.Spans[i]
		if s.Name == "agent_read_serve" && hasNote(s, "injected read delay") {
			parent := spanByID(*slowTr, s.Parent)
			if parent == nil || parent.Name != "agent_read" {
				t.Fatalf("drill8: delayed serve span parented to %+v, want an agent_read child", parent)
			}
			if parent.Parent != root.SpanID {
				t.Fatalf("drill8: agent_read parent %x, want read root %x", parent.Parent, root.SpanID)
			}
			if s.Layer != "agent" {
				t.Fatalf("drill8: serve span layer %q, want agent", s.Layer)
			}
			if s.Dur < readDelay {
				t.Fatalf("drill8: delayed serve span %v shorter than the injected %v", s.Dur, readDelay)
			}
			serveOK = true
		}
		if s.Retry && hasNote(s, "read timeout") {
			resendOK = true
		}
	}
	if !serveOK {
		t.Fatalf("drill8: no wire-joined serve span carries the injected delay: %+v", slowTr.Spans)
	}
	if !resendOK {
		t.Fatalf("drill8: injected timeout left no retry-marked resend annotation: %+v", slowTr.Spans)
	}
	if !slowTr.Slow() {
		t.Fatalf("drill8: tail sampler kept the slow read as %q, want a tail criterion", slowTr.Keep)
	}

	// The repair read: a retry-marked repair child under the op root.
	root = spanByName(*repairTr, "read")
	if root == nil || root.Parent != 0 {
		t.Fatalf("drill8: repair trace has no read root: %+v", repairTr.Spans)
	}
	var repairOK bool
	for i := range repairTr.Spans {
		s := &repairTr.Spans[i]
		if (s.Name == "read_repair" || s.Name == "degraded_read") && s.Retry && s.Parent == root.SpanID {
			repairOK = true
		}
	}
	if !repairOK {
		t.Fatalf("drill8: no retry-marked repair child under the op root: %+v", repairTr.Spans)
	}
	if !repairTr.Slow() {
		t.Fatalf("drill8: tail sampler kept the repair read as %q, want a tail criterion", repairTr.Keep)
	}
	t.Logf("drill8: admit, slow-read and repair span trees assembled and verified (%d traces kept)",
		len(tracer.Traces()))
}

// chaosOverload is TestChaosSoak's ninth drill: the overload-control
// proof. A five-agent 3+2 Reed–Solomon installation with a tight agent
// service queue serves a baseline of read traffic, then the faultinject
// demand and slowdown families push 2.5× the offered load through it
// while one agent straggles by 40ms per read. k=2 matters: reads route
// around the straggler by reconstruction, and the spare parity unit
// covers a second, transiently queue-full agent at the same time. The
// drill asserts graceful degradation, not mere survival:
//
//   - shed work is visible: the straggler's full queue produces explicit
//     pushback replies, counted by the client;
//   - hedged reads win: reads race parity reconstruction against the
//     straggler and the reconstruction lands first;
//   - backpressure never feeds failure attribution: zero lifecycle
//     transitions, every agent healthy throughout;
//   - goodput under the surge stays within 15% of the stripe's degraded
//     capacity (the EC read-amplification floor), and every byte served
//     matches the mirror;
//   - in-deadline operations stay bounded: successful-op p99 under the
//     surge is far below the 2s operation budget.
func chaosOverload(t *testing.T) {
	const (
		nAgents     = 5
		objSize     = 128 * 1024
		opBytes     = 16 * 1024
		baseWorkers = 4
		baseDur     = 500 * time.Millisecond
		surgeDur    = 1200 * time.Millisecond
	)
	n := memnet.New(1)
	defer n.Close()
	seg := n.NewSegment("overload-lab", memnet.SegmentConfig{
		BandwidthBps:  1e15,
		FrameOverhead: 46,
		Seed:          21,
	})
	agentCfg := swift.AgentConfig{
		ResendCheck: 5 * time.Millisecond,
		ResendAfter: 10 * time.Millisecond,
		// A tight service queue so the straggler sheds with pushback
		// instead of queueing without bound.
		MaxInflightReads:   6,
		PushbackRetryAfter: 2 * time.Millisecond,
	}
	agents := make([]*swift.Agent, nAgents)
	hosts := make([]*memnet.Host, nAgents)
	addrs := make([]string, nAgents)
	for i := 0; i < nAgents; i++ {
		hosts[i] = n.MustHost(fmt.Sprintf("ov-agent%d", i), memnet.HostConfig{}, seg)
		a, err := swift.StartAgent(hosts[i], store.NewMem(), agentCfg)
		if err != nil {
			t.Fatalf("drill9: agent %d: %v", i, err)
		}
		agents[i] = a
		addrs[i] = a.Addr()
	}
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	fs, err := swift.Dial(swift.Config{
		Host:         n.MustHost("ov-client", memnet.HostConfig{}, seg),
		Agents:       addrs,
		Unit:         4096,
		Parity:       true,
		ParityShards: 2,
		RetryTimeout: 15 * time.Millisecond,
		MaxRetries:   20,
		Monitor:      swift.MonitorConfig{Interval: 25 * time.Millisecond, Rebuild: true},
		OpTimeout:    2 * time.Second,
		HedgeReads:   true,
		// At 2.5x overdemand even healthy agents see transient queue-full
		// bursts; the straggler's queue is full continuously. A higher
		// strike count separates the regimes — healthy agents intersperse
		// successes that reset their strikes long before eight consecutive
		// pushbacks, so only the straggler's breaker trips.
		BreakerThreshold: 8,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatalf("drill9: dial: %v", err)
	}
	defer fs.Close()

	mirror := make([]byte, objSize)
	rand.New(rand.NewSource(41)).Read(mirror)
	seed, err := fs.Create("hot")
	if err != nil {
		t.Fatalf("drill9: create: %v", err)
	}
	if _, err := seed.WriteAt(mirror, 0); err != nil {
		t.Fatalf("drill9: prefill: %v", err)
	}
	defer seed.Close()

	// Demand routes through the fault controller like any other fault:
	// the surge event scales the worker pool, the slowdown event injects
	// the straggler's per-read service delay.
	var demandX10 atomic.Int64
	demandX10.Store(10)
	ctl := faultinject.New(faultinject.Cluster{
		Net:        n,
		Segments:   []*memnet.Segment{seg},
		AgentHosts: hosts,
		SetDemand: func(mult float64) error {
			demandX10.Store(int64(mult * 10))
			return nil
		},
		SlowAgent: func(i int, d time.Duration) error {
			agents[i].SetReadDelay(d)
			return nil
		},
	}, t.Logf)

	// runPhase drives `workers` concurrent readers (one File handle each
	// — File ops serialize per handle) for dur, verifying every byte
	// against the mirror. Overload sheds (deadline, budget, busy) are
	// tolerated and counted; anything else fails the drill.
	runPhase := func(name string, workers int, dur time.Duration) (goodput float64, lats []time.Duration, sheds int64) {
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			bytesOK  int64
			shedOps  int64
			phaseLat []time.Duration
		)
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				f, err := fs.Open("hot")
				if err != nil {
					t.Errorf("drill9 %s: worker %d open: %v", name, w, err)
					return
				}
				defer f.Close()
				rng := rand.New(rand.NewSource(int64(w)*77 + 5))
				buf := make([]byte, opBytes)
				deadline := start.Add(dur)
				for time.Now().Before(deadline) {
					off := int64(rng.Intn(objSize - opBytes))
					t0 := time.Now()
					_, err := f.ReadAt(buf, off)
					el := time.Since(t0)
					if err != nil {
						// Race instrumentation slows service an order of
						// magnitude, so give-up budgets fire spuriously
						// there; tolerate those too rather than skew the
						// timing regime the drill calibrates.
						if errors.Is(err, swift.ErrDeadline) ||
							errors.Is(err, swift.ErrRetryBudget) ||
							errors.Is(err, swift.ErrAgentBusy) ||
							raceEnabled {
							mu.Lock()
							shedOps++
							mu.Unlock()
							continue
						}
						t.Errorf("drill9 %s: worker %d read [%d:+%d]: %v", name, w, off, opBytes, err)
						return
					}
					if !bytes.Equal(buf, mirror[off:off+opBytes]) {
						t.Errorf("drill9 %s: worker %d read wrong bytes at %d", name, w, off)
						return
					}
					mu.Lock()
					bytesOK += opBytes
					phaseLat = append(phaseLat, el)
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		return float64(bytesOK) / elapsed, phaseLat, shedOps
	}

	baseGoodput, _, baseSheds := runPhase("baseline", baseWorkers, baseDur)
	if baseGoodput == 0 {
		t.Fatal("drill9: baseline served nothing")
	}

	if err := ctl.Apply(faultinject.Event{Kind: faultinject.KindDemandSurge, Rate: 2.5}); err != nil {
		t.Fatalf("drill9: surge: %v", err)
	}
	if err := ctl.Apply(faultinject.Event{Kind: faultinject.KindAgentSlowdown, Agent: 0, Latency: 40 * time.Millisecond}); err != nil {
		t.Fatalf("drill9: slowdown: %v", err)
	}
	surgeWorkers := int(demandX10.Load()) * baseWorkers / 10
	if surgeWorkers != 10 {
		t.Fatalf("drill9: demand callback yielded %d workers, want 10", surgeWorkers)
	}
	surgeGoodput, surgeLats, surgeSheds := runPhase("surge", surgeWorkers, surgeDur)
	ctl.HealAll()

	// The degradation and attribution assertions below are calibrated
	// for real time (hedge delays, give-up budgets and queue waits all
	// interlock); race instrumentation slows the data path an order of
	// magnitude and voids that calibration, so under -race the drill
	// only proves the mechanics run data-race free and byte-exact.
	var p99 time.Duration
	if !raceEnabled {
		// Graceful degradation, not collapse. With the breaker holding the
		// straggler out of the stripe, every read of one of its data units is
		// reconstructed from the m=3 surviving units, so three of every five
		// rotations pay 3× read amplification: a byte of goodput costs about
		// (2·1 + 3·3)/5 = 2.2× what it did uncontended. The drill demands
		// ≥85% of that degraded capacity — pushback, hedging and the breaker
		// must deliver the EC floor, not congestion collapse.
		degradedCap := baseGoodput / 2.2
		if surgeGoodput < 0.85*degradedCap {
			t.Fatalf("drill9: surge goodput %.0f B/s fell below 85%% of degraded capacity %.0f B/s (uncontended baseline %.0f B/s)",
				surgeGoodput, degradedCap, baseGoodput)
		}
		// In-deadline ops stay bounded: p99 far under the 2s operation budget.
		if len(surgeLats) == 0 {
			t.Fatal("drill9: surge completed no operations")
		}
		sort.Slice(surgeLats, func(i, j int) bool { return surgeLats[i] < surgeLats[j] })
		p99 = surgeLats[len(surgeLats)*99/100]
		if p99 > time.Second {
			t.Fatalf("drill9: surge p99 %v unbounded (op budget 2s)", p99)
		}
	}

	// The shed work must be visible on the overload instruments — and
	// ONLY there: the lifecycle saw nothing.
	st := fs.Stats()
	m := st.Counters
	if !raceEnabled {
		if m.Pushbacks == 0 {
			t.Fatal("drill9: straggler's full queue produced no pushbacks")
		}
		if m.Hedges == 0 || m.HedgeWins == 0 {
			t.Fatalf("drill9: hedges = %d, hedge wins = %d, want both > 0", m.Hedges, m.HedgeWins)
		}
		for i, as := range st.Agents {
			if as.Transitions != 0 {
				t.Fatalf("drill9: agent %d lifecycle transitions = %d under pushback, want 0", i, as.Transitions)
			}
		}
		for i, h := range fs.Health() {
			if h.State != swift.StateHealthy {
				t.Fatalf("drill9: agent %d state = %v after the surge, want healthy", i, h.State)
			}
		}
	}
	applied := strings.Join(ctl.Log(), "\n")
	for _, family := range []string{"demand-surge", "agent-slowdown"} {
		if !strings.Contains(applied, family) {
			t.Fatalf("drill9: fault family %s never applied:\n%s", family, applied)
		}
	}

	// After the surge drains, the object reads back byte-identical
	// through a healthy stripe.
	time.Sleep(500 * time.Millisecond) // stale delayed requests drain, shed as expired
	got := make([]byte, objSize)
	if _, err := seed.ReadAt(got, 0); err != nil {
		t.Fatalf("drill9: read after surge: %v", err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("drill9: post-surge read does not match the mirror")
	}
	t.Logf("drill9: baseline %.1f MB/s (%d sheds) -> surge %.1f MB/s (%d ops, %d sheds, p99 %v), %d pushbacks, %d/%d hedges won, budget fill %.2f",
		baseGoodput/1e6, baseSheds, surgeGoodput/1e6, len(surgeLats), surgeSheds, p99,
		m.Pushbacks, m.HedgeWins, m.Hedges, st.BudgetFill)
}

// chaosCacheCoherence is TestChaosSoak's tenth drill: the cache
// coherence protocol under mediator faults. A five-agent 3+2 volume is
// shared by two clients — a writer running bounded write-behind and a
// reader serving from its block cache — with coherence anchored in a
// three-replica mediator federation through per-client broker sessions:
//
//   - after every write/declare/sync cycle the reader's bytes match the
//     writer's mirror exactly — zero stale reads past an invalidation —
//     including while the replica homing the coherence sessions is dead
//     and after it restarts and reconciles generations from its peers;
//   - a writer that loses its lease with dirty extents outstanding
//     crash-flushes: the dirty bytes land on the agents before the
//     cached images are dropped, and a fresh uncached client reads them
//     back byte-identical;
//   - zero operation errors end to end, and the reader's cache really
//     served (nonzero hits) while absorbing >= one invalidation per
//     write cycle.
func chaosCacheCoherence(t *testing.T) {
	const (
		nAgents = 5
		objSize = 128 * 1024
		cycles  = 60
	)
	n := memnet.New(2)
	seg := n.NewSegment("cc-lab", memnet.SegmentConfig{
		BandwidthBps:  1e15,
		FrameOverhead: 46,
		Seed:          31,
	})
	agentCfg := swift.AgentConfig{
		ResendCheck: 5 * time.Millisecond,
		ResendAfter: 10 * time.Millisecond,
	}
	agents := make([]*swift.Agent, nAgents)
	addrs := make([]string, nAgents)
	for i := 0; i < nAgents; i++ {
		h := n.MustHost(fmt.Sprintf("cc-agent%d", i), memnet.HostConfig{}, seg)
		a, err := swift.StartAgent(h, integrity.NewStore(store.NewMem(), 4096), agentCfg)
		if err != nil {
			t.Fatalf("drill10: agent %d: %v", i, err)
		}
		agents[i] = a
		addrs[i] = a.Addr()
	}
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()

	medAgents := make([]swift.MediatorAgentInfo, nAgents)
	for i, addr := range addrs {
		medAgents[i] = swift.MediatorAgentInfo{Addr: addr, Rate: 1e6, Net: 0}
	}
	fed, err := swift.NewMediatorFederation([]string{"cc-a", "cc-b", "cc-c"}, swift.MediatorConfig{
		Agents: medAgents,
		Nets:   []swift.MediatorNetInfo{{Name: "cc-lab", Capacity: 1e9}},
	})
	if err != nil {
		t.Fatalf("drill10: federation: %v", err)
	}
	defer fed.Close()
	medIdx := func(name string) int {
		for i, nm := range fed.Names() {
			if nm == name {
				return i
			}
		}
		t.Fatalf("drill10: unknown replica %q", name)
		return -1
	}
	var endpoints []swift.MediatorEndpoint
	for _, m := range fed.Mediators() {
		endpoints = append(endpoints, m)
	}
	openBroker := func(key string) *swift.MediatorBroker {
		b, err := swift.NewMediatorBroker(swift.BrokerConfig{
			Endpoints:    endpoints,
			Key:          key,
			RetryTimeout: 5 * time.Millisecond,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatalf("drill10: broker %s: %v", key, err)
		}
		if _, err := b.OpenSession(swift.MediatorRequirements{Rate: 0.2e6}); err != nil {
			t.Fatalf("drill10: session %s: %v", key, err)
		}
		return b
	}
	writerBroker := openBroker("cc-writer")
	readerBroker := openBroker("cc-reader")

	// Both clients dial the full five-agent 3+2 layout directly; the
	// broker sessions anchor coherence, not striping.
	dial := func(name string, mut func(*swift.Config)) *swift.FS {
		cfg := swift.Config{
			Host:         n.MustHost(name, memnet.HostConfig{}, seg),
			Agents:       addrs,
			ParityShards: 2,
			RetryTimeout: 15 * time.Millisecond,
			MaxRetries:   20,
			Logf:         t.Logf,
		}
		if mut != nil {
			mut(&cfg)
		}
		fs, err := swift.Dial(cfg)
		if err != nil {
			t.Fatalf("drill10: dial %s: %v", name, err)
		}
		return fs
	}
	writer := dial("cc-writer", func(cfg *swift.Config) {
		cfg.WriteBehindMax = 256 * 1024
		cfg.CacheSync = writerBroker.CacheSync
	})
	defer writer.Close()
	reader := dial("cc-reader", func(cfg *swift.Config) {
		cfg.CacheSize = 1 << 20
		cfg.ReadAhead = 32 * 1024
		cfg.CacheSync = readerBroker.CacheSync
	})
	defer reader.Close()

	rng := rand.New(rand.NewSource(37))
	mirror := make([]byte, objSize)
	rng.Read(mirror)
	wf, err := writer.Create("cc-obj")
	if err != nil {
		t.Fatalf("drill10: create: %v", err)
	}
	defer wf.Close()
	if _, err := wf.WriteAt(mirror, 0); err != nil {
		t.Fatalf("drill10: prefill: %v", err)
	}
	if err := wf.Sync(); err != nil {
		t.Fatalf("drill10: prefill sync: %v", err)
	}
	writer.CoherenceSync()
	rf, err := reader.Open("cc-obj")
	if err != nil {
		t.Fatalf("drill10: reader open: %v", err)
	}
	defer rf.Close()

	victim := medIdx(writerBroker.Home())
	got := make([]byte, objSize)
	patch := make([]byte, 24*1024)
	for i := 1; i <= cycles; i++ {
		switch i {
		case cycles / 3:
			t.Logf("drill10: killing coherence home %s mid-stream", fed.Names()[victim])
			fed.Kill(victim)
		case 2 * cycles / 3:
			t.Logf("drill10: restarting %s", fed.Names()[victim])
			if err := fed.Restart(victim); err != nil {
				t.Fatalf("drill10: restart: %v", err)
			}
			fed.WaitMirrors()
		}
		// The writer patches a random mid-stream range through
		// write-behind, forces the flush barrier, and declares the write;
		// the reader syncs and must converge on the new bytes.
		off := rng.Intn(objSize - len(patch))
		rng.Read(patch)
		if _, err := wf.WriteAt(patch, int64(off)); err != nil {
			t.Fatalf("drill10 cycle %d: write: %v", i, err)
		}
		copy(mirror[off:], patch)
		if err := wf.Sync(); err != nil {
			t.Fatalf("drill10 cycle %d: sync: %v", i, err)
		}
		// The two clients are homed on different replicas: the writer's
		// round returns only once its generation bump reached the live
		// replicas, so the reader's round right behind it must see it.
		writer.CoherenceSync()
		reader.CoherenceSync()
		// Two reads per cycle: the first refetches past the invalidation,
		// the second must be served from the refilled cache — both exact.
		for pass := 1; pass <= 2; pass++ {
			if _, err := rf.ReadAt(got, 0); err != nil {
				t.Fatalf("drill10 cycle %d pass %d: read: %v", i, pass, err)
			}
			if !bytes.Equal(got, mirror) {
				t.Fatalf("drill10 cycle %d pass %d: stale read past the invalidation", i, pass)
			}
		}
	}
	rs := reader.CacheStats()
	if rs.Hits == 0 {
		t.Fatal("drill10: reader cache never served a hit")
	}
	if rs.Invalidations < cycles/2 {
		t.Fatalf("drill10: reader absorbed %d invalidations over %d write cycles", rs.Invalidations, cycles)
	}

	// Crash-flush: the writer's lease dies with dirty extents
	// outstanding. The lease-loss path must flush them to the agents
	// before dropping the cache, so a fresh uncached client reads the
	// final bytes back exactly.
	off := rng.Intn(objSize - len(patch))
	rng.Read(patch)
	if _, err := wf.WriteAt(patch, int64(off)); err != nil {
		t.Fatalf("drill10: final write: %v", err)
	}
	copy(mirror[off:], patch)
	home := medIdx(writerBroker.Home())
	rec := writerBroker.Record()
	if err := fed.Mediator(home).CloseSession(rec.ID); err != nil {
		t.Fatalf("drill10: close session: %v", err)
	}
	fed.WaitMirrors()
	writer.CoherenceSync() // ErrUnknownSession -> crash-flush + drop
	if d := writer.CacheStats().Dirty; d != 0 {
		t.Fatalf("drill10: %d dirty bytes survived the lease loss unflushed", d)
	}
	verifier := dial("cc-verify", func(cfg *swift.Config) { cfg.CacheSize = -1 })
	defer verifier.Close()
	vf, err := verifier.Open("cc-obj")
	if err != nil {
		t.Fatalf("drill10: verifier open: %v", err)
	}
	defer vf.Close()
	if _, err := vf.ReadAt(got, 0); err != nil {
		t.Fatalf("drill10: verifier read: %v", err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("drill10: crash-flushed bytes did not survive on the agents")
	}
	t.Logf("drill10: %d cycles, reader hit rate %.1f%%, %d invalidations, crash-flush verified",
		cycles, 100*rs.HitRate(), rs.Invalidations)
}
