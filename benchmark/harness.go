package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"swift/internal/cache"
	"swift/internal/core"
	"swift/internal/ec"
	"swift/internal/obs"
	"swift/internal/store"
)

// Harness shape, the same for every workload: closed loop, rounds of a
// write phase (ending in Sync) followed by a read phase. The head of each
// phase is discarded and the rest cut into slices, so a metric's slice
// quartiles give the noise floor of the run it came from.
const (
	// maxProcs is GOMAXPROCS for every run. The sandbox is a shared
	// 2-vCPU VM whose effective speed drifts by a third over tens of
	// seconds; with two Ps, every goroutine hand-off also waits on the
	// hypervisor scheduling the second vCPU, and run-to-run spread of the
	// timing metrics was 2-3x that of one P (README, "Steadiness"). One P
	// keeps every hand-off inside one thread: what is measured is the CPU
	// cost of the protocol path, which is what a change to it moves.
	maxProcs = 1

	maxPhase    = 6 * time.Second
	maxDiscard  = time.Second
	sliceLen    = time.Second
	setupRepeat = 5   // set-ups in a run that reports setup_s
	openPairs   = 200 // open/close pairs timed after a traced run
)

// target is one closed-loop client's object, its shadow image and its op
// stream. Only the target's own worker goroutine touches it.
type target struct {
	name   string
	file   *core.File
	shadow []byte
	gen    *generator
	buf    []byte
}

// pass is one cluster set up for a workload: object(s) created, prefilled
// and read through once.
type pass struct {
	c       *cluster
	targets []*target
}

func (p *pass) close() {
	for _, t := range p.targets {
		if t.file != nil {
			t.file.Close()
		}
	}
	p.c.close()
}

// setUp builds the cluster, creates and prefills every client's object and
// reads it through once (the warm-up pass). All of it is what setup_s
// times. The warm-up does not compare bytes: verification belongs to the
// measured phases, where a wrong byte counts in fail_ratio.
func setUp(s *spec, seed int64, traced bool, wrapStore func(store.Store) store.Store) (*pass, error) {
	c, err := buildCluster(s, traced, wrapStore)
	if err != nil {
		return nil, err
	}
	p := &pass{c: c}
	chunk := (mib + s.opBytes - 1) / s.opBytes * s.opBytes // whole ops, at least 1 MiB
	for i := 0; i < s.clients; i++ {
		t := &target{
			name:   fmt.Sprintf("ladder-%s-%d", s.name, i),
			shadow: make([]byte, s.objectBytes+s.tailBytes),
			gen:    newGenerator(s, seed, i),
			buf:    make([]byte, chunk),
		}
		p.targets = append(p.targets, t)
		fill(t.shadow, uint64(seed)<<8|uint64(i)|1, 0)
		if t.file, err = c.client.Open(t.name, core.OpenFlags{Create: true, Truncate: true}); err == nil {
			err = t.sweep(chunk)
		}
		if err != nil {
			p.close()
			return nil, fmt.Errorf("set-up %s: %w", s.name, err)
		}
	}
	return p, nil
}

// sweep writes the whole shadow to the object, syncs, and reads it through.
func (t *target) sweep(chunk int64) error {
	size := int64(len(t.shadow))
	for off := int64(0); off < size; off += chunk {
		end := min(off+chunk, size)
		if _, err := t.file.WriteAt(t.shadow[off:end], off); err != nil {
			return fmt.Errorf("prefill at %d: %w", off, err)
		}
	}
	if err := t.file.Sync(); err != nil {
		return fmt.Errorf("prefill sync: %w", err)
	}
	for off := int64(0); off < size; off += chunk {
		end := min(off+chunk, size)
		if _, err := t.file.ReadAt(t.buf[:end-off], off); err != nil {
			return fmt.Errorf("warm-up read at %d: %w", off, err)
		}
	}
	return nil
}

// reopen replaces every handle, with the given agents marked down first
// and every other agent healthy.
func (p *pass) reopen(down []int) error {
	isDown := make([]bool, p.c.s.agents)
	for _, i := range down {
		isDown[i] = true
	}
	for i, d := range isDown {
		p.c.client.MarkDown(i, d)
	}
	for _, t := range p.targets {
		if err := t.file.Close(); err != nil {
			return fmt.Errorf("reopen %s: %w", t.name, err)
		}
		f, err := p.c.client.Open(t.name, core.OpenFlags{})
		if err != nil {
			t.file = nil
			return fmt.Errorf("reopen %s: %w", t.name, err)
		}
		t.file = f
	}
	return nil
}

// do performs one op and reports its latency and whether it succeeded: no
// error, full length, and for a read every byte equal to the shadow.
func (t *target) do(o op) (time.Duration, bool) {
	if o.write {
		src := t.shadow[o.off : o.off+o.n]
		fill(src, o.stamp, o.off)
		start := time.Now()
		n, err := t.file.WriteAt(src, o.off)
		return time.Since(start), err == nil && int64(n) == o.n
	}
	dst := t.buf[:o.n]
	start := time.Now()
	n, err := t.file.ReadAt(dst, o.off)
	d := time.Since(start)
	return d, err == nil && int64(n) == o.n && bytes.Equal(dst, t.shadow[o.off:o.off+o.n])
}

// sample is the process's cumulative counters at one instant of a phase.
type sample struct {
	at         time.Duration // since the phase started
	bytes, ops int64         // useful bytes, ops attempted
	cpu        time.Duration // user+sys of the whole process
	mallocs    uint64
	allocBytes uint64
}

// phase is one direction's measured stretch.
type phase struct {
	dir  int           // dirRead or dirWrite
	wall time.Duration // whole phase, head and final Sync included
	// Whole-phase totals: busy is the sum of op latencies.
	ops, failed, bytes int64
	busy               time.Duration
	// samples bound the counted slices (len = slices+1); lat holds the
	// counted ops' latencies, one list per slice.
	samples []sample
	lat     [][]time.Duration
}

// phaseTotals is what the workers of one phase add to.
type phaseTotals struct {
	bytes, ops, failed, busyNs atomic.Int64
}

func (a *phaseTotals) sample(start time.Time) sample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{
		at:         time.Since(start),
		bytes:      a.bytes.Load(),
		ops:        a.ops.Load(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
}

// runPhase drives every target's closed loop in one direction for length.
func (p *pass) runPhase(ctx context.Context, dir int, length time.Duration) (*phase, error) {
	write := dir == dirWrite
	discard := min(maxDiscard, length/6)
	slice := min(sliceLen, length-discard)
	slices := int((length - discard) / slice)
	length = discard + time.Duration(slices)*slice

	ph := &phase{dir: dir, lat: make([][]time.Duration, slices)}
	var tot phaseTotals
	var stop atomic.Bool
	perWorker := make([][][]time.Duration, len(p.targets))
	var wg sync.WaitGroup
	start := time.Now()
	for i, t := range p.targets {
		lat := make([][]time.Duration, slices)
		perWorker[i] = lat
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				begun := time.Since(start)
				if begun >= length {
					return
				}
				o := t.gen.next(write)
				d, ok := t.do(o)
				tot.ops.Add(1)
				tot.busyNs.Add(int64(d))
				if ok {
					tot.bytes.Add(o.n)
				} else {
					tot.failed.Add(1)
				}
				if k := int((begun + d - discard) / slice); begun >= discard && k < slices {
					lat[k] = append(lat[k], d)
				}
			}
		}()
	}

	// The coordinator only sleeps between slice boundaries, so it takes
	// no CPU from the loops it measures.
	var err error
	for k := 0; k <= slices && err == nil; k++ {
		timer := time.NewTimer(time.Until(start.Add(discard + time.Duration(k)*slice)))
		select {
		case <-timer.C:
			ph.samples = append(ph.samples, tot.sample(start))
		case <-ctx.Done():
			timer.Stop()
			stop.Store(true)
			err = ctx.Err()
		}
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if write {
		for _, t := range p.targets {
			if err := t.file.Sync(); err != nil {
				return nil, fmt.Errorf("sync %s: %w", t.name, err)
			}
		}
	}
	ph.wall = time.Since(start)
	ph.ops, ph.failed, ph.bytes = tot.ops.Load(), tot.failed.Load(), tot.bytes.Load()
	ph.busy = time.Duration(tot.busyNs.Load())
	for _, lat := range perWorker {
		for k := range lat {
			ph.lat[k] = append(ph.lat[k], lat[k]...)
		}
	}
	return ph, nil
}

// snapshot is every counter the traced metrics difference, at one instant.
type snapshot struct {
	clientConn, agentConn  totals
	storeOuter, storeInner totals
	core                   core.MetricsSnapshot
	cache                  cache.Stats
	ec                     ec.Stats
	ecBusy                 time.Duration // EC encode + reconstruct latency sums
	drops, udpPkts         int64
}

func (c *cluster) snapshot() snapshot {
	st := c.client.Stats()
	return snapshot{
		clientConn: c.probes.clientConn.totals(),
		agentConn:  c.probes.agentConn.totals(),
		storeOuter: c.probes.storeOuter.totals(),
		storeInner: c.probes.storeInner.totals(),
		core:       st.Counters,
		cache:      st.Cache,
		ec:         st.EC,
		ecBusy:     st.ECEncodeLat.Sum + st.ECReconstructLat.Sum,
		drops:      c.drops(),
		udpPkts:    c.udpPackets(),
	}
}

// result is one pass of one workload.
type result struct {
	setups []time.Duration
	phases []*phase
	// Traced passes only: counters around the rounds, the span trees the
	// tracer kept for each direction, and open/close latencies.
	before, after snapshot
	traces        [2][]obs.Trace // indexed by dirRead, dirWrite
	opens         []time.Duration
}

const (
	dirRead = iota
	dirWrite
)

var dirName = [2]string{"read", "write"}

// runWorkload sets the workload up, measures it for about seconds, and
// tears it down. setup_s wants several set-ups; the first builds the cluster
// that is measured, and the others build and drop a second one between
// phases, so one disturbed spell of the sandbox cannot sit on all of them.
// A traced run also snapshots the probes and collects span trees.
func runWorkload(ctx context.Context, s *spec, seed int64, seconds float64, setups int, traced bool, wrapStore func(store.Store) store.Store) (*result, error) {
	res := &result{}
	timedSetUp := func() (*pass, error) {
		start := time.Now()
		p, err := setUp(s, seed, traced, wrapStore)
		if err == nil {
			res.setups = append(res.setups, time.Since(start))
		}
		return p, err
	}
	p, err := timedSetUp()
	if err != nil {
		return nil, err
	}
	defer p.close()
	extraSetUp := func() error {
		if len(res.setups) >= setups {
			return nil
		}
		extra, err := timedSetUp()
		if err == nil {
			extra.close()
		}
		return err
	}

	rounds := max(1, int(seconds/(2*maxPhase.Seconds())))
	length := time.Duration(seconds / float64(2*rounds) * float64(time.Second))
	if traced {
		res.before = p.c.snapshot()
	}
	for r := 0; r < rounds; r++ {
		for _, dir := range []int{dirWrite, dirRead} {
			if len(s.downForReads) > 0 {
				down := s.downForReads
				if dir == dirWrite {
					down = nil
				}
				if err := p.reopen(down); err != nil {
					return nil, err
				}
			}
			ph, err := p.runPhase(ctx, dir, length)
			if err != nil {
				return nil, err
			}
			res.phases = append(res.phases, ph)
			if traced {
				begin := time.Now().Add(-ph.wall)
				for _, tr := range p.c.probes.tracer.Traces() {
					if tr.Op == dirName[dir] && tr.Start.After(begin) {
						res.traces[dir] = append(res.traces[dir], tr)
					}
				}
			}
			if err := extraSetUp(); err != nil {
				return nil, err
			}
		}
	}
	for len(res.setups) < setups {
		if err := extraSetUp(); err != nil {
			return nil, err
		}
	}
	if traced {
		res.after = p.c.snapshot()
		t := p.targets[0]
		for i := 0; i < openPairs; i++ {
			start := time.Now()
			f, err := p.c.client.Open(t.name, core.OpenFlags{})
			if err != nil {
				return nil, fmt.Errorf("open/close pairs: %w", err)
			}
			res.opens = append(res.opens, time.Since(start))
			f.Close()
		}
	}
	return res, nil
}
