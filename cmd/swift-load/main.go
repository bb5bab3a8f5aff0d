// Command swift-load drives a modeled Swift installation with a synthetic
// request stream (Poisson arrivals, configurable read/write mix and size
// distribution) and reports per-request latency percentiles and aggregate
// throughput — the "normal file system" traffic of the paper's §7, as
// opposed to the large sequential transfers of Tables 1-4.
//
// With -chaos, a deterministic seeded fault schedule (agent crashes,
// partitions, host pauses, latency spikes, loss and corruption bursts)
// runs against the installation while the load is applied, the client's
// background health monitor re-admits recovered agents automatically, and
// per-operation errors are counted rather than fatal — a chaos soak.
//
// Usage:
//
//	swift-load -agents 3 -rate 20 -requests 400 -size 64K
//	swift-load -agents 4 -parity -mix 0.5 -dist exp
//	swift-load -agents 4 -parity -chaos -chaos-seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"swift/internal/bench"
	"swift/internal/core"
	"swift/internal/faultinject"
	"swift/internal/obs"
	"swift/internal/stats"
	"swift/internal/workload"
)

func main() {
	agents := flag.Int("agents", 3, "number of storage agents")
	segments := flag.Int("segments", 1, "number of Ethernet segments")
	parity := flag.Bool("parity", false, "computed-copy redundancy")
	rate := flag.Float64("rate", 10, "arrival rate, requests/second (modeled)")
	requests := flag.Int("requests", 300, "number of requests")
	mix := flag.Float64("mix", 0.8, "read fraction")
	sizeStr := flag.String("size", "64K", "request size (suffix K or M)")
	dist := flag.String("dist", "fixed", "size distribution: fixed, uniform, exp")
	objects := flag.Int("objects", 8, "distinct objects")
	scale := flag.Float64("scale", 6, "modeled time scale")
	seed := flag.Int64("seed", 1, "random seed")
	chaos := flag.Bool("chaos", false, "run a randomized fault schedule against the load")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault schedule seed")
	cacheProf := flag.Bool("cache", false, "run the cached re-read profile instead of the Poisson load: sequential read + re-read with the block cache on vs off, reporting the agent round-trip ratio")
	cacheSize := flag.String("cache-size", "0", "client block cache size (suffix K or M; 0 = auto when a cache feature is on, -1 = off)")
	writeBehind := flag.String("write-behind", "0", "write-behind dirty budget (suffix K or M; 0 = write-through)")
	verbose := flag.Bool("v", false, "log diagnostics and burst-level trace events to stderr")
	metrics := flag.String("metrics", "", "HTTP address for /metrics, /trace and /debug/pprof while the load runs (e.g. :9090; empty = off)")
	traceRate := flag.Float64("trace", 0, "distributed-tracing head-sample rate in [0,1] (0 = off); slowest op traces print after the run")
	traceTop := flag.Int("trace-top", 3, "how many of the slowest kept op traces to render after the run (with -trace)")
	flag.Parse()

	if *chaos && !*parity {
		fmt.Fprintln(os.Stderr, "swift-load: note: -chaos without -parity will surface errors (no redundancy to mask faults)")
	}

	size, err := parseSize(*sizeStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swift-load: %v\n", err)
		os.Exit(2)
	}
	cacheBytes, err := parseSizeSigned(*cacheSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swift-load: -cache-size: %v\n", err)
		os.Exit(2)
	}
	writeBehindBytes, err := parseSizeSigned(*writeBehind)
	if err != nil || writeBehindBytes < 0 {
		fmt.Fprintf(os.Stderr, "swift-load: -write-behind: bad size %q\n", *writeBehind)
		os.Exit(2)
	}

	if *cacheProf {
		runCacheProfile(*agents, *segments, *scale, *seed, *verbose)
		return
	}
	var sizes workload.SizeDist
	switch *dist {
	case "fixed":
		sizes = workload.Fixed(size)
	case "uniform":
		sizes = workload.Uniform{Min: size / 4, Max: size}
	case "exp":
		sizes = workload.Exponential{Mean: float64(size), Min: 1024, Max: 4 * size}
	default:
		fmt.Fprintf(os.Stderr, "swift-load: unknown distribution %q\n", *dist)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	// One tracer is shared by the client and every modeled agent, so the
	// collector assembles full cross-layer span trees in-process.
	tracer := obs.NewTracer(obs.TracerConfig{Rate: *traceRate})
	tracer.Register(reg)
	copts := bench.Options{
		Agents:   *agents,
		Segments: *segments,
		Scale:    *scale,
		Seed:     *seed,
		Client: core.Config{
			Parity:         *parity,
			CacheSize:      cacheBytes,
			WriteBehindMax: writeBehindBytes,
			Obs:            reg,
			Tracer:         tracer,
		},
	}
	if *verbose {
		copts.Client.Verbose = true
		copts.Client.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *chaos {
		// The monitor drives automatic suspect/down demotion and
		// re-admission while faults fly. The give-up budget is cut from
		// the measurement default (80 modeled seconds of no progress) to
		// ~3, so failure attribution outpaces the fault schedule.
		copts.Client.Monitor.Interval = 300 * time.Millisecond
		copts.Client.MaxRetries = 8
	}
	cluster, err := bench.NewSwiftCluster(copts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swift-load: %v\n", err)
		os.Exit(1)
	}
	defer cluster.Close()

	if *metrics != "" {
		msrv, err := obs.Serve(*metrics, reg, cluster.Client.Trace(), tracer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swift-load: metrics: %v\n", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("metrics on http://%s/metrics (trace at /trace, pprof at /debug/pprof)\n", msrv.Addr())
	}

	gen, err := workload.New(workload.Config{
		Rate:         *rate,
		ReadFraction: *mix,
		Sizes:        sizes,
		Objects:      *objects,
		ObjectSize:   8 << 20,
		Seed:         *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "swift-load: %v\n", err)
		os.Exit(1)
	}

	// Pre-create and pre-fill the object set so reads have data.
	files := make(map[string]*core.File)
	fill := make([]byte, 8<<20)
	for i := range fill {
		fill[i] = byte(i * 131)
	}
	for i := 0; i < *objects; i++ {
		name := fmt.Sprintf("obj%03d", i)
		f, err := cluster.Client.Open(name, core.OpenFlags{Create: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "swift-load: open %s: %v\n", name, err)
			os.Exit(1)
		}
		if _, err := f.WriteAt(fill, 0); err != nil {
			fmt.Fprintf(os.Stderr, "swift-load: prefill %s: %v\n", name, err)
			os.Exit(1)
		}
		files[name] = f
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	fmt.Printf("prefilled %d objects of %d MB; starting %d requests at %.1f req/s (reads %.0f%%)\n",
		*objects, len(fill)>>20, *requests, *rate, *mix*100)

	// Chaos: walk a deterministic fault schedule in modeled time while
	// the load runs, healing everything when the load finishes.
	var ctl *faultinject.Controller
	var chaosStop, chaosDone chan struct{}
	if *chaos {
		ctl = faultinject.New(faultinject.Cluster{
			Net:        cluster.Net,
			Segments:   cluster.Segments,
			AgentHosts: cluster.AgentHosts,
			Crash:      cluster.CrashAgent,
			Restart:    cluster.RestartAgent,
		}, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		})
		dur := time.Duration(float64(*requests) / *rate * float64(time.Second))
		sched := faultinject.RandomSchedule(*chaosSeed, faultinject.ScheduleOpts{
			Agents:   *agents,
			Segments: *segments,
			Duration: dur,
		})
		fmt.Printf("chaos: %d fault events over %v modeled (seed %d)\n",
			len(sched), dur, *chaosSeed)
		chaosStop = make(chan struct{})
		chaosDone = make(chan struct{})
		go func() {
			defer close(chaosDone)
			if err := ctl.Run(sched, chaosStop); err != nil {
				fmt.Fprintf(os.Stderr, "swift-load: chaos: %v\n", err)
			}
		}()
	}

	// Replay the stream in modeled time: arrivals are honored against
	// the modeled clock (open-loop), each request runs to completion
	// before the next is issued once it has arrived.
	var readLat, writeLat, allLat stats.Sample
	var bytesMoved int64
	opErrs := 0
	buf := make([]byte, 16<<20)
	start := cluster.Net.Now()
	for i := 0; i < *requests; i++ {
		op := gen.Next()
		// Wait for the arrival instant.
		for cluster.Net.Now()-start < op.Start {
			cluster.Net.Sleep(op.Start - (cluster.Net.Now() - start))
		}
		f := files[op.Object]
		t0 := cluster.Net.Now()
		var opErr error
		if op.Read {
			_, opErr = f.ReadAt(buf[:op.Size], op.Offset)
		} else {
			_, opErr = f.WriteAt(buf[:op.Size], op.Offset)
		}
		if opErr != nil {
			kind := "write"
			if op.Read {
				kind = "read"
			}
			if !*chaos {
				fmt.Fprintf(os.Stderr, "swift-load: %s: %v\n", kind, opErr)
				os.Exit(1)
			}
			// Under chaos, errors are an outcome, not a crash.
			opErrs++
			fmt.Fprintf(os.Stderr, "swift-load: chaos %s error: %v\n", kind, opErr)
			continue
		}
		lat := (cluster.Net.Now() - t0).Seconds() * 1000
		allLat.Add(lat)
		if op.Read {
			readLat.Add(lat)
		} else {
			writeLat.Add(lat)
		}
		bytesMoved += op.Size
	}
	elapsed := cluster.Net.Now() - start
	if *chaos {
		close(chaosStop)
		<-chaosDone
		fmt.Printf("\nchaos: %d faults applied, %d operation errors\n", len(ctl.Log()), opErrs)
		for _, h := range cluster.Client.ProbeOnce() {
			fmt.Printf("chaos: agent %-14s %-8v failures=%d\n", h.Addr, h.State, h.Failures)
		}
	}

	fmt.Printf("\n%d requests, %.1f MB in %.1f modeled seconds (%.0f KB/s)\n",
		*requests, float64(bytesMoved)/1e6, elapsed.Seconds(),
		float64(bytesMoved)/1024/elapsed.Seconds())
	printLat := func(label string, s *stats.Sample) {
		if s.N() == 0 {
			return
		}
		fmt.Printf("%-6s n=%-4d mean=%6.1fms  p50=%6.1fms  p95=%6.1fms  p99=%6.1fms  max=%6.1fms\n",
			label, s.N(), s.Mean(), s.Percentile(50), s.Percentile(95),
			s.Percentile(99), s.Max())
	}
	printLat("all", &allLat)
	printLat("read", &readLat)
	printLat("write", &writeLat)

	// Per-agent attribution and medium occupancy from the telemetry layer.
	snap := cluster.Client.Stats()
	fmt.Printf("\nprotocol: %d read bursts (%d timeouts), %d write bursts (%d timeouts), %d resend asks, %d backoffs\n",
		snap.Counters.ReadBursts, snap.Counters.ReadTimeouts,
		snap.Counters.WriteBursts, snap.Counters.WriteTimeouts,
		snap.Counters.ResendAsks, snap.Counters.Backoffs)
	if cs := snap.Cache; cs.Hits+cs.Misses > 0 || cs.Flushes > 0 {
		fmt.Printf("cache: %.1f%% hit rate (%d hits, %d misses), readahead %d/%d used, %d flushes (%d stalls), %d invalidations\n",
			100*cs.HitRate(), cs.Hits, cs.Misses,
			cs.ReadAheadUsed, cs.ReadAheadIssued,
			cs.Flushes, cs.Stalls, cs.Invalidations)
	}
	for i, as := range snap.Agents {
		fmt.Printf("agent %d %-14s %-8v rb=%-5d rto=%-3d wb=%-5d wto=%-3d rp50=%-8v wp50=%-8v\n",
			i, as.Addr, as.State, as.ReadBursts, as.ReadTimeouts,
			as.WriteBursts, as.WriteTimeouts,
			as.ReadBurstLat.P50, as.WriteBurstLat.P50)
	}
	for _, seg := range cluster.Segments {
		st := seg.Stats()
		fmt.Printf("net %-8s frames=%-7d lost=%-5d deferrals=%-6d utilization=%.1f%%\n",
			seg.Name(), st.Frames, st.Lost, st.Deferrals, 100*seg.Utilization())
	}

	// Trace epilogue: render the slowest kept op traces as waterfalls,
	// so one run surfaces where its worst ops spent their time.
	if traces := tracer.Traces(); len(traces) > 0 && *traceTop > 0 {
		sort.Slice(traces, func(i, j int) bool { return traces[i].Dur > traces[j].Dur })
		n := *traceTop
		if n > len(traces) {
			n = len(traces)
		}
		fmt.Printf("\ntraces: %d kept; slowest %d:\n", len(traces), n)
		for _, tr := range traces[:n] {
			fmt.Printf("\n%s\n", tr.Waterfall())
		}
	}
}

// runCacheProfile measures the block cache's round-trip savings: one
// client reads a striped object sequentially, then re-reads it — once
// with the cache tier disabled, once with read-ahead + cache on — and
// the profile reports agent read round-trips per pass plus the re-read
// ratio (the paper's "second viewing" of a stored video).
func runCacheProfile(agents, segments int, scale float64, seed int64, verbose bool) {
	const (
		objBytes = int64(4 << 20)
		readSize = int64(64 << 10)
	)
	type passStats struct {
		pass1, pass2 int64
		cache        core.StatsSnapshot
	}
	run := func(cached bool) passStats {
		opts := bench.Options{
			Agents:   agents,
			Segments: segments,
			Scale:    scale,
			Seed:     seed,
			Client:   core.Config{CacheSize: -1},
		}
		if cached {
			opts.Client.CacheSize = 0 // auto-size from read-ahead
			opts.Client.ReadAhead = 256 << 10
		}
		if verbose {
			opts.Client.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		cluster, err := bench.NewSwiftCluster(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swift-load: %v\n", err)
			os.Exit(1)
		}
		defer cluster.Close()

		f, err := cluster.Client.Open("video", core.OpenFlags{Create: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "swift-load: open: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		fill := make([]byte, objBytes)
		for i := range fill {
			fill[i] = byte(i * 131)
		}
		if _, err := f.WriteAt(fill, 0); err != nil {
			fmt.Fprintf(os.Stderr, "swift-load: prefill: %v\n", err)
			os.Exit(1)
		}

		buf := make([]byte, readSize)
		pass := func() {
			for off := int64(0); off < objBytes; off += readSize {
				if _, err := f.ReadAt(buf, off); err != nil {
					fmt.Fprintf(os.Stderr, "swift-load: read at %d: %v\n", off, err)
					os.Exit(1)
				}
			}
		}
		base := cluster.Client.Stats().Counters.ReadBursts
		pass()
		// Let in-flight read-ahead land before attributing bursts, so
		// prefetch traffic counts against pass 1, not the re-read.
		cluster.Net.Sleep(500 * time.Millisecond)
		mid := cluster.Client.Stats().Counters.ReadBursts
		pass()
		snap := cluster.Client.Stats()
		return passStats{
			pass1: int64(mid - base),
			pass2: int64(snap.Counters.ReadBursts - mid),
			cache: snap,
		}
	}

	fmt.Printf("cache profile: %d MB object, sequential %d KB reads, read + re-read\n",
		objBytes>>20, readSize>>10)
	off := run(false)
	on := run(true)
	fmt.Printf("cache off: pass1=%d pass2=%d agent read round-trips\n", off.pass1, off.pass2)
	fmt.Printf("cache on : pass1=%d pass2=%d agent read round-trips, %.1f%% hit rate, readahead %d/%d used\n",
		on.pass1, on.pass2, 100*on.cache.Cache.HitRate(),
		on.cache.Cache.ReadAheadUsed, on.cache.Cache.ReadAheadIssued)
	ratio := "inf"
	if on.pass2 > 0 {
		ratio = fmt.Sprintf("%.1f", float64(off.pass2)/float64(on.pass2))
	}
	fmt.Printf("re-read round-trips: off=%d on=%d (%sx fewer)\n", off.pass2, on.pass2, ratio)
}

func parseSizeSigned(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "0" {
		return 0, nil
	}
	neg := strings.HasPrefix(s, "-")
	v, err := parseSize(strings.TrimPrefix(s, "-"))
	if neg {
		v = -v
	}
	return v, err
}

func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "M"):
		mult = 1 << 20
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "K"):
		mult = 1 << 10
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}
