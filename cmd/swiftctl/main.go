// Command swiftctl is the Swift client CLI: it stripes files over a set of
// storage agents (swiftd processes) and retrieves them, with optional
// computed-copy redundancy.
//
// Usage:
//
//	swiftctl -agents HOST:PORT,HOST:PORT,... COMMAND [args]
//
// Commands:
//
//	put LOCAL [OBJECT]    store a local file as a striped object
//	get OBJECT [LOCAL]    retrieve a striped object
//	cat OBJECT            write an object to stdout
//	stat OBJECT           print an object's size
//	ls                    list objects
//	rm OBJECT             remove an object
//	status                probe each agent: liveness, RTT, objects, bytes
//	health                run one health round: lifecycle state per agent
//	stats [-watch]        client telemetry: counters, latency percentiles,
//	                      per-agent attribution; -watch refreshes, -mb N
//	                      drives a background transfer loop while watching
//	reread OBJECT         read an object end-to-end -n times in one
//	                      process (default 2), printing each pass's size
//	                      and SHA-256 plus the block cache's hit rate —
//	                      the cache and coherence drill (run with
//	                      -readahead to enable the cache; a coherence
//	                      sync runs before every pass after the first,
//	                      so -mediators sessions converge on concurrent
//	                      writers); -pause waits between passes, -out
//	                      saves the final pass
//	scrub [OBJECT]        verify at-rest integrity and parity row by row;
//	                      -repair heals from parity, -all scrubs every object
//	bench [-mb N]         measure read & write data-rates against the agents
//	mediators             probe each mediator replica: role, sessions,
//	                      reserved ratios, failovers, handoffs (needs
//	                      -mediators; no -agents required)
//	trace                 render kept per-operation span trees as
//	                      waterfalls; -from URL fetches them from a
//	                      running swiftd's metrics endpoint (no -agents
//	                      required), otherwise one traced write+read runs
//	                      against the agent set; -slow, -op, -id, -n
//	                      filter
//
// Flags -unit, -parity, -parity-shards and -rate select the striping
// parameters; -parity-shards k selects an m+k Reed–Solomon scheme whose
// rows survive k simultaneous agent failures (k=1 is the classic XOR
// computed copy). -rate asks a mediator to pick agents and unit size for
// a required data-rate in KB/s. Every mediator session runs through the
// client's failover broker, and the client's health monitor renews the
// lease (every third of -lease-ttl, else every 2 s) for as long as the
// command runs; a leased reservation self-releases if the process dies.
//
// Without -mediators, -rate uses the built-in policy: an in-process
// mediator over -agents, each deliverable at -agent-rate KB/s, leased
// when -lease-ttl is set — a tier of one behind the same broker.
//
// With -mediators NAME=HOST:PORT,... the session is opened against a
// federated mediator tier (swiftd replicas started with -mediator)
// instead: the broker picks the key's home replica, renews the lease
// over the wire, and re-targets to a surviving replica if the home
// crashes or drains mid-command. In that mode -agents is optional for
// -rate commands — the tier's installation model supplies the agent set.
// Combining -mediators with -agents and no -rate opens a coherence-only
// session: the striping layout comes from the flags, and the mediator
// lease carries just the CacheSync rounds that keep this command's cache
// coherent with other writers.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"swift"
	"swift/internal/mediator"
	"swift/internal/medrpc"
	"swift/internal/obs"
	"swift/internal/stripe"
	"swift/internal/transport/udpnet"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: swiftctl -agents HOST:PORT,... [flags] COMMAND [args]")
	fmt.Fprintln(os.Stderr, "commands: put get cat stat ls rm status health stats reread scrub bench mediators trace")
	flag.PrintDefaults()
	os.Exit(2)
}

// medClients are the wire stubs for the federated mediator tier, set
// when -mediators is given; stats and the mediators command read them.
var medClients []swift.MediatorEndpoint

func main() {
	agents := flag.String("agents", "", "comma-separated storage agent addresses")
	bind := flag.String("bind", "127.0.0.1", "local IP to bind")
	unit := flag.Int64("unit", 32*1024, "striping unit in bytes")
	parity := flag.Bool("parity", false, "enable computed-copy redundancy")
	parityShards := flag.Int("parity-shards", 0, "parity units per stripe row (the k of an m+k Reed-Solomon scheme; implies -parity)")
	rate := flag.Float64("rate", 0, "required data-rate in KB/s (mediator picks agents and unit)")
	agentRate := flag.Float64("agent-rate", 400, "per-agent deliverable rate in KB/s, for -rate")
	leaseTTL := flag.Duration("lease-ttl", 0, "with -rate, lease the built-in mediator's reservation; the lease is renewed every third of it")
	mediators := flag.String("mediators", "", "federated mediator replicas as NAME=HOST:PORT,... (replaces the built-in policy for -rate)")
	traceRate := flag.Float64("trace", 0, "distributed-tracing head-sample rate in [0,1]; the trace command defaults it to 1")
	opTimeout := flag.Duration("op-timeout", 0, "per-operation deadline budget, propagated to agents and mediators on the wire (0 = none)")
	hedge := flag.Bool("hedge", false, "hedge straggling reads: race parity reconstruction against the slowest agent (needs -parity)")
	syncw := flag.Bool("sync", false, "synchronous writes")
	readAhead := flag.Int64("readahead", 0, "sequential read-ahead window in bytes (0 = off; enables the block cache)")
	cacheSize := flag.Int64("cache-size", 0, "client block cache size in bytes (0 = auto when a cache feature is on, negative = off)")
	writeBehind := flag.Int64("write-behind", 0, "write-behind dirty budget in bytes (0 = write-through)")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() == 0 {
		usage()
	}
	host := udpnet.NewHost(*bind)
	if *mediators != "" {
		var err error
		medClients, err = parseMediators(host, *mediators)
		if err != nil {
			fatal(err)
		}
	}

	// trace -from fetches span trees from a running swiftd's metrics
	// endpoint: no agent set and no dial.
	if flag.Arg(0) == "trace" && hasFromFlag(flag.Args()[1:]) {
		if err := cmdTrace(nil, flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	}

	// The mediators command talks only to the mediator tier: it must not
	// require -agents or dial the storage set.
	if flag.Arg(0) == "mediators" {
		if len(medClients) == 0 {
			fatal(fmt.Errorf("mediators needs -mediators NAME=HOST:PORT,..."))
		}
		if err := cmdMediators(medClients); err != nil {
			fatal(err)
		}
		return
	}

	// With a federated tier and a rate requirement the agent set comes
	// from the tier's installation model, so -agents may be omitted.
	if *agents == "" && !(len(medClients) > 0 && *rate > 0) {
		usage()
	}
	var addrs []string
	if *agents != "" {
		addrs = strings.Split(*agents, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
	}

	cfg := swift.Config{
		Host:         host,
		Agents:       addrs,
		Unit:         *unit,
		Parity:       *parity,
		ParityShards: *parityShards,
		SyncWrites:   *syncw,
		TraceRate:    *traceRate,
		OpTimeout:    *opTimeout,
		HedgeReads:   *hedge,

		ReadAhead:      *readAhead,
		CacheSize:      *cacheSize,
		WriteBehindMax: *writeBehind,
	}
	// The trace command is pointless untraced: default to sampling
	// every op unless the user picked a rate.
	if flag.Arg(0) == "trace" && cfg.TraceRate == 0 {
		cfg.TraceRate = 1
	}

	// A mediator session always runs through the failover broker. With
	// -mediators its endpoints are the tier's wire stubs; with -rate
	// alone the built-in policy, an in-process mediator over -agents, is
	// a tier of one.
	var eps []swift.MediatorEndpoint
	if len(medClients) > 0 && (*rate > 0 || *agents != "") {
		eps = medClients
	} else if *rate > 0 {
		infos := make([]mediator.AgentInfo, len(addrs))
		for i, a := range addrs {
			infos[i] = mediator.AgentInfo{Addr: a, Rate: *agentRate * 1024}
		}
		med, err := mediator.New(mediator.Config{
			Agents:   infos,
			Nets:     []mediator.NetInfo{{Name: "net", Capacity: 1e12}},
			LeaseTTL: *leaseTTL,
		})
		if err != nil {
			fatal(err)
		}
		defer med.Close()
		eps = []swift.MediatorEndpoint{med}
	}
	if eps != nil {
		broker, err := openSession(&cfg, eps, *rate, *leaseTTL)
		if err != nil {
			fatal(err)
		}
		defer broker.CloseSession()
	}

	fs, err := swift.Dial(cfg)
	if err != nil {
		fatal(err)
	}
	defer fs.Close()

	args := flag.Args()
	switch args[0] {
	case "put":
		err = cmdPut(fs, args[1:])
	case "get":
		err = cmdGet(fs, args[1:])
	case "cat":
		err = cmdCat(fs, args[1:])
	case "stat":
		err = cmdStat(fs, args[1:])
	case "ls":
		err = cmdLs(fs)
	case "rm":
		err = cmdRm(fs, args[1:])
	case "status":
		err = cmdStatus(fs)
	case "health":
		err = cmdHealth(fs)
	case "stats":
		err = cmdStats(fs, args[1:])
	case "reread":
		err = cmdReread(fs, args[1:])
	case "scrub":
		err = cmdScrub(fs, args[1:])
	case "bench":
		err = cmdBench(fs, args[1:])
	case "trace":
		err = cmdTrace(fs, args[1:])
	default:
		usage()
	}
	if err != nil {
		fatal(err)
	}
}

// openSession opens the command's mediator session through a failover
// broker over eps and wires it into cfg. With a rate (KB/s) the plan
// picks the agents and unit. Without one the session is coherence-only:
// a token reservation that exists purely to carry CacheSync rounds,
// while the striping layout stays exactly what the flags say — so
// cooperating commands in different processes keep an identical layout
// and still invalidate each other's caches. The client's monitor renews
// the lease every third of leaseTTL (2 s without one); the broker
// rotates to a surviving replica if the home crashes or drains. The
// caller closes the session.
func openSession(cfg *swift.Config, eps []swift.MediatorEndpoint, rate float64, leaseTTL time.Duration) (*swift.MediatorBroker, error) {
	key, _ := os.Hostname()
	if key == "" {
		key = "swiftctl"
	}
	broker, err := swift.NewMediatorBroker(swift.BrokerConfig{
		Endpoints: eps,
		Key:       key,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "swiftctl: "+format+"\n", args...)
		},
	})
	if err != nil {
		return nil, err
	}
	req := swift.MediatorRequirements{Rate: rate * 1024, Redundancy: cfg.Parity, ParityShards: cfg.ParityShards}
	if rate == 0 {
		req.Rate = 1024 // coherence-only: token rate, never a plan
	}
	rec, err := broker.OpenSession(req)
	if err != nil {
		return nil, err
	}
	// The mediator session doubles as the cache-coherence channel:
	// writes this client declares propagate as invalidations to every
	// other session caching the same objects.
	cfg.CacheSync = broker.CacheSync
	if rate > 0 {
		cfg.ApplyPlan(&rec.Plan)
		fmt.Fprintf(os.Stderr, "swiftctl: plan: %d agents, unit %d, parity shards %d via %s\n",
			len(rec.Plan.Addrs), rec.Plan.Unit, rec.Plan.ParityShards, broker.Home())
	} else {
		fmt.Fprintf(os.Stderr, "swiftctl: coherence session via %s (layout from flags)\n", broker.Home())
	}
	if !rec.Expires.IsZero() {
		fmt.Fprintf(os.Stderr, "swiftctl: session %d leased, expires %s\n",
			rec.ID, rec.Expires.Format(time.RFC3339))
	}
	cfg.Monitor = swift.MonitorConfig{Interval: leaseTTL / 3, Heartbeat: broker.Heartbeat}
	if cfg.Monitor.Interval <= 0 {
		cfg.Monitor.Interval = 2 * time.Second
	}
	return broker, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "swiftctl: %v\n", err)
	os.Exit(1)
}

// parseMediators parses NAME=HOST:PORT replica entries into wire stubs.
func parseMediators(host *udpnet.Host, s string) ([]swift.MediatorEndpoint, error) {
	var clients []swift.MediatorEndpoint
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, addr, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("bad -mediators entry %q (want NAME=HOST:PORT)", ent)
		}
		c, err := medrpc.NewClient(medrpc.ClientConfig{Host: host, Name: name, Addr: addr})
		if err != nil {
			return nil, fmt.Errorf("mediator %q: %w", name, err)
		}
		clients = append(clients, c)
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("empty -mediators")
	}
	return clients, nil
}

// cmdMediators probes each replica of the federated tier and prints its
// operator-facing state: role, session counts, reservation headroom and
// the failover/handoff history.
func cmdMediators(clients []swift.MediatorEndpoint) error {
	fmt.Printf("%-12s %-9s %8s %6s %8s %7s %10s %9s %8s  %s\n",
		"replica", "role", "sessions", "home", "agents%", "net%",
		"failovers", "handoffs", "expired", "last-handoff")
	down := 0
	for _, c := range clients {
		st, err := c.Status()
		if err != nil {
			fmt.Printf("%-12s DOWN (%v)\n", c.Name(), err)
			down++
			continue
		}
		last := "-"
		if !st.LastHandoff.IsZero() {
			last = st.LastHandoff.Format(time.RFC3339)
		}
		fmt.Printf("%-12s %-9s %8d %6d %7.0f%% %6.0f%% %10d %9d %8d  %s\n",
			st.Name, st.Role, st.Sessions, st.HomeSessions,
			100*maxFrac(st.AgentReserved), 100*maxFrac(st.NetReserved),
			st.Failovers, st.Handoffs, st.Expirations, last)
	}
	if down == len(clients) {
		return fmt.Errorf("all %d mediator replicas are down", down)
	}
	return nil
}

func maxFrac(fs []float64) float64 {
	var m float64
	for _, f := range fs {
		if f > m {
			m = f
		}
	}
	return m
}

// printFederation appends the mediator tier's view to a stats snapshot:
// one line per replica, DOWN for unreachable ones.
func printFederation(clients []swift.MediatorEndpoint) {
	for _, c := range clients {
		st, err := c.Status()
		if err != nil {
			fmt.Printf("federation: %-12s DOWN (%v)\n", c.Name(), err)
			continue
		}
		fmt.Printf("federation: %-12s %-9s sessions=%d home=%d failovers=%d handoffs=%d expired=%d\n",
			st.Name, st.Role, st.Sessions, st.HomeSessions,
			st.Failovers, st.Handoffs, st.Expirations)
	}
}

func cmdPut(fs *swift.FS, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("put needs a local file")
	}
	local := args[0]
	object := local
	if len(args) > 1 {
		object = args[1]
	}
	data, err := os.ReadFile(local)
	if err != nil {
		return err
	}
	f, err := fs.Create(object)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		return err
	}
	fmt.Printf("stored %s (%d bytes) as %q\n", local, len(data), object)
	return nil
}

func cmdGet(fs *swift.FS, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("get needs an object name")
	}
	object := args[0]
	local := object
	if len(args) > 1 {
		local = args[1]
	}
	f, err := fs.Open(object)
	if err != nil {
		return err
	}
	defer f.Close()
	data := make([]byte, f.Size())
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return err
	}
	if err := os.WriteFile(local, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("retrieved %q (%d bytes) to %s\n", object, len(data), local)
	return nil
}

func cmdCat(fs *swift.FS, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("cat needs an object name")
	}
	f, err := fs.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(os.Stdout, f)
	return err
}

func cmdStat(fs *swift.FS, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("stat needs an object name")
	}
	size, err := fs.Stat(args[0])
	if err != nil {
		return err
	}
	li := fs.Layout()
	if li.ParityShards == 0 {
		fmt.Printf("%s\t%d bytes\tscheme=%s\n", args[0], size, li.Scheme)
		return nil
	}
	// Per-file redundancy: what the fragments actually occupy across the
	// agent set, parity units included.
	stored := stripe.Layout{
		Unit: li.Unit, Agents: li.Agents,
		Parity: true, ParityUnits: li.ParityShards,
	}.FragmentSizes(size)
	var total int64
	for _, s := range stored {
		total += s
	}
	overhead := 0.0
	if size > 0 {
		overhead = 100 * float64(total-size) / float64(size)
	}
	fmt.Printf("%s\t%d bytes\tscheme=%s\tstored=%d bytes (redundancy overhead %.0f%%)\n",
		args[0], size, li.Scheme, total, overhead)
	return nil
}

func cmdLs(fs *swift.FS) error {
	names, err := fs.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		fmt.Println(n)
	}
	return nil
}

func cmdRm(fs *swift.FS, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("rm needs an object name")
	}
	return fs.Remove(args[0])
}

func cmdStatus(fs *swift.FS) error {
	li := fs.Layout()
	fmt.Printf("scheme %s  unit %d  agents %d (%d data + %d parity units per row)\n",
		li.Scheme, li.Unit, li.Agents, li.DataShards, li.ParityShards)
	for i, st := range fs.Ping() {
		if !st.Alive {
			fmt.Printf("agent %d  %-22s DOWN\n", i, st.Addr)
			continue
		}
		fmt.Printf("agent %d  %-22s up  rtt=%-10v objects=%-5d sessions=%-3d bytes=%d\n",
			i, st.Addr, st.RTT.Round(time.Microsecond), st.Objects, st.Sessions, st.Bytes)
	}
	return nil
}

func cmdHealth(fs *swift.FS) error {
	for i, h := range fs.CheckHealth() {
		line := fmt.Sprintf("agent %d  %-22s %-8v", i, h.Addr, h.State)
		if h.Failures > 0 {
			line += fmt.Sprintf("  failures=%d", h.Failures)
		}
		if h.LastErr != "" {
			line += fmt.Sprintf("  last=%q", h.LastErr)
		}
		fmt.Println(line)
	}
	return nil
}

// cmdStats prints the client's telemetry snapshot. With -watch it
// refreshes every -every, showing counter deltas per interval; with -mb N
// it drives a background read/write loop so the numbers move.
func cmdStats(fs *swift.FS, args []string) error {
	statsFlags := flag.NewFlagSet("stats", flag.ExitOnError)
	watch := statsFlags.Bool("watch", false, "refresh continuously until interrupted")
	every := statsFlags.Duration("every", time.Second, "refresh period with -watch")
	mb := statsFlags.Int("mb", 0, "drive a background transfer loop of this many MB per pass")
	rounds := statsFlags.Int("rounds", 0, "with -watch, stop after this many refreshes (0 = until interrupted)")
	if err := statsFlags.Parse(args); err != nil {
		return err
	}

	if !*watch {
		// One-shot: optionally run one traffic pass, then snapshot.
		if *mb > 0 {
			stop := make(chan struct{})
			close(stop) // statsLoad's first pass always runs, then it sees stop
			if err := statsLoad(fs, *mb, stop); err != nil {
				return err
			}
			defer fs.Remove("swiftctl-stats")
		}
		printStats(os.Stdout, fs.Stats(), swift.MetricsSnapshot{}, 0)
		printFederation(medClients)
		return nil
	}

	// Watch: optional background traffic so the numbers move.
	stop := make(chan struct{})
	loadDone := make(chan error, 1)
	if *mb > 0 {
		go func() {
			loadDone <- statsLoad(fs, *mb, stop)
		}()
		defer func() {
			close(stop)
			<-loadDone
			fs.Remove("swiftctl-stats")
		}()
	}

	prev := fs.Stats().Counters
	for n := 0; *rounds == 0 || n < *rounds; n++ {
		time.Sleep(*every)
		s := fs.Stats()
		fmt.Printf("--- %s\n", time.Now().Format("15:04:05"))
		printStats(os.Stdout, s, prev, *every)
		printFederation(medClients)
		prev = s.Counters
	}
	return nil
}

// statsLoad loops read/write passes of mb MB against a scratch object
// until stop closes. The first pass always completes, so one-shot stats
// have traffic to report.
func statsLoad(fs *swift.FS, mb int, stop chan struct{}) error {
	size := mb << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 2654435761)
	}
	f, err := fs.Create("swiftctl-stats")
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, size)
	for first := true; ; first = false {
		if !first {
			select {
			case <-stop:
				return nil
			default:
			}
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			return err
		}
		if _, err := f.ReadAt(buf, 0); err != nil {
			return err
		}
	}
}

// printStats renders one telemetry snapshot to w. With a non-zero
// interval the counter lines show per-interval deltas against prev.
func printStats(w io.Writer, s swift.Stats, prev swift.MetricsSnapshot, interval time.Duration) {
	c := s.Counters.Sub(prev)
	suffix := ""
	if interval > 0 {
		suffix = fmt.Sprintf("/%v", interval)
	}
	fmt.Fprintf(w, "bursts: read=%d%s (timeouts %d)  write=%d%s (timeouts %d)  resends=%d  backoffs=%d  probes=%d\n",
		c.ReadBursts, suffix, c.ReadTimeouts, c.WriteBursts, suffix,
		c.WriteTimeouts, c.ResendAsks, c.Backoffs, c.Probes)
	fmt.Fprintf(w, "integrity[%s]: corruptions=%d repairs=%d unrepairable=%d scrubbed_rows=%d\n",
		s.Scheme, c.Corruptions, c.Repairs, c.Unrepairable, c.ScrubRows)
	if s.Scheme != "" && s.Scheme != "none" {
		line := fmt.Sprintf("ec[%s]: encodes=%d (%.1f MB) reconstructs=%d (%.1f MB) inv_cache=%d/%d",
			s.Scheme, s.EC.EncodeCalls, float64(s.EC.EncodeBytes)/1e6,
			s.EC.ReconstructCalls, float64(s.EC.ReconstructBytes)/1e6,
			s.EC.InvCacheHits, s.EC.InvCacheHits+s.EC.InvCacheMisses)
		for n := 1; n < len(s.EC.ByMissing); n++ {
			line += fmt.Sprintf(" rebuilt_%dmiss=%d", n, s.EC.ByMissing[n])
		}
		fmt.Fprintln(w, line)
	}
	printHist := func(label string, h swift.LatencySnapshot) {
		if h.Count == 0 {
			return
		}
		fmt.Fprintf(w, "%-6s n=%-6d mean=%-10v p50=%-10v p90=%-10v p99=%-10v max=%v\n",
			label, h.Count, h.Mean.Round(time.Microsecond),
			h.P50.Round(time.Microsecond), h.P90.Round(time.Microsecond),
			h.P99.Round(time.Microsecond), h.Max.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "overload: pushbacks=%d hedges=%d (wins %d) budget_denials=%d breaker_trips=%d budget_fill=%.0f%%\n",
		c.Pushbacks, c.Hedges, c.HedgeWins, c.BudgetDenials,
		c.BreakerTrips, 100*s.BudgetFill)
	if cs := s.Cache; cs.Capacity > 0 {
		fmt.Fprintf(w, "cache: %.1f/%.1f MB (%.1f dirty)  hit_rate=%.1f%% (%d/%d)  fill=%.2f B/read B (%.1f MB)  readahead=%d/%d used  flushes=%d (errs %d, stalls %d)  evictions=%d  invalidations=%d\n",
			float64(cs.Bytes)/1e6, float64(cs.Capacity)/1e6, float64(cs.Dirty)/1e6,
			100*cs.HitRate(), cs.Hits, cs.Hits+cs.Misses,
			cs.FillPerReadByte(), float64(cs.FillBytes)/1e6,
			cs.ReadAheadUsed, cs.ReadAheadIssued,
			cs.Flushes, cs.FlushErrors, cs.Stalls, cs.Evictions, cs.Invalidations)
	}
	printHist("open", s.OpenLat)
	printHist("read", s.ReadLat)
	printHist("write", s.WriteLat)
	printHist("probe", s.ProbeLat)
	for i, as := range s.Agents {
		fmt.Fprintf(w, "agent %d %-22s %-8v brk=%-9v pkt=%-5d rb=%-6d rto=%-4d wb=%-6d wto=%-4d pb=%-4d hg=%-4d rp50=%-10v wp50=%v\n",
			i, as.Addr, as.State, as.Breaker, as.PacketBytes, as.ReadBursts, as.ReadTimeouts,
			as.WriteBursts, as.WriteTimeouts, as.Pushbacks, as.Hedges,
			as.ReadBurstLat.P50.Round(time.Microsecond),
			as.WriteBurstLat.P50.Round(time.Microsecond))
	}
}

// cmdReread reads an object end-to-end n times inside one process — the
// block cache and coherence drill. One handle stays open across every
// pass (clean cached blocks drop with the last reference, so reopening
// per pass would read cold each time): pass 1 warms the cache, later
// passes are served from it (watch the hit rate), and each pass after
// the first is preceded by a coherence sync so a concurrent writer's
// update is re-fetched instead of served stale. Each pass prints its
// byte count and SHA-256, so a driver script can assert both cache hits
// and convergence on new contents.
func cmdReread(fs *swift.FS, args []string) error {
	rr := flag.NewFlagSet("reread", flag.ExitOnError)
	passes := rr.Int("n", 2, "number of sequential end-to-end passes")
	pause := rr.Duration("pause", 0, "wait between passes (lets concurrent writers land)")
	out := rr.String("out", "", "save the final pass to this local file")
	if err := rr.Parse(args); err != nil {
		return err
	}
	if rr.NArg() < 1 {
		return fmt.Errorf("reread needs an object name")
	}
	f, err := fs.Open(rr.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	for i := 0; i < *passes; i++ {
		if i > 0 {
			if *pause > 0 {
				time.Sleep(*pause)
			}
			fs.CoherenceSync()
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				return err
			}
		}
		h := sha256.New()
		var w io.Writer = h
		var save *os.File
		if *out != "" && i == *passes-1 {
			if save, err = os.Create(*out); err != nil {
				return err
			}
			w = io.MultiWriter(h, save)
		}
		n, err := io.Copy(w, f)
		if save != nil {
			if cerr := save.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("pass %d: %w", i+1, err)
		}
		fmt.Printf("pass %d: %d bytes sha256=%x\n", i+1, n, h.Sum(nil))
	}
	cs := fs.CacheStats()
	fmt.Printf("cache: hits=%d misses=%d hit_rate=%.1f%% readahead=%d/%d used invalidations=%d\n",
		cs.Hits, cs.Misses, 100*cs.HitRate(),
		cs.ReadAheadUsed, cs.ReadAheadIssued, cs.Invalidations)
	return nil
}

// cmdScrub verifies at-rest integrity (checksum envelopes) and parity
// consistency row by row — the maintenance pass an installation runs on a
// schedule. With -repair, damaged units are rewritten from parity and
// stale parity is recomputed from the data. The exit status reflects the
// verdict: an error is returned when damage was found but not healed.
func cmdScrub(fs *swift.FS, args []string) error {
	scrubFlags := flag.NewFlagSet("scrub", flag.ExitOnError)
	repair := scrubFlags.Bool("repair", false, "rewrite corrupt units from parity; recompute stale parity")
	all := scrubFlags.Bool("all", false, "scrub every object on the agent set")
	pause := scrubFlags.Duration("pause", 0, "pause between stripe rows (rate-limit the pass)")
	if err := scrubFlags.Parse(args); err != nil {
		return err
	}
	opts := swift.ScrubOptions{Repair: *repair, RowPause: *pause}

	var (
		rep  swift.ScrubReport
		err  error
		what string
	)
	switch {
	case *all:
		what = "all objects"
		rep, err = fs.ScrubAll(opts)
	case scrubFlags.NArg() >= 1:
		what = scrubFlags.Arg(0)
		rep, err = fs.ScrubObject(what, opts)
	default:
		return fmt.Errorf("scrub needs an object name (or -all)")
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", what, rep)
	switch {
	case rep.Unrepairable > 0:
		return fmt.Errorf("%d corrupt units exceed parity redundancy", rep.Unrepairable)
	case (rep.Corruptions > 0 || rep.ParityMismatches > 0) && !*repair:
		return fmt.Errorf("damage found; run with -repair to heal from parity")
	case rep.Skipped > 0:
		return fmt.Errorf("%d rows skipped (agent out or unsettled); re-run once healthy", rep.Skipped)
	}
	return nil
}

// hasFromFlag reports whether the trace subcommand's args carry -from,
// which selects the remote-fetch mode that needs no agent set. It must
// be decided before the subcommand FlagSet parses, because the main
// command path dials the agents first.
func hasFromFlag(args []string) bool {
	for _, a := range args {
		a = strings.TrimPrefix(a, "-")
		a = strings.TrimPrefix(a, "-")
		if a == "from" || strings.HasPrefix(a, "from=") {
			return true
		}
	}
	return false
}

// cmdTrace renders kept per-operation span trees as waterfalls. With
// -from it fetches them from a running swiftd or swift-load metrics
// endpoint (/trace/ops); without it, one traced write+read runs against
// the agent set and the client tracer's kept traces are rendered.
func cmdTrace(fs *swift.FS, args []string) error {
	tf := flag.NewFlagSet("trace", flag.ExitOnError)
	from := tf.String("from", "", "fetch traces from this metrics endpoint (e.g. http://127.0.0.1:9090) instead of running a transfer")
	slow := tf.Bool("slow", false, "only tail-kept traces: errored, retried, or slower than the op's live p99")
	op := tf.String("op", "", "only traces whose root op matches (open, read, write, sync, scrub, ...)")
	id := tf.String("id", "", "only the trace with this hex id")
	n := tf.Int("n", 0, "only the n most recent matches (0 = all)")
	mb := tf.Int("mb", 1, "transfer size in MB for the traced write+read (without -from)")
	if err := tf.Parse(args); err != nil {
		return err
	}

	var traces []obs.Trace
	if *from != "" {
		var err error
		traces, err = fetchTraces(*from, *op, *id, *slow, *n)
		if err != nil {
			return err
		}
	} else {
		tracer := fs.Tracer()
		if *mb > 0 {
			size := *mb << 20
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 2654435761)
			}
			f, err := fs.Create("swiftctl-trace")
			if err != nil {
				return err
			}
			defer func() {
				f.Close()
				fs.Remove("swiftctl-trace")
			}()
			if _, err := f.WriteAt(data, 0); err != nil {
				return err
			}
			if _, err := f.ReadAt(data, 0); err != nil {
				return err
			}
		}
		var err error
		traces, err = obs.FilterTraces(tracer.Traces(), *op, *id, *slow, *n)
		if err != nil {
			return err
		}
	}
	if len(traces) == 0 {
		fmt.Println("no traces kept (is tracing enabled? swiftd -trace RATE / swiftctl -trace RATE)")
		return nil
	}
	for _, tr := range traces {
		fmt.Printf("%s\n\n", tr.Waterfall())
	}
	return nil
}

// fetchTraces pulls the kept span trees from a metrics endpoint's
// /trace/ops handler, filtering server-side.
func fetchTraces(base, op, id string, slow bool, n int) ([]obs.Trace, error) {
	u := strings.TrimSuffix(base, "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	q := url.Values{"format": {"json"}}
	if slow {
		q.Set("slow", "1")
	}
	if op != "" {
		q.Set("op", op)
	}
	if id != "" {
		q.Set("id", id)
	}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	resp, err := http.Get(u + "/trace/ops?" + q.Encode())
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("trace: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var out struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("trace: decode /trace/ops reply: %w", err)
	}
	return out.Traces, nil
}

func cmdBench(fs *swift.FS, args []string) error {
	benchFlags := flag.NewFlagSet("bench", flag.ExitOnError)
	mb := benchFlags.Int("mb", 8, "transfer size in MB")
	if err := benchFlags.Parse(args); err != nil {
		return err
	}
	size := *mb << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 2654435761)
	}

	f, err := fs.Create("swiftctl-bench")
	if err != nil {
		return err
	}
	defer func() {
		f.Close()
		fs.Remove("swiftctl-bench")
	}()

	start := time.Now()
	if _, err := f.WriteAt(data, 0); err != nil {
		return err
	}
	welapsed := time.Since(start)

	buf := make([]byte, size)
	start = time.Now()
	if _, err := f.ReadAt(buf, 0); err != nil {
		return err
	}
	relapsed := time.Since(start)

	fmt.Printf("write: %8.0f KB/s  (%d MB in %v)\n",
		float64(size)/1024/welapsed.Seconds(), *mb, welapsed.Round(time.Millisecond))
	fmt.Printf("read:  %8.0f KB/s  (%d MB in %v)\n",
		float64(size)/1024/relapsed.Seconds(), *mb, relapsed.Round(time.Millisecond))
	return nil
}
