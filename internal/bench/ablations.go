package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"swift/internal/core"
	"swift/internal/stats"
)

// Ablations quantify the design choices DESIGN.md calls out: datagram vs
// stream transport (TCPTable), read-request granularity, striping-unit
// size, parity cost, and agent-count scaling, plus the paper's §7
// small-object penalty.

// Sweep is one ablation result: a labeled series of read/write rates.
type Sweep struct {
	Name   string
	Title  string
	Labels []string
	Read   []stats.Summary // KB/s
	Write  []stats.Summary // KB/s
}

// Print renders the sweep.
func (s Sweep) Print(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", s.Name, s.Title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Point\tread KB/s\twrite KB/s\t")
	for i, l := range s.Labels {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t\n", l, s.Read[i].Mean, s.Write[i].Mean)
	}
	tw.Flush()
}

// String renders the sweep to a string.
func (s Sweep) String() string {
	var sb strings.Builder
	s.Print(&sb)
	return sb.String()
}

// measureCluster takes samples of sequential read and write rates on a
// cluster.
func measureCluster(opts Options, sizeMB, samples int, seed int64) (read, write stats.Sample, err error) {
	opts.Seed = seed
	cl, cerr := NewSwiftCluster(opts)
	if cerr != nil {
		return read, write, cerr
	}
	defer cl.Close()
	size := sizeMB << 20
	data := pattern(size, seed)
	buf := make([]byte, size)
	for s := 0; s < samples; s++ {
		f, oerr := cl.Client.Open("ablation", core.OpenFlags{Create: true, Truncate: true})
		if oerr != nil {
			return read, write, oerr
		}
		start := cl.Net.Now()
		if _, werr := f.WriteAt(data, 0); werr != nil {
			f.Close()
			return read, write, werr
		}
		write.Add(float64(size) / 1024 / (cl.Net.Now() - start).Seconds())
		start = cl.Net.Now()
		if _, rerr := f.ReadAt(buf, 0); rerr != nil {
			f.Close()
			return read, write, rerr
		}
		read.Add(float64(size) / 1024 / (cl.Net.Now() - start).Seconds())
		f.Close()
	}
	return read, write, nil
}

// MeasureSwift runs one sample of sequential write-then-read of sizeMB
// against a cluster and returns the modeled rates in KB/s. It is the
// one-shot primitive the root benchmarks use.
func MeasureSwift(opts Options, sizeMB int, seed int64) (readKBps, writeKBps float64, err error) {
	rd, wr, err := measureCluster(opts, sizeMB, 1, seed)
	if err != nil {
		return 0, 0, err
	}
	return rd.Mean(), wr.Mean(), nil
}

// MeasureNFS runs one write-then-read sample against the NFS baseline.
func MeasureNFS(opts Options, sizeMB int, seed int64) (readKBps, writeKBps float64, err error) {
	opts.Seed = seed
	cl, err := NewNFSCluster(opts)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	size := sizeMB << 20
	data := pattern(size, seed)
	start := cl.Net.Now()
	if err := cl.Client.WriteFile("m", data); err != nil {
		return 0, 0, err
	}
	writeKBps = float64(size) / 1024 / (cl.Net.Now() - start).Seconds()
	buf := make([]byte, size)
	start = cl.Net.Now()
	if _, err := cl.Client.ReadFile("m", buf); err != nil {
		return 0, 0, err
	}
	readKBps = float64(size) / 1024 / (cl.Net.Now() - start).Seconds()
	return readKBps, writeKBps, nil
}

// MeasureSCSI runs one write-then-read sample against the local-disk
// baseline.
func MeasureSCSI(sizeMB int, seed int64) (readKBps, writeKBps float64, err error) {
	rc := RunConfig{Samples: 1, SizesMB: []int{sizeMB}, Seed: seed}
	t, err := Table2(rc)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range t.Rows {
		if r.Op == "Read" {
			readKBps = r.KBps.Mean
		} else {
			writeKBps = r.KBps.Mean
		}
	}
	return readKBps, writeKBps, nil
}

// AblationRequestSize sweeps the per-agent request burst: the prototype's
// "one outstanding packet request per storage agent" rule at different
// granularities. Tiny requests pay a turnaround per packet; large ones
// approach the medium's capacity.
func AblationRequestSize(rc RunConfig) (Sweep, error) {
	rc.fill()
	s := Sweep{
		Name:  "Ablation: request size",
		Title: "read/write rate vs per-agent request burst (3 agents, one Ethernet)",
	}
	for _, pkts := range []int64{1, 4, 12, 48} {
		rd, wr, err := measureCluster(Options{
			Agents: 3, Scale: 6, Client: core.Config{RequestBytes: pkts * 1364},
		}, rc.SizesMB[0], rc.Samples, rc.Seed)
		if err != nil {
			return Sweep{}, err
		}
		s.Labels = append(s.Labels, fmt.Sprintf("%d pkt (%d B)", pkts, pkts*1364))
		s.Read = append(s.Read, rd.Summarize())
		s.Write = append(s.Write, wr.Summarize())
	}
	return s, nil
}

// AblationStripeUnit sweeps the striping unit on the prototype, the knob
// the storage mediator tunes per session.
func AblationStripeUnit(rc RunConfig) (Sweep, error) {
	rc.fill()
	s := Sweep{
		Name:  "Ablation: striping unit",
		Title: "read/write rate vs striping unit (3 agents, one Ethernet)",
	}
	for _, unit := range []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		rd, wr, err := measureCluster(Options{
			Agents: 3, Scale: 6, Client: core.Config{Unit: unit},
		}, rc.SizesMB[0], rc.Samples, rc.Seed)
		if err != nil {
			return Sweep{}, err
		}
		s.Labels = append(s.Labels, fmt.Sprintf("%d KB", unit>>10))
		s.Read = append(s.Read, rd.Summarize())
		s.Write = append(s.Write, wr.Summarize())
	}
	return s, nil
}

// AblationAgents sweeps the number of storage agents on one Ethernet.
// The paper: "including a fourth storage agent would only saturate the
// network while not significantly increasing performance."
func AblationAgents(rc RunConfig) (Sweep, error) {
	rc.fill()
	s := Sweep{
		Name:  "Ablation: storage agents",
		Title: "read/write rate vs number of agents (one Ethernet)",
	}
	for _, n := range []int{1, 2, 3, 4} {
		rd, wr, err := measureCluster(Options{Agents: n, Scale: 6},
			rc.SizesMB[0], rc.Samples, rc.Seed)
		if err != nil {
			return Sweep{}, err
		}
		s.Labels = append(s.Labels, fmt.Sprintf("%d agents", n))
		s.Read = append(s.Read, rd.Summarize())
		s.Write = append(s.Write, wr.Summarize())
	}
	return s, nil
}

// AblationParity measures the cost of computed-copy redundancy: healthy
// writes pay the parity computation and the extra parity traffic; reads
// are unaffected until an agent fails.
func AblationParity(rc RunConfig) (Sweep, error) {
	rc.fill()
	s := Sweep{
		Name:  "Ablation: computed-copy redundancy",
		Title: "read/write rate with and without rotating parity (4 agents)",
	}
	for _, parity := range []bool{false, true} {
		rd, wr, err := measureCluster(Options{
			Agents: 4, Scale: 6, Client: core.Config{Parity: parity},
		}, rc.SizesMB[0], rc.Samples, rc.Seed)
		if err != nil {
			return Sweep{}, err
		}
		label := "no parity"
		if parity {
			label = "parity"
		}
		s.Labels = append(s.Labels, label)
		s.Read = append(s.Read, rd.Summarize())
		s.Write = append(s.Write, wr.Summarize())
	}
	return s, nil
}

// AblationReadAhead measures the client read-ahead window's effect on a
// small-sequential-read workload (8 KB application reads): the window
// turns per-read turnarounds into large-burst transfers.
func AblationReadAhead(rc RunConfig) (Sweep, error) {
	rc.fill()
	s := Sweep{
		Name:  "Ablation: client read-ahead",
		Title: "8 KB sequential reads vs read-ahead window (3 agents, one Ethernet)",
	}
	size := rc.SizesMB[0] << 20
	for _, window := range []int64{0, 64 << 10, 256 << 10} {
		opts := Options{Agents: 3, Scale: 6, Seed: rc.Seed, Client: core.Config{ReadAhead: window}}
		cl, err := NewSwiftCluster(opts)
		if err != nil {
			return Sweep{}, err
		}
		data := pattern(size, rc.Seed)
		f, err := cl.Client.Open("ra", core.OpenFlags{Create: true})
		if err != nil {
			cl.Close()
			return Sweep{}, err
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			f.Close()
			cl.Close()
			return Sweep{}, err
		}
		var rd stats.Sample
		buf := make([]byte, 8192)
		for smp := 0; smp < rc.Samples; smp++ {
			start := cl.Net.Now()
			for off := int64(0); off < int64(size); off += int64(len(buf)) {
				if _, err := f.ReadAt(buf, off); err != nil {
					f.Close()
					cl.Close()
					return Sweep{}, err
				}
			}
			rd.Add(float64(size) / 1024 / (cl.Net.Now() - start).Seconds())
		}
		f.Close()
		cl.Close()
		label := "no read-ahead"
		if window > 0 {
			label = fmt.Sprintf("%d KB window", window>>10)
		}
		s.Labels = append(s.Labels, label)
		s.Read = append(s.Read, rd.Summarize())
		s.Write = append(s.Write, stats.Summary{}) // read-only sweep
	}
	return s, nil
}

// SmallObjectResult reports the paper's §7 small-object penalty: "the
// penalties incurred are one round trip time for a short network message,
// and the cost of computing the parity code."
type SmallObjectResult struct {
	Size         int64
	ReadLatency  time.Duration // modeled, mean
	WriteLatency time.Duration
	ParityWrite  time.Duration
}

// AblationSmallObjects measures small-transfer latency.
func AblationSmallObjects(rc RunConfig) ([]SmallObjectResult, error) {
	rc.fill()
	var out []SmallObjectResult
	for _, size := range []int64{1 << 10, 4 << 10, 16 << 10} {
		res := SmallObjectResult{Size: size}
		for _, parity := range []bool{false, true} {
			opts := Options{Agents: 4, Scale: 6, Seed: rc.Seed, Client: core.Config{Parity: parity, Unit: 4 << 10}}
			cl, err := NewSwiftCluster(opts)
			if err != nil {
				return nil, err
			}
			data := pattern(int(size), rc.Seed)
			f, err := cl.Client.Open("small", core.OpenFlags{Create: true})
			if err != nil {
				cl.Close()
				return nil, err
			}
			var wlat, rlat time.Duration
			n := rc.Samples
			for s := 0; s < n; s++ {
				start := cl.Net.Now()
				if _, err := f.WriteAt(data, 0); err != nil {
					f.Close()
					cl.Close()
					return nil, err
				}
				wlat += cl.Net.Now() - start
				start = cl.Net.Now()
				if _, err := f.ReadAt(data, 0); err != nil {
					f.Close()
					cl.Close()
					return nil, err
				}
				rlat += cl.Net.Now() - start
			}
			f.Close()
			cl.Close()
			if parity {
				res.ParityWrite = wlat / time.Duration(n)
			} else {
				res.WriteLatency = wlat / time.Duration(n)
				res.ReadLatency = rlat / time.Duration(n)
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// PrintSmallObjects renders the small-object latencies.
func PrintSmallObjects(w io.Writer, rs []SmallObjectResult) {
	fmt.Fprintln(w, "Ablation: small objects (modeled latency; §7's RTT + parity penalty)")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Size\tread\twrite\twrite+parity\t")
	for _, r := range rs {
		fmt.Fprintf(tw, "%d KB\t%v\t%v\t%v\t\n",
			r.Size>>10,
			r.ReadLatency.Round(100*time.Microsecond),
			r.WriteLatency.Round(100*time.Microsecond),
			r.ParityWrite.Round(100*time.Microsecond))
	}
	tw.Flush()
}
