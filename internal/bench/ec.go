package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"swift/internal/ec"
)

// The erasure-coding microbench: raw codec throughput, no network and no
// agents, because the question it answers is purely computational — is
// the GF(2^8) kernel fast enough that redundancy math never becomes the
// bottleneck behind the transport? It compares the k=1 member of the
// Cauchy Reed–Solomon family (all-ones parity row: the paper's XOR
// computed copy) against the same codec at higher correction power,
// across the striping-unit sizes the mediator actually negotiates.

// ECPoint is one measured cell of the erasure-coding microbench.
// Throughput is expressed over the data bytes processed (m x unit per
// encode; the same row worth of data per reconstruct), so points with
// different schemes are directly comparable.
type ECPoint struct {
	Scheme          string  `json:"scheme"` // "m+k"
	Kernel          string  `json:"kernel"` // "xor" (k=1: every coefficient is 1) or "rs"
	UnitBytes       int     `json:"unit_bytes"`
	EncodeMBps      float64 `json:"encode_mbps"`
	ReconstructMBps float64 `json:"reconstruct_mbps"` // k shards missing, worst case: all data
}

// ECBench is the machine-readable result set (BENCH_ec.json).
type ECBench struct {
	Points []ECPoint `json:"points"`
}

// ecScheme names one codec configuration under test.
type ecScheme struct{ m, k int }

// defaultECUnits are the striping-unit sizes swept; they bracket the
// sizes the storage mediator negotiates in practice.
var defaultECUnits = []int{4 << 10, 16 << 10, 64 << 10, 256 << 10}

// defaultECSchemes pits the XOR computed copy (3+1) against
// Reed–Solomon at higher (3+2, 8+2) correction power.
var defaultECSchemes = []ecScheme{{3, 1}, {3, 2}, {8, 2}}

// MeasureEC runs the codec microbench: for every scheme and unit size it
// times Encode over fresh parity and Reconstruct with k shards missing
// (all of them data shards — the worst case, every output needs the full
// decode matrix). budget is the minimum measurement time per cell.
func MeasureEC(budget time.Duration) (ECBench, error) {
	var out ECBench
	for _, sc := range defaultECSchemes {
		c, err := ec.New(sc.m, sc.k)
		if err != nil {
			return ECBench{}, fmt.Errorf("bench: codec %d+%d: %w", sc.m, sc.k, err)
		}
		kernel := "rs"
		if sc.k == 1 {
			kernel = "xor"
		}
		for _, unit := range defaultECUnits {
			shards := make([][]byte, sc.m+sc.k)
			for i := range shards {
				shards[i] = pattern(unit, int64(i+1))
			}
			rowData := sc.m * unit

			enc, err := timeECOp(budget, rowData, func() error {
				return c.Encode(shards)
			})
			if err != nil {
				return ECBench{}, fmt.Errorf("bench: encode %d+%d unit %d: %w", sc.m, sc.k, unit, err)
			}

			// Reconstruct with the first k data shards missing. The
			// codec allocates the rebuilt shards, so each iteration just
			// re-nils them; the allocation cost is part of the measured
			// path, exactly as the degraded read pays it.
			rec, err := timeECOp(budget, rowData, func() error {
				for i := 0; i < sc.k; i++ {
					shards[i] = nil
				}
				return c.Reconstruct(shards)
			})
			if err != nil {
				return ECBench{}, fmt.Errorf("bench: reconstruct %d+%d unit %d: %w", sc.m, sc.k, unit, err)
			}

			out.Points = append(out.Points, ECPoint{
				Scheme:          fmt.Sprintf("%d+%d", sc.m, sc.k),
				Kernel:          kernel,
				UnitBytes:       unit,
				EncodeMBps:      enc,
				ReconstructMBps: rec,
			})
		}
	}
	return out, nil
}

// timeECOp runs op until at least budget has elapsed (always at least
// once) and returns the throughput in MB/s over bytesPerOp.
func timeECOp(budget time.Duration, bytesPerOp int, op func() error) (float64, error) {
	// Warm-up: tables, decode-matrix cache, allocator.
	if err := op(); err != nil {
		return 0, err
	}
	var (
		iters int
		start = time.Now()
	)
	for {
		if err := op(); err != nil {
			return 0, err
		}
		iters++
		if time.Since(start) >= budget {
			break
		}
	}
	sec := time.Since(start).Seconds()
	return float64(iters) * float64(bytesPerOp) / 1e6 / sec, nil
}

// Print renders the microbench in the ablation-sweep style.
func (b ECBench) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation: erasure coding: codec encode/reconstruct MB/s vs XOR (k missing shards)")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Scheme\tKernel\tUnit\tencode MB/s\treconstruct MB/s\t")
	for _, p := range b.Points {
		fmt.Fprintf(tw, "%s\t%s\t%d KB\t%.0f\t%.0f\t\n",
			p.Scheme, p.Kernel, p.UnitBytes>>10, p.EncodeMBps, p.ReconstructMBps)
	}
	tw.Flush()
}

// String renders the microbench to a string.
func (b ECBench) String() string {
	var sb strings.Builder
	b.Print(&sb)
	return sb.String()
}

// WriteJSON emits the machine-readable result set.
func (b ECBench) WriteJSON(w io.Writer) error {
	e := json.NewEncoder(w)
	e.SetIndent("", "  ")
	return e.Encode(b)
}
