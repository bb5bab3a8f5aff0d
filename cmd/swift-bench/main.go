// Command swift-bench regenerates the paper's prototype measurements:
//
//	Table 1 — Swift on a single Ethernet (3 storage agents)
//	Table 2 — the local SCSI disk baseline
//	Table 3 — the NFS file-server baseline
//	Table 4 — Swift on two Ethernets (6 storage agents)
//	tcp     — the §3 TCP-prototype ablation (≤45% of network capacity)
//
// Each cell is sampled eight times and reported as mean, σ, min, max and a
// 90% confidence interval, exactly as the paper's tables are.
//
// Usage:
//
//	swift-bench -table all            # every table, full size sweep
//	swift-bench -table 1 -quick       # one table, reduced samples
//	swift-bench -table 3 -samples 4 -sizes 3,6
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"swift/internal/bench"
)

func main() {
	table := flag.String("table", "all", "table to run: 1, 2, 3, 4, tcp, ablations, or all")
	samples := flag.Int("samples", 0, "samples per cell (default 8)")
	sizes := flag.String("sizes", "", "comma-separated transfer sizes in MB (default 3,6,9)")
	scale := flag.Float64("scale", 0, "time-scale override (0 = per-table default)")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "reduced run: 3 samples of 3 MB")
	flag.Parse()

	rc := bench.RunConfig{Samples: *samples, Scale: *scale, Seed: *seed}
	if *quick {
		q := bench.Quick()
		rc.Samples = q.Samples
		rc.SizesMB = q.SizesMB
	}
	if *sizes != "" {
		rc.SizesMB = nil
		for _, s := range strings.Split(*sizes, ",") {
			mb, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || mb <= 0 {
				fmt.Fprintf(os.Stderr, "swift-bench: bad size %q\n", s)
				os.Exit(2)
			}
			rc.SizesMB = append(rc.SizesMB, mb)
		}
	}

	type gen struct {
		key string
		fn  func(bench.RunConfig) (bench.Table, error)
	}
	gens := []gen{
		{"1", bench.Table1},
		{"2", bench.Table2},
		{"3", bench.Table3},
		{"4", bench.Table4},
		{"tcp", bench.TCPTable},
	}
	ran := false
	for _, g := range gens {
		if *table != "all" && *table != g.key {
			continue
		}
		ran = true
		t, err := g.fn(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swift-bench: table %s: %v\n", g.key, err)
			os.Exit(1)
		}
		t.Print(os.Stdout)
		fmt.Println()
	}
	if *table == "ablations" {
		ran = true
		if err := runAblations(rc); err != nil {
			fmt.Fprintf(os.Stderr, "swift-bench: ablations: %v\n", err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "swift-bench: unknown table %q\n", *table)
		os.Exit(2)
	}
}

// runAblations prints the design-choice sweeps from DESIGN.md.
func runAblations(rc bench.RunConfig) error {
	sweeps := []func(bench.RunConfig) (bench.Sweep, error){
		bench.AblationRequestSize,
		bench.AblationStripeUnit,
		bench.AblationAgents,
		bench.AblationParity,
		bench.AblationReadAhead,
	}
	for _, fn := range sweeps {
		s, err := fn(rc)
		if err != nil {
			return err
		}
		s.Print(os.Stdout)
		fmt.Println()
	}
	small, err := bench.AblationSmallObjects(rc)
	if err != nil {
		return err
	}
	bench.PrintSmallObjects(os.Stdout, small)
	fmt.Println()
	return nil
}
