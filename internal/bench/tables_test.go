package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The table tests run reduced configurations (fewer samples, 1-2 MB) and
// check the *relationships* the paper reports, not exact numbers: which
// system wins, by roughly what factor, and where the capacity ceilings
// are. Full-fidelity runs are cmd/swift-bench's job.

func tiny() RunConfig { return RunConfig{Samples: 2, SizesMB: []int{2}, Seed: 1} }

func rowRate(t Table, op string) float64 {
	for _, r := range t.Rows {
		if r.Op == op {
			return r.KBps.Mean
		}
	}
	return 0
}

func TestTable2MatchesPaperBands(t *testing.T) {
	tb, err := Table2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	read, write := rowRate(tb, "Read"), rowRate(tb, "Write")
	if read < 620 || read > 720 {
		t.Fatalf("SCSI read = %.0f KB/s, paper band ≈654-682", read)
	}
	if write < 290 || write > 345 {
		t.Fatalf("SCSI write = %.0f KB/s, paper band ≈314-316", write)
	}
}

// measuredRelation runs check — one fresh measurement plus the relations
// it must satisfy — up to three times and fails only if every attempt
// does. The rates are modeled time scaled onto the wall clock, so when
// the suite's other packages hog the CPUs the model's sleeps overshoot
// and the rates read low; that interference only ever slows a run, so a
// single clean attempt is the truth. The hog lasts as long as the
// neighbouring packages' tests do (half a minute under `go test ./...`
// on two cores), so a failed attempt waits before the next one instead
// of re-measuring inside the same spell. No band is widened. This is a
// stop-gap: the real fix is virtual time for this package (DESIGN.md
// "Measurement methodology caveat").
func measuredRelation(t *testing.T, check func() error) {
	t.Helper()
	const attempts = 3
	for attempt := 1; ; attempt++ {
		err := check()
		if err == nil {
			return
		}
		if attempt == attempts {
			t.Fatal(err)
		}
		t.Logf("attempt %d: %v", attempt, err)
		time.Sleep(time.Duration(attempt) * 10 * time.Second)
	}
}

func TestTable1BeatsBaselines(t *testing.T) {
	measuredRelation(t, func() error {
		t1, err := Table1(tiny())
		if err != nil {
			return err
		}
		t2, err := Table2(tiny())
		if err != nil {
			return err
		}
		sr, sw := rowRate(t1, "Read"), rowRate(t1, "Write")

		// Paper: Swift reads ≈876-897 KB/s, writes ≈860-882, both at
		// 77-80% of the 1.12 MB/s medium. Allow a generous band.
		if sr < 780 || sr > 1000 {
			return fmt.Errorf("Swift read = %.0f KB/s, paper ≈876-897", sr)
		}
		if sw < 780 || sw > 1000 {
			return fmt.Errorf("Swift write = %.0f KB/s, paper ≈860-882", sw)
		}
		// Swift vs local SCSI: reads ≈1.3×, writes ≈2.7-2.8×.
		if ratio := sr / rowRate(t2, "Read"); ratio < 1.15 || ratio > 1.6 {
			return fmt.Errorf("Swift/SCSI read ratio = %.2f, paper ≈1.3", ratio)
		}
		if ratio := sw / rowRate(t2, "Write"); ratio < 2.3 || ratio > 3.3 {
			return fmt.Errorf("Swift/SCSI write ratio = %.2f, paper ≈2.75", ratio)
		}
		return nil
	})
}

func TestTable3NFSMuchSlower(t *testing.T) {
	measuredRelation(t, func() error {
		t1, err := Table1(tiny())
		if err != nil {
			return err
		}
		t3, err := Table3(tiny())
		if err != nil {
			return err
		}
		// Paper: Swift ≈1.8-2× NFS reads, ≈7.7-8.1× NFS writes.
		if ratio := rowRate(t1, "Read") / rowRate(t3, "Read"); ratio < 1.6 || ratio > 2.8 {
			return fmt.Errorf("Swift/NFS read ratio = %.2f, paper ≈1.9", ratio)
		}
		if ratio := rowRate(t1, "Write") / rowRate(t3, "Write"); ratio < 6 || ratio > 11 {
			return fmt.Errorf("Swift/NFS write ratio = %.2f, paper ≈8", ratio)
		}
		return nil
	})
}

func TestTable4SecondEthernetScaling(t *testing.T) {
	t1, err := Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Table4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: writes almost double; reads gain only ≈25-30% (client
	// receive path bound).
	wratio := rowRate(t4, "Write") / rowRate(t1, "Write")
	if wratio < 1.6 || wratio > 2.2 {
		t.Fatalf("two-Ethernet write scaling = %.2f, paper ≈1.9", wratio)
	}
	rratio := rowRate(t4, "Read") / rowRate(t1, "Read")
	if rratio < 1.05 || rratio > 1.55 {
		t.Fatalf("two-Ethernet read scaling = %.2f, paper ≈1.27", rratio)
	}
	if rratio >= wratio {
		t.Fatal("reads scaled as well as writes; client bound lost")
	}
}

func TestTCPAblationUnder45Percent(t *testing.T) {
	tt, err := TCPTable(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "never more than 45% of the capacity" ⇒ ≤ ~505 KB/s of
	// the 1.12 MB/s medium.
	capacityKB := 1.12e6 / 1024
	for _, r := range tt.Rows {
		if frac := r.KBps.Mean / capacityKB; frac > 0.47 {
			t.Fatalf("stream-transport %s = %.0f KB/s (%.0f%% of capacity), want <= 45%%",
				r.Op, r.KBps.Mean, frac*100)
		}
	}
}

func TestTablePrintFormat(t *testing.T) {
	tb, err := Table2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"Table 2", "Read 2 MB", "Write 2 MB", "90%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationAgentsSaturates(t *testing.T) {
	s, err := AblationAgents(RunConfig{Samples: 1, SizesMB: []int{2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One agent is disk-bound (≈400-700 KB/s); three agents approach
	// the medium; the fourth shows diminishing returns ("would only
	// saturate the network"): it adds less than the second agent did.
	r1, r2, r3, r4 := s.Read[0].Mean, s.Read[1].Mean, s.Read[2].Mean, s.Read[3].Mean
	if r3 < 1.2*r1 {
		t.Fatalf("3 agents (%.0f) not clearly faster than 1 (%.0f)", r3, r1)
	}
	if r4-r3 >= r2-r1 {
		t.Fatalf("no diminishing returns: +%.0f (2nd agent) vs +%.0f (4th)", r2-r1, r4-r3)
	}
	// And the wire's capacity is never exceeded.
	if r4 > 1.12e6/1024 {
		t.Fatalf("4 agents (%.0f KB/s) exceed the Ethernet's capacity", r4)
	}
}

func TestAblationParityCostsWrites(t *testing.T) {
	s, err := AblationParity(RunConfig{Samples: 1, SizesMB: []int{2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, parity := s.Write[0].Mean, s.Write[1].Mean
	if parity >= plain {
		t.Fatalf("parity writes (%.0f) not slower than plain (%.0f)", parity, plain)
	}
	// Rotating parity over 4 agents adds one parity unit per 3 data
	// units: expect roughly 3/4 the rate, not a collapse.
	if parity < 0.5*plain {
		t.Fatalf("parity writes collapsed: %.0f vs %.0f", parity, plain)
	}
}
