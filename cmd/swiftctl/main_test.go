package main

import (
	"strings"
	"testing"
	"time"

	"swift"
)

// TestPrintStatsOverloadIsPerInterval: with -watch every counter line,
// the overload line included, prints what happened since the previous
// snapshot, not the totals since Dial. The budget fill is a level and
// prints as is.
func TestPrintStatsOverloadIsPerInterval(t *testing.T) {
	first := swift.Stats{Counters: swift.MetricsSnapshot{
		ReadBursts: 100, Pushbacks: 7, Hedges: 4, HedgeWins: 3, BudgetDenials: 2, BreakerTrips: 1,
	}}
	second := swift.Stats{
		Counters: swift.MetricsSnapshot{
			ReadBursts: 150, Pushbacks: 10, Hedges: 9, HedgeWins: 5, BudgetDenials: 2, BreakerTrips: 2,
		},
		BudgetFill: 0.75,
	}
	var out strings.Builder
	printStats(&out, second, first.Counters, time.Second)

	const want = "overload: pushbacks=3 hedges=5 (wins 2) budget_denials=0 breaker_trips=1 budget_fill=75%"
	var got string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "overload:") {
			got = line
		}
	}
	if got != want {
		t.Fatalf("overload line\n got %q\nwant %q\nfull output:\n%s", got, want, out.String())
	}
	if !strings.Contains(out.String(), "bursts: read=50/1s") {
		t.Fatalf("burst line is not the interval delta:\n%s", out.String())
	}
}
