package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// testEvents is a table exercising every row shape: counted only, traced
// and logged, counted in another kind's counter, counted in both.
var (
	testEvents  EventTable
	evTestCount = testEvents.Kind(EventKind{Series: "swift_test_counts_total", Help: "Counted.",
		AgentSeries: "swift_test_agent_counts_total", AgentHelp: "Counted per agent."})
	evTestLogged = testEvents.Kind(EventKind{Trace: "test_fail", Logged: true, Retry: true})
	evTestShared = testEvents.Kind(EventKind{Trace: "test_shared", Fault: true, Also: evTestCount})
	evTestBoth   = testEvents.Kind(EventKind{Series: "swift_test_both_total", Help: "Both.", Also: evTestCount})
)

// TestEventsFanOut: a note is counted (in its Also target's counter too),
// recorded in the ring, marked and noted on the span, and a logged kind
// printed once; per-agent slots export per agent and sum into the total.
func TestEventsFanOut(t *testing.T) {
	for _, verbose := range []bool{false, true} {
		t.Run(fmt.Sprintf("verbose=%v", verbose), func(t *testing.T) {
			reg := NewRegistry()
			var mu sync.Mutex
			var lines []string
			ring := NewTraceRing(16)
			ev := NewEvents(reg, EventConfig{Layer: "test", Table: &testEvents, Agents: 2, Ring: ring, Verbose: verbose,
				Logf: func(format string, args ...any) {
					mu.Lock()
					lines = append(lines, fmt.Sprintf(format, args...))
					mu.Unlock()
				}})
			tr := NewTracer(TracerConfig{Rate: 1})
			sp := tr.StartOp("test", "op")

			ev.Count(evTestCount, 0)
			ev.Add(evTestBoth, 1, 2)
			ev.Note(evTestShared, -1, sp, "shared %d", 1)
			ev.Note(evTestLogged, 1, sp, "went %s", "wrong")
			sp.Finish()
			ev.Close()

			if got := [...]int64{ev.Load(evTestCount, -1), ev.Load(evTestCount, 0), ev.Load(evTestCount, 1), ev.Total(evTestBoth), ev.Total(evTestLogged)}; got != [...]int64{1, 1, 2, 2, 1} {
				t.Errorf("counts (count unattributed, agent 0, agent 1; both; logged) = %v", got)
			}
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"swift_test_counts_total 4\n", `swift_test_agent_counts_total{agent="1"} 2`, "swift_test_both_total 2\n"} {
				if !strings.Contains(b.String(), want) {
					t.Errorf("export lacks %q:\n%s", want, b.String())
				}
			}
			if got := ring.Snapshot(); len(got) != 2 || got[0].Kind != "test_shared" || got[1].Agent != 1 || !got[1].Logged || got[1].Msg != "went wrong" {
				t.Errorf("ring = %+v", got)
			}
			// The logged note prints once; Verbose tees the other.
			slices.Sort(lines)
			if n := len(lines); lines[0] != "test: test fail agent 1: went wrong" ||
				verbose != (n == 2) || verbose && !strings.HasSuffix(lines[1], " test/test_shared shared 1") {
				t.Errorf("logged %q", lines)
			}
			traces := tr.Traces()
			if len(traces) != 1 || !traces[0].Spans[0].Retry || !traces[0].Spans[0].Fault ||
				traces[0].Spans[0].Notes[1].Msg != "test fail agent 1: went wrong" {
				t.Errorf("span = %+v", traces)
			}
		})
	}
}

// TestEventsCountAllocs: counting is an atomic add, never an allocation.
func TestEventsCountAllocs(t *testing.T) {
	ev := NewEvents(NewRegistry(), EventConfig{Table: &testEvents, Agents: 2})
	if n := testing.AllocsPerRun(100, func() {
		ev.Count(evTestCount, 1)
		ev.Add(evTestBoth, -1, 8)
	}); n != 0 {
		t.Fatalf("%v allocations per count", n)
	}
}
