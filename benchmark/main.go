// Command benchmark is the repo's real-CPU benchmark ladder. It drives the
// real client (core.Dial, File.ReadAt/WriteAt/Sync) against in-process
// agents with no medium model, verifies every byte read against a shadow
// image, and prints the end-to-end and per-layer metrics README.md
// defines as one JSON document. It changes nothing in the program under
// test: layers are measured from outside, by timing their public functions
// alone (rungs) and by wrapping the interfaces handed to core.Dial and
// agent.New in a separate traced pass.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"swift/internal/obs"
	"swift/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is the environment a document was measured in.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      string  `json:"trace"`
}

// document is everything one invocation measured.
type document struct {
	Env       env               `json:"env"`
	Workloads []workloadDoc     `json:"workloads,omitempty"`
	Rungs     map[string]metric `json:"rungs,omitempty"`
}

type workloadDoc struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Phases    []phaseDoc        `json:"phases"`
}

// phaseDoc records how long one phase really ran and what it counted.
type phaseDoc struct {
	Pass    string  `json:"pass"` // untraced or traced
	Dir     string  `json:"dir"`
	Seconds float64 `json:"seconds"`
	Ops     int64   `json:"ops"`
	Failed  int64   `json:"failed"`
	Bytes   int64   `json:"bytes"`
	Slices  int     `json:"slices"`
}

// plan splits a workload's -seconds between the untraced pass (the
// end-to-end numbers: tracer nil, no decorators) and the traced pass.
type plan struct {
	untraced, traced float64
	setups           int // of the untraced pass; the traced pass sets up once
	rungs            bool
}

func planFor(trace string, seconds float64) (plan, error) {
	switch trace {
	case "0":
		return plan{untraced: seconds, setups: setupRepeat}, nil
	case "1":
		// The whole invocation still takes about -seconds: a third
		// untraced (the base of obs.trace_overhead_ratio), half traced,
		// and the set-ups and rungs in what is left.
		return plan{untraced: seconds / 3, traced: seconds / 2, setups: 1, rungs: true}, nil
	case "both":
		return plan{untraced: seconds, traced: seconds / 4, setups: setupRepeat, rungs: true}, nil
	}
	return plan{}, fmt.Errorf("-trace %q: want 0, 1 or both", trace)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// run is main without the process exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "comma-separated workloads to run (default: all four)")
	seed := fs.Int64("seed", 1, "drives every offset and payload stamp")
	seconds := fs.Float64("seconds", 48, "measured seconds per workload")
	trace := fs.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run and rungs, per-layer metrics; both")
	rung := fs.String("rung", "", "run only these layers' rungs (comma-separated, or all) and no workload")
	out := fs.String("out", "", "also write the JSON document to this file")
	outdir := fs.String("outdir", "out", "directory for trace-<workload>.json")
	compare := fs.Bool("compare", false, "compare two documents: -compare baseline.json candidate.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two documents, got %d", fs.NArg()))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	runtime.GOMAXPROCS(maxProcs)
	doc := document{Env: environment(*seed, *seconds, *trace)}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *rung != "" {
		only := splitList(*rung)
		if *rung == "all" {
			only = nil
		}
		var err error
		if doc.Rungs, err = runRungs(only); err != nil {
			return fail(err)
		}
		return emit(&doc, *out, nil, stdout, stderr)
	}

	pl, err := planFor(*trace, *seconds)
	if err != nil {
		return fail(err)
	}
	var specs []*spec
	for _, name := range splitList(*workload) {
		s := findWorkload(name)
		if s == nil {
			return fail(fmt.Errorf("no workload %q", name))
		}
		specs = append(specs, s)
	}
	if specs == nil {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	}
	for _, s := range specs {
		wd, err := measure(ctx, s, *seed, pl, *outdir, nil)
		if err != nil {
			return fail(err)
		}
		doc.Workloads = append(doc.Workloads, *wd)
	}
	if pl.rungs {
		if doc.Rungs, err = runRungs(nil); err != nil {
			return fail(err)
		}
	}

	// The benchmark contract's result line, for the driver that runs one
	// workload with -trace 0 or 1.
	var line *resultLine
	if len(doc.Workloads) == 1 && *trace != "both" {
		line = contractLine(&doc.Workloads[0], doc.Rungs, *trace)
	}
	return emit(&doc, *out, line, stdout, stderr)
}

func environment(seed int64, seconds float64, trace string) env {
	e := env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		e.Kernel = string(b)
	}
	return e
}

// measure runs one workload's passes and reduces them to its document.
// wrapStore, nil outside tests, wraps every agent's store.
func measure(ctx context.Context, s *spec, seed int64, pl plan, outdir string, wrapStore func(store.Store) store.Store) (*workloadDoc, error) {
	wd := &workloadDoc{Name: s.name, Why: s.why}
	record := func(pass string, res *result) {
		for _, ph := range res.phases {
			wd.Attempted += ph.ops
			wd.Failed += ph.failed
			wd.Phases = append(wd.Phases, phaseDoc{
				Pass: pass, Dir: dirName[ph.dir], Seconds: ph.wall.Seconds(),
				Ops: ph.ops, Failed: ph.failed, Bytes: ph.bytes, Slices: len(ph.lat),
			})
		}
	}
	un, err := runWorkload(ctx, s, seed, pl.untraced, pl.setups, false, wrapStore)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	record("untraced", un)
	wd.EndToEnd = endToEnd(un)
	if pl.traced > 0 {
		tr, err := runWorkload(ctx, s, seed, pl.traced, 1, true, wrapStore)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", s.name, err)
		}
		record("traced", tr)
		var layers [2]layerTimes
		wd.PerLayer, layers = tracedMetrics(s, tr, un)
		if err := writeTrace(outdir, s, seed, tr, wd.PerLayer, layers); err != nil {
			return nil, err
		}
	}
	return wd, nil
}

// traceFile is benchmark/out/trace-<workload>.json: where the traced
// pass's time went, the raw counters behind the per-layer metrics, and a
// few span trees of each direction to read by eye.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Layers   map[string]layerTimes  `json:"layers"`
	Counters map[string]any         `json:"counters"`
	Metrics  map[string]metric      `json:"metrics"`
	Spans    map[string][]obs.Trace `json:"sample_span_trees"`
}

func writeTrace(outdir string, s *spec, seed int64, tr *result, metrics map[string]metric, layers [2]layerTimes) error {
	tf := traceFile{
		Workload: s.name, Seed: seed, Metrics: metrics,
		Layers: map[string]layerTimes{}, Spans: map[string][]obs.Trace{},
		Counters: map[string]any{
			"client_conn": tr.after.clientConn.sub(tr.before.clientConn).named(connCounterNames),
			"agent_conn":  tr.after.agentConn.sub(tr.before.agentConn).named(connCounterNames),
			"store_outer": tr.after.storeOuter.sub(tr.before.storeOuter).named(storeCounterNames),
			"store_inner": tr.after.storeInner.sub(tr.before.storeInner).named(storeCounterNames),
			"core":        tr.after.core.Sub(tr.before.core),
			"ec":          tr.after.ec.Sub(tr.before.ec),
			"cache_after": tr.after.cache,
		},
	}
	for d, name := range dirName {
		tf.Layers[name] = layers[d]
		tf.Spans[name] = tr.traces[d][:min(4, len(tr.traces[d]))]
	}
	raw, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outdir, "trace-"+s.name+".json"), raw, 0o644)
}

// resultLine is the last line of standard output the benchmark contract
// asks for.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractLine(wd *workloadDoc, rungs map[string]metric, trace string) *resultLine {
	line := &resultLine{
		Correct: wd.Failed == 0, Attempted: wd.Attempted, Failed: wd.Failed,
		Metrics: map[string]lineMetric{},
	}
	add := func(ms map[string]metric) {
		for name, m := range ms {
			line.Metrics[name] = lineMetric{m.Value, m.Unit}
		}
	}
	if trace == "0" {
		add(wd.EndToEnd)
		delete(line.Metrics, "fail_ratio") // carried as failed/attempted
	} else {
		add(wd.PerLayer)
		add(rungs)
	}
	return line
}

// emit prints the document, then the contract line if there is one. The
// exit status is 1 when any op failed or read bytes that differ from the
// shadow: the checker must be able to fail.
func emit(doc *document, out string, line *resultLine, stdout, stderr io.Writer) int {
	raw, err := json.MarshalIndent(doc, "", "  ")
	var compact []byte
	if err == nil && line != nil {
		compact, err = json.Marshal(line)
	}
	if err == nil && out != "" {
		err = os.WriteFile(out, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if line != nil {
		fmt.Fprintf(stdout, "%s\n", compact)
	}
	for _, wd := range doc.Workloads {
		if wd.Failed > 0 {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed or read wrong bytes\n", wd.Name, wd.Failed, wd.Attempted)
			return 1
		}
	}
	return 0
}
