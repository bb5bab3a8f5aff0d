package mediator_test

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"swift/internal/mediator"
	"swift/internal/medrpc"
	"swift/internal/obs"
	"swift/internal/transport/memnet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/registry_federated.golden")

// TestFederatedRegistry pins the metric families of one federated
// replica served over the wire — the mediator's series with their
// replica label and its medrpc server's — to
// testdata/registry_federated.golden (values aside).
func TestFederatedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	med, err := mediator.New(mediator.Config{
		Agents: []mediator.AgentInfo{{Addr: "a:1", Rate: 1000, Net: 0}, {Addr: "b:1", Rate: 1000, Net: 0}},
		Nets:   []mediator.NetInfo{{Name: "ether0", Capacity: 1500}},
		Self:   "med-a",
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer med.Close()
	n := memnet.New(1)
	defer n.Close()
	seg := n.NewSegment("lab", memnet.SegmentConfig{BandwidthBps: 1e9})
	srv, err := medrpc.Serve(medrpc.ServerConfig{Host: n.MustHost("med-a", memnet.HostConfig{}, seg), Port: "7060", Med: med})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	matchFamilies(t, reg, "testdata/registry_federated.golden")
}

// families renders reg's metric families: HELP and TYPE lines whole,
// series lines cut at their value, de-duplicated and sorted so
// registration order is free.
func families(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var shape []string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		shape = append(shape, line)
	}
	slices.Sort(shape)
	return strings.Join(slices.Compact(shape), "\n") + "\n"
}

// matchFamilies compares reg's families with the golden file, first
// rewriting it from them when -update is set.
func matchFamilies(t *testing.T, reg *obs.Registry, golden string) {
	t.Helper()
	got := families(t, reg)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metric families differ from %s:\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
