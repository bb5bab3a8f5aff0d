package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"swift/internal/store"
)

// flipStore corrupts reads: the byte at every 64 KiB boundary of an
// object comes back inverted. It wraps what the agent serves, outside any
// integrity envelope, so nothing in the program can catch it — only the
// benchmark's comparison with its shadow image can.
type flipStore struct{ store.Store }

func (s flipStore) Open(name string, create bool) (store.Object, error) {
	o, err := s.Store.Open(name, create)
	if err != nil {
		return nil, err
	}
	return flipObject{o}, nil
}

type flipObject struct{ store.Object }

func (o flipObject) ReadAt(p []byte, off int64) (int, error) {
	n, err := o.Object.ReadAt(p, off)
	first := (off + stripeUnit - 1) / stripeUnit * stripeUnit
	for at := first; at < off+int64(n); at += stripeUnit {
		p[at-off] ^= 0xFF
	}
	return n, err
}

// A one-second miniature of every workload, once clean and once on
// corrupting stores: the harness must pass the first and fail the second,
// in its metrics and in its exit status.
func TestMiniatureWorkloadsCleanAndCorrupt(t *testing.T) {
	for i := range workloads {
		s := workloads[i].miniature()
		t.Run(s.name, func(t *testing.T) {
			clean, err := measure(context.Background(), &s, 1, plan{untraced: 1, setups: 2}, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Failed != 0 || clean.EndToEnd["fail_ratio"].Value != 0 {
				t.Errorf("clean run: %d of %d ops failed", clean.Failed, clean.Attempted)
			}
			for _, d := range endToEndDefs {
				m, ok := clean.EndToEnd[d.name]
				if !ok || m.Unit != d.unit || (m.Value <= 0 && d.name != "fail_ratio") {
					t.Errorf("clean run: %s = %+v (present %v)", d.name, m, ok)
				}
			}
			if code := emit(&document{Workloads: []workloadDoc{*clean}}, "", nil, io.Discard, io.Discard); code != 0 {
				t.Errorf("clean run: exit status %d", code)
			}

			bad, err := measure(context.Background(), &s, 1, plan{untraced: 1, setups: 2}, t.TempDir(),
				func(st store.Store) store.Store { return flipStore{st} })
			if err != nil {
				t.Fatal(err)
			}
			if bad.Failed == 0 || bad.EndToEnd["fail_ratio"].Value <= 0 {
				t.Errorf("corrupting stores: %d of %d ops failed, fail_ratio %v", bad.Failed, bad.Attempted, bad.EndToEnd["fail_ratio"].Value)
			}
			line := contractLine(bad, nil, "0")
			if line.Correct || line.Failed != bad.Failed {
				t.Errorf("corrupting stores: result line %+v", line)
			}
			if code := emit(&document{Workloads: []workloadDoc{*bad}}, "", line, io.Discard, io.Discard); code == 0 {
				t.Error("corrupting stores: exit status 0")
			}
		})
	}
}

// The traced pass separates the layers: work shows up only on the
// workloads built to exercise a layer.
func TestTracedMiniatureSeparatesLayers(t *testing.T) {
	want := map[string]map[string]bool{ // metric -> is it non-zero here
		"stream-udp": {
			"udpnet.pkts_per_op": true, "memnet.pkts_per_op": false,
			"integrity.phys_bytes_per_byte": true, "ec.busy_share": false, "cache.hit_ratio": false,
		},
		"ec-degraded": {
			"udpnet.pkts_per_op": false, "memnet.pkts_per_op": true,
			"integrity.phys_bytes_per_byte": false, "ec.busy_share": true,
			"ec.reconstruct_bytes_per_read_byte": true, "cache.hit_ratio": false,
		},
		"small-rand": {"cache.hit_ratio": true, "ec.busy_share": false, "udpnet.pkts_per_op": true},
	}
	for name, expect := range want {
		s := findWorkload(name).miniature()
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			wd, err := measure(context.Background(), &s, 2, plan{untraced: 0.5, traced: 1, setups: 1}, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if wd.Failed != 0 {
				t.Errorf("%d of %d ops failed", wd.Failed, wd.Attempted)
			}
			for _, d := range tracedDefs {
				if m, ok := wd.PerLayer[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s = %+v (present %v)", d.name, m, ok)
				}
			}
			for metric, nonZero := range expect {
				if got := wd.PerLayer[metric].Value; (got != 0) != nonZero {
					t.Errorf("%s = %v, want non-zero: %v", metric, got, nonZero)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestRungsReportEveryMetric(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("rungs run fixed iteration counts on one goroutine: seconds plain, half a minute under -race")
	}
	got, err := runRungs(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rungDefs {
		m, ok := got[d.name]
		if !ok || m.Unit != d.unit || (m.Value <= 0 && d.name != "udpnet.loss_ratio" && d.unit != "count") {
			t.Errorf("%s = %+v (present %v)", d.name, m, ok)
		}
	}
	one, err := runRungs([]string{"wire"})
	if err != nil || len(one) != 3 {
		t.Errorf("-rung wire gave %d metrics, %v", len(one), err)
	}
}
