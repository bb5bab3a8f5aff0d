package main

import (
	"sort"
	"time"
)

// metric is one reported number. Q1, Median and Q3 describe the per-slice
// (or per-repeat) values behind it — the run's own noise floor — and N is
// how many samples the value rests on.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1,omitempty"`
	Median float64 `json:"median,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	N      int     `json:"n,omitempty"`
}

// metricDef names a metric and, for end-to-end metrics, which way is
// better and how far (as a share of the baseline) it may worsen before
// -compare calls it a regression. BENCHMARK.json repeats these tables; a
// test keeps the two in step.
type metricDef struct {
	name, unit string
	better     string
	bound      float64
}

var endToEndDefs = []metricDef{
	{"read_mbps", "MB/s", "higher", 0.25},
	{"write_mbps", "MB/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"read_cpu_ns_per_byte", "ns/B", "lower", 0.25},
	{"write_cpu_ns_per_byte", "ns/B", "lower", 0.25},
	{"read_allocs_per_op", "count", "lower", 0.05},
	{"write_allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_byte", "B/B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
	// fail_ratio is 0 on a healthy tree, so its bound is "any rise"; the
	// benchmark contract carries it as failed/attempted, not as a metric.
	{"fail_ratio", "ratio", "lower", 0},
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so -compare and
// the driver read the same spread.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (nearest rank) of sorted v.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)-1, int(p/100*float64(len(sorted))))]
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / 1e3
	}
	return out
}

func withSpread(value float64, unit string, per []float64, n int) metric {
	q1, q3 := quartiles(per)
	return metric{Value: value, Unit: unit, Q1: q1, Median: median(per), Q3: q3, N: n}
}

// bestQuartile reports a timing metric as the better quartile of its
// per-slice values: the third for a rate, the first for a cost. The
// sandbox's interference is one-sided — neighbours only ever slow a slice
// down — and lasts seconds to minutes, so the better quartile is the value
// the quiet part of the run agrees on, where the median still moves with
// how much of the run was disturbed. Run to run it spreads about half as
// far (README, "Steadiness").
func bestQuartile(unit string, per []float64, higherIsBetter bool, n int) metric {
	m := withSpread(0, unit, per, n)
	m.Value = m.Q1
	if higherIsBetter {
		m.Value = m.Q3
	}
	return m
}

// endToEnd reduces an untraced run to the eleven end-to-end metrics.
func endToEnd(res *result) map[string]metric {
	out := map[string]metric{}
	// alloc_bytes_per_byte spans both directions, whose slices differ
	// several-fold; its noise floor pairs the i-th counted read slice with
	// the i-th counted write slice.
	var sliceAlloc, sliceBytes [2][]float64
	var attempted, failed int64
	for dir, name := range dirName {
		var mbps, p50, cpuPer, allocsPer []float64
		var mallocs, ops float64
		samples := 0
		for _, ph := range res.phases {
			if ph.dir != dir {
				continue
			}
			for k := 0; k+1 < len(ph.samples); k++ {
				a, b := ph.samples[k], ph.samples[k+1]
				db, do := float64(b.bytes-a.bytes), float64(b.ops-a.ops)
				dc, dm := float64(b.cpu-a.cpu), float64(b.mallocs-a.mallocs)
				da := float64(b.allocBytes - a.allocBytes)
				mbps = append(mbps, db/1e6/(b.at-a.at).Seconds())
				cpuPer = append(cpuPer, ratio(dc, db))
				allocsPer = append(allocsPer, ratio(dm, do))
				sliceAlloc[dir] = append(sliceAlloc[dir], da)
				sliceBytes[dir] = append(sliceBytes[dir], db)
				p50 = append(p50, median(micros(ph.lat[k])))
				samples += len(ph.lat[k])
				mallocs, ops = mallocs+dm, ops+do
			}
		}
		out[name+"_mbps"] = bestQuartile("MB/s", mbps, true, len(mbps))
		out[name+"_p50_us"] = bestQuartile("us", p50, false, samples)
		out[name+"_cpu_ns_per_byte"] = bestQuartile("ns/B", cpuPer, false, len(cpuPer))
		out[name+"_allocs_per_op"] = withSpread(ratio(mallocs, ops), "count", allocsPer, int(ops))
	}
	var allocBytes, bytesAll float64
	var allocPerByte []float64
	for i := range min(len(sliceAlloc[dirRead]), len(sliceAlloc[dirWrite])) {
		a := sliceAlloc[dirRead][i] + sliceAlloc[dirWrite][i]
		b := sliceBytes[dirRead][i] + sliceBytes[dirWrite][i]
		allocPerByte = append(allocPerByte, ratio(a, b))
		allocBytes, bytesAll = allocBytes+a, bytesAll+b
	}
	out["alloc_bytes_per_byte"] = withSpread(ratio(allocBytes, bytesAll), "B/B", allocPerByte, len(allocPerByte))
	for _, ph := range res.phases {
		attempted += ph.ops
		failed += ph.failed
	}
	out["fail_ratio"] = metric{Value: ratio(float64(failed), float64(attempted)), Unit: "ratio", N: int(attempted)}
	var setups []float64
	for _, d := range res.setups {
		setups = append(setups, d.Seconds())
	}
	out["setup_s"] = bestQuartile("s", setups, false, len(setups))
	return out
}
