package main

import (
	"sort"
	"time"

	"swift/internal/obs"
)

// Per-layer metrics of the traced run, in the order they are printed.
// BENCHMARK.json's per_layer list is these followed by rungDefs.
var tracedDefs = []metricDef{
	{name: "ec.busy_share", unit: "ratio", better: "lower"},
	{name: "ec.reconstruct_bytes_per_read_byte", unit: "B/B", better: "lower"},
	{name: "integrity.self_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "integrity.phys_bytes_per_byte", unit: "B/B", better: "lower"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.fill_bytes_per_read_byte", unit: "B/B", better: "lower"},
	{name: "cache.evictions_per_kop", unit: "count", better: "lower"},
	{name: "core.read_self_share", unit: "ratio", better: "lower"},
	{name: "core.write_self_share", unit: "ratio", better: "lower"},
	{name: "core.read_bursts_per_op", unit: "count", better: "lower"},
	{name: "core.write_bursts_per_op", unit: "count", better: "lower"},
	{name: "core.retrans_per_kpkt", unit: "count", better: "lower"},
	{name: "core.wire_bytes_per_byte", unit: "B/B", better: "lower"},
	{name: "core.read_p99_us", unit: "us", better: "lower"},
	{name: "core.write_p99_us", unit: "us", better: "lower"},
	{name: "core.open_p50_us", unit: "us", better: "lower"},
	{name: "agent.busy_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "agent.pkts_per_op", unit: "count", better: "lower"},
	{name: "agent.read_service_p50_us", unit: "us", better: "lower"},
	{name: "agent.write_service_p50_us", unit: "us", better: "lower"},
	{name: "store.busy_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "store.calls_per_op", unit: "count", better: "lower"},
	{name: "transport.send_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "transport.client_recv_wait_share", unit: "ratio", better: "lower"},
	{name: "transport.drops_per_kpkt", unit: "count", better: "lower"},
	{name: "memnet.pkts_per_op", unit: "count", better: "lower"},
	{name: "udpnet.pkts_per_op", unit: "count", better: "lower"},
	{name: "obs.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "obs.trace_allocs_per_op", unit: "count", better: "lower"},
}

// layerTimes is where an op's wall time went, as mean microseconds per op
// over the span trees the tracer kept for one direction. A layer's self
// time is its span's duration minus what its child spans cover: CoreSelf
// is the root span outside every child; AgentService is the time at least
// one agent-layer span of the op was open; InFlight is the rest of the
// time a core child span (agent_read, agent_write, degraded_read, ...) was
// open — the client's burst loops, the transport both ways, and waiting.
type layerTimes struct {
	Ops            int     `json:"ops"`
	OpWallUs       float64 `json:"op_wall_us"`
	CoreSelfUs     float64 `json:"core_self_us"`
	InFlightUs     float64 `json:"in_flight_us"`
	AgentServiceUs float64 `json:"agent_service_us"`
	// SumOverWall is the three parts' sum over the op latency the harness
	// measured around the same calls: how much of the wall the spans see.
	SumOverWall float64 `json:"sum_over_wall"`
	// serviceUs are the individual agent-layer span durations.
	serviceUs []float64
}

type interval struct{ lo, hi int64 }

// covered returns the total length of the union of iv.
func covered(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	end := int64(-1 << 62)
	for _, x := range iv {
		if x.lo > end {
			end = x.lo
		}
		if x.hi > end {
			total += x.hi - end
			end = x.hi
		}
	}
	return total
}

// layerSplit reduces one direction's span trees to layerTimes. service
// names the agent-layer span whose durations are kept.
func layerSplit(traces []obs.Trace, service string) layerTimes {
	var lt layerTimes
	var wall, self, flight, agent int64
	for _, tr := range traces {
		var root *obs.SpanRecord
		for i := range tr.Spans {
			if sp := &tr.Spans[i]; sp.Parent == 0 && sp.Layer == "core" {
				root = sp
				break
			}
		}
		if root == nil {
			continue
		}
		lo, hi := root.Start.UnixNano(), root.Start.Add(root.Dur).UnixNano()
		var children, agents []interval
		for i := range tr.Spans {
			sp := &tr.Spans[i]
			if sp == root {
				continue
			}
			iv := interval{max(sp.Start.UnixNano(), lo), min(sp.Start.Add(sp.Dur).UnixNano(), hi)}
			if iv.hi <= iv.lo {
				continue
			}
			children = append(children, iv)
			if sp.Layer == "agent" {
				agents = append(agents, iv)
				if sp.Name == service {
					lt.serviceUs = append(lt.serviceUs, float64(sp.Dur)/1e3)
				}
			}
		}
		a := covered(agents)
		c := covered(children)
		lt.Ops++
		wall += int64(root.Dur)
		self += int64(root.Dur) - c
		flight += c - a
		agent += a
	}
	n := float64(lt.Ops) * 1e3
	lt.OpWallUs, lt.CoreSelfUs = ratio(float64(wall), n), ratio(float64(self), n)
	lt.InFlightUs, lt.AgentServiceUs = ratio(float64(flight), n), ratio(float64(agent), n)
	return lt
}

// tracedMetrics computes every traced per-layer metric of one workload
// from its traced pass tr and the untraced pass un measured beside it.
func tracedMetrics(s *spec, tr, un *result) (map[string]metric, [2]layerTimes) {
	var ops, bytes [2]float64
	var wall, busy [2]time.Duration
	var lat [2][]float64
	for _, ph := range tr.phases {
		d := ph.dir
		ops[d] += float64(ph.ops)
		bytes[d] += float64(ph.bytes)
		wall[d] += ph.wall
		busy[d] += ph.busy
		for _, l := range ph.lat {
			lat[d] = append(lat[d], micros(l)...)
		}
	}
	opsAll, bytesAll := ops[dirRead]+ops[dirWrite], bytes[dirRead]+bytes[dirWrite]

	cc := tr.after.clientConn.sub(tr.before.clientConn)
	ac := tr.after.agentConn.sub(tr.before.agentConn)
	outer := tr.after.storeOuter.sub(tr.before.storeOuter)
	inner := tr.after.storeInner.sub(tr.before.storeInner)
	co := tr.after.core.Sub(tr.before.core)
	codec := tr.after.ec.Sub(tr.before.ec)
	ca0, ca1 := tr.before.cache, tr.after.cache
	sent := float64(cc[sendPkts] + ac[sendPkts])

	var layers [2]layerTimes
	layers[dirRead] = layerSplit(tr.traces[dirRead], "agent_read_serve")
	layers[dirWrite] = layerSplit(tr.traces[dirWrite], "agent_write_serve")
	for d := range layers {
		lt := &layers[d]
		lt.SumOverWall = ratio(lt.CoreSelfUs+lt.InFlightUs+lt.AgentServiceUs, ratio(float64(busy[d])/1e3, ops[d]))
		sort.Float64s(lat[d])
	}

	m := map[string]float64{}
	m["ec.busy_share"] = ratio(float64(tr.after.ecBusy-tr.before.ecBusy), float64(wall[dirRead]+wall[dirWrite]))
	m["ec.reconstruct_bytes_per_read_byte"] = ratio(float64(codec.ReconstructBytes), bytes[dirRead])

	// The store layer proper is what the envelope sits on when there is
	// one, and what the agent is handed otherwise.
	backing := outer
	if s.fileStore {
		backing = inner
		m["integrity.self_ns_per_byte"] = ratio(float64(outer.storeNs()-inner.storeNs()), bytesAll)
		m["integrity.phys_bytes_per_byte"] = ratio(float64(inner.storeBytes()), float64(outer.storeBytes()))
	}
	m["store.busy_ns_per_byte"] = ratio(float64(backing.storeNs()), bytesAll)
	m["store.calls_per_op"] = ratio(float64(backing.storeCalls()), opsAll)

	hits, misses := float64(ca1.Hits-ca0.Hits), float64(ca1.Misses-ca0.Misses)
	fills := misses + float64(ca1.ReadAheadIssued-ca0.ReadAheadIssued)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.fill_bytes_per_read_byte"] = ratio(fills*float64(stripeUnit), bytes[dirRead])
	m["cache.evictions_per_kop"] = ratio(float64(ca1.Evictions-ca0.Evictions)*1e3, opsAll)

	m["core.read_self_share"] = ratio(layers[dirRead].CoreSelfUs, layers[dirRead].OpWallUs)
	m["core.write_self_share"] = ratio(layers[dirWrite].CoreSelfUs, layers[dirWrite].OpWallUs)
	m["core.read_bursts_per_op"] = ratio(float64(co.ReadBursts), ops[dirRead])
	m["core.write_bursts_per_op"] = ratio(float64(co.WriteBursts), ops[dirWrite])
	m["core.retrans_per_kpkt"] = ratio(float64(co.ReadTimeouts+co.WriteTimeouts+co.ResendAsks)*1e3, float64(cc[sendPkts]+cc[recvPkts]))
	m["core.wire_bytes_per_byte"] = ratio(float64(cc[sendBytes]+cc[recvBytes]), bytesAll)
	m["core.read_p99_us"] = percentile(lat[dirRead], 99)
	m["core.write_p99_us"] = percentile(lat[dirWrite], 99)
	m["core.open_p50_us"] = median(micros(tr.opens))

	// What the agents' goroutines did between receives, less the time
	// they were inside the store and inside WriteTo. serveRead overlaps
	// store reads with sends, so on reads this under-counts; it never
	// goes below zero.
	m["agent.busy_ns_per_byte"] = ratio(float64(max(0, ac[outsideNs]-outer.storeNs()-ac[sendNs])), bytesAll)
	m["agent.pkts_per_op"] = ratio(float64(ac[sendPkts]+ac[recvPkts]), opsAll)
	m["agent.read_service_p50_us"] = median(layers[dirRead].serviceUs)
	m["agent.write_service_p50_us"] = median(layers[dirWrite].serviceUs)

	m["transport.send_ns_per_pkt"] = ratio(float64(cc[sendNs]+ac[sendNs]), sent)
	// Each op waits on one conn per live agent at once, so the share is of
	// the op wall summed over those conns.
	waitable := float64(busy[dirWrite])*float64(s.agents) + float64(busy[dirRead])*float64(s.agents-len(s.downForReads))
	m["transport.client_recv_wait_share"] = ratio(float64(cc[recvNs]), waitable)
	m["transport.drops_per_kpkt"] = ratio(float64(tr.after.drops-tr.before.drops)*1e3, sent)
	if !s.udp {
		m["memnet.pkts_per_op"] = ratio(sent, opsAll)
	}
	m["udpnet.pkts_per_op"] = ratio(float64(tr.after.udpPkts-tr.before.udpPkts), opsAll)

	te, ue := endToEnd(tr), endToEnd(un)
	m["obs.trace_overhead_ratio"] = 1 - ratio(te["read_mbps"].Value, ue["read_mbps"].Value)
	m["obs.trace_allocs_per_op"] = te["read_allocs_per_op"].Value - ue["read_allocs_per_op"].Value

	out := make(map[string]metric, len(tracedDefs))
	for _, d := range tracedDefs {
		out[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return out, layers
}
