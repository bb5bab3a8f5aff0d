package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"swift/internal/cache"
	"swift/internal/ec"
	"swift/internal/integrity"
	"swift/internal/store"
	"swift/internal/stripe"
	"swift/internal/transport"
	"swift/internal/transport/memnet"
	"swift/internal/transport/udpnet"
	"swift/internal/wire"
)

// A rung times one layer's public functions alone: one goroutine, a fixed
// iteration count, no other layer of the program involved. The end-to-end
// number of a workload is explained by the slowest rung under it.
var rungDefs = []metricDef{
	{name: "wire.encode_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "wire.allocs_per_pkt", unit: "count", better: "lower"},
	{name: "stripe.plan_ns_per_op", unit: "ns", better: "lower"},
	{name: "stripe.plan_allocs_per_op", unit: "count", better: "lower"},
	{name: "ec.encode_mbps", unit: "MB/s", better: "higher"},
	{name: "ec.reconstruct_mbps", unit: "MB/s", better: "higher"},
	{name: "integrity.read_mbps", unit: "MB/s", better: "higher"},
	{name: "integrity.write_mbps", unit: "MB/s", better: "higher"},
	{name: "cache.hit_ns_per_op", unit: "ns", better: "lower"},
	{name: "cache.insert_evict_ns_per_block", unit: "ns", better: "lower"},
	{name: "store.mem_read_mbps", unit: "MB/s", better: "higher"},
	{name: "store.mem_write_mbps", unit: "MB/s", better: "higher"},
	{name: "store.file_read_mbps", unit: "MB/s", better: "higher"},
	{name: "store.file_write_mbps", unit: "MB/s", better: "higher"},
	{name: "memnet.ns_per_pkt", unit: "ns", better: "lower"},
	{name: "memnet.allocs_per_pkt", unit: "count", better: "lower"},
	{name: "udpnet.ns_per_pkt", unit: "ns", better: "lower"},
	{name: "udpnet.allocs_per_pkt", unit: "count", better: "lower"},
	{name: "udpnet.loss_ratio", unit: "ratio", better: "lower"},
}

// rungs maps a layer to the function that measures its rung metrics.
var rungs = []struct {
	layer string
	run   func(out map[string]float64) error
}{
	{"wire", wireRung},
	{"stripe", stripeRung},
	{"ec", ecRung},
	{"integrity", integrityRung},
	{"cache", cacheRung},
	{"store", storeRungs},
	{"memnet", memnetRung},
	{"udpnet", udpnetRung},
}

// runRungs measures the named layers' rungs, or all of them when only is
// empty.
func runRungs(only []string) (map[string]metric, error) {
	vals := map[string]float64{}
	for _, r := range rungs {
		if len(only) > 0 && !slices.Contains(only, r.layer) {
			continue
		}
		if err := r.run(vals); err != nil {
			return nil, fmt.Errorf("rung %s: %w", r.layer, err)
		}
	}
	out := map[string]metric{}
	for _, d := range rungDefs {
		if v, ok := vals[d.name]; ok {
			out[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	return out, nil
}

// timed calls f n times and returns nanoseconds and heap allocations per
// call. f reports failure through the error it returns; the first one
// stops the loop.
func timed(n int, f func(i int) error) (nsPer, allocsPer float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n && err == nil; i++ {
		err = f(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), err
}

// mbps converts nanoseconds per call of bytesPer bytes into MB/s.
func mbps(bytesPer int64, nsPer float64) float64 { return float64(bytesPer) * 1e3 / nsPer }

func payload(n int) []byte {
	b := make([]byte, n)
	fill(b, 0x5eed, 0)
	return b
}

func wireRung(out map[string]float64) error {
	const n = 200000
	pkt := wire.Packet{
		Header:  wire.Header{Type: wire.TData, ReqID: 7, Handle: 42, Offset: 1 << 20, Length: wire.MaxPayload},
		Payload: payload(wire.MaxPayload),
	}
	buf := make([]byte, 0, wire.MaxPacket)
	var enc []byte
	encNs, encAllocs, err := timed(n, func(int) (err error) {
		enc, err = wire.AppendPacket(buf[:0], &pkt)
		return err
	})
	if err != nil {
		return err
	}
	var got wire.Packet
	decNs, decAllocs, err := timed(n, func(int) error { return wire.Unmarshal(enc, &got) })
	if err != nil {
		return err
	}
	out["wire.encode_ns_per_pkt"] = encNs
	out["wire.decode_ns_per_pkt"] = decNs
	out["wire.allocs_per_pkt"] = encAllocs + decAllocs
	return nil
}

func stripeRung(out map[string]float64) error {
	const n = 100000
	const span = 256 * kib
	layouts := []stripe.Layout{
		{Unit: stripeUnit, Agents: 3},
		{Unit: stripeUnit, Agents: 5, Parity: true, ParityUnits: 2},
	}
	runs := make([]stripe.Run, 0, 16)
	var sink int
	ns, allocs, _ := timed(n, func(i int) error {
		l := layouts[i%len(layouts)]
		off := int64(i) * span
		runs = l.AppendRuns(runs[:0], off, span)
		sink += len(runs) + len(l.LocalExtents(off, span))
		return nil
	})
	if sink == 0 {
		return errors.New("planned nothing")
	}
	out["stripe.plan_ns_per_op"] = ns
	out["stripe.plan_allocs_per_op"] = allocs
	return nil
}

func ecRung(out map[string]float64) error {
	const n = 400
	const m, k = 3, 2
	codec, err := ec.New(m, k)
	if err != nil {
		return err
	}
	shards := make([][]byte, m+k)
	for i := range shards {
		shards[i] = payload(int(stripeUnit))
	}
	encNs, _, err := timed(n, func(int) error { return codec.Encode(shards) })
	if err != nil {
		return err
	}
	// Two data shards missing: every rebuilt byte needs the decode matrix.
	recNs, _, err := timed(n, func(int) error {
		shards[0], shards[1] = nil, nil
		return codec.Reconstruct(shards)
	})
	if err != nil {
		return err
	}
	// Both over the row's data bytes, as BENCH_ec.json does.
	out["ec.encode_mbps"] = mbps(m*stripeUnit, encNs)
	out["ec.reconstruct_mbps"] = mbps(m*stripeUnit, recNs)
	return nil
}

// objectRung writes then reads a 14 MiB object (a whole number of both
// extents) in extents of the given sizes, passes times over, and returns
// read and write MB/s.
func objectRung(st store.Store, readExtent, writeExtent int64, passes int) (readMBps, writeMBps float64, err error) {
	const size = 14 * mib
	obj, err := st.Open("rung", true)
	if err != nil {
		return 0, 0, err
	}
	defer obj.Close()
	buf := payload(int(max(readExtent, writeExtent)))
	sweep := func(extent int64, f func(p []byte, off int64) (int, error)) (float64, error) {
		per := int(size / extent)
		ns, _, err := timed(per*passes, func(i int) error {
			_, err := f(buf[:extent], int64(i%per)*extent)
			return err
		})
		return mbps(extent, ns), err
	}
	if writeMBps, err = sweep(writeExtent, obj.WriteAt); err != nil {
		return 0, 0, err
	}
	readMBps, err = sweep(readExtent, obj.ReadAt)
	return readMBps, writeMBps, err
}

// The agent reads its store in ReadChunk (8 KiB) pieces and applies write
// bursts of RequestBytes (56 KiB); the store and envelope rungs use the
// same extents.
const (
	agentReadChunk = 8 * kib
	agentBurst     = 56 * kib
)

func integrityRung(out map[string]float64) (err error) {
	st := integrity.NewStore(store.NewMem(), integrityBlock)
	out["integrity.read_mbps"], out["integrity.write_mbps"], err = objectRung(st, agentBurst, agentBurst, 4)
	return err
}

func storeRungs(out map[string]float64) (err error) {
	out["store.mem_read_mbps"], out["store.mem_write_mbps"], err = objectRung(store.NewMem(), agentReadChunk, agentBurst, 8)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "swift-ladder-rung-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := store.NewFileStore(dir)
	if err != nil {
		return err
	}
	out["store.file_read_mbps"], out["store.file_write_mbps"], err = objectRung(fs, agentReadChunk, agentBurst, 8)
	return err
}

func cacheRung(out map[string]float64) error {
	const capacity = 16 * mib
	const blocks = capacity / stripeUnit
	c := cache.New(cache.Config{Capacity: capacity, BlockSize: stripeUnit}, nil)
	o := c.Open("rung")
	defer o.Close()
	block := payload(int(stripeUnit))
	for i := int64(0); i < blocks; i++ {
		o.Insert(i*stripeUnit, block, false)
	}
	dst := make([]byte, 4*kib)
	hitNs, _, err := timed(500000, func(i int) error {
		if o.ReadCached(dst, int64(i)*4*kib%capacity) != len(dst) {
			return errors.New("resident block missed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The cache is full, so every insert of a new block evicts one.
	before := c.Stats().Evictions
	const inserts = 8192
	insNs, _, _ := timed(inserts, func(i int) error {
		o.Insert((blocks+int64(i))*stripeUnit, block, false)
		return nil
	})
	if got := c.Stats().Evictions - before; got != inserts {
		return fmt.Errorf("%d inserts into a full cache evicted %d blocks", inserts, got)
	}
	out["cache.hit_ns_per_op"] = hitNs
	out["cache.insert_evict_ns_per_block"] = insNs
	return nil
}

// transportRung streams full-size datagrams one way from a to b in bursts
// of one read request's worth (42), draining each burst before the next,
// and returns the cost of a WriteTo+ReadFrom pair and the share lost.
func transportRung(a, b transport.Host) (nsPer, allocsPer, loss float64, err error) {
	const burst, bursts = 42, 500
	src, err := a.Listen("0")
	if err != nil {
		return 0, 0, 0, err
	}
	defer src.Close()
	dst, err := b.Listen("0")
	if err != nil {
		return 0, 0, 0, err
	}
	defer dst.Close()
	pkt := payload(wire.MaxPacket)
	in := make([]byte, wire.MaxPacket)
	to := dst.LocalAddr()
	received := 0
	ns, allocs, err := timed(bursts, func(int) error {
		for i := 0; i < burst; i++ {
			if err := src.WriteTo(pkt, to); err != nil {
				return err
			}
		}
		if err := dst.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
			return err
		}
		for i := 0; i < burst; i++ {
			if _, _, err := dst.ReadFrom(in); err != nil {
				if transport.IsTimeout(err) {
					return nil // the rest of this burst was lost
				}
				return err
			}
			received++
		}
		return nil
	})
	return ns / burst, allocs / burst, 1 - float64(received)/(burst*bursts), err
}

func memnetRung(out map[string]float64) (err error) {
	n := memnet.New(1)
	defer n.Close()
	seg := n.NewSegment("bus", memnet.SegmentConfig{BandwidthBps: 1e15})
	a, err := n.NewHost("a", memnet.HostConfig{}, seg)
	if err != nil {
		return err
	}
	b, err := n.NewHost("b", memnet.HostConfig{}, seg)
	if err != nil {
		return err
	}
	out["memnet.ns_per_pkt"], out["memnet.allocs_per_pkt"], _, err = transportRung(a, b)
	return err
}

func udpnetRung(out map[string]float64) (err error) {
	out["udpnet.ns_per_pkt"], out["udpnet.allocs_per_pkt"], out["udpnet.loss_ratio"], err =
		transportRung(udpnet.NewHost("127.0.0.1"), udpnet.NewHost("127.0.0.1"))
	return err
}
