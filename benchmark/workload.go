package main

import (
	"encoding/binary"
	"math/rand"
)

const (
	kib = int64(1) << 10
	mib = int64(1) << 20

	// stripeUnit is fixed for every workload; the cache block is the same
	// size, which is what makes "the hot set fits" a statement in blocks.
	stripeUnit = 64 * kib
)

// spec is one workload. Every field is fixed here; no flag or environment
// variable changes what a workload does, only -seed changes which offsets
// and stamps it draws.
type spec struct {
	name string
	why  string

	agents int
	parity int  // parity shards per row (0 = none, 2 = RS m+2)
	udp    bool // udpnet on 127.0.0.1; otherwise unthrottled memnet
	// fileStore puts every agent on integrity.NewStore(FileStore, 4096),
	// the `swiftd -dir -integrity` shape; otherwise store.Mem.
	fileStore bool
	cacheSize int64 // core.Config.CacheSize; negative turns the tier off
	readAhead int64

	clients     int   // closed-loop clients, one object each, one core.Client
	objectBytes int64 // per client
	opBytes     int64
	// tailBytes are prefilled past objectBytes and never touched by an op.
	// A degraded open infers the object's size from the surviving
	// fragments, so with the last row's data units on down agents it comes
	// up short and the last row reads io.EOF; the tail keeps every row an
	// op can reach complete.
	tailBytes int64
	// hotBytes > 0 selects the random generator: a quarter of the ops
	// fall in a hot set of this many bytes, the rest anywhere.
	hotBytes int64
	// downForReads lists the agents marked down (and the handle reopened)
	// before every read phase; writes always run healthy.
	downForReads []int
}

var workloads = []spec{
	{
		name:   "stream-mem",
		why:    "protocol engine alone (core burst loops, wire, agent, memnet); sustained 256 KiB ops long enough to fill agent DoneTTL state",
		agents: 3, cacheSize: -1, clients: 1,
		objectBytes: 64 * mib, opBytes: 256 * kib,
	},
	{
		name:   "stream-udp",
		why:    "same op stream over udpnet loopback onto integrity+FileStore agents: adds exactly transport, store and envelope to stream-mem",
		agents: 3, udp: true, fileStore: true, cacheSize: -1, clients: 1,
		objectBytes: 64 * mib, opBytes: 256 * kib,
	},
	{
		name:   "ec-degraded",
		why:    "RS 3+2 row-aligned 768 KiB ops: healthy writes encode parity, reads reconstruct two shards per row; the only workload where ec does work",
		agents: 5, parity: 2, cacheSize: -1, clients: 1,
		objectBytes: 48 * mib, opBytes: 768 * kib, tailBytes: 768 * kib,
		downForReads: []int{1, 3},
	},
	{
		name:   "small-rand",
		why:    "4 KiB random ops, 2 concurrent clients, cache on at a quarter of the working set: fixed per-op cost, round trips, locks and the cache layer",
		agents: 3, udp: true, cacheSize: 16 * mib, readAhead: 256 * kib, clients: 2,
		objectBytes: 32 * mib, opBytes: 4 * kib, hotBytes: 4 * mib,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// miniature shrinks a workload's objects so a test can set it up and run
// it for a second; the op size, layout and generator stay the same.
func (s spec) miniature() spec {
	s.objectBytes = 4 * s.opBytes
	if s.hotBytes > 0 {
		s.objectBytes = 32 * stripeUnit
		s.hotBytes = 4 * stripeUnit
		s.cacheSize = 8 * stripeUnit
	}
	return s
}

// op is one generated operation. stamp seeds a write's payload and is
// zero for reads.
type op struct {
	write bool
	off   int64
	n     int64
	stamp uint64
}

// generator yields one client's op stream as a pure function of
// (workload, seed, client): the program under test receives only the
// offsets and payloads, never the seed.
type generator struct {
	s   *spec
	rng *rand.Rand
	// cursor is the next sequential offset (sequential workloads).
	cursor int64
	// perm scatters the object's 64 KiB blocks (random workloads), so
	// the hot set is not one contiguous range of any agent's fragment.
	perm []int32
}

func newGenerator(s *spec, seed int64, client int) *generator {
	g := &generator{s: s, rng: rand.New(rand.NewSource(seed*1000003 + int64(client)))}
	if s.hotBytes > 0 {
		g.perm = make([]int32, s.objectBytes/stripeUnit)
		for i, p := range g.rng.Perm(len(g.perm)) {
			g.perm[i] = int32(p)
		}
	} else {
		g.cursor = g.rng.Int63n(s.objectBytes/s.opBytes) * s.opBytes
	}
	return g
}

// hotShare is the fraction of random ops drawn from the hot set.
const hotShare = 0.25

func (g *generator) next(write bool) op {
	o := op{write: write, n: g.s.opBytes}
	if write {
		o.stamp = g.rng.Uint64() | 1
	}
	if g.perm == nil {
		o.off = g.cursor
		g.cursor = (g.cursor + o.n) % g.s.objectBytes
		return o
	}
	blocks := int64(len(g.perm))
	if g.rng.Float64() < hotShare {
		blocks = g.s.hotBytes / stripeUnit
	}
	block := int64(g.perm[g.rng.Int63n(blocks)])
	o.off = block*stripeUnit + g.rng.Int63n(stripeUnit/o.n)*o.n
	return o
}

// fill writes the payload a write of stamp at object offset off carries:
// every 8-byte word depends on its own absolute offset, so a read that
// returns stale, misplaced or bit-flipped bytes differs from the shadow.
func fill(dst []byte, stamp uint64, off int64) {
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], (stamp+uint64(off)+uint64(i))*0x9E3779B97F4A7C15)
	}
}
