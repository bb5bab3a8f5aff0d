package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"swift/internal/ec"
	"swift/internal/integrity"
	"swift/internal/obs"
	"swift/internal/wire"
)

// This file is the engine's redundancy machinery: computing the k parity
// units of every written stripe row through the erasure codec
// (internal/ec), reconstructing missing units on the degraded read path,
// auditing rows (VerifyParity) and rebuilding whole fragments after an
// agent returns. At k=1 the codec is the legacy XOR computed copy —
// byte-identical placement and parity bytes — and at k>=2 it is a
// Reed–Solomon code tolerating up to k simultaneous failures per row.

// scratch is pooled working memory for one operation's redundancy math:
// the parity units a write encodes, the shard ranges a degraded read
// fetches. The pool holds *scratch rather than []byte so that returning
// one does not itself allocate.
type scratch struct{ b []byte }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// acquireScratch returns n bytes holding whatever their last user left.
//
//swift:pool acquire
func acquireScratch(n int64) *scratch {
	s := scratchPool.Get().(*scratch)
	s.b = slices.Grow(s.b[:0], int(n))[:n]
	return s
}

// releaseScratch hands the memory back once nothing refers to its bytes.
//
//swift:pool release
func releaseScratch(s *scratch) { scratchPool.Put(s) }

// parityUnits holds the parity units one write encoded: k whole units,
// in parity position order, for each of the rows r0..r1.
type parityUnits struct {
	r0, r1 int64
	k      int
	unit   int64
	buf    []byte
}

// at returns the j-th parity unit of the given row, nil when the write
// holds none (a resend request is wire input and may name any range).
func (p *parityUnits) at(row int64, j int) []byte {
	if row < p.r0 || row > p.r1 || j < 0 || j >= p.k {
		return nil
	}
	i := ((row-p.r0)*int64(p.k) + int64(j)) * p.unit
	return p.buf[i : i+p.unit]
}

// computeParity encodes into pu the parity units of every stripe row
// touched by a write of src at logical offset off. A row the write covers
// whole is encoded straight from src. A partly covered row is completed
// in rowData (one row of scratch) with a read-modify-write: the uncovered
// old bytes are fetched (degraded-tolerant) before the codec runs. Parity
// units always span the full striping unit; logical bytes past the object
// tail count as zeros.
func (f *File) computeParity(src []byte, off int64, pu parityUnits, rowData []byte, sp *obs.Span) error {
	l := f.c.layout
	m := l.DataPerRow()
	rb := l.RowBytes()
	end := off + int64(len(src))
	shards := make([][]byte, m+pu.k)
	for r := pu.r0; r <= pu.r1; r++ {
		rowOff := r * rb
		covLo, covHi := max(rowOff, off), min(rowOff+rb, end)
		row := rowData
		if covHi-covLo == rb {
			row = src[rowOff-off:]
		} else {
			// Old data for the uncovered head and tail of the row
			// (clamped to the current size; beyond it everything is zero).
			clear(rowData)
			if err := f.fillOldRow(rowData, rowOff, covLo, covHi, sp); err != nil {
				return err
			}
			copy(rowData[covLo-rowOff:covHi-rowOff], src[covLo-off:covHi-off])
		}
		for j := 0; j < m; j++ {
			shards[j] = row[int64(j)*l.Unit : int64(j+1)*l.Unit]
		}
		for j := 0; j < pu.k; j++ {
			shards[m+j] = pu.at(r, j)
		}
		if err := f.ecEncode(shards); err != nil {
			return fmt.Errorf("core: encode row %d: %w", r, err)
		}
	}
	return nil
}

// fillOldRow reads the pre-write content of row bytes outside [covLo,
// covHi) into rowData (whose first byte is logical offset rowOff). The
// read is failover-capable: a write's read-modify-write must survive up
// to k agent failures (reading the old bytes degraded) or a mid-write
// crash would fail the whole write even though parity covers it.
func (f *File) fillOldRow(rowData []byte, rowOff, covLo, covHi int64, sp *obs.Span) error {
	rb := int64(len(rowData))
	read := func(lo, hi int64) error {
		if hi > f.size {
			hi = f.size // beyond the tail is zeros already
		}
		if lo >= hi {
			return nil
		}
		return f.readRange(rowData[lo-rowOff:hi-rowOff], lo, true, sp)
	}
	if err := read(rowOff, covLo); err != nil {
		return err
	}
	return read(covHi, rowOff+rb)
}

// readRowShards reads row r's units from every agent with a live session,
// except those listed in omit, and returns them in code order (data
// shards 0..m-1, parity shards m..m+k-1) with nil marking units that
// could not be read. Reads run in parallel.
//
// A per-agent read failure does not abort the row as long as at least m
// units survive: the failed unit becomes one more missing shard for the
// codec to correct, which is exactly what a second agent dying in the
// middle of an already-degraded read must look like, or a double failure
// under k=2 would error out of the reconstruct path instead of being
// masked. Only when fewer than m units survive (more damage than any
// codec can cover) does the first error propagate — and a spent operation
// deadline always does: it is global to the operation, and reconstruction
// cannot outrun it.
func (f *File) readRowShards(r int64, omit func(agent int) bool) ([][]byte, error) {
	l := f.c.layout
	m := l.DataPerRow()
	shards := make([][]byte, m+f.c.parityK())
	errs := make([]error, len(f.sessions))
	// Agents with an open circuit breaker are skipped — their unit becomes
	// one more missing shard — as long as enough candidates remain to
	// reach m units: a tripped straggler must not stall every
	// reconstruction for its whole cooldown. When shards are scarce the
	// breaker is overridden; slow beats unreadable.
	live := 0
	for i, s := range f.sessions {
		if s != nil && (omit == nil || !omit(i)) {
			live++
		}
	}
	var wg sync.WaitGroup
	for i, s := range f.sessions {
		if s == nil || (omit != nil && omit(i)) {
			continue
		}
		if !f.c.breakerAllow(i) && live-1 >= m {
			live--
			continue
		}
		wg.Add(1)
		go func(i int, s *agentSession, pos int) {
			defer wg.Done()
			buf := make([]byte, l.Unit)
			if errs[i] = f.flatBurst(s, reading, r*l.Unit, buf, nil); errs[i] == nil {
				shards[pos] = buf
			}
		}(i, s, f.shardOfAgent(r, i))
	}
	wg.Wait()
	present := 0
	for _, sh := range shards {
		if sh != nil {
			present++
		}
	}
	var spent error
	for i, err := range errs {
		switch {
		case err == nil:
		case present < m:
			return nil, err
		case errors.Is(err, ErrDeadline):
			spent = err
		case integrity.IsCorrupt(err) || isOverloadSignal(err):
			// Media damage (read-repair and scrub heal it) or backpressure:
			// the agent stays in service, the lifecycle stays untouched,
			// and the codec routes around the one unit.
		default:
			// Attributable: tear the session down at once, or every later
			// row stalls a full retry budget against a dead agent.
			f.c.cfg.Logf("core: row %d read lost agent %d, reconstructing around it: %v", r, i, err)
			f.failAgent(i, err)
		}
	}
	return shards, spent
}

// shardOfAgent returns the code-order shard index of the given agent in
// row r.
func (f *File) shardOfAgent(r int64, agent int) int {
	l := f.c.layout
	if j := l.DataPos(r, agent); j >= 0 {
		return j
	}
	return l.DataPerRow() + l.ParityPos(r, agent)
}

// agentOfShard is the inverse of shardOfAgent.
func (f *File) agentOfShard(r int64, shard int) int {
	l := f.c.layout
	if m := l.DataPerRow(); shard >= m {
		return l.ParityAgentAt(r, shard-m)
	}
	return l.DataAgent(r, shard)
}

// The part each agent plays in one degraded read attempt.
const (
	useDirect  uint8 = iota // read its extents into dst, fetch from it freely
	lastResort              // breaker open: fetch from it only when the others fall short
	noFetch                 // ask nothing more of it; what it put in dst stands
	// From here up the agent is read around: its share of dst is
	// rebuilt from the other agents' shards, and the value says why.
	aroundGone    // no session, or failed the planner too
	aroundBreaker // breaker open
	aroundBusy    // pushed the read back twice
	aroundHedged  // stalled past the hedge delay
)

// readAround reports whether an agent in role r is read around.
func readAround(r uint8) bool { return r >= aroundGone }

// askTier is when the planner may fetch a shard from an agent in each
// role: tier 0 freely; tiers 1 and 2 only when the tiers before leave a
// row short of m shards — slow beats unreadable, so a straggler that was
// hedged away is waited out after all when too many agents straggle at
// once for the code to cover; -1 never.
var askTier = [...]int{
	useDirect: 0, lastResort: 1, noFetch: -1,
	aroundGone: -1, aroundBreaker: 2, aroundBusy: 2, aroundHedged: 2,
}

// aroundSpan names the reconstruction span after what it reads around.
var aroundSpan = [...]string{
	aroundGone: "degraded_read", aroundBreaker: "degraded_read",
	aroundBusy: "busy_read", aroundHedged: "hedged_read",
}

// rowJob is one codec call of a degraded read: bytes [a, b) of every
// unit of one row. out holds the wanted data shards — the parts of dst
// that live on agents being read around — and in the m shards they are
// rebuilt from: parts of dst the direct reads fill, and fetched scratch.
type rowJob struct {
	row     int64
	a, b    int64
	in, out [][]byte
}

// fetch is one planner read: fragment bytes [lo, lo+n) of one agent,
// into scratch that becomes the job input *into. err is how it failed.
type fetch struct {
	agent int
	lo, n int64
	into  *[]byte
	err   error
}

// planRows plans the reconstruction of every byte of dst (first byte =
// logical offset off) that lives on an agent being read around. Each
// touched row gets one job per distinct in-unit byte range of its
// missing data units (a row-aligned read: one job, the whole unit). The
// code is byte-wise, so rebuilding [a, b) of a unit takes [a, b) of any m
// other units of the row: the live data units come from dst itself where
// the read covers that range — every direct read is joined before the
// codec runs, and bytes past the object tail arrive as zeros — and the
// rest is fetched, data units before parity units, as many as are
// missing and no more, from the agents askTier allows. (A wanted unit
// fetched from its own straggling agent is both input and output: the
// codec copies it.) It returns the jobs, the fetches that complete their
// inputs, and the scratch those need.
func (f *File) planRows(dst []byte, off int64, role []uint8) (jobs []rowJob, fetches []fetch, total int64, err error) {
	l := f.c.layout
	m, k := l.DataPerRow(), f.c.parityK()
	rb, end := l.RowBytes(), off+int64(len(dst))
	for r := l.RowOfGlobal(off); r <= l.RowOfGlobal(end-1); r++ {
		first := len(jobs)
		for j := 0; j < m; j++ {
			g := r*rb + int64(j)*l.Unit
			lo, hi := max(g, off), min(g+l.Unit, end)
			if lo >= hi || !readAround(role[l.DataAgent(r, j)]) {
				continue
			}
			i := first
			for i < len(jobs) && (jobs[i].a != lo-g || jobs[i].b != hi-g) {
				i++
			}
			if i == len(jobs) {
				shards := make([][]byte, 2*(m+k))
				jobs = append(jobs, rowJob{row: r, a: lo - g, b: hi - g, in: shards[:m+k], out: shards[m+k:]})
			}
			jobs[i].out[j] = dst[lo-off : hi-off]
		}
	}
	for i := range jobs {
		jb := &jobs[i]
		n, need := jb.b-jb.a, m
		for j := 0; j < m; j++ {
			g := jb.row*rb + int64(j)*l.Unit + jb.a
			if !readAround(role[l.DataAgent(jb.row, j)]) && g >= off && g+n <= end {
				jb.in[j] = dst[g-off : g-off+n]
				need--
			}
		}
		for tier := 0; tier <= 2; tier++ {
			for pos := 0; pos < m+k && need > 0; pos++ {
				if ag := f.agentOfShard(jb.row, pos); jb.in[pos] == nil && askTier[role[ag]] == tier {
					fetches = append(fetches, fetch{agent: ag, lo: jb.row*l.Unit + jb.a, n: n, into: &jb.in[pos]})
					total += n
					need--
				}
			}
		}
		if need > 0 {
			return nil, nil, 0, fmt.Errorf("core: row %d: %w: %d of %d units within reach", jb.row, ec.ErrTooFewShards, m-need, m)
		}
	}
	return jobs, fetches, total, nil
}

// fetchesFrom reports whether any planner read is addressed to the agent.
// It reads nothing a running worker writes.
func fetchesFrom(fetches []fetch, agent int) bool {
	for i := range fetches {
		if fetches[i].agent == agent {
			return true
		}
	}
	return false
}

// runFetches performs the planner reads assigned to one agent, on that
// agent's worker, up to the first that fails. Reconstruction's own reads
// never hedge: a hedge inside a hedge would recurse.
func (f *File) runFetches(s *agentSession, fetches []fetch, sp *obs.Span) {
	for i := range fetches {
		ft := &fetches[i]
		if ft.agent != s.idx {
			continue
		}
		if ft.err = f.flatBurst(s, reading, ft.lo, *ft.into, sp); ft.err != nil {
			sp.SetError(ft.err)
			return
		}
	}
}

// reconstructUnit rebuilds the whole unit of row r held by agent dead
// (data or parity alike) from the surviving agents' units through the
// codec: what rebuild and read-repair write back.
func (f *File) reconstructUnit(dead int, r int64) ([]byte, error) {
	shards, err := f.readRowShards(r, func(a int) bool { return a == dead })
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(shards))
	unit := make([]byte, f.c.layout.Unit)
	out[f.shardOfAgent(r, dead)] = unit
	if err := f.ecReconstruct(shards, out); err != nil {
		return nil, err
	}
	return unit, nil
}

// VerifyParity scrubs the file: for every stripe row it reads all units
// from all agents and checks that the parity units match the codec's
// encoding of the data units. It returns the rows that fail, in
// ascending order — the maintenance pass a Swift installation would run
// after crashes.
func (f *File) VerifyParity() ([]int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if !f.c.cfg.Parity {
		return nil, fmt.Errorf("core: verify requires parity")
	}
	if f.liveCount() < len(f.sessions) {
		return nil, fmt.Errorf("core: verify requires all agents up")
	}
	if f.size == 0 {
		return nil, nil
	}
	l := f.c.layout
	var bad []int64
	lastRow := l.RowOfGlobal(f.size - 1)
	for r := int64(0); r <= lastRow; r++ {
		shards, err := f.readRowShards(r, nil)
		if err != nil {
			return nil, fmt.Errorf("core: verify row %d: %w", r, err)
		}
		ok, verr := f.c.codec.Verify(shards)
		if verr != nil {
			return nil, fmt.Errorf("core: verify row %d: %w", r, verr)
		}
		if !ok {
			bad = append(bad, r)
		}
	}
	return bad, nil
}

// RepairRow recomputes and rewrites the parity units of one row from its
// data units, fixing a scrub finding whose data is trusted.
func (f *File) RepairRow(r int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if !f.c.cfg.Parity {
		return fmt.Errorf("core: repair requires parity")
	}
	l := f.c.layout
	k := f.c.parityK()
	for j := 0; j < k; j++ {
		if pa := l.ParityAgentAt(r, j); pa >= len(f.sessions) || f.sessions[pa] == nil {
			return fmt.Errorf("core: repair: parity agent %d down", pa)
		}
	}
	// Read the data units and re-encode the row's parity.
	shards, err := f.readRowShards(r, func(a int) bool { return l.ParityPos(r, a) >= 0 })
	if err != nil {
		return err
	}
	m := l.DataPerRow()
	for j := 0; j < k; j++ {
		shards[m+j] = make([]byte, l.Unit)
	}
	if err := f.ecEncode(shards); err != nil {
		return fmt.Errorf("core: repair row %d: %w", r, err)
	}
	for j := 0; j < k; j++ {
		pa := l.ParityAgentAt(r, j)
		if err := f.flatBurst(f.sessions[pa], writing, l.ParityLocal(r), shards[m+j], nil); err != nil {
			return err
		}
	}
	return nil
}

// Rebuild reconstructs every unit (data and parity) that agent idx should
// hold for this file and writes it back to that agent, then trims the
// fragment to its expected size. A session to the agent must exist; the
// health monitor performs this automatically on re-admission when
// MonitorConfig.Rebuild is set. With k >= 2 the rebuild succeeds even
// while other agents (up to k-1 of them) are still down.
func (f *File) Rebuild(idx int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return f.rebuildLocked(idx)
}

// rebuildLocked is Rebuild with f.mu held (re-admission calls it before
// the fresh session becomes visible to reads).
func (f *File) rebuildLocked(idx int) error {
	if !f.c.cfg.Parity {
		return fmt.Errorf("core: rebuild requires parity")
	}
	if idx < 0 || idx >= len(f.sessions) || f.sessions[idx] == nil {
		return fmt.Errorf("core: rebuild: no session to agent %d", idx)
	}
	s := f.sessions[idx]
	l := f.c.layout
	if f.size == 0 {
		return nil
	}
	lastRow := l.RowOfGlobal(f.size - 1)
	for r := int64(0); r <= lastRow; r++ {
		unit, err := f.reconstructUnit(idx, r)
		if err != nil {
			return fmt.Errorf("core: rebuild row %d: %w", r, err)
		}
		if err := f.flatBurst(s, writing, r*l.Unit, unit, nil); err != nil {
			return fmt.Errorf("core: rebuild row %d: %w", r, err)
		}
	}
	// Trim the fragment: the tail data unit may be partial.
	if err := f.sessionRPC(s, wire.TTrunc, wire.TTruncReply, l.FragmentSizes(f.size)[idx], nil); err != nil {
		return fmt.Errorf("core: rebuild trim: %w", err)
	}
	return nil
}
