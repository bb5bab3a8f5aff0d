package core

import (
	"bytes"
	"fmt"
	"slices"

	"swift/internal/ec"
	"swift/internal/extent"
	"swift/internal/obs"
	"swift/internal/wire"
)

// This file is the engine's redundancy machinery: computing the k parity
// units of every written stripe row through the erasure codec
// (internal/ec), and the row planner — the one code that reads a row
// around agents, for degraded reads and for the heals behind read-repair,
// scrub and the rebuild of a returning agent's fragment. At k=1 the codec
// is the legacy XOR computed copy — byte-identical placement and parity
// bytes — and at k>=2 it is a Reed–Solomon code tolerating up to k
// simultaneous failures per row.

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
	f.shards = slices.Grow(f.shards[:0], m+pu.k)[:m+pu.k]
	shards := f.shards
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

// rowJob is one codec call of the row planner: bytes [a, b) of every
// unit of one row. out holds the wanted shards — for a read, the parts of
// dst that live on agents being read around; for a heal, whole units
// (data or parity alike) bound for write-back — and in the m shards they
// are rebuilt from: parts of dst the direct reads fill, units the caller
// already holds, and fetched scratch.
type rowJob struct {
	row     int64
	a, b    int64
	in, out [][]byte
}

// newJob makes *jb the job for bytes [a, b) of row's units, with nothing
// wanted and nothing in hand yet, in the shard slots jb had.
func (f *File) newJob(jb *rowJob, row, a, b int64) {
	n := f.c.layout.DataPerRow() + f.c.parityK()
	shards := slices.Grow(jb.in[:0], 2*n)[:2*n]
	clear(shards)
	*jb = rowJob{row: row, a: a, b: b, in: shards[:n], out: shards[n:]}
}

// fetch is one planner read: fragment bytes [lo, lo+n) of one agent,
// into scratch that becomes the job input *into. err is how it failed.
type fetch struct {
	agent int
	lo, n int64
	into  *[]byte
	err   error
}

// castRoles gives every agent its part in a read attempt over the
// fragment ranges exts, or — exts nil — in the heal of the units heal.out
// names, whose agents are read around whatever their state. Agents
// without a session, and with parity those whose breaker is open, are
// read around when touched and kept out of the planner's reach, or at
// its last resort, when not.
func (f *File) castRoles(exts []extent.Set, heal *rowJob, sp *obs.Span) error {
	f.role = slices.Grow(f.role[:0], len(f.sessions))[:len(f.sessions)]
	role := f.role
	clear(role)
	for i, s := range f.sessions {
		touched := exts != nil && exts[i].Len() > 0
		wanted := heal != nil && heal.out[f.shardOfAgent(heal.row, i)] != nil
		switch {
		case wanted || s == nil && touched:
			if !f.c.cfg.Parity {
				return ErrAgentDown
			}
			role[i] = aroundGone
		case s == nil:
			role[i] = noFetch
		case !f.c.cfg.Parity || f.c.breakerAllow(i):
			// Without parity the agent is the sole holder of its units
			// and must be tried whatever its breaker says.
		case touched:
			role[i] = aroundBreaker
			sp.Annotate("breaker open: reading around agent %d", i)
		default:
			role[i] = lastResort
		}
	}
	return nil
}

// readJobs makes the jobs of a degraded read: the reconstruction of
// every byte of dst (first byte = logical offset off) that lives on an
// agent being read around. Each touched row gets one job per distinct
// in-unit byte range of its missing data units (a row-aligned read: one
// job, the whole unit).
func (f *File) readJobs(dst []byte, off int64, role []uint8) []rowJob {
	jobs := f.jobs[:0]
	l := f.c.layout
	m := l.DataPerRow()
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
				jobs = slices.Grow(jobs, 1)[:i+1]
				f.newJob(&jobs[i], r, lo-g, hi-g)
			}
			jobs[i].out[j] = dst[lo-off : hi-off]
		}
	}
	f.jobs = jobs
	return jobs
}

// planFetches completes the inputs of jobs — a read's (readJobs) or a
// heal's one whole-unit job, which brings no dst. The code is byte-wise,
// so rebuilding [a, b) of a unit takes [a, b) of any m other units of the
// row: what a job already holds counts first; the live data units come
// from dst itself where the read covers that range — every direct read
// is joined before the codec runs, and bytes past the object tail arrive
// as zeros — and the rest is fetched, data units before parity units, as
// many as are missing and no more, from the agents askTier allows. (A
// wanted unit fetched from its own straggling agent is both input and
// output: the codec copies it.) It returns the fetches, appended to
// fetches, and the scratch they need.
func (f *File) planFetches(fetches []fetch, jobs []rowJob, dst []byte, off int64, role []uint8) (_ []fetch, total int64, err error) {
	l := f.c.layout
	m, k := l.DataPerRow(), f.c.parityK()
	rb, end := l.RowBytes(), off+int64(len(dst))
	for i := range jobs {
		jb := &jobs[i]
		n, need := jb.b-jb.a, m
		for pos := range jb.in {
			if pos < m && !readAround(role[l.DataAgent(jb.row, pos)]) {
				if g := jb.row*rb + int64(pos)*l.Unit + jb.a; g >= off && g+n <= end {
					jb.in[pos] = dst[g-off : g-off+n]
				}
			}
			if jb.in[pos] != nil {
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
			return nil, 0, fmt.Errorf("core: row %d: %w: %d of %d units within reach", jb.row, ec.ErrTooFewShards, m-need, m)
		}
	}
	return fetches, total, nil
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

// healRow rebuilds the units jb.out names through the row planner — from
// what jb.in already holds, reading around for the rest — and writes each
// back to the agent it belongs on: the one mend behind rebuild,
// read-repair and both of scrub's. A rebuilt unit equal to held's (the
// units as the agents hold them now, when the caller read them) is left
// alone. Each unit written is reported as a repair under what; rebuild,
// which mends nothing that was reported broken, passes none. It returns
// the units written.
func (f *File) healRow(jb rowJob, held [][]byte, what string, sp *obs.Span) (healed int64, err error) {
	if err := f.castRoles(nil, &jb, sp); err != nil {
		return 0, err
	}
	if _, err := f.readPasses(nil, 0, nil, []rowJob{jb}, sp); err != nil {
		return 0, fmt.Errorf("row %d: reconstruct: %w", jb.row, err)
	}
	for pos, unit := range jb.out {
		if unit == nil || held != nil && bytes.Equal(unit, held[pos]) {
			continue
		}
		agent := f.agentOfShard(jb.row, pos)
		if err := f.writeRowUnit(agent, jb.row, unit, sp); err != nil {
			return healed, fmt.Errorf("row %d: rewrite agent %d: %w", jb.row, agent, err)
		}
		healed++
		if what != "" {
			f.c.tel.Note(evRepair, agent, sp, "%s row %d %s", f.name, jb.row, what)
		}
	}
	return healed, nil
}

// healUnits heals agent i's unit of each row in [r0, r1): the rows a
// corruption report implicates (read-repair), or every row (rebuild). It
// is sound while the unit plus the agents out of reach stay within the
// codec's correction power — with k parity units, up to k-1 other agents
// may be out — and the planner refuses the row otherwise; a read or write
// whose repair is refused falls back to degraded-mode failover.
func (f *File) healUnits(i int, r0, r1 int64, what string, sp *obs.Span) error {
	if !f.c.cfg.Parity {
		return fmt.Errorf("parity disabled")
	}
	if i < 0 || i >= len(f.sessions) || f.sessions[i] == nil {
		return fmt.Errorf("no session to the agent")
	}
	unit := grow(&f.unit, f.c.layout.Unit)
	var jb rowJob
	for r := r0; r < r1; r++ {
		f.newJob(&jb, r, 0, f.c.layout.Unit)
		jb.out[f.shardOfAgent(r, i)] = unit
		if _, err := f.healRow(jb, nil, what, sp); err != nil {
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
// the fresh session becomes visible to reads). It reports no repairs:
// nothing was reported broken.
func (f *File) rebuildLocked(idx int) error {
	l := f.c.layout
	if err := f.healUnits(idx, 0, (f.size+l.RowBytes()-1)/l.RowBytes(), "", nil); err != nil {
		return fmt.Errorf("core: rebuild agent %d: %w", idx, err)
	}
	// Trim the fragment — the tail data unit may be partial, and an agent
	// that was out while the file shrank, even to nothing, still holds
	// the old length.
	if err := f.sessionRPC(f.sessions[idx], wire.TTrunc, wire.TTruncReply, l.FragmentSizes(f.size)[idx], nil); err != nil {
		return fmt.Errorf("core: rebuild trim: %w", err)
	}
	return nil
}
