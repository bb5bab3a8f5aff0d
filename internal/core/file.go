package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"swift/internal/cache"
	"swift/internal/extent"
	"swift/internal/integrity"
	"swift/internal/obs"
	"swift/internal/wire"
)

// File is an open striped object with Unix file semantics. A File's
// methods are safe for concurrent use; operations are serialized, matching
// the prototype's library semantics.
type File struct {
	c    *Client
	name string

	mu       sync.Mutex
	sessions []*agentSession // nil entries are failed agents
	size     int64
	pos      int64
	closed   bool

	// opDeadline is the running operation's deadline budget (zero when
	// Config.OpTimeout is off). Set at ReadAt/WriteAt entry and cleared on
	// exit, under f.mu; maintenance paths (rebuild, scrub) run with it
	// zero so background repair never inherits a stale foreground budget.
	opDeadline time.Time

	// Block cache view (nil when the client cache is off). fetchBuf is
	// the demand-fetch scratch: demand misses are served to the caller
	// from it and only then inserted, so a one-pass scan earns cache
	// residence without earning references and dies in probation.
	cobj     *cache.Object
	fetchBuf []byte
	// Redundancy state of the attempt running under f.mu (see parity.go):
	// each agent's part in a read, the planner reads of the pass in flight,
	// the parity units of the write in flight. File-owned so that workers
	// reach it through f (by pointer: a parityUnits value down the write
	// workers' frames cost small-rand +6 µs of write p50) and a healthy or
	// parity-less operation allocates nothing for it. Workers only read it.
	role    []uint8
	fetches []fetch
	parity  parityUnits
	// prefetching marks operations running on behalf of a background
	// read-ahead worker; written under f.mu before readRange fans its
	// goroutines out (which are joined before it returns). Prefetch
	// reads never hedge — speculation must not race demand reads for
	// the retry budget.
	prefetching bool
	// The fan-out of the attempt running under f.mu: its per-agent
	// fragment plan, each agent worker's outcome (one slot per session),
	// and their join. One set serves every attempt, so an operation
	// allocates no more than its workers' goroutines.
	exts []extent.Set
	errs []error
	wg   sync.WaitGroup
}

// Name returns the object name.
func (f *File) Name() string { return f.name }

// Size returns the logical object size.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = f.size
	default:
		return 0, fmt.Errorf("core: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, errors.New("core: negative seek position")
	}
	f.pos = np
	return np, nil
}

// Read implements io.Reader at the current position.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	pos := f.pos
	f.mu.Unlock()
	n, err := f.ReadAt(p, pos)
	f.mu.Lock()
	f.pos = pos + int64(n)
	f.mu.Unlock()
	return n, err
}

// Write implements io.Writer at the current position.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	pos := f.pos
	f.mu.Unlock()
	n, err := f.WriteAt(p, pos)
	f.mu.Lock()
	f.pos = pos + int64(n)
	f.mu.Unlock()
	return n, err
}

// ReadAt implements io.ReaderAt: it reads from all agents holding pieces
// of [off, off+len(p)) in parallel.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	sp := f.c.startSpan(obs.SpanContext{}, "read")
	defer sp.Finish()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, errors.New("core: negative offset")
	}
	if off >= f.size {
		return 0, io.EOF
	}
	n := int64(len(p))
	if off+n > f.size {
		n = f.size - off
	}
	f.c.budget.deposit()
	if t := f.c.cfg.OpTimeout; t > 0 {
		f.opDeadline = start.Add(t)
		defer func() { f.opDeadline = time.Time{} }()
	}
	sp.AnnotateRange(f.name, off, off+n)
	if err := f.readServe(p[:n], off, sp); err != nil {
		sp.SetError(err)
		return 0, err
	}
	observeSpan(f.c.tel.readLat, start, sp)
	if n < int64(len(p)) {
		return int(n), io.EOF
	}
	return int(n), nil
}

// readServe satisfies a clamped read through the block cache when it is
// on, falling back to a direct striped read otherwise. Valid bytes copy
// straight out; a miss fetches what fetchWindow picks, inserts it, and
// serves the caller from the fetch scratch only up to the next valid
// atom — that atom may be dirty and newer than the agents' copy, so the
// loop goes back to the cache for it. Afterwards the stream detector may
// suggest the next window for the background prefetch workers.
func (f *File) readServe(dst []byte, off int64, sp *obs.Span) error {
	if f.cobj == nil {
		return f.readRange(dst, off, true, sp)
	}
	n := int64(len(dst))
	for filled := int64(0); filled < n; {
		pos := off + filled
		if m := f.cobj.ReadCached(dst[filled:], pos); m > 0 {
			filled += int64(m)
			continue
		}
		fo, flen, serve := f.fetchWindow(pos, n-filled)
		buf := f.growFetch(flen)
		if err := f.readRange(buf, fo, true, sp); err != nil {
			return err
		}
		f.cobj.Insert(fo, buf, false)
		filled += int64(copy(dst[filled:filled+serve], buf[pos-fo:]))
	}
	if poff, plen, gen := f.cobj.NoteRead(off, n, f.size); plen > 0 {
		f.c.suggestPrefetch(f, poff, plen, gen)
	}
	return nil
}

// fetchWindow picks the fetch [off, off+n) for a demand miss at pos
// needing need more bytes, and how many of those the fetch itself may
// serve. A random read fetches the atom-aligned cover of what it is
// missing and no more; a read that continues a sequential stream widens
// to whole blocks and the read-ahead window (the first reads of a stream
// ride this before async prefetch is primed).
func (f *File) fetchWindow(pos, need int64) (off, n, serve int64) {
	off, run, end := f.cobj.Missing(pos, need)
	serve = min(need, run-pos)
	if f.cobj.SequentialAt(pos) {
		bs := f.c.cache.BlockSize()
		base := pos - pos%bs
		end = max(base+f.c.cache.ReadAhead(), (pos+need+bs-1)/bs*bs)
	}
	// The read is already size-clamped, so this never cuts into need.
	end = min(end, f.size)
	return off, end - off, serve
}

// growFetch sizes the demand-fetch scratch buffer.
func (f *File) growFetch(n int64) []byte {
	if int64(cap(f.fetchBuf)) < n {
		f.fetchBuf = make([]byte, n)
	}
	return f.fetchBuf[:n]
}

// readRange reads [off, off+len(dst)) into dst, unclamped by the logical
// size (absent bytes arrive as zeros).
func (f *File) readRange(dst []byte, off int64, allowFailover bool, sp *obs.Span) error {
	return f.moveRange(reading, dst, off, allowFailover, sp)
}

// writeRange writes src at logical offset off.
func (f *File) writeRange(src []byte, off int64, allowFailover bool, sp *obs.Span) error {
	return f.moveRange(writing, src, off, allowFailover, sp)
}

// moveRange attempts the read or write of buf at logical offset off until
// an attempt succeeds or recovery is exhausted. With allowFailover set and
// parity enabled, up to k (= ParityShards) mid-operation agent failures
// trigger degraded retries under a progress budget; every retry is covered
// by the codec's correction power, so the operation completes as long as
// at most k agents are out.
//
// Corruption reported by an agent is handled before failover: the client
// repairs the damaged rows through the codec (read-repair) and retries
// against clean data, keeping the agent in service. A write — whose
// partial-block merge-read may find its neighbours rotten — does so only
// when exactly one agent failed: every other agent then completed its
// bursts, so the codec reconstruction from the survivors is the intended
// new unit. Only when repair is impossible — parity off, too many agents
// out, budget spent — does the error fall through to the ordinary failover
// path or the caller.
func (f *File) moveRange(dir direction, buf []byte, off int64, allowFailover bool, sp *obs.Span) error {
	name := dirName[dir]
	repairs, failovers := 0, 0
	budget := f.repairBudget(off, int64(len(buf)))
	for {
		var failed int
		var err error
		nerrs := 1
		if dir == reading {
			failed, err = f.readRangeOnce(buf, off, sp)
		} else {
			failed, nerrs, err = f.writeRangeOnce(buf, off, sp)
		}
		if err == nil {
			return nil
		}
		corrupt := failed >= 0 && nerrs == 1 && integrity.IsCorrupt(err)
		if corrupt {
			f.c.tel.Note(evCorrupt, failed, sp, "%s: %v", f.name, err)
			if repairs < budget {
				repairs++
				rs := sp.StartChild(name+"_repair", failed)
				rs.MarkRetry()
				r0, r1 := f.corruptRows(err, off, int64(len(buf)))
				rerr := f.healUnits(failed, r0, r1, "rewritten from parity", rs)
				rs.SetError(rerr)
				rs.Finish()
				if rerr == nil {
					continue // repaired in place; retry clean
				}
				f.c.tel.Note(evRepairFail, failed, sp, "%s %s: %v", name, f.name, rerr)
			}
		}
		if failed < 0 || !f.c.cfg.Parity || !allowFailover {
			if corrupt {
				// The agent is alive; only its media is bad. Do not
				// feed the failure-domain lifecycle — surface the
				// corruption to the caller instead.
				f.c.tel.Note(evUnrepairable, failed, sp, "%s: %v", f.name, err)
				return err
			}
			if failed >= 0 {
				// No failover possible, but the failure is attributable:
				// feed the lifecycle so the monitor starts probing.
				f.failAgent(failed, err)
				if f.quorumLost() {
					return ErrNoQuorum
				}
			}
			return err
		}
		f.failAgent(failed, err)
		if f.quorumLost() {
			return ErrNoQuorum
		}
		// Failover retries spend from the shared budget so a brown-out is
		// not amplified into a retry storm; the lifecycle note above is
		// kept (the failure was real) even when the retry is denied.
		if !f.c.budget.spend() {
			f.c.tel.Note(evBudgetDenied, failed, sp, "%s failover denied: %v", name, err)
			return fmt.Errorf("%w: %s failover around agent %d (last error: %v)",
				ErrRetryBudget, name, failed, err)
		}
		f.c.tel.Note(evFailover[dir], failed, sp, "%s: %v", f.name, err)
		failovers++
		if failovers >= f.c.parityK() {
			allowFailover = false
		}
	}
}

// readRangeOnce performs one attempt; on error it reports which agent
// failed (-1 when not attributable). Agents without a session, and with
// parity those whose breaker is open, are read around (castRoles): the
// row planner rebuilds their share of dst, its reads riding the same
// fan-out as the direct ones.
func (f *File) readRangeOnce(dst []byte, off int64, sp *obs.Span) (failedAgent int, err error) {
	n := int64(len(dst))
	if n == 0 {
		return -1, nil
	}
	f.exts = f.c.layout.LocalExtentsInto(f.exts, off, n)
	if err := f.castRoles(f.exts, nil, sp); err != nil {
		return -1, err
	}
	return f.readPasses(dst, off, f.exts, nil, sp)
}

// readPasses runs the row planner over the roles cast, for a read of dst
// or for the one job of a heal (which has no dst and no direct reads). An
// agent that hedges or pushes back, or fails a planner read, is set aside
// and the planner runs again as a further pass over what is left.
func (f *File) readPasses(dst []byte, off int64, exts []extent.Set, heal []rowJob, sp *obs.Span) (failedAgent int, err error) {
	var cause error // the first error that took a shard out of reach
	for {
		failed, lost, perr := f.readPass(dst, off, exts, heal, sp)
		if perr != nil && cause != nil {
			// Fewer than m shards are left: surface what took them.
			return -1, fmt.Errorf("%v: %w", perr, cause)
		}
		if perr != nil || lost == nil {
			return failed, perr
		}
		if cause == nil {
			cause = lost
		}
		exts = nil // the direct reads are done
	}
}

// readPass is one parallel pass of a read attempt: every agent not read
// around fetches its extents of dst (exts; nil after the first pass);
// then, on the same per-agent workers, the planner's reads; then, unless
// the pass lost an agent, the codec rebuilds what was read around — the
// jobs of heal when given, else what dst is missing. lost
// is the first overload signal or planner-read failure of the pass: the
// agent has been set aside in f.role and the caller runs another pass.
func (f *File) readPass(dst []byte, off int64, exts []extent.Set, heal []rowJob, sp *obs.Span) (failedAgent int, lost, err error) {
	role := f.role
	around := slices.IndexFunc(role, readAround)
	jobs := heal
	var fetches []fetch
	if around >= 0 {
		if heal == nil {
			jobs = f.readJobs(dst, off, role)
		}
		var total int64
		if fetches, total, err = f.planFetches(jobs, dst, off, role); err != nil {
			return -1, nil, err
		}
		sc := acquireScratch(total)
		defer releaseScratch(sc)
		for i, at := 0, int64(0); i < len(fetches); i++ {
			*fetches[i].into = sc.b[at : at+fetches[i].n]
			at += fetches[i].n
		}
	}

	clear(f.errs)
	f.fetches = fetches
	for i, s := range f.sessions {
		if s == nil {
			continue
		}
		var cuts []extent.Extent
		if exts != nil && !readAround(role[i]) {
			cuts = s.cut(&exts[i])
		}
		if len(cuts) == 0 && !fetchesFrom(fetches, i) {
			continue
		}
		f.wg.Add(1)
		go func() {
			as := sp.StartChild("agent_read", i)
			// Reads on behalf of the prefetch workers never hedge.
			werr := f.runBursts(s, reading, cuts, xfer{buf: dst, base: off}, as, !f.prefetching)
			if werr == nil {
				f.runFetches(s, f.fetches, as)
			}
			as.SetError(werr)
			as.Finish()
			f.errs[i] = werr
			f.wg.Done()
		}()
	}
	f.wg.Wait()
	f.fetches = nil
	// Overload signals (pushback, hedge, spent deadline) are told apart
	// from failures: they must not be attributed to the agent's
	// failure-domain lifecycle. A hedged or pushed-back agent's extents
	// are reconstructed from the other agents' shards instead.
	for i, werr := range f.errs {
		if werr != nil && !isOverloadSignal(werr) {
			return i, nil, werr
		}
	}
	// setAside takes an agent out of the attempt for the next pass.
	setAside := func(agent int, as uint8, e error) error {
		if errors.Is(e, ErrDeadline) || !f.c.cfg.Parity {
			// The deadline is global to the operation (reconstruction
			// cannot outrun it), and without parity there is nothing to
			// reconstruct from: surface the signal unattributed.
			return e
		}
		if lost == nil {
			lost = fmt.Errorf("core: reconstruction around agent %d: %w", agent, e)
		}
		role[agent] = as
		return nil
	}
	for i, werr := range f.errs {
		if werr == nil {
			continue
		}
		as := aroundBusy
		if errors.Is(werr, errHedged) {
			as = aroundHedged
		}
		if err := setAside(i, as, werr); err != nil {
			return -1, nil, err
		}
	}
	// A failed planner read is one more missing shard, never the
	// attempt's error.
	for i := range fetches {
		ft := &fetches[i]
		if ft.err == nil {
			continue
		}
		as := noFetch
		if readAround(role[ft.agent]) {
			as = aroundGone
		}
		if err := setAside(ft.agent, as, ft.err); err != nil {
			return -1, nil, err
		}
		if !integrity.IsCorrupt(ft.err) && !isOverloadSignal(ft.err) {
			// Not media damage (read-repair and scrub heal that) and not
			// backpressure: tear the session down at once, or every
			// later row stalls a retry budget against a dead agent.
			f.c.tel.Note(evReadLost, ft.agent, sp, "%s: reconstructing around it: %v", f.name, ft.err)
			f.failAgent(ft.agent, ft.err)
		}
	}
	if lost != nil || around < 0 {
		// The next pass plans afresh: a heal's job outlives this pass's
		// scratch, so it must not keep the inputs fetched into it.
		for i := range fetches {
			*fetches[i].into = nil
		}
		return -1, lost, nil
	}
	ds := sp.StartChild(aroundSpan[role[around]], around)
	ds.MarkRetry()
	for i := range jobs {
		if err = f.ecReconstruct(jobs[i].in, jobs[i].out); err != nil {
			break
		}
	}
	ds.SetError(err)
	ds.Finish()
	if err != nil {
		return -1, nil, err
	}
	for i, r := range role {
		if r == aroundHedged {
			f.c.tel.Note(evHedgeWin, i, sp, "%s: reconstruction beat the straggler", f.name)
		}
	}
	return -1, nil, nil
}

// placeGlobal copies fragment bytes into the logical buffer, splitting at
// striping-unit boundaries (a datagram's payload may span two units of the
// fragment, which are discontiguous in logical space).
//
//swift:hotpath
func (f *File) placeGlobal(agent int, localOff int64, b []byte, dst []byte, base int64) {
	l := f.c.layout
	for len(b) > 0 {
		in := localOff % l.Unit
		take := l.Unit - in
		if take > int64(len(b)) {
			take = int64(len(b))
		}
		if g, ok := l.GlobalOf(agent, localOff); ok {
			di := g - base
			if di >= 0 && di < int64(len(dst)) {
				end := di + take
				if end > int64(len(dst)) {
					end = int64(len(dst))
				}
				copy(dst[di:end], b[:end-di])
			}
		}
		b = b[take:]
		localOff += take
	}
}

// WriteAt implements io.WriterAt: it streams to all affected agents in
// parallel and, with parity enabled, maintains the computed copy. With
// write-behind on, the bytes are instead absorbed into dirty cache
// blocks and flushed in the background; the writer parks outside the
// file lock once the dirty budget is exceeded, so back-pressure never
// blocks the flusher itself.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	sp := f.c.startSpan(obs.SpanContext{}, "write")
	defer sp.Finish()
	f.mu.Lock()
	n, err := f.writeAtLocked(p, off, start, sp)
	f.mu.Unlock()
	if err == nil {
		f.waitWriteBudget()
	}
	return n, err
}

func (f *File) writeAtLocked(p []byte, off int64, start time.Time, sp *obs.Span) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, errors.New("core: negative offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	if f.cobj != nil {
		// A failed background write-back surfaces on the next write —
		// never silently swallowed.
		if err := f.cobj.TakeFlushErr(); err != nil {
			sp.SetError(err)
			return 0, err
		}
	}
	f.c.budget.deposit()
	if t := f.c.cfg.OpTimeout; t > 0 {
		f.opDeadline = start.Add(t)
		defer func() { f.opDeadline = time.Time{} }()
	}
	sp.AnnotateRange(f.name, off, off+int64(len(p)))
	if f.cobj != nil && f.c.cache.WriteBehind() {
		if err := f.absorbWrite(p, off, sp); err != nil {
			sp.SetError(err)
			return 0, err
		}
	} else if err := f.writeThrough(p, off, sp); err != nil {
		sp.SetError(err)
		return 0, err
	}
	observeSpan(f.c.tel.writeLat, start, sp)
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	return len(p), nil
}

// writeThrough writes p at off to the agents and folds it into the
// blocks the cache already holds.
func (f *File) writeThrough(p []byte, off int64, sp *obs.Span) error {
	if err := f.writeRange(p, off, true, sp); err != nil {
		if f.cobj != nil {
			// Some agents may have applied their bursts.
			f.cobj.Invalidate(off, int64(len(p)))
		}
		return err
	}
	if f.cobj != nil {
		f.cobj.Refresh(off, p)
	}
	f.c.noteWritten(f.name)
	return nil
}

// absorbWrite lands a write in dirty cache blocks (write-behind), one
// cache block at a time (absorbBlock). Before each block, and once after
// the last, the writer flushes its own file inline while the cache is
// over its dirty budget, so a write larger than the cache keeps its
// dirty bytes within a block of the budget and a saturated cache
// degrades to write-through instead of wedging. Then the flusher is
// kicked.
func (f *File) absorbWrite(p []byte, off int64, sp *obs.Span) error {
	bs := f.c.cache.BlockSize()
	for len(p) > 0 {
		n := min(int64(len(p)), bs-off%bs)
		if err := f.flushOverBudget(sp); err != nil {
			return err
		}
		if err := f.absorbBlock(p[:n], off, sp); err != nil {
			return err
		}
		// A later block's backing fetch may still fail the write; the
		// blocks absorbed so far flush regardless, so the size covers them.
		f.size = max(f.size, off+n)
		off, p = off+n, p[n:]
	}
	if err := f.flushOverBudget(sp); err != nil {
		return err
	}
	f.c.kickFlush()
	return nil
}

func (f *File) writeRangeOnce(src []byte, off int64, sp *obs.Span) (failedAgent, nerrs int, err error) {
	n := int64(len(src))
	l := f.c.layout
	if f.c.cfg.Parity {
		// The parity units live in pooled scratch until the workers
		// that send them are joined below.
		pu := parityUnits{r0: l.RowOfGlobal(off), r1: l.RowOfGlobal(off + n - 1), k: f.c.parityK(), unit: l.Unit}
		held := (pu.r1 - pu.r0 + 1) * int64(pu.k) * l.Unit
		sc := acquireScratch(held + l.RowBytes())
		defer releaseScratch(sc)
		pu.buf = sc.b[:held]
		if err = f.computeParity(src, off, pu, sc.b[held:], sp); err != nil {
			return -1, 0, err
		}
		f.parity = pu
	}
	// Planned only now: computeParity's merge read plans in f.exts too.
	exts := l.LocalExtentsInto(f.exts, off, n)
	f.exts = exts
	if f.c.cfg.Parity {
		pu := &f.parity
		for row := pu.r0; row <= pu.r1; row++ {
			for j := 0; j < pu.k; j++ {
				exts[l.ParityAgentAt(row, j)].Add(l.ParityLocal(row), l.Unit)
			}
		}
	}

	for i, s := range f.sessions {
		if s == nil && exts[i].Len() > 0 && !f.c.cfg.Parity {
			return -1, 0, ErrAgentDown
		}
	}
	clear(f.errs)
	for i, s := range f.sessions {
		if exts[i].Len() == 0 || s == nil {
			continue // a nil session is degraded: its units are covered by parity
		}
		cuts := s.cut(&exts[i])
		f.wg.Add(1)
		go func() {
			as := sp.StartChild("agent_write", i)
			werr := f.runBursts(s, writing, cuts, xfer{buf: src, base: off, pu: &f.parity}, as, false)
			as.SetError(werr)
			as.Finish()
			f.errs[i] = werr
			f.wg.Done()
		}()
	}
	f.wg.Wait()
	for i, werr := range f.errs {
		if werr != nil {
			nerrs++
			// Prefer attributing a real failure over an overload signal.
			if err == nil || (isOverloadSignal(err) && !isOverloadSignal(werr)) {
				failedAgent, err = i, werr
			}
		}
	}
	f.parity = parityUnits{}
	if err != nil {
		if isOverloadSignal(err) {
			// Backpressure, not failure: surface unattributed so the
			// caller neither fails over nor feeds the lifecycle.
			return -1, nerrs, err
		}
		return failedAgent, nerrs, err
	}
	return -1, 0, nil
}

func (f *File) writeFlags() uint16 {
	if f.c.cfg.SyncWrites {
		return wire.FSyncWrite
	}
	return 0
}

// gather fills payload with the fragment bytes [localOff, localOff+len)
// of the given agent, sourcing data units from the logical buffer src
// (first byte = logical offset base) and parity units from pu.
//
//swift:hotpath
func (f *File) gather(agent int, localOff int64, payload []byte, src []byte, base int64, pu *parityUnits) {
	l := f.c.layout
	for filled := 0; filled < len(payload); {
		o := localOff + int64(filled)
		in := o % l.Unit
		take := l.Unit - in
		if take > int64(len(payload)-filled) {
			take = int64(len(payload) - filled)
		}
		out := payload[filled : filled+int(take)]
		if g, ok := l.GlobalOf(agent, o); ok {
			copyWindow(out, src, g-base)
		} else {
			row := o / l.Unit
			copyWindow(out, pu.at(row, l.ParityPos(row, agent)), in)
		}
		filled += int(take)
	}
}

// copyWindow sets out to src[at:at+len(out)], reading zeros wherever
// that window falls outside src (at may be negative or past the end).
func copyWindow(out, src []byte, at int64) {
	n := 0
	if at < 0 {
		n = int(min(-at, int64(len(out))))
		clear(out[:n])
		at = 0
	}
	if at < int64(len(src)) {
		n += copy(out[n:], src[at:])
	}
	clear(out[n:])
}

// Sync asks every live agent to commit the file to stable storage.
func (f *File) Sync() error {
	sp := f.c.startSpan(obs.SpanContext{}, "sync")
	defer sp.Finish()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	sp.Annotate("%s", f.name)
	// Write-behind barrier: every dirty extent reaches the agents before
	// the commit requests go out, and a parked write-back error surfaces
	// here rather than being swallowed.
	if err := f.flushAllLocked(sp); err != nil {
		sp.SetError(err)
		return err
	}
	for _, s := range f.sessions {
		if s == nil {
			continue
		}
		as := sp.StartChild("agent_sync", s.idx)
		err := f.sessionRPC(s, wire.TSync, wire.TSyncReply, 0, as)
		as.SetError(err)
		as.Finish()
		if err != nil {
			sp.SetError(err)
			return err
		}
	}
	return nil
}

// sessionRPC sends the header-only request typ (with offset) to the agent
// of session s and waits for its reply, which must be of type want.
func (f *File) sessionRPC(s *agentSession, typ, want wire.Type, offset int64, sp *obs.Span) error {
	reply, err := f.c.rpc(s.conn, s.dataAddr, &wire.Packet{
		Header: wire.Header{Type: typ, Handle: s.handle, Offset: offset},
		Trace:  sp.Context(),
	})
	if err != nil {
		return fmt.Errorf("core: %v agent %d: %w", typ, s.idx, err)
	}
	if reply.Type != want {
		return fmt.Errorf("core: unexpected %v to %v", reply.Type, typ)
	}
	return nil
}

// Truncate sets the logical size, truncating every fragment accordingly.
func (f *File) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if size < 0 {
		return errors.New("core: negative size")
	}
	// Flush dirty extents first: a dirty block below the new size must
	// survive the truncation, and flushing the lot is simpler than
	// splitting blocks at the cut.
	if err := f.flushAllLocked(nil); err != nil {
		return err
	}
	frags := f.c.layout.FragmentSizes(size)
	for _, s := range f.sessions {
		if s == nil {
			continue
		}
		if err := f.sessionRPC(s, wire.TTrunc, wire.TTruncReply, frags[s.idx], nil); err != nil {
			return err
		}
	}
	if f.cobj != nil {
		f.cobj.Invalidate(0, 1<<62)
	}
	f.size = size
	if f.pos > size {
		f.pos = size
	}
	return nil
}

// Close releases the file handle on every agent ("the client expires the
// file handle and the storage agents release the ports and extinguish the
// threads").
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	// Write-behind data leaves before the handles do; a parked flush
	// error surfaces here rather than dying with the file.
	firstErr := f.flushAllLocked(nil)
	f.closed = true
	f.c.dropFile(f)
	for _, s := range f.sessions {
		if s == nil {
			continue
		}
		// Best-effort with a small budget: a dead agent reaps the
		// session on its idle timer anyway, and a full retry budget per
		// dead agent would stall the caller for seconds.
		_, err := f.c.rpcAttempts(s.conn, s.dataAddr, &wire.Packet{
			Header: wire.Header{Type: wire.TClose, Handle: s.handle},
		}, f.c.nextReq(), 2)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: close agent %d: %w", s.idx, err)
		}
		s.close()
	}
	if f.cobj != nil {
		f.cobj.Close()
		f.cobj = nil
	}
	return firstErr
}

// failAgent tears down the session of a failed agent and feeds the
// attributable error into the failure-domain lifecycle (healthy → suspect
// → down; see health.go). The health monitor re-opens the session when the
// agent answers probes again.
func (f *File) failAgent(i int, err error) {
	if i < 0 || i >= len(f.sessions) {
		return
	}
	if s := f.sessions[i]; s != nil {
		s.close()
		f.sessions[i] = nil
	}
	f.c.noteFailure(i, err)
}

// readmit re-opens this file's session on a recovered agent and, when
// rebuild is set and parity is enabled, reconstructs the agent's fragment
// from the survivors before the session becomes visible — units written
// degraded while the agent was out would otherwise be served stale. File
// operations serialize under f.mu, so no read can observe the fresh
// session before the rebuild completes.
func (f *File) readmit(idx int, rebuild bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	if idx < 0 || idx >= len(f.sessions) {
		return nil
	}
	if old := f.sessions[idx]; old != nil {
		// The agent may have died and restarted between probe rounds
		// without this file ever touching it, leaving a session whose
		// handle died with the old process. Handles are only valid for
		// the process that issued them, so always negotiate afresh.
		old.close()
		f.sessions[idx] = nil
	}
	s, err := f.c.openSession(idx, f.c.cfg.Agents[idx], f.name, OpenFlags{Create: true}, obs.SpanContext{})
	if err != nil {
		return err
	}
	f.sessions[idx] = s
	if rebuild && f.c.cfg.Parity {
		if err := f.rebuildLocked(idx); err != nil {
			f.sessions[idx] = nil
			s.close()
			return err
		}
	}
	// Cached blocks stay valid across readmission: recovery and rebuild
	// restore the agent's fragment to the same logical bytes the cache
	// already holds, and dropping the image here would discard absorbed
	// write-behind data.
	return nil
}

func (f *File) liveCount() int {
	n := 0
	for _, s := range f.sessions {
		if s != nil {
			n++
		}
	}
	return n
}

// quorumLost reports whether more agents are out than the redundancy
// scheme tolerates: fewer than Agents-k live sessions means some rows
// have more than k units unavailable, and no codec can cover that.
func (f *File) quorumLost() bool {
	return f.c.cfg.Parity && f.liveCount() < len(f.sessions)-f.c.parityK()
}
