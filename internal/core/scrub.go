package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"swift/internal/integrity"
	"swift/internal/obs"
)

// This file implements the background scrubber: a maintenance pass that
// walks a striped object row by row, reads every agent's unit, verifies
// that nothing reports at-rest corruption and that the row's parity
// units match the erasure codec's encoding of its data units, and —
// when repair is enabled — heals what it finds: up to k corrupt units
// per row are reconstructed through the codec from the surviving units;
// a parity mismatch with trusted data is fixed by re-encoding the stale
// parity units. The health monitor drives it periodically
// (MonitorConfig.ScrubInterval); swiftctl scrub drives it on demand.

// ScrubOptions tune one scrub pass.
type ScrubOptions struct {
	// Repair rewrites what the scrub can heal: corrupt units
	// (reconstructed through the erasure codec from their peers) and
	// stale parity units (re-encoded from the data units). Requires
	// parity; without it the scrub only detects.
	Repair bool
	// RowPause inserts a delay between rows so a background scrub yields
	// the medium to foreground transfers. Zero scrubs flat out.
	RowPause time.Duration
}

// ScrubReport totals one scrub pass.
type ScrubReport struct {
	Scheme           string // redundancy scheme, e.g. "7+1" or "6+2" ("none" without parity)
	Objects          int64  // objects visited
	Rows             int64  // stripe rows verified
	Bytes            int64  // unit bytes read and checked
	Corruptions      int64  // units whose agent reported at-rest corruption
	ParityMismatches int64  // rows whose parity units disagreed with the data units
	Repaired         int64  // units rewritten (corrupt units and parity units)
	Unrepairable     int64  // corrupt units the codec could not reconstruct
	Skipped          int64  // rows skipped (agent out, lifecycle unsettled, read error)
}

func (r *ScrubReport) add(o ScrubReport) {
	if r.Scheme == "" {
		r.Scheme = o.Scheme
	}
	r.Objects += o.Objects
	r.Rows += o.Rows
	r.Bytes += o.Bytes
	r.Corruptions += o.Corruptions
	r.ParityMismatches += o.ParityMismatches
	r.Repaired += o.Repaired
	r.Unrepairable += o.Unrepairable
	r.Skipped += o.Skipped
}

// Clean reports whether the pass found nothing wrong and skipped nothing.
func (r ScrubReport) Clean() bool {
	return r.Corruptions == 0 && r.ParityMismatches == 0 &&
		r.Unrepairable == 0 && r.Skipped == 0
}

// String renders the report for logs and swiftctl.
func (r ScrubReport) String() string {
	prefix := ""
	if r.Scheme != "" {
		prefix = fmt.Sprintf("scheme=%s ", r.Scheme)
	}
	return prefix + fmt.Sprintf(
		"objects=%d rows=%d bytes=%d corrupt=%d parity_mismatch=%d repaired=%d unrepairable=%d skipped=%d",
		r.Objects, r.Rows, r.Bytes, r.Corruptions, r.ParityMismatches,
		r.Repaired, r.Unrepairable, r.Skipped)
}

// Scrub verifies this file row by row. The file lock is taken per row, so
// foreground reads and writes interleave with a running scrub; the row
// count is re-derived from the live size each step, and the pass ends
// early if the file shrinks or closes underneath it.
func (f *File) Scrub(opts ScrubOptions) (ScrubReport, error) {
	sp := f.c.startSpan(obs.SpanContext{}, "scrub")
	defer sp.Finish()
	sp.Annotate("%s", f.name)
	rep := ScrubReport{Scheme: f.c.Scheme()}
	for r := int64(0); ; r++ {
		done, err := f.scrubRow(r, opts, &rep, sp)
		if err != nil {
			sp.SetError(err)
			return rep, err
		}
		if done {
			return rep, nil
		}
		if opts.RowPause > 0 {
			f.c.cfg.Sleep(opts.RowPause)
		}
	}
}

// scrubRow verifies (and optionally repairs) stripe row r under f.mu. It
// reports done when the row is past the object tail or the file closed.
// Rows the scrub cannot judge — an agent out, a lifecycle mid-transition,
// a transient read failure — are skipped, not failed: the next pass sees
// them again.
func (f *File) scrubRow(r int64, opts ScrubOptions, rep *ScrubReport, sp *obs.Span) (done bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.size == 0 {
		return true, nil
	}
	l := f.c.layout
	if r > l.RowOfGlobal(f.size-1) {
		return true, nil
	}
	// Judging a row needs every unit: any missing agent makes both the
	// corruption verdict and the XOR check meaningless. An unsettled
	// lifecycle (suspect/down) also defers to the monitor's rebuild.
	for i, s := range f.sessions {
		if s == nil || f.c.agentState(i) != StateHealthy {
			rep.Skipped++
			return false, nil
		}
	}

	// The one read that goes straight to every agent rather than around
	// any: the scrub wants each agent's own verdict on its unit. The
	// units land in code order, with k spare units behind them for a
	// re-encoded parity.
	m, k := l.DataPerRow(), f.c.parityK()
	sc := acquireScratch(int64(len(f.sessions)+k) * l.Unit)
	defer releaseScratch(sc)
	unitAt := func(pos int) []byte { return sc.b[int64(pos)*l.Unit : int64(pos+1)*l.Unit] }
	errs := make([]error, len(f.sessions))
	var wg sync.WaitGroup
	for i, s := range f.sessions {
		wg.Add(1)
		go func(i int, s *agentSession, unit []byte) {
			defer wg.Done()
			errs[i] = f.flatBurst(s, reading, r*l.Unit, unit, nil)
		}(i, s, unitAt(f.shardOfAgent(r, i)))
	}
	wg.Wait()

	var corrupt, failed []int
	for i, e := range errs {
		if e == nil {
			continue
		}
		if integrity.IsCorrupt(e) {
			corrupt = append(corrupt, i)
			rep.Corruptions++
			f.c.tel.Note(evCorrupt, i, sp, "%s: %v", f.name, e)
			continue
		}
		failed = append(failed, i)
	}
	if len(failed) > 0 {
		// The row was not judged; revisit on the next pass. When
		// exactly one agent failed, the error is attributable — feed
		// the lifecycle so the monitor probes it and renegotiates the
		// session (an agent that restarts between probe rounds leaves
		// behind sessions with dead handles, and without foreground
		// traffic nothing else would ever notice). A multi-agent
		// failure looks like a network event: leave the verdict to the
		// health probes.
		if len(failed) == 1 && !isOverloadSignal(errs[failed[0]]) {
			f.failAgent(failed[0], errs[failed[0]])
		}
		rep.Skipped++
		return false, nil
	}
	rep.Rows++
	rep.Bytes += l.Unit * int64(len(f.sessions))
	f.c.tel.Count(evScrubRow, -1)

	if !f.c.cfg.Parity || len(corrupt) > k {
		// No parity, or more corrupt units in one row than the scheme has
		// parity units: the codec cannot reconstruct them.
		rep.Unrepairable += int64(len(corrupt))
		for _, i := range corrupt {
			f.c.tel.Note(evUnrepairable, i, sp, "%s: %v", f.name, errs[i])
		}
		return false, nil
	}
	// What is wrong with the row becomes one heal job over the units in
	// hand: in, the units to trust; out, where to rebuild the others.
	heal := f.newJob(r, 0, l.Unit)
	for pos := range heal.in {
		heal.in[pos] = unitAt(pos)
	}
	var held [][]byte
	what := "rewritten from parity"
	if len(corrupt) > 0 {
		// Up to k corrupt units: the codec rebuilds them, over the rotten
		// bytes, from the rest of the row.
		for _, i := range corrupt {
			pos := f.shardOfAgent(r, i)
			heal.in[pos], heal.out[pos] = nil, heal.in[pos]
		}
	} else {
		// All units read back clean: audit the row through the codec.
		ok, verr := f.c.codec.Verify(heal.in)
		if verr != nil {
			return false, fmt.Errorf("core: scrub: verify row %d: %w", r, verr)
		}
		if ok {
			return false, nil
		}
		rep.ParityMismatches++
		f.c.tel.Note(evScrubMismatch, -1, sp, "%s row %d parity disagrees with data", f.name, r)
		// The data units are clean, so the parity units are the liars (a
		// crash between data and parity writes leaves exactly this).
		// Re-encode them from the data; held lets the heal rewrite only
		// those that actually disagree.
		held, what = slices.Clone(heal.in), "parity recomputed"
		for j := m; j < m+k; j++ {
			heal.in[j], heal.out[j] = nil, unitAt(len(f.sessions)+j-m)
		}
	}
	if !opts.Repair {
		return false, nil
	}
	rs := sp.StartChild("scrub_repair", -1)
	rs.MarkRetry()
	healed, err := f.healRow(heal, held, what, rs)
	rs.SetError(err)
	rs.Finish()
	rep.Repaired += healed
	if err != nil {
		return false, fmt.Errorf("core: scrub: %w", err)
	}
	return false, nil
}

// agentState returns agent i's lifecycle state.
func (c *Client) agentState(i int) AgentState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.health) {
		return StateDown
	}
	return c.health[i].state
}

// ScrubOnce scrubs every open file once, repairing (when parity is
// enabled) what it finds. The health monitor calls it on the
// ScrubInterval tick; it is also safe to call directly.
func (c *Client) ScrubOnce() ScrubReport {
	var rep ScrubReport
	for _, f := range c.openFiles() {
		r, err := f.Scrub(ScrubOptions{Repair: c.cfg.Parity})
		rep.add(r)
		rep.Objects++
		if err != nil {
			c.tel.Note(evScrubFail, -1, nil, "%s: %v", f.Name(), err)
		}
	}
	return rep
}

// ScrubObject opens the named object, scrubs it, and closes it again —
// the on-demand maintenance entry point (swiftctl scrub NAME).
func (c *Client) ScrubObject(name string, opts ScrubOptions) (ScrubReport, error) {
	f, err := c.Open(name, OpenFlags{})
	if err != nil {
		return ScrubReport{}, err
	}
	defer f.Close()
	rep, err := f.Scrub(opts)
	rep.Objects = 1
	return rep, err
}

// ScrubAll lists every object on the agent set and scrubs each in turn.
func (c *Client) ScrubAll(opts ScrubOptions) (ScrubReport, error) {
	names, err := c.List()
	if err != nil {
		return ScrubReport{}, err
	}
	var rep ScrubReport
	for _, name := range names {
		r, rerr := c.ScrubObject(name, opts)
		rep.add(r)
		if rerr != nil && err == nil {
			err = fmt.Errorf("core: scrub %s: %w", name, rerr)
		}
	}
	return rep, err
}
