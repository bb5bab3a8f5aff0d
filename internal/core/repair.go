package core

import (
	"fmt"

	"swift/internal/integrity"
	"swift/internal/obs"
	"swift/internal/wire"
)

// This file implements read-repair: when a storage agent reports at-rest
// corruption (an integrity.CorruptError surfaced through the wire as a
// TError), the client reconstructs the damaged stripe units from the
// surviving agents' units and parity, writes the recovered bytes back to
// the corrupt agent, and retries the original operation against clean
// data. Corruption is deliberately NOT fed into the failure-domain
// lifecycle: the agent is alive and answering — only its media is bad —
// so demoting it would trade a repairable fragment for a degraded stripe.

// noteCorrupt records a corruption report attributed to agent i.
func (f *File) noteCorrupt(i int, err error) {
	f.c.metrics.Corruptions.Add(1)
	if i >= 0 {
		f.c.tel.agent(i).corruptions.Inc()
	}
	f.c.traceEvent("corrupt", i, "%s: %v", f.name, err)
	f.c.cfg.Logf("core: corruption reported by agent %d: %s: %v", i, f.name, err)
}

// noteUnrepairable records a corruption event that parity could not mask.
func (f *File) noteUnrepairable(i int, err error) {
	f.c.metrics.Unrepairable.Add(1)
	f.c.traceEvent("unrepairable", i, "%s: %v", f.name, err)
	f.c.cfg.Logf("core: unrepairable corruption on agent %d: %s: %v", i, f.name, err)
}

// repairCorrupt rewrites the stripe rows of agent i's fragment implicated
// by the corruption error cerr, reconstructing each row's unit through
// the erasure codec from the surviving agents' units (data and parity
// alike). The logical operation range [off, off+n) bounds the rows
// repaired when the error does not carry a parseable corrupt range. f.mu
// must be held.
//
// Reconstruction is sound as long as the corrupt unit plus the dead
// agents stay within the codec's correction power: with k parity units,
// up to k-1 agents may be out while agent i's media is repaired. Callers
// fall back to degraded-mode failover when repair is refused.
func (f *File) repairCorrupt(i int, cerr error, off, n int64, sp *obs.Span) error {
	if !f.c.cfg.Parity {
		return fmt.Errorf("core: repair agent %d: parity disabled", i)
	}
	if i < 0 || i >= len(f.sessions) || f.sessions[i] == nil {
		return fmt.Errorf("core: repair: no session to agent %d", i)
	}
	out := 1 // agent i's corrupt unit is excluded from reconstruction
	for j, s := range f.sessions {
		if j != i && s == nil {
			out++
		}
	}
	if k := f.c.parityK(); out > k {
		return fmt.Errorf("core: repair agent %d: %d units unavailable, scheme tolerates %d", i, out, k)
	}
	r0, r1 := f.corruptRows(cerr, off, n)
	if r1 < r0 {
		return fmt.Errorf("core: repair agent %d: no rows implicated", i)
	}
	for r := r0; r <= r1; r++ {
		unit, err := f.reconstructUnit(i, r)
		if err != nil {
			return fmt.Errorf("core: repair agent %d row %d: reconstruct: %w", i, r, err)
		}
		if err := f.writeRowUnit(i, r, unit, sp); err != nil {
			return fmt.Errorf("core: repair agent %d row %d: %w", i, r, err)
		}
		f.c.metrics.Repairs.Add(1)
		f.c.tel.agent(i).repairs.Inc()
		f.c.traceEvent("repair", i, "%s row %d rewritten from parity", f.name, r)
		sp.Annotate("row %d rewritten from parity", r)
		f.c.cfg.Logf("core: repaired %s row %d on agent %d from parity", f.name, r, i)
	}
	return nil
}

// corruptRows maps a corruption error to the inclusive stripe-row range to
// repair. Preferred source is the error's own corrupt range — the agent
// reports fragment-local byte offsets, and a fragment's row index equals
// the stripe row index (every agent holds exactly one unit per row, at
// local offset row*Unit). When the error does not parse, fall back to the
// rows touched by the logical operation range [off, off+n).
func (f *File) corruptRows(cerr error, off, n int64) (r0, r1 int64) {
	l := f.c.layout
	if ce, ok := integrity.ParseCorrupt(cerr.Error()); ok && ce.Length > 0 {
		return ce.Offset / l.Unit, (ce.Offset + ce.Length - 1) / l.Unit
	}
	if n <= 0 {
		n = 1
	}
	return l.RowOfGlobal(off), l.RowOfGlobal(off + n - 1)
}

// writeRowUnit overwrites agent i's unit of stripe row r with unit
// (l.Unit bytes), then trims the fragment back to its expected size when
// the full-unit write extended it past the logical tail. The write covers
// whole integrity blocks (Unit is a multiple of the envelope block size),
// so it lands even when the old block contents are corrupt.
func (f *File) writeRowUnit(i int, r int64, unit []byte, sp *obs.Span) error {
	s := f.sessions[i]
	if s == nil {
		return fmt.Errorf("core: no session to agent %d", i)
	}
	l := f.c.layout
	lo := r * l.Unit
	if err := f.flatBurst(s, writing, lo, unit, sp); err != nil {
		return err
	}
	want := l.FragmentSizes(f.size)[i]
	if lo+l.Unit <= want {
		return nil
	}
	if err := f.sessionRPC(s, wire.TTrunc, wire.TTruncReply, want, sp); err != nil {
		return fmt.Errorf("repair trim: %w", err)
	}
	return nil
}

// repairBudget bounds the read-repair retry loop for one operation: each
// repaired attempt fixes at least one reported corrupt range, so at most
// every unit the operation touches (plus slack for the parity units of
// those rows) can need one pass. The bound exists to guarantee progress
// if an agent keeps re-reporting corruption on freshly repaired blocks.
func (f *File) repairBudget(off, n int64) int {
	if n <= 0 {
		n = 1
	}
	l := f.c.layout
	rows := l.RowOfGlobal(off+n-1) - l.RowOfGlobal(off) + 1
	return int(rows)*len(f.sessions) + 4
}
