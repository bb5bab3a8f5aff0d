package core

import (
	"fmt"

	"swift/internal/integrity"
	"swift/internal/obs"
	"swift/internal/wire"
)

// This file implements read-repair: when a storage agent reports at-rest
// corruption (an integrity.CorruptError surfaced through the wire as a
// TError), the client heals the damaged stripe units (healUnits, in
// parity.go) from the other agents' units, data and parity alike, and
// retries the original operation against clean data. Corruption is
// deliberately NOT fed into the failure-domain lifecycle: the agent is
// alive and answering — only its media is bad — so demoting it would
// trade a repairable fragment for a degraded stripe.

// corruptRows maps a corruption error to the stripe rows [r0, r1) to
// repair. Preferred source is the error's own corrupt range — the agent
// reports fragment-local byte offsets, and a fragment's row index equals
// the stripe row index (every agent holds exactly one unit per row, at
// local offset row*Unit). When the error does not parse, fall back to the
// rows touched by the logical operation range [off, off+n).
func (f *File) corruptRows(cerr error, off, n int64) (r0, r1 int64) {
	l := f.c.layout
	if ce, ok := integrity.ParseCorrupt(cerr.Error()); ok && ce.Length > 0 {
		return ce.Offset / l.Unit, (ce.Offset+ce.Length-1)/l.Unit + 1
	}
	return l.RowOfGlobal(off), l.RowOfGlobal(off+max(n, 1)-1) + 1
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
	if (r+1)*l.RowBytes() <= f.size {
		return nil // a row the object covers whole holds whole units
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
