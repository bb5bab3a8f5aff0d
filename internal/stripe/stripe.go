// Package stripe implements Swift's striping layout: the mapping between a
// logical object's byte space and the per-agent fragment byte spaces.
//
// An object is divided into fixed-size striping units ("the amount of data
// allocated to each storage agent per stripe"). Units are assigned to the
// storage agents round-robin, and each agent packs its units densely into a
// local fragment, so consecutive units on one agent occupy consecutive
// fragment bytes. The storage mediator chooses the unit size from the
// client's data-rate requirement: large units for low rates (few agents
// touched), small units for high rates (maximum parallelism).
//
// With parity enabled, each stripe row holds Agents-k data units plus k
// computed-copy parity units (XOR for k=1, Reed–Solomon for k>=2). The
// parity units rotate across agents, left-symmetric, so no single agent
// becomes a parity bottleneck and the system tolerates up to k failed
// agents per row. The legacy single-parity layout is exactly the k=1
// case: agent assignments and fragment offsets are unchanged.
package stripe

import (
	"fmt"

	"swift/internal/extent"
)

// Layout describes how an object is striped over a set of storage agents.
type Layout struct {
	// Unit is the striping unit in bytes (> 0).
	Unit int64
	// Agents is the number of storage agents (>= 1; >= ParityPerRow()+2
	// with parity).
	Agents int
	// Parity enables computed-copy redundancy: rotating parity units in
	// every stripe row. With ParityUnits zero this is the legacy single
	// XOR unit per row.
	Parity bool
	// ParityUnits is the number of parity units per row (k). Zero means
	// 1 when Parity is set. Values >= 2 select Reed–Solomon coding and
	// tolerate up to k failed agents per row.
	ParityUnits int
}

// ParityPerRow returns the effective number of parity units per stripe
// row: 0 without parity, max(1, ParityUnits) with it.
func (l Layout) ParityPerRow() int {
	if !l.Parity && l.ParityUnits == 0 {
		return 0
	}
	if l.ParityUnits > 0 {
		return l.ParityUnits
	}
	return 1
}

// Validate reports whether the layout parameters are usable.
func (l Layout) Validate() error {
	if l.Unit <= 0 {
		return fmt.Errorf("stripe: unit must be positive, got %d", l.Unit)
	}
	if l.Agents < 1 {
		return fmt.Errorf("stripe: need at least one agent, got %d", l.Agents)
	}
	if l.ParityUnits < 0 {
		return fmt.Errorf("stripe: parity units must be non-negative, got %d", l.ParityUnits)
	}
	if k := l.ParityPerRow(); k > 0 && l.Agents < k+2 {
		if k == 1 {
			return fmt.Errorf("stripe: parity requires at least 3 agents, got %d", l.Agents)
		}
		return fmt.Errorf("stripe: %d parity units require at least %d agents (2+ data units), got %d",
			k, k+2, l.Agents)
	}
	return nil
}

// DataPerRow returns the number of data units per stripe row.
func (l Layout) DataPerRow() int { return l.Agents - l.ParityPerRow() }

// RowBytes returns the number of logical (data) bytes per stripe row.
func (l Layout) RowBytes() int64 { return l.Unit * int64(l.DataPerRow()) }

// parityBase returns the agent holding the row's first parity unit. The
// base rotates left by k agents per row so every parity unit moves and
// no agent becomes a parity bottleneck; at k=1 this is exactly the
// legacy left-symmetric rotation Agents-1 - row%Agents.
func (l Layout) parityBase(row int64) int {
	k := int64(l.ParityPerRow())
	a := int64(l.Agents)
	return int((int64(l.Agents-1) - (row*k)%a + a) % a)
}

// ParityAgent returns the agent holding the first parity unit of the
// given row. It is only meaningful when parity is enabled.
func (l Layout) ParityAgent(row int64) int { return l.parityBase(row) }

// ParityAgentAt returns the agent holding the j-th parity unit (0-based,
// j < ParityPerRow) of the given row.
func (l Layout) ParityAgentAt(row int64, j int) int {
	return (l.parityBase(row) + j) % l.Agents
}

// DataAgent returns the agent holding the j-th data unit (0-based) of the
// given row.
func (l Layout) DataAgent(row int64, j int) int {
	k := l.ParityPerRow()
	if k == 0 {
		return j
	}
	return (l.parityBase(row) + k + j) % l.Agents
}

// dataPos returns the position j such that DataAgent(row, j) == agent, or
// -1 if the agent holds parity in that row.
func (l Layout) dataPos(row int64, agent int) int {
	k := l.ParityPerRow()
	if k == 0 {
		return agent
	}
	d := agent - l.parityBase(row)
	if d < 0 {
		d += l.Agents
	}
	if d < k {
		return -1
	}
	return d - k
}

// DataPos returns the data position j such that DataAgent(row, j) ==
// agent, or -1 if the agent holds parity in that row.
func (l Layout) DataPos(row int64, agent int) int { return l.dataPos(row, agent) }

// ParityPos returns the parity position j such that
// ParityAgentAt(row, j) == agent, or -1 if the agent holds data in that
// row (or parity is disabled).
func (l Layout) ParityPos(row int64, agent int) int {
	k := l.ParityPerRow()
	if k == 0 {
		return -1
	}
	d := agent - l.parityBase(row)
	if d < 0 {
		d += l.Agents
	}
	if d < k {
		return d
	}
	return -1
}

// Locate maps a logical byte offset to (agent, fragment offset).
func (l Layout) Locate(g int64) (agent int, local int64) {
	u := g / l.Unit  // logical data unit index
	in := g % l.Unit // offset within the unit
	d := int64(l.DataPerRow())
	row := u / d
	j := int(u % d)
	return l.DataAgent(row, j), row*l.Unit + in
}

// GlobalOf maps (agent, fragment offset) back to the logical byte offset.
// isData is false when the fragment byte belongs to a parity unit, in which
// case g is undefined.
func (l Layout) GlobalOf(agent int, local int64) (g int64, isData bool) {
	row := local / l.Unit
	in := local % l.Unit
	j := l.dataPos(row, agent)
	if j < 0 {
		return 0, false
	}
	u := row*int64(l.DataPerRow()) + int64(j)
	return u*l.Unit + in, true
}

// ParityLocal returns the fragment offset of the parity unit of the given
// row on its parity agent.
func (l Layout) ParityLocal(row int64) int64 { return row * l.Unit }

// RowOfGlobal returns the stripe row containing logical offset g.
func (l Layout) RowOfGlobal(g int64) int64 { return g / l.RowBytes() }

// RowGlobalSpan returns the logical byte range [off, off+n) covered by the
// data units of the given row.
func (l Layout) RowGlobalSpan(row int64) (off, n int64) {
	return row * l.RowBytes(), l.RowBytes()
}

// Run is a contiguous piece of a logical request mapped onto one agent's
// fragment space.
type Run struct {
	Agent  int
	Local  int64 // fragment offset
	Global int64 // logical offset of the first byte
	Length int64
}

// Runs decomposes the logical range [off, off+n) into per-unit runs in
// ascending logical order. Each run lies within a single striping unit.
// It is AppendRuns with fresh storage; hot callers pass a reusable
// scratch slice to AppendRuns instead.
func (l Layout) Runs(off, n int64) []Run {
	return l.AppendRuns(nil, off, n)
}

// AppendRuns appends the decomposition of [off, off+n) to dst and
// returns the extended slice, so per-op planning on the data path can
// reuse one scratch slice instead of allocating per call.
//
//swift:hotpath
func (l Layout) AppendRuns(out []Run, off, n int64) []Run {
	end := off + n
	for g := off; g < end; {
		agent, local := l.Locate(g)
		in := g % l.Unit
		take := l.Unit - in
		if g+take > end {
			take = end - g
		}
		out = append(out, Run{Agent: agent, Local: local, Global: g, Length: take})
		g += take
	}
	return out
}

// LocalExtents maps the logical range [off, off+n) to per-agent fragment
// extent sets, with adjacent fragment ranges merged. The result is indexed
// by agent. It is LocalExtentsInto with fresh storage.
func (l Layout) LocalExtents(off, n int64) []extent.Set {
	return l.LocalExtentsInto(nil, off, n)
}

// LocalExtentsInto is LocalExtents planned into sets, whose extents it
// replaces and whose storage it reuses, so a caller that keeps one
// scratch per handle plans an operation without allocating.
func (l Layout) LocalExtentsInto(sets []extent.Set, off, n int64) []extent.Set {
	if cap(sets) < l.Agents {
		sets = make([]extent.Set, l.Agents)
	}
	sets = sets[:l.Agents]
	for i := range sets {
		sets[i].Reset()
	}
	for g, end := off, off+n; g < end; {
		agent, local := l.Locate(g)
		take := min(l.Unit-g%l.Unit, end-g)
		sets[agent].Add(local, take)
		g += take
	}
	return sets
}

// SizeFromFragments reconstructs the logical object size from the per-agent
// fragment sizes. Fragment bytes belonging to parity units are ignored.
//
// In degraded mode (a fragment size unknown), pass -1 for that agent; the
// reconstruction then reflects only the surviving fragments and may
// understate the size if the failed agent held the final data unit.
func (l Layout) SizeFromFragments(frag []int64) int64 {
	var size int64
	for a := 0; a < l.Agents && a < len(frag); a++ {
		fa := frag[a]
		if fa <= 0 {
			continue
		}
		// Walk back at most Agents+1 rows to find this agent's last
		// data byte. The rotation gives every agent (Agents-k)/gcd(k,
		// Agents) >= 1 data rows per period of Agents/gcd(k, Agents)
		// <= Agents rows, so an agent never holds parity for more than
		// Agents consecutive rows.
		lastRow := (fa - 1) / l.Unit
		for row := lastRow; row >= 0 && row > lastRow-int64(l.Agents)-1; row-- {
			if l.dataPos(row, a) < 0 {
				continue
			}
			localEnd := (row + 1) * l.Unit
			if fa < localEnd {
				localEnd = fa
			}
			if localEnd <= row*l.Unit {
				continue
			}
			g, ok := l.GlobalOf(a, localEnd-1)
			if ok && g+1 > size {
				size = g + 1
			}
			break
		}
	}
	return size
}

// FragmentSizes returns the expected fragment size for each agent of an
// object whose logical size is size, assuming a densely written prefix.
// Parity units are counted as full units (the engine always writes whole
// parity units).
func (l Layout) FragmentSizes(size int64) []int64 {
	frag := make([]int64, l.Agents)
	if size <= 0 {
		return frag
	}
	// Data bytes.
	for g := int64(0); g < size; {
		agent, local := l.Locate(g)
		take := l.Unit - g%l.Unit
		if g+take > size {
			take = size - g
		}
		if end := local + take; end > frag[agent] {
			frag[agent] = end
		}
		g += take
	}
	if k := l.ParityPerRow(); k > 0 {
		lastRow := l.RowOfGlobal(size - 1)
		for row := int64(0); row <= lastRow; row++ {
			for j := 0; j < k; j++ {
				a := l.ParityAgentAt(row, j)
				if end := (row + 1) * l.Unit; end > frag[a] {
					frag[a] = end
				}
			}
		}
	}
	return frag
}
