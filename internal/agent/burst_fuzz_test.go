package agent

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"swift/internal/wire"
)

// FuzzWriteBurstSequence checks a session's write-burst state machine
// against an explicit model of a correct history. The input is a program
// of two-byte instructions over four burst slots: announce a slot's
// burst, deliver one of its data chunks, repeat the previous datagram,
// or advance the clock (always followed by a read-deadline tick, like
// the serve loop). A slot moves on to a new burst — new range, new
// content, and a ReqID last used two bursts ago — once its burst has
// been done for longer than DoneTTL, so stragglers, reused ReqIDs,
// duplicates, overtaking data and orphans all arise.
//
// After every instruction:
//   - an acknowledgement is sent only for a burst that was announced and
//     whose every chunk was delivered at some point, and is sent as soon
//     as every chunk has been delivered after the announcement;
//   - announcing a burst completed within DoneTTL is answered with an
//     acknowledgement;
//   - the session remembers exactly its open bursts plus the bursts the
//     model completed within DoneTTL, and at most one open burst per slot;
//   - the store holds exactly what the acknowledged bursts carried, in
//     acknowledgement order.
func FuzzWriteBurstSequence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 1, 1, 2})                           // announce, then data in order
	f.Add([]byte{1, 2, 1, 1, 1, 0, 0, 0})                           // data overtakes the announcement
	f.Add([]byte{0, 0, 1, 0, 2, 0, 2, 0, 0, 0})                     // duplicates
	f.Add([]byte{0, 1, 1, 1, 3, 30, 1, 5, 3, 30, 1, 9})             // stall, prompt, completion
	f.Add([]byte{0, 0, 1, 0, 1, 4, 1, 8, 0, 0, 3, 255, 0, 0})       // re-ack, reap, fresh burst on the same slot
	f.Add([]byte{1, 3, 3, 255, 3, 255, 1, 3, 0, 3})                 // orphan expiry, then the slot is used again
	f.Add([]byte{0, 2, 1, 2, 0, 3, 1, 3, 1, 6, 1, 7, 1, 10, 1, 11}) // two slots interleaved over shared offsets
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 512 {
			program = program[:512]
		}
		m := newBurstModel(t)
		for i := 0; i+1 < len(program); i += 2 {
			m.exec(program[i], program[i+1])
		}
	})
}

const (
	fuzzSlots = 4
	fuzzChunk = 256
)

// fuzzTimes keeps DoneTTL within reach of a single clock instruction
// (up to 255 × 5 ms).
var fuzzTimes = Config{
	ResendCheck: 10 * time.Millisecond,
	ResendAfter: 40 * time.Millisecond,
	DoneTTL:     400 * time.Millisecond,
}

// slotModel is what a correct agent must know about one slot's current
// burst.
type slotModel struct {
	gen       int
	announced bool
	everSeen  []bool // chunk delivered at some point during this burst
	afterAnn  []bool // chunk delivered since the announcement
	done      bool
	doneAt    time.Time
}

type burstModel struct {
	t     *testing.T
	r     *burstRig
	slots [fuzzSlots]slotModel
	image []byte // what the store must hold
	// doneTimes holds when each burst the model saw complete did so, for
	// the DoneTTL bound on what the session may still remember.
	doneTimes []time.Time
	last      func() // the previous datagram, for the repeat instruction
}

func newBurstModel(t *testing.T) *burstModel {
	m := &burstModel{t: t, r: newBurstRig(t, fuzzTimes)}
	for k := range m.slots {
		m.slots[k] = m.freshSlot(k, 0)
	}
	return m
}

// A slot's burst is a pure function of slot and generation.
func burstReqID(k, gen int) uint32 { return uint32(100 + k + fuzzSlots*(gen&1)) }
func burstChunks(k, gen int) int   { return 1 + (k+gen)%3 }
func burstOff(k, gen int) int64    { return int64((2*k+gen)%6) * fuzzChunk }
func burstByte(k, gen int, x int64) byte {
	return byte(x*7 + int64(k)*31 + int64(gen)*101 + 1)
}

func (m *burstModel) freshSlot(k, gen int) slotModel {
	n := burstChunks(k, gen)
	return slotModel{gen: gen, everSeen: make([]bool, n), afterAnn: make([]bool, n)}
}

func chunkPayload(k, gen, chunk int) (int64, []byte) {
	off := burstOff(k, gen) + int64(chunk)*fuzzChunk
	b := make([]byte, fuzzChunk)
	for i := range b {
		b[i] = burstByte(k, gen, off+int64(i))
	}
	return off, b
}

func (m *burstModel) exec(op, arg byte) {
	switch op % 4 {
	case 0:
		k := int(arg) % fuzzSlots
		m.last = func() { m.announce(k) }
		m.last()
	case 1:
		k := int(arg) % fuzzSlots
		chunk := int(arg) / fuzzSlots
		m.last = func() { m.data(k, chunk) }
		m.last()
	case 2:
		if m.last != nil {
			m.last()
		}
	case 3:
		sent := m.r.advance(time.Duration(arg) * 5 * time.Millisecond)
		m.checkSent(sent, -1, false)
	}
	m.checkState()
}

// roll moves slot k on to its next burst if the current one was reaped.
func (m *burstModel) roll(k int) *slotModel {
	s := &m.slots[k]
	if s.done && m.r.now.Sub(s.doneAt) > fuzzTimes.DoneTTL {
		*s = m.freshSlot(k, s.gen+1)
	}
	return s
}

func (m *burstModel) announce(k int) {
	s := m.roll(k)
	wasDone := s.done
	if !s.done && !s.announced {
		s.announced = true
	}
	sent := m.r.announce(burstReqID(k, s.gen), burstOff(k, s.gen), int64(burstChunks(k, s.gen))*fuzzChunk)
	m.checkSent(sent, k, wasDone)
}

func (m *burstModel) data(k, chunk int) {
	s := m.roll(k)
	chunk %= burstChunks(k, s.gen)
	if !s.done {
		s.everSeen[chunk] = true
		if s.announced {
			s.afterAnn[chunk] = true
		}
	}
	off, payload := chunkPayload(k, s.gen, chunk)
	sent := m.r.data(burstReqID(k, s.gen), off, payload)
	m.checkSent(sent, k, false)
}

func all(bs []bool) bool { return !slices.Contains(bs, false) }

// checkSent judges what the session sent in response to one instruction
// touching slot k (-1 for a clock instruction). reack says the
// instruction announced a burst that was already done.
func (m *burstModel) checkSent(sent []wire.Packet, k int, reack bool) {
	m.t.Helper()
	acked := make(map[int]bool)
	for _, p := range sent {
		switch p.Type {
		case wire.TWriteAck:
			slot := m.slotOf(p.ReqID)
			s := &m.slots[slot]
			if !s.announced || !all(s.everSeen) {
				m.t.Fatalf("slot %d gen %d acknowledged with announced=%v chunks=%v", slot, s.gen, s.announced, s.everSeen)
			}
			if want := burstOff(slot, s.gen); p.Offset != want || int(p.Length) != burstChunks(slot, s.gen)*fuzzChunk {
				m.t.Fatalf("slot %d gen %d ack covers [%d,+%d)", slot, s.gen, p.Offset, p.Length)
			}
			acked[slot] = true
			if !s.done {
				s.done, s.doneAt = true, m.r.now
				m.doneTimes = append(m.doneTimes, m.r.now)
				m.apply(slot, s.gen)
			}
		case wire.TResend:
			slot := m.slotOf(p.ReqID)
			if s := &m.slots[slot]; s.done || !s.announced {
				m.t.Fatalf("slot %d gen %d prompted with done=%v announced=%v", slot, s.gen, s.done, s.announced)
			}
		default:
			m.t.Fatalf("session sent %v", p.Type)
		}
	}
	if reack && !acked[k] {
		m.t.Fatalf("slot %d: announcement of a burst done within DoneTTL was not re-acknowledged", k)
	}
	for slot := range m.slots {
		if s := &m.slots[slot]; !s.done && s.announced && all(s.afterAnn) {
			m.t.Fatalf("slot %d gen %d: every chunk arrived after the announcement but no acknowledgement followed", slot, s.gen)
		}
	}
}

// slotOf maps a ReqID the session used back to its slot, checking that
// it is the slot's current burst.
func (m *burstModel) slotOf(reqID uint32) int {
	m.t.Helper()
	slot := int(reqID-100) % fuzzSlots
	if burstReqID(slot, m.slots[slot].gen) != reqID {
		m.t.Fatalf("session answered req %d, not slot %d's current burst (gen %d)", reqID, slot, m.slots[slot].gen)
	}
	return slot
}

func (m *burstModel) apply(k, gen int) {
	off := burstOff(k, gen)
	n := int64(burstChunks(k, gen)) * fuzzChunk
	if int64(len(m.image)) < off+n {
		m.image = append(m.image, make([]byte, off+n-int64(len(m.image)))...)
	}
	for x := off; x < off+n; x++ {
		m.image[x] = burstByte(k, gen, x)
	}
}

func (m *burstModel) checkState() {
	m.t.Helper()
	s := m.r.s
	recent := 0
	for _, at := range m.doneTimes {
		if m.r.now.Sub(at) <= fuzzTimes.DoneTTL {
			recent++
		}
	}
	if len(s.open) > fuzzSlots {
		m.t.Fatalf("%d bursts open over %d slots", len(s.open), fuzzSlots)
	}
	if len(s.writes) != len(s.open)+recent {
		m.t.Fatalf("session remembers %d bursts, want %d open + %d completed within DoneTTL", len(s.writes), len(s.open), recent)
	}
	if got := m.r.content(); !bytes.Equal(got, m.image) {
		m.t.Fatalf("store holds %d bytes that differ from the %d the acknowledged bursts carried", len(got), len(m.image))
	}
}
