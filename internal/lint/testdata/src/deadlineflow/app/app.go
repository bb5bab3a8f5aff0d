// Package app exercises deadline propagation through send, retry,
// hedge, and repair paths: the deadlineflow fixture.
package app

import (
	"time"

	"fixture/obs"
	"fixture/transport"
	"fixture/wire"
)

// send threads the caller's deadline into the packet budget field
// before the blocking write: clean.
func send(c *transport.Conn, deadline time.Time, payload []byte) error {
	rem := time.Until(deadline)
	pkt := &wire.Packet{Type: 1, Payload: payload}
	pkt.Deadline = int64(rem)
	buf := wire.Marshal(pkt)
	return c.WriteTo(buf, "peer")
}

// recv arms the read timer from the deadline: clean.
func recv(c *transport.Conn, deadline time.Time, buf []byte) (int, error) {
	if err := c.SetReadDeadline(deadline); err != nil {
		return 0, err
	}
	return c.ReadFrom(buf)
}

// retry retransmits on a timer but never threads deadline into the
// write: the budget is dropped on the retry path.
func retry(c *transport.Conn, deadline time.Time, buf []byte) error {
	for i := 0; i < 3; i++ {
		if err := c.WriteTo(buf, "peer"); err == nil { // want `does not carry it`
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// medrpcStub is a module-internal blocking RPC surface: its methods
// reach transport writes, so calls to them from deadline-carrying
// functions must pass the budget along.
type medrpcStub struct {
	conn *transport.Conn
}

// Admit threads the span into the packet before the blocking
// write: clean — and, because it accepts a SpanContext and blocks,
// it is a propagation target for its callers.
func (m *medrpcStub) Admit(ctx obs.SpanContext) error {
	pkt := &wire.Packet{Type: 2}
	pkt.Trace = ctx
	return m.conn.WriteTo(wire.Marshal(pkt), "mediator")
}

// hedge forwards the span into the second attempt: clean.
func (m *medrpcStub) hedge(ctx obs.SpanContext) error {
	if err := m.Admit(ctx); err != nil {
		return m.Admit(ctx)
	}
	return nil
}

// hedgeDropped launches the hedge with a fresh zero span, losing the
// caller's trace and budget.
func (m *medrpcStub) hedgeDropped(ctx obs.SpanContext) error {
	return m.Admit(obs.SpanContext{}) // want `does not carry it`
}

// admitIn enforces the budget locally before blocking: clean.
func (m *medrpcStub) admitIn(budget time.Duration) error {
	if budget <= 0 {
		return nil
	}
	return m.conn.WriteTo(nil, "mediator")
}

// repair forwards the remaining budget into the inner admit: clean.
func (m *medrpcStub) repair(deadline time.Time) error {
	return m.admitIn(time.Until(deadline))
}

// repairDropped invents a fixed budget instead of spending down the
// caller's deadline.
func (m *medrpcStub) repairDropped(deadline time.Time) error {
	return m.admitIn(4 * time.Second) // want `does not carry it`
}

// drain loops until the giveup time, checking it each pass: the
// deadline bounds the loop, so the inner write is budgeted: clean.
func drain(c *transport.Conn, giveup time.Time, buf []byte) {
	for time.Now().Before(giveup) {
		if err := c.WriteTo(buf, "peer"); err == nil {
			return
		}
	}
}
