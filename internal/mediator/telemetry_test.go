package mediator

import (
	"strings"
	"testing"

	"swift/internal/obs"
)

// TestMediatorTelemetry: admissions, rejections and reservation
// utilization must be visible through the registry.
func TestMediatorTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := New(Config{
		Agents: []AgentInfo{
			{Addr: "a:1", Rate: 1000, Net: 0},
			{Addr: "b:1", Rate: 1000, Net: 0},
		},
		Nets: []NetInfo{{Name: "ether0", Capacity: 1500}},
		Obs:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	p, err := m.Admit(Requirements{Rate: 1000}, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Admit(Requirements{Rate: 1e9}, obs.SpanContext{}); err == nil {
		t.Fatal("expected rejection")
	}
	if m.tel.Load(evAdmit, -1) != 1 || m.tel.Load(evReject, -1) != 1 {
		t.Fatalf("admits=%d rejects=%d, want 1/1",
			m.tel.Load(evAdmit, -1), m.tel.Load(evReject, -1))
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"swift_mediator_admits_total 1",
		"swift_mediator_rejects_total 1",
		"swift_mediator_sessions 1",
		"swift_mediator_agent_reserved_ratio",
		`net="ether0"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q", want)
		}
	}

	if err := m.CloseSession(p.ID); err != nil {
		t.Fatal(err)
	}
	if m.tel.Load(evClose, -1) != 1 {
		t.Fatalf("closes = %d, want 1", m.tel.Load(evClose, -1))
	}
	// Reservations released: every agent ratio back to zero.
	for i := range m.cfg.Agents {
		if l := m.AgentLoad(i); l != 0 {
			t.Errorf("agent %d load = %v after close", i, l)
		}
	}
}
