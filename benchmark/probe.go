package main

import (
	"sync/atomic"
	"time"

	"swift/internal/store"
	"swift/internal/transport"
)

// The traced run measures the transport and store layers from outside, by
// wrapping the interfaces the benchmark hands to core.Dial and agent.New.
// The wrappers forward every call unchanged, keep no caller buffer, and
// only add to atomic counters, so they are safe on any goroutine.

// counters is one probe's set of atomic counters and totals a snapshot of
// it. Conn probes index them by the conn* constants, store probes by the
// store* ones.
type counters [nCounters]atomic.Int64

type totals [nCounters]int64

const nCounters = 7

// Conn probe indices: the traffic of every conn one probedHost opened.
const (
	sendPkts = iota
	sendBytes
	sendNs
	recvPkts // delivered datagrams only
	recvBytes
	// recvNs is time inside ReadFrom, blocked or not, including calls
	// that end in a timeout.
	recvNs
	// outsideNs is time between one ReadFrom returning and the next one
	// starting on the same conn: what the conn's owner spent working.
	outsideNs
)

// Store probe indices: the calls on every object one probedStore opened.
const (
	readCalls = iota
	readBytes
	readNs
	writeCalls
	writeBytes
	writeNs
)

var (
	connCounterNames  = []string{"send_pkts", "send_bytes", "send_ns", "recv_pkts", "recv_bytes", "recv_ns", "outside_ns"}
	storeCounterNames = []string{"read_calls", "read_bytes", "read_ns", "write_calls", "write_bytes", "write_ns"}
)

func (c *counters) totals() (t totals) {
	for i := range c {
		t[i] = c[i].Load()
	}
	return t
}

func (t totals) sub(p totals) totals {
	for i := range t {
		t[i] -= p[i]
	}
	return t
}

// named labels the totals for the trace file.
func (t totals) named(names []string) map[string]int64 {
	m := make(map[string]int64, len(names))
	for i, name := range names {
		m[name] = t[i]
	}
	return m
}

// Sums over a store probe's totals.
func (t totals) storeCalls() int64 { return t[readCalls] + t[writeCalls] }
func (t totals) storeBytes() int64 { return t[readBytes] + t[writeBytes] }
func (t totals) storeNs() int64    { return t[readNs] + t[writeNs] }

// probedHost wraps a transport.Host so every conn it opens is counted.
type probedHost struct {
	transport.Host
	c *counters
}

func (h probedHost) Listen(port string) (transport.PacketConn, error) {
	pc, err := h.Host.Listen(port)
	if err != nil {
		return nil, err
	}
	return &probedConn{PacketConn: pc, c: h.c}, nil
}

type probedConn struct {
	transport.PacketConn
	c *counters
	// lastReturn is when ReadFrom last returned, as nanoseconds since
	// probeEpoch; 0 before the first return.
	lastReturn atomic.Int64
}

var probeEpoch = time.Now()

func (p *probedConn) WriteTo(b []byte, addr string) error {
	start := time.Now()
	err := p.PacketConn.WriteTo(b, addr)
	p.c[sendNs].Add(int64(time.Since(start)))
	if err == nil {
		p.c[sendPkts].Add(1)
		p.c[sendBytes].Add(int64(len(b)))
	}
	return err
}

func (p *probedConn) ReadFrom(b []byte) (int, string, error) {
	start := int64(time.Since(probeEpoch))
	if last := p.lastReturn.Load(); last != 0 {
		p.c[outsideNs].Add(start - last)
	}
	n, from, err := p.PacketConn.ReadFrom(b)
	end := int64(time.Since(probeEpoch))
	p.lastReturn.Store(end)
	p.c[recvNs].Add(end - start)
	if err == nil {
		p.c[recvPkts].Add(1)
		p.c[recvBytes].Add(int64(n))
	}
	return n, from, err
}

// probedStore wraps a store.Store so ReadAt and WriteAt on every object it
// opens are counted and timed.
type probedStore struct {
	store.Store
	c *counters
}

func (s probedStore) Open(name string, create bool) (store.Object, error) {
	o, err := s.Store.Open(name, create)
	if err != nil {
		return nil, err
	}
	return probedObject{Object: o, c: s.c}, nil
}

type probedObject struct {
	store.Object
	c *counters
}

func (o probedObject) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := o.Object.ReadAt(p, off)
	o.c[readNs].Add(int64(time.Since(start)))
	o.c[readCalls].Add(1)
	o.c[readBytes].Add(int64(n))
	return n, err
}

func (o probedObject) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := o.Object.WriteAt(p, off)
	o.c[writeNs].Add(int64(time.Since(start)))
	o.c[writeCalls].Add(1)
	o.c[writeBytes].Add(int64(n))
	return n, err
}
