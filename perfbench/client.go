package main

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Span kinds of the traced run. Every operation gets one spanOp; each
// transaction-body attempt a spanAttempt child; and the commit a spanCommit
// child running from the end of the final body to the operation's return.
const (
	spanOp uint8 = iota
	spanAttempt
	spanCommit
)

// span is one timed interval on the port clock (wall ns on live, virtual ns
// on sim). Spans of one operation share op; attempt numbers the body
// attempts from 1.
type span struct {
	op         uint64
	kind       uint8
	attempt    uint32
	start, end sim.Time
}

// client is one application core's closed loop: it draws its next
// operation from its own generator only after the previous one returned.
type client struct {
	idx   int
	g     *gen
	accts core.TArray[uint64]
	port  core.Port
	o     op
	sink  uint64

	// The transaction bodies are built once so the loop allocates nothing.
	transferBody, auditBody func(*core.Tx)

	// Per-repetition counters, and each operation's latency and completion
	// time (ns on the port clock).
	dispatched, completed, attempts uint64
	lat, ends                       []int64

	// Traced repetitions only: spans accumulate across the run.
	tracing      bool
	spans        []span
	spansDropped uint64
	opID         uint64
	attempt      uint32
	open         int // index of the open attempt span, -1 when none
	bodyEnd      sim.Time
}

func newClient(idx, latCap int) *client {
	c := &client{idx: idx, lat: pretouched[int64](latCap), ends: pretouched[int64](latCap), open: -1}
	c.o.reads = make([]int, 0, 64)
	c.transferBody = func(tx *core.Tx) {
		if c.tracing {
			c.openAttempt()
			defer c.closeAttempt()
		}
		f := c.accts.Get(tx, c.o.from)
		t := c.accts.Get(tx, c.o.to)
		c.accts.Set(tx, c.o.from, f-1)
		c.accts.Set(tx, c.o.to, t+1)
	}
	c.auditBody = func(tx *core.Tx) {
		if c.tracing {
			c.openAttempt()
			defer c.closeAttempt()
		}
		var sum uint64
		for _, i := range c.o.reads {
			sum += c.accts.Get(tx, i)
		}
		c.sink = sum
	}
	return c
}

// pretouched returns an empty slice of capacity n whose pages are already
// faulted in, so appending inside the timed window costs no page faults.
func pretouched[T any](n int) []T {
	s := make([]T, n)
	var one T
	for i := 0; i < n; i += 512 {
		s[i] = one
	}
	return s[:0]
}

// reset prepares the client for one repetition against accts.
func (c *client) reset(g *gen, accts core.TArray[uint64], tracing bool) {
	c.g, c.accts, c.tracing = g, accts, tracing
	c.dispatched, c.completed, c.attempts = 0, 0, 0
	c.lat, c.ends = c.lat[:0], c.ends[:0]
}

func (c *client) run(rt *core.Runtime) {
	p := rt.Port()
	c.port = p
	for !rt.Stopped() {
		c.g.next(&c.o)
		c.dispatched++
		opSpan := -1
		start := p.Now()
		if c.tracing {
			c.opID++
			c.attempt = 0
			opSpan = c.push(span{op: c.opID, kind: spanOp, start: start})
		}
		var attempts int
		if c.o.audit {
			attempts = rt.RunKind(core.ReadOnly, c.auditBody)
		} else {
			attempts = rt.RunKind(core.Normal, c.transferBody)
		}
		end := p.Now()
		rt.AddOps(1)
		c.completed++
		c.attempts += uint64(attempts)
		if len(c.lat) < cap(c.lat) {
			c.lat = append(c.lat, int64(end-start))
			c.ends = append(c.ends, int64(end))
		}
		if opSpan >= 0 {
			c.spans[opSpan].end = end
			c.spans[opSpan].attempt = uint32(attempts)
			c.push(span{op: c.opID, kind: spanCommit, attempt: c.attempt, start: c.bodyEnd, end: end})
		}
	}
}

// push appends s and returns its index, or -1 when the span buffer is full.
func (c *client) push(s span) int {
	if len(c.spans) == cap(c.spans) {
		c.spansDropped++
		return -1
	}
	c.spans = append(c.spans, s)
	return len(c.spans) - 1
}

func (c *client) openAttempt() {
	c.attempt++
	c.open = c.push(span{op: c.opID, kind: spanAttempt, attempt: c.attempt, start: c.port.Now()})
}

// closeAttempt ends the open body span, also when an abort unwinds the body.
func (c *client) closeAttempt() {
	c.bodyEnd = c.port.Now()
	if c.open >= 0 {
		c.spans[c.open].end = c.bodyEnd
		c.open = -1
	}
}
