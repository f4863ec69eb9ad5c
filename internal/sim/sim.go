// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel models a many-core chip in virtual time. Every simulated core is
// a Proc running as a coroutine (iter.Pull): the kernel's event loop switches
// directly into a proc when one of its events fires, and the proc switches
// straight back when it blocks. Exactly one of them executes at any instant,
// so no shared state needs locking and, given a fixed seed, every run
// produces an identical event sequence.
//
// Events live in a binary heap ordered by (time, scheduling sequence). The
// hot events — waking a proc and delivering a message — carry their proc
// and payload in a recycled slab instead of a closure, so steady-state
// simulation allocates nothing in the kernel itself.
//
// Procs interact with the simulation only through their *Proc handle:
// Advance consumes virtual compute time, Send/Recv exchange messages with a
// caller-supplied delivery delay, and Rand supplies deterministic
// pseudo-randomness. Higher layers (internal/noc, internal/core) decide what
// the delays mean physically.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It is unrelated to wall-clock time.
type Time int64

// Infinity is a timestamp later than any reachable simulation instant.
const Infinity Time = math.MaxInt64

// Duration converts a virtual time span to a time.Duration. Virtual time is
// kept in nanoseconds, so the conversion is exact.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// event is one heap entry. Events with equal timestamps fire in scheduling
// order (seq), which makes the simulation deterministic. What the event does
// lives in the kernel's action slab at index slot, which keeps heap entries
// small while they are sifted.
type event struct {
	at   Time
	seq  uint64
	slot int32
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

type actionKind uint8

const (
	actCall    actionKind = iota // run fn in kernel context
	actWake                      // resume proc p
	actDeliver                   // deliver payload from src to proc p's mailbox
)

// action is what a scheduled event does when it fires.
type action struct {
	kind    actionKind
	p       *Proc // the proc to wake, or the delivery's destination
	fn      func()
	src     int
	sent    Time
	payload any
}

// Kernel is the discrete-event scheduler. The zero value is not usable; use
// New.
type Kernel struct {
	now     Time
	seq     uint64
	events  []event  // binary min-heap on (at, seq)
	actions []action // slab indexed by event.slot
	free    []int32  // recycled action slots

	procs []*Proc
	live  int // procs spawned and not yet finished

	// fifo[src][dst] is the last delivery time scheduled from proc src to
	// proc dst, so that messages between the same two procs are never
	// reordered even when later messages are assigned smaller delays
	// (e.g. under congestion models).
	fifo [][]Time

	killing bool
	seed    uint64
	// fault holds a panic value captured from a proc's coroutine; resume
	// re-raises it in kernel context so it propagates out of Run to the
	// simulation's caller.
	fault any

	eventsRun uint64
	hashing   bool
	hash      uint64
}

// New returns a kernel whose process RNGs derive from seed.
func New(seed uint64) *Kernel {
	return &Kernel{seed: seed}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() uint64 { return k.seed }

// EventsRun reports how many events have fired so far. It is a cheap proxy
// for simulation effort, useful in tests and benchmarks.
func (k *Kernel) EventsRun() uint64 { return k.eventsRun }

// EnableTraceHash makes the kernel fold every fired event's (time, seq) pair
// into an FNV-1a hash, retrievable with TraceHash. Two runs of the same
// workload with the same seed must produce identical hashes.
func (k *Kernel) EnableTraceHash() { k.hashing = true; k.hash = 1469598103934665603 }

// TraceHash returns the accumulated event-trace hash (see EnableTraceHash).
func (k *Kernel) TraceHash() uint64 { return k.hash }

// schedule enqueues a to fire at timestamp at (clamped to now).
func (k *Kernel) schedule(at Time, a action) {
	if at < k.now {
		at = k.now
	}
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
		k.actions[slot] = a
	} else {
		slot = int32(len(k.actions))
		k.actions = append(k.actions, a)
	}
	k.seq++
	k.push(event{at: at, seq: k.seq, slot: slot})
}

// push adds e to the event heap.
func (k *Kernel) push(e event) {
	h := append(k.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	k.events = h
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].before(&h[c]) {
				c++
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	k.events = h
	return top
}

// At schedules fn to run in kernel context after virtual delay d. It may be
// called from kernel context (before Run, or inside another event) or from a
// running Proc.
func (k *Kernel) At(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.schedule(k.now+Time(d), action{kind: actCall, fn: fn})
}

// Run executes events until the event queue is empty (which implies every
// proc has finished or is blocked forever) or until the virtual deadline
// passes, whichever comes first. It returns the number of events fired
// during this call. Run(Infinity) drains the simulation.
func (k *Kernel) Run(until Time) uint64 {
	var fired uint64
	for len(k.events) > 0 && !k.killing {
		if k.events[0].at > until {
			if until > k.now {
				k.now = until
			}
			return fired
		}
		ev := k.pop()
		a := k.actions[ev.slot]
		k.actions[ev.slot] = action{} // drop references
		k.free = append(k.free, ev.slot)
		k.now = ev.at
		k.eventsRun++
		fired++
		if k.hashing {
			k.hash ^= uint64(ev.at)
			k.hash *= 1099511628211
			k.hash ^= ev.seq
			k.hash *= 1099511628211
		}
		switch a.kind {
		case actWake:
			k.resume(a.p)
		case actDeliver:
			k.deliver(a.src, a.p, a.sent, a.payload)
		default:
			a.fn()
		}
	}
	return fired
}

// Idle reports whether no events remain.
func (k *Kernel) Idle() bool { return len(k.events) == 0 }

// Live reports how many spawned procs have not yet finished.
func (k *Kernel) Live() int { return k.live }

// Shutdown force-terminates every unfinished proc, releasing its coroutine.
// A blocked proc unwinds from the point where it parked; a proc that never
// started is discarded without running its body. Shutdown must be called
// from kernel context (i.e. not from inside a proc). After Shutdown the
// kernel can still be inspected but no further events run.
func (k *Kernel) Shutdown() {
	k.killing = true
	// Index loop: a proc unwinding here may still Spawn, and the new proc
	// must be discarded too.
	for i := 0; i < len(k.procs); i++ {
		p := k.procs[i]
		if p.finished {
			continue
		}
		// A parked proc's yield returns false; park panics with
		// killSentinel, which the proc's exit handler recovers.
		p.stop()
		if !p.started {
			p.finished = true
			k.live--
		}
		k.rethrow()
	}
	k.events, k.actions, k.free = nil, nil, nil
}

// resume switches to p's coroutine and returns when p parks again or
// finishes. If the proc died with a panic, the panic is re-raised here, in
// kernel context.
func (k *Kernel) resume(p *Proc) {
	p.next()
	k.rethrow()
}

// rethrow re-raises a panic captured from a proc.
func (k *Kernel) rethrow() {
	if f := k.fault; f != nil {
		k.fault = nil
		panic(f)
	}
}

// deliverAt computes the FIFO-respecting delivery time for a message from
// src to dst wanted at time at, and records it.
func (k *Kernel) deliverAt(src, dst int, at Time) Time {
	if src >= len(k.fifo) {
		k.fifo = append(k.fifo, make([][]Time, src+1-len(k.fifo))...)
	}
	row := k.fifo[src]
	if dst >= len(row) {
		row = append(row, make([]Time, max(dst+1, len(k.procs))-len(row))...)
		k.fifo[src] = row
	}
	if at < row[dst] {
		return row[dst]
	}
	row[dst] = at
	return at
}
