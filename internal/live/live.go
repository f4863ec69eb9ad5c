// Package live implements the real-concurrency execution backend of TM2C-Go:
// every port is an actual goroutine with an unbounded, never-blocking inbox
// and selective receive, Advance is a no-op (the hardware runs as fast as it
// runs) and Now is the monotonic clock.
//
// The backend implements the same port.Port contract as the deterministic
// simulator (internal/sim via port.SimPort), so the whole DTM protocol in
// internal/core runs on it unchanged: lock requests, scatter-gather commits,
// contention management, adaptive placement, irrevocability. What changes is
// the meaning of time — run windows are wall-clock, message latency is
// goroutine wake-up latency, and interleavings are whatever the Go scheduler
// produces, so runs are NOT reproducible. Correctness on this backend is
// checked with invariants (money conservation, empty lock tables at quiesce,
// -race) rather than the simulator's serializability audit.
//
// The engine is also the goroutine runtime of the cross-process backend
// (internal/net): a rank hosts its own cores as live ports and registers a
// Remote stand-in (AddRemote) for every core of another rank, so port IDs
// and RNG seeds follow one global spawn order and a Send to a remote core
// hands the payload to the stand-in's Deliver. Connection readers feed local
// ports through Port.Deliver, which never blocks.
//
// Lifecycle: Spawn all ports first (goroutines block on an internal gate),
// then Start releases them and starts the clock, and Shutdown drains and
// kills the ports that are still serving (the DTM service loops). A killed
// port first empties its mailbox — releases sent by the last transactions
// must still be processed so the lock tables quiesce empty — and only then
// unwinds.
package live

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/port"
	"repro/internal/sim"
)

// killSentinel unwinds a port goroutine blocked in a receive when the engine
// shuts down; the spawn wrapper recovers it (same pattern as the sim
// kernel).
type killSentinel struct{}

// Remote is a Send destination hosted outside this engine, such as a core of
// another process. Deliver hands it one payload sent by the local port with
// ID from.
type Remote interface {
	port.Port
	Deliver(from int, payload any)
}

// Engine owns the goroutine ports of one live system.
type Engine struct {
	seed    uint64
	ports   []port.Port   // by ID: *Port, or a Remote registered by AddRemote
	started chan struct{} // closed by Start; gates every port goroutine
	quit    chan struct{} // closed by Shutdown; drains and kills receivers
	all     sync.WaitGroup

	start time.Time // monotonic epoch, set just before started closes

	mu      sync.Mutex
	fault   any
	running bool
	down    bool
}

// New returns an engine whose port RNGs derive from seed exactly like the
// sim kernel's proc RNGs, so workload shapes match across backends.
func New(seed uint64) *Engine {
	return &Engine{
		seed:    seed,
		started: make(chan struct{}),
		quit:    make(chan struct{}),
	}
}

// Spawn creates a port running fn in its own goroutine. The goroutine
// blocks until Start, so all spawning (and all raw-memory setup) happens
// before any worker code runs. Spawn must not be called after Start.
func (e *Engine) Spawn(name string, fn func(port.Port)) port.Port {
	p := e.add("Spawn", func(id int) port.Port {
		return &Port{
			eng:  e,
			id:   id,
			name: name,
			rng:  sim.NewRand(e.seed ^ (0x9e3779b97f4a7c15 * uint64(id+1))),
			wake: make(chan struct{}, 1),
		}
	})
	e.all.Add(1)
	go func() {
		defer e.all.Done()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					e.Fail(r)
				}
			}
		}()
		<-e.started
		fn(p)
	}()
	return p
}

// AddRemote registers a port hosted outside this engine under the next
// port ID: mk builds it from that ID. No goroutine runs for it; local ports
// reach it only as a Send destination. AddRemote must not be called after
// Start.
func (e *Engine) AddRemote(mk func(id int) Remote) Remote {
	return e.add("AddRemote", func(id int) port.Port { return mk(id) }).(Remote)
}

// add appends the port mk builds from the next ID to the port table.
func (e *Engine) add(op string, mk func(id int) port.Port) port.Port {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		panic("live: " + op + " after Start")
	}
	p := mk(len(e.ports))
	e.ports = append(e.ports, p)
	return p
}

// Port returns the port with the given ID (local or remote), or nil if no
// such port exists. Safe to call concurrently once spawning is over.
func (e *Engine) Port(id int) port.Port {
	if id < 0 || id >= len(e.ports) {
		return nil
	}
	return e.ports[id]
}

// Start releases every spawned goroutine and starts the monotonic clock.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		panic("live: Start called twice")
	}
	e.running = true
	e.start = time.Now()
	e.mu.Unlock()
	close(e.started)
}

// Now returns the monotonic time since Start as a sim.Time (nanoseconds);
// zero before Start.
func (e *Engine) Now() sim.Time {
	e.mu.Lock()
	running, start := e.running, e.start
	e.mu.Unlock()
	if !running {
		return 0
	}
	return sim.Time(time.Since(start))
}

// Shutdown drains and terminates every port that is still receiving (the
// DTM service loops), waits for all goroutines to exit, and re-raises the
// first fault any port goroutine died with. Callers must first wait for the
// application workers to finish on their own, so that every release message
// of the final transactions is already sitting in a service mailbox: a
// killed receiver empties its mailbox before unwinding, which is what lets
// the lock tables quiesce empty.
func (e *Engine) Shutdown() {
	e.mu.Lock()
	if !e.down {
		e.down = true
		close(e.quit)
	}
	e.mu.Unlock()
	e.all.Wait()
	e.mu.Lock()
	f := e.fault
	e.fault = nil
	e.mu.Unlock()
	if f != nil {
		panic(f)
	}
}

// Fault returns the first fault recorded so far (a port goroutine's panic
// value or a Fail argument), if any. Watchdogs consult it while waiting for
// workers to drain.
func (e *Engine) Fault() any {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fault
}

// Fail records r as the engine's fault unless one is already recorded;
// Shutdown re-raises it. Transport goroutines report errors through it.
func (e *Engine) Fail(r any) {
	e.mu.Lock()
	if e.fault == nil {
		e.fault = r
	}
	e.mu.Unlock()
}

// Quit is closed when Shutdown begins. A port goroutine that blocks on
// something other than its mailbox selects on it and then calls Unwind.
func (e *Engine) Quit() <-chan struct{} { return e.quit }

// Unwind terminates the calling port goroutine the way a receive on a
// drained mailbox does at shutdown: silently, without recording a fault.
// Only goroutines started by Spawn may call it.
func Unwind() { panic(killSentinel{}) }

// Port is one live execution context: a goroutine with an unbounded inbox.
// Any goroutine may Deliver into the inbox; every other method except ID
// must be called from the port's own goroutine, which moves the inbox into
// its single-consumer stash and receives from there.
type Port struct {
	eng  *Engine
	id   int
	name string
	rng  sim.Rand

	// The inbox is unbounded so that Deliver never blocks: a net connection
	// reader stalled on a full mailbox could deadlock its whole rank.
	mu    sync.Mutex
	inbox sim.MsgQueue
	wake  chan struct{} // cap 1: at least one token per non-empty inbox

	// stash holds delivered-but-deferred messages in delivery order:
	// everything RecvMatch/TryRecvMatch skipped — the same MsgQueue the
	// sim kernel's procs use as their mailbox. taken is the emptied inbox
	// buffer fill swaps in, reused so that steady-state receives allocate
	// nothing.
	stash sim.MsgQueue
	taken sim.MsgQueue

	// onBatch, when set, observes every Batch envelope unpacked into the
	// stash (the payload count). Unpacking runs on the port's own goroutine,
	// so the hook shares the port's single-consumer discipline.
	onBatch func(n int)
}

// SetBatchHook installs fn to observe every multi-payload Batch envelope
// this port unpacks (called with the envelope's payload count). It must be
// installed before Engine.Start releases the goroutines; a nil fn disables
// it.
func (p *Port) SetBatchHook(fn func(n int)) { p.onBatch = fn }

var _ port.Port = (*Port)(nil)

// ID returns the engine-assigned port identifier.
func (p *Port) ID() int { return p.id }

// Name returns the name given at Spawn time.
func (p *Port) Name() string { return p.name }

// Now returns monotonic nanoseconds since Start.
func (p *Port) Now() sim.Time { return sim.Time(time.Since(p.eng.start)) }

// Rand returns the port's deterministic random source.
func (p *Port) Rand() *sim.Rand { return &p.rng }

// Advance consumes no time — nominal compute costs and modeled waits are a
// simulation concept; on the live backend the hardware is exactly as fast
// as it is. It does yield the processor: code that uses Advance as a wait
// (contention-manager backoff, test-and-set spin loops) must not turn into
// a hot spin that starves the very goroutine it is waiting on.
func (p *Port) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("live: %s: negative advance %v", p.name, d))
	}
	if d > 0 {
		runtime.Gosched()
	}
}

// Yield lets other goroutines run.
func (p *Port) Yield() { runtime.Gosched() }

// Send delivers payload to dst immediately (the delay parameter models
// simulated latency and is ignored): into dst's inbox when dst is a local
// port, through its Deliver when it is a Remote.
func (p *Port) Send(dst port.Port, payload any, delay time.Duration) {
	if delay < 0 {
		panic(fmt.Sprintf("live: negative send delay %v", delay))
	}
	if b, ok := payload.(*port.Batch); ok && len(b.Payloads) == 0 {
		panic("live: empty batch envelope")
	}
	if d, ok := dst.(*Port); ok {
		d.Deliver(p.id, payload)
		return
	}
	dst.(Remote).Deliver(p.id, payload)
}

// Deliver appends payload, sent by port from, to the inbox. Any goroutine
// may call it (a local sender or a net connection reader); it never blocks.
func (p *Port) Deliver(from int, payload any) {
	p.mu.Lock()
	p.inbox.Push(port.Msg{From: from, Payload: payload})
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// fill moves the whole inbox into the stash — one lock, a swap of two
// queues — and unpacks Batch envelopes into one stashed message per payload
// (staged order, the envelope's sender), so receivers only ever observe
// individual protocol payloads, exactly as on the simulated backend. It
// reports whether anything arrived.
func (p *Port) fill() bool {
	p.mu.Lock()
	p.inbox, p.taken = p.taken, p.inbox
	p.mu.Unlock()
	if p.taken.Len() == 0 {
		return false
	}
	for p.taken.Len() > 0 {
		m := p.taken.Pop()
		b, ok := m.Payload.(*port.Batch)
		if !ok {
			p.stash.Push(m)
			continue
		}
		for _, pl := range b.Payloads {
			p.stash.Push(port.Msg{From: m.From, Payload: pl})
		}
		if p.onBatch != nil {
			p.onBatch(len(b.Payloads))
		}
		port.PutBatch(b)
	}
	return true
}

// await blocks until fill moves something into the stash and reports true,
// or reports false once timeout fires (a nil timeout never fires) — after
// one last fill, since a Deliver may have raced the timer. During shutdown
// it still drains whatever is queued, then unwinds the goroutine: releases
// from the final transactions must be served so the lock tables quiesce
// empty.
func (p *Port) await(timeout <-chan time.Time) bool {
	for !p.fill() {
		select {
		case <-p.wake:
		case <-timeout:
			p.fill()
			return false
		case <-p.eng.quit:
			if !p.fill() {
				panic(killSentinel{})
			}
			return true
		}
	}
	return true
}

// Recv blocks until a message is available and returns the earliest
// delivered one (stashed messages first — they were delivered earlier).
func (p *Port) Recv() port.Msg {
	for p.stash.Len() == 0 {
		p.await(nil)
	}
	return p.stash.Pop()
}

// TryRecv returns the earliest queued message without blocking.
func (p *Port) TryRecv() (port.Msg, bool) {
	if p.stash.Len() == 0 && !p.fill() {
		return port.Msg{}, false
	}
	return p.stash.Pop(), true
}

// RecvMatch blocks until a message satisfying pred is available and returns
// the earliest such message; everything else stays queued in delivery
// order.
func (p *Port) RecvMatch(pred func(port.Msg) bool) port.Msg {
	for {
		if m, ok := p.stash.TakeMatch(pred); ok {
			return m
		}
		p.await(nil)
	}
}

// TryRecvMatch returns the earliest queued message satisfying pred, if any,
// without blocking. Non-matching messages stay queued.
func (p *Port) TryRecvMatch(pred func(port.Msg) bool) (port.Msg, bool) {
	for {
		if m, ok := p.stash.TakeMatch(pred); ok {
			return m, true
		}
		if !p.fill() {
			return port.Msg{}, false
		}
	}
}

// RecvTimeout waits up to d for a message; ok is false on timeout.
func (p *Port) RecvTimeout(d time.Duration) (port.Msg, bool) {
	if p.stash.Len() == 0 && !p.fill() && d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		p.await(t.C)
	}
	if p.stash.Len() == 0 {
		return port.Msg{}, false
	}
	return p.stash.Pop(), true
}

// RecvMatchTimeout is RecvMatch bounded by d: it returns the earliest
// message satisfying pred, or ok=false once d elapses without one. This is
// the capability behind the DTM layer's per-RPC deadlines; it sits outside
// the Port interface and is discovered by type assertion, like
// SetBatchHook.
func (p *Port) RecvMatchTimeout(pred func(port.Msg) bool, d time.Duration) (port.Msg, bool) {
	if m, ok := p.TryRecvMatch(pred); ok {
		return m, true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		if !p.await(t.C) {
			return p.stash.TakeMatch(pred)
		}
		if m, ok := p.stash.TakeMatch(pred); ok {
			return m, true
		}
	}
}
