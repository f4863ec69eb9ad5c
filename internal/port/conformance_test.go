package port_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	_ "repro/internal/core" // registers the Batch envelope's wire codec
	"repro/internal/live"
	tmnet "repro/internal/net"
	"repro/internal/port"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The Port conformance suite: one table of receive-contract cases run
// against every backend's port, plus the lifecycle cases of the goroutine
// runtime (internal/live, which the net backend hosts its cores on).

// tok is the suite's payload: a small integer with a wire codec, so the
// same cases also run across net frames.
type tok uint64

func init() {
	wire.Register(wire.Codec{
		Kind:   201, // far above the protocol's message kinds
		Type:   reflect.TypeOf(tok(0)),
		Encode: func(e *wire.Enc, v any) { e.U64(uint64(v.(tok))) },
		Decode: func(d *wire.Dec) any { return tok(d.U64()) },
	})
}

// is matches messages carrying payload v.
func is(v tok) func(port.Msg) bool {
	return func(m port.Msg) bool { return m.Payload == v }
}

// actor is one port's body. ports is this process's view of every port of
// the system, by spawn index; it is complete before any actor runs.
type actor func(self port.Port, ports []port.Port)

// system is one backend instance built from a list of actors.
type system interface {
	// start releases the actors. On sim it runs the kernel until no event
	// is left.
	start()
	// now is the backend clock as seen from outside any port.
	now() sim.Time
	// stop drains and kills the ports still receiving and returns the
	// fault a port died with, if any.
	stop() any
}

type backend struct {
	name  string
	build func(t *testing.T, actors ...actor) system
	// goroutine marks the live runtime (live and net), which also has a
	// start gate, drain-before-kill, fault capture and RecvMatchTimeout.
	goroutine bool
}

var backends = []backend{
	{name: "sim", build: buildSim},
	{name: "live", build: buildLive, goroutine: true},
	{name: "net", build: buildNet, goroutine: true},
}

func TestConformance(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			for _, c := range receiveCases {
				t.Run(c.name, func(t *testing.T) { c.run(t, b) })
			}
			if !b.goroutine {
				return
			}
			for _, c := range lifecycleCases {
				t.Run(c.name, func(t *testing.T) { c.run(t, b) })
			}
		})
	}
}

type conformanceCase struct {
	name string
	run  func(t *testing.T, b backend)
}

// exchange runs recv and send as actors 0 and 1 of a fresh system (on net,
// on different ranks), waits for recv's verdict and shuts the system down.
// send gets the receiver's port as dst.
func exchange(t *testing.T, b backend, recv func(self port.Port, sender port.Port) error, send func(self, dst port.Port)) {
	t.Helper()
	done := make(chan error, 1)
	sys := b.build(t,
		func(self port.Port, ports []port.Port) { done <- recv(self, ports[1]) },
		func(self port.Port, ports []port.Port) { send(self, ports[0]) },
	)
	sys.start()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("receiver stuck")
	}
	if f := sys.stop(); f != nil {
		t.Errorf("port fault: %v", f)
	}
}

// sendAll sends every payload to dst, in order.
func sendAll(self, dst port.Port, payloads ...any) {
	for _, pl := range payloads {
		self.Send(dst, pl, 0)
	}
}

// batch builds a pooled Batch envelope, as the coalescing outbox does.
func batch(vs ...tok) *port.Batch {
	b := port.GetBatch()
	for _, v := range vs {
		b.Payloads = append(b.Payloads, v)
	}
	return b
}

// expect receives len(want) messages with recv and checks their payloads.
func expect(recv func() (port.Msg, bool), want ...tok) error {
	for i, w := range want {
		if m, ok := recv(); !ok || m.Payload != w {
			return fmt.Errorf("message %d = %v/%v, want %v/true", i, m.Payload, ok, w)
		}
	}
	return nil
}

func blocking(p port.Port) func() (port.Msg, bool) {
	return func() (port.Msg, bool) { return p.Recv(), true }
}

const goSignal tok = 1000

var receiveCases = []conformanceCase{
	{"EarliestMatchWins", func(t *testing.T, b backend) {
		// RecvMatch takes the earliest matching message; the skipped ones
		// replay in delivery order, stamped with their sender.
		exchange(t, b, func(p, sender port.Port) error {
			m := p.RecvMatch(func(m port.Msg) bool { return m.Payload.(tok)%2 == 0 })
			if m.Payload != tok(2) || m.From != sender.ID() {
				return fmt.Errorf("RecvMatch = %v from %d, want 2 from %d", m.Payload, m.From, sender.ID())
			}
			return expect(blocking(p), 1, 3, 5, 4)
		}, func(p, dst port.Port) {
			sendAll(p, dst, tok(1), tok(3), tok(2), tok(5), tok(4))
		})
	}},
	{"TryRecvMatchStashes", func(t *testing.T, b backend) {
		// Blocking for the sentinel (last on the same FIFO path) proves 7
		// and 8 are delivered; a missing match must leave them queued.
		exchange(t, b, func(p, _ port.Port) error {
			p.RecvMatch(is(0))
			if m, ok := p.TryRecvMatch(is(99)); ok {
				return fmt.Errorf("TryRecvMatch matched %v, want no match", m.Payload)
			}
			if err := expect(p.TryRecv, 7, 8); err != nil {
				return err
			}
			if m, ok := p.TryRecv(); ok {
				return fmt.Errorf("TryRecv on a drained mailbox = %v", m.Payload)
			}
			return nil
		}, func(p, dst port.Port) {
			sendAll(p, dst, tok(7), tok(8), tok(0))
		})
	}},
	{"TryRecv", func(t *testing.T, b backend) {
		// An empty mailbox reports false; once the sender is released,
		// polling picks its messages up in order.
		exchange(t, b, func(p, sender port.Port) error {
			if m, ok := p.TryRecv(); ok {
				return fmt.Errorf("TryRecv on an empty mailbox = %v", m.Payload)
			}
			p.Send(sender, goSignal, 0)
			var got []any
			for deadline := time.Now().Add(5 * time.Second); len(got) < 2; p.Yield() {
				if m, ok := p.TryRecv(); ok {
					got = append(got, m.Payload)
				} else if time.Now().After(deadline) {
					return fmt.Errorf("polled %v, want [1 2]", got)
				}
			}
			if got[0] != tok(1) || got[1] != tok(2) {
				return fmt.Errorf("polled %v, want [1 2]", got)
			}
			return nil
		}, func(p, dst port.Port) {
			p.RecvMatch(is(goSignal))
			sendAll(p, dst, tok(1), tok(2))
		})
	}},
	{"RecvTimeout", func(t *testing.T, b backend) {
		// An empty mailbox times out; a delivery beats a long timer.
		exchange(t, b, func(p, sender port.Port) error {
			if m, ok := p.RecvTimeout(time.Millisecond); ok {
				return fmt.Errorf("RecvTimeout on an empty mailbox = %v", m.Payload)
			}
			p.Send(sender, goSignal, 0)
			return expect(func() (port.Msg, bool) { return p.RecvTimeout(5 * time.Second) }, 42)
		}, func(p, dst port.Port) {
			p.RecvMatch(is(goSignal))
			sendAll(p, dst, tok(42))
		})
	}},
	{"BatchUnpack", func(t *testing.T, b backend) {
		// Envelopes reach receivers as one message per payload, in staged
		// order: RecvMatch picks from the middle of one, Recv and TryRecv
		// take the rest.
		exchange(t, b, func(p, _ port.Port) error {
			if err := expect(func() (port.Msg, bool) { return p.RecvMatch(is(2)), true }, 2); err != nil {
				return err
			}
			if err := expect(blocking(p), 1, 3); err != nil {
				return err
			}
			p.RecvMatch(is(0))
			if err := expect(p.TryRecv, 4, 5); err != nil {
				return err
			}
			if m, ok := p.TryRecv(); ok {
				return fmt.Errorf("TryRecv on a drained mailbox = %v", m.Payload)
			}
			return nil
		}, func(p, dst port.Port) {
			sendAll(p, dst, batch(1, 2, 3), batch(4, 5), tok(0))
		})
	}},
}

var lifecycleCases = []conformanceCase{
	{"StartGate", func(t *testing.T, b backend) {
		// No port runs before start: raw-memory setup happens between
		// spawning and starting, like the sim kernel's pre-Run phase.
		var ran atomic.Bool
		sys := b.build(t, func(port.Port, []port.Port) { ran.Store(true) })
		time.Sleep(20 * time.Millisecond)
		if ran.Load() {
			t.Fatal("port ran before start")
		}
		if now := sys.now(); now != 0 {
			t.Fatalf("clock before start = %v, want 0", now)
		}
		sys.start()
		if f := sys.stop(); f != nil {
			t.Fatalf("port fault: %v", f)
		}
		if !ran.Load() {
			t.Fatal("port never ran")
		}
	}},
	{"DrainBeforeKill", func(t *testing.T, b backend) {
		// A service loop serves everything already sent to it before the
		// shutdown kill takes it: what lets lock tables quiesce empty. The
		// service idles until the sends are done and then a little longer,
		// so that shutdown usually begins while its mailbox is still full.
		const n = 100
		var served atomic.Int64
		sent := make(chan struct{})
		sys := b.build(t,
			func(p port.Port, _ []port.Port) {
				<-sent
				time.Sleep(20 * time.Millisecond)
				for {
					p.Recv()
					served.Add(1)
				}
			},
			func(p port.Port, ports []port.Port) {
				for i := 0; i < n; i++ {
					p.Send(ports[0], tok(i), 0)
				}
				close(sent)
			})
		sys.start()
		<-sent
		if f := sys.stop(); f != nil {
			t.Fatalf("port fault: %v", f)
		}
		if got := served.Load(); got != n {
			t.Fatalf("service drained %d of %d messages before dying", got, n)
		}
	}},
	{"FaultPropagation", func(t *testing.T, b backend) {
		// A panic in a port surfaces from shutdown, like sim proc panics
		// surface from Kernel.Run.
		sys := b.build(t, func(port.Port, []port.Port) { panic("boom") })
		sys.start()
		if f := sys.stop(); f != "boom" {
			t.Fatalf("shutdown re-raised %v, want boom", f)
		}
	}},
	{"RecvMatchTimeout", func(t *testing.T, b backend) {
		// The deadline capability the RPC layer maps Config.RPCDeadline
		// onto: an unsatisfied predicate gives up, a satisfied one returns
		// early, and the decoy skipped meanwhile stays queued.
		type deadliner interface {
			RecvMatchTimeout(func(port.Msg) bool, time.Duration) (port.Msg, bool)
		}
		exchange(t, b, func(p, sender port.Port) error {
			dr, ok := p.(deadliner)
			if !ok {
				return fmt.Errorf("%T lacks RecvMatchTimeout", p)
			}
			if m, ok := dr.RecvMatchTimeout(is(7), 20*time.Millisecond); ok {
				return fmt.Errorf("expected a timeout, matched %v", m.Payload)
			}
			p.Send(sender, goSignal, 0)
			if err := expect(func() (port.Msg, bool) { return dr.RecvMatchTimeout(is(7), 5*time.Second) }, 7); err != nil {
				return err
			}
			return expect(blocking(p), 1)
		}, func(p, dst port.Port) {
			p.Send(dst, tok(1), 0)
			p.RecvMatch(is(goSignal))
			p.Send(dst, tok(7), 0)
		})
	}},
}

// shutdown runs stop and returns the fault it re-raised, if any.
func shutdown(stop func()) (fault any) {
	defer func() { fault = recover() }()
	stop()
	return nil
}

type simSystem struct{ k *sim.Kernel }

func buildSim(_ *testing.T, actors ...actor) system {
	k := sim.New(1)
	ports := make([]port.Port, len(actors))
	for i, a := range actors {
		ports[i] = port.SimPort{P: k.Spawn(fmt.Sprintf("a%d", i), func(p *sim.Proc) {
			a(port.SimPort{P: p}, ports)
		})}
	}
	return simSystem{k}
}

func (s simSystem) start()        { s.k.Run(sim.Infinity) }
func (s simSystem) now() sim.Time { return s.k.Now() }
func (s simSystem) stop() any     { return shutdown(s.k.Shutdown) }

type liveSystem struct{ e *live.Engine }

func buildLive(_ *testing.T, actors ...actor) system {
	e := live.New(1)
	ports := make([]port.Port, len(actors))
	for i, a := range actors {
		ports[i] = e.Spawn(fmt.Sprintf("a%d", i), func(p port.Port) { a(p, ports) })
	}
	return liveSystem{e}
}

func (s liveSystem) start()        { s.e.Start() }
func (s liveSystem) now() sim.Time { return s.e.Now() }
func (s liveSystem) stop() any     { return shutdown(s.e.Shutdown) }

// netSystem is two in-process ranks over unix sockets. Both build the same
// actors in the same order (replicated construction); actor i runs on rank
// i%2 and every other rank sees a Stub for it.
type netSystem struct {
	t     *testing.T
	lives [2]*live.Engine
	nets  [2]*tmnet.Engine
}

func buildNet(t *testing.T, actors ...actor) system {
	// Not t.TempDir: subtest names make paths too long for a unix socket.
	dir, err := os.MkdirTemp("", "tm2c")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	addrs := []string{"unix:" + filepath.Join(dir, "r0"), "unix:" + filepath.Join(dir, "r1")}
	s := &netSystem{t: t}
	for r := range s.nets {
		s.lives[r] = live.New(1)
		s.nets[r], err = tmnet.New(tmnet.Config{Rank: r, Ranks: 2, Addrs: addrs}, s.lives[r])
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		ports := make([]port.Port, len(actors))
		for i, a := range actors {
			ports[i] = s.nets[r].Spawn(fmt.Sprintf("a%d", i), i%2, func(p port.Port) { a(p, ports) })
		}
	}
	return s
}

// onRanks runs fn for both ranks at once (each side of a rendezvous or
// barrier blocks until the other arrives) and fails the test on an error.
func (s *netSystem) onRanks(fn func(n *tmnet.Engine) error) {
	var wg sync.WaitGroup
	errs := make([]error, len(s.nets))
	for r, n := range s.nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(n)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			s.t.Errorf("rank %d: %v", r, err)
		}
	}
}

func (s *netSystem) start()        { s.onRanks((*tmnet.Engine).Start) }
func (s *netSystem) now() sim.Time { return s.lives[0].Now() }

// stop runs the DRAIN barrier first: per-connection FIFO then puts every
// frame sent so far into its destination mailbox before the kill.
func (s *netSystem) stop() any {
	s.onRanks(func(n *tmnet.Engine) error { return n.BarrierDrain(10 * time.Second) })
	var fault any
	for _, e := range s.lives {
		if f := shutdown(e.Shutdown); fault == nil {
			fault = f
		}
	}
	for _, n := range s.nets {
		n.Close()
	}
	return fault
}
