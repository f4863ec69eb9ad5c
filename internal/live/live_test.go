package live

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/port"
)

// TestRandStreamsMatchSim: port RNG seeding must match the sim kernel's
// formula, so workload shapes are comparable across backends.
func TestRandStreamsMatchSim(t *testing.T) {
	e := New(42)
	vals := make(chan [2]uint64, 2)
	for i := 0; i < 2; i++ {
		e.Spawn("p", func(p port.Port) {
			vals <- [2]uint64{p.Rand().Uint64(), p.Rand().Uint64()}
		})
	}
	e.Start()
	e.Shutdown()
	a, b := <-vals, <-vals
	if a == b {
		t.Fatal("distinct ports drew identical random streams")
	}
}

// TestBatchEnvelopeUnpacks: a *port.Batch payload must be unpacked into the
// stash at receive time — the receiver observes one message per payload, in
// staged order, and selective receive can pick from the middle of an
// envelope while the rest stays queued.
func TestBatchEnvelopeUnpacks(t *testing.T) {
	e := New(1)
	got := make(chan []any, 1)
	recvd := e.Spawn("recv", func(p port.Port) {
		var order []any
		// Wait for the sentinel first so the envelope is provably queued,
		// then pick from its middle and drain the rest.
		p.RecvMatch(func(m port.Msg) bool { return m.Payload == "sentinel" })
		m := p.RecvMatch(func(m port.Msg) bool { return m.Payload == "pick" })
		order = append(order, m.Payload)
		for i := 0; i < 2; i++ {
			order = append(order, p.Recv().Payload)
		}
		got <- order
	})
	e.Spawn("send", func(p port.Port) {
		p.Send(recvd, &port.Batch{Payloads: []any{"x", "pick", "y"}}, 0)
		p.Send(recvd, "sentinel", 0)
	})
	e.Start()
	defer e.Shutdown()
	select {
	case order := <-got:
		want := []any{"pick", "x", "y"}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order %v, want %v", order, want)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver stuck")
	}
}

// TestBatchEnvelopeTryRecv: the non-blocking receives must unpack envelopes
// too, and report each payload separately.
func TestBatchEnvelopeTryRecv(t *testing.T) {
	e := New(1)
	done := make(chan error, 1)
	recvd := e.Spawn("recv", func(p port.Port) {
		p.RecvMatch(func(m port.Msg) bool { return m.Payload == "sentinel" })
		var vals []any
		for {
			m, ok := p.TryRecv()
			if !ok {
				break
			}
			vals = append(vals, m.Payload)
		}
		if len(vals) != 2 || vals[0] != "a" || vals[1] != "b" {
			done <- fmt.Errorf("TryRecv drained %v, want [a b]", vals)
			return
		}
		done <- nil
	})
	e.Spawn("send", func(p port.Port) {
		p.Send(recvd, &port.Batch{Payloads: []any{"a", "b"}}, 0)
		p.Send(recvd, "sentinel", 0)
	})
	e.Start()
	defer e.Shutdown()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver stuck")
	}
}

// TestOutboxConcurrentFlushOrdering: the Outbox contract on the live
// backend. Each sender goroutine owns its own Outbox (the contract: one
// outbox per execution port) and stages bursts for two destinations
// concurrently with the other senders. Even under real concurrency, one
// sender's payloads must reach each destination in staged order — a flush's
// same-destination payloads travel as one Batch envelope and the mailbox
// unpacks it in order — and multi-payload envelopes must actually occur.
// The sim-backend tests pin first-staged order deterministically; this is
// the racing counterpart (run under -race in CI).
func TestOutboxConcurrentFlushOrdering(t *testing.T) {
	const (
		senders  = 4
		bursts   = 60
		perBurst = 3 // payloads per destination per burst → every flush coalesces
	)
	type item struct{ sender, seq int }
	e := New(7)
	perRecv := senders * bursts * perBurst
	type recvResult struct {
		seqs      map[int][]int // sender → seqs in delivery order
		envelopes int
	}
	results := make(chan recvResult, 2)
	var recvs [2]port.Port
	for i := 0; i < 2; i++ {
		recvs[i] = e.Spawn(fmt.Sprintf("recv%d", i), func(p port.Port) {
			var envelopes atomic.Int64
			p.(*Port).SetBatchHook(func(n int) {
				if n >= 2 {
					envelopes.Add(1)
				}
			})
			r := recvResult{seqs: make(map[int][]int)}
			for n := 0; n < perRecv; n++ {
				it := p.Recv().Payload.(item)
				r.seqs[it.sender] = append(r.seqs[it.sender], it.seq)
			}
			r.envelopes = int(envelopes.Load())
			results <- r
		})
	}
	for s := 0; s < senders; s++ {
		sender := s
		e.Spawn(fmt.Sprintf("send%d", sender), func(p port.Port) {
			var o port.Outbox
			next := [2]int{}
			for b := 0; b < bursts; b++ {
				// Interleave the two destinations within the burst so each
				// flush carries a multi-payload entry per destination.
				for k := 0; k < perBurst; k++ {
					for d := 0; d < 2; d++ {
						o.Stage(recvs[d], d, item{sender, next[d]}, 8, 0)
						next[d]++
					}
				}
				o.Flush(func(en *port.OutEntry) {
					if len(en.Payloads) == 1 {
						p.Send(en.Dst, en.Payloads[0], 0)
						return
					}
					// The outbox retains en.Payloads after Flush returns, so
					// the envelope must carry its own copy (the same contract
					// core.sendEntry follows).
					b := port.GetBatch()
					b.Payloads = append(b.Payloads, en.Payloads...)
					p.Send(en.Dst, b, 0)
				})
				p.Yield()
			}
		})
	}
	e.Start()
	defer e.Shutdown()
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.envelopes == 0 {
				t.Errorf("receiver saw no multi-payload envelope; coalescing never happened")
			}
			for s := 0; s < senders; s++ {
				seqs := r.seqs[s]
				if len(seqs) != bursts*perBurst {
					t.Fatalf("sender %d: %d payloads delivered, want %d", s, len(seqs), bursts*perBurst)
				}
				for j, v := range seqs {
					if v != j {
						t.Fatalf("sender %d: payload %d has seq %d; staged order broken (got %v...)",
							s, j, v, seqs[:j+1])
					}
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatal("receivers did not drain in time")
		}
	}
}
