package net_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/live"
	tmnet "repro/internal/net"
	"repro/internal/port"
	"repro/internal/wire"
)

// testPing is a registered wire payload for transport-level tests (kind 200,
// far above the protocol's message kinds).
type testPing struct {
	Seq  uint64
	Note uint64
}

func init() {
	wire.Register(wire.Codec{
		Kind: 200,
		Type: reflect.TypeOf(&testPing{}),
		Encode: func(e *wire.Enc, v any) {
			p := v.(*testPing)
			e.U64(p.Seq)
			e.U64(p.Note)
		},
		Decode: func(d *wire.Dec) any {
			return &testPing{Seq: d.U64(), Note: d.U64()}
		},
	})
}

// pair is two connected ranks: each one's live engine and transport.
type pair struct {
	lives [2]*live.Engine
	engs  [2]*tmnet.Engine
}

// startPair builds and starts two connected engines over unix sockets in a
// fresh temp dir. Each rank spawns the same two actors in the same order
// (replicated construction); actor i is owned by rank i and runs fn with its
// own port and its local view of the peer (a Stub).
func startPair(t *testing.T, fn func(rank int, self, peer port.Port)) pair {
	t.Helper()
	dir := t.TempDir()
	addrs := []string{"unix:" + dir + "/r0", "unix:" + dir + "/r1"}
	var pr pair
	for r := 0; r < 2; r++ {
		pr.lives[r] = live.New(42)
		var err error
		pr.engs[r], err = tmnet.New(tmnet.Config{Rank: r, Ranks: 2, Addrs: addrs}, pr.lives[r])
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	var ports [2][2]port.Port // [rank][owner]
	for r := 0; r < 2; r++ {
		r := r
		for owner := 0; owner < 2; owner++ {
			owner := owner
			ports[r][owner] = pr.engs[r].Spawn(fmt.Sprintf("actor%d", owner), owner, func(p port.Port) {
				fn(owner, p, ports[r][1-owner])
			})
		}
	}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var startErrs []error
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pr.engs[r].Start(); err != nil {
				errMu.Lock()
				startErrs = append(startErrs, err)
				errMu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range startErrs {
		t.Fatalf("start: %v", err)
	}
	return pr
}

func stopPair(pr pair) {
	for _, e := range pr.lives {
		e.Shutdown()
	}
	for _, e := range pr.engs {
		e.Close()
	}
}

// TestEnginePingPong bounces a payload between two ranks and checks ordering
// and the From metadata the transport fills in.
func TestEnginePingPong(t *testing.T) {
	const rounds = 50
	done := make(chan error, 2)
	pr := startPair(t, func(rank int, self, peer port.Port) {
		var err error
		defer func() { done <- err }()
		if rank == 0 {
			for i := 0; i < rounds; i++ {
				self.Send(peer, &testPing{Seq: uint64(i)}, 0)
				m := self.Recv()
				pong, ok := m.Payload.(*testPing)
				if !ok || pong.Seq != uint64(i) || pong.Note != 1 {
					err = fmt.Errorf("round %d: bad pong %#v", i, m.Payload)
					return
				}
				if m.From != peer.ID() {
					err = fmt.Errorf("round %d: From = %d, want %d", i, m.From, peer.ID())
					return
				}
			}
		} else {
			for i := 0; i < rounds; i++ {
				m := self.Recv()
				ping, ok := m.Payload.(*testPing)
				if !ok || ping.Seq != uint64(i) {
					err = fmt.Errorf("round %d: bad ping %#v", i, m.Payload)
					return
				}
				self.Send(peer, &testPing{Seq: ping.Seq, Note: 1}, 0)
			}
		}
	})
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	stopPair(pr)
}
