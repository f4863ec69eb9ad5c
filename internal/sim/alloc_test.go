package sim

import (
	"testing"
	"time"
)

// TestKernelAllocFree: once the event heap, the action slab and the
// mailboxes have grown to their working size, a proc wake-up (Advance,
// Yield) and a single-payload delivery allocate nothing.
func TestKernelAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on otherwise allocation-free paths")
	}
	payload := any(&struct{ n int }{})
	cases := []struct {
		name  string
		spawn func(k *Kernel)
	}{
		{"advance", func(k *Kernel) {
			k.Spawn("p", func(p *Proc) {
				for {
					p.Advance(time.Nanosecond)
				}
			})
		}},
		{"yield", func(k *Kernel) {
			k.Spawn("p", func(p *Proc) {
				for {
					p.Yield()
					p.Advance(time.Nanosecond)
				}
			})
		}},
		{"deliver", func(k *Kernel) {
			var a, c *Proc
			a = k.Spawn("a", func(p *Proc) {
				for {
					p.Send(c, payload, time.Nanosecond)
					p.Recv()
				}
			})
			c = k.Spawn("c", func(p *Proc) {
				for {
					p.Send(a, p.Recv().Payload, time.Nanosecond)
				}
			})
		}},
	}
	const window = 64 // virtual ns per measured run: 64+ events
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := New(1)
			tc.spawn(k)
			k.Run(window) // warm-up: grow heap, slab and mailboxes
			before := k.EventsRun()
			allocs := testing.AllocsPerRun(100, func() { k.Run(k.Now() + window) })
			events := k.EventsRun() - before
			k.Shutdown()
			if events < 100*window {
				t.Fatalf("only %d events fired in 101 runs", events)
			}
			if allocs != 0 {
				t.Errorf("%s: %.0f allocs per %d-ns window, want 0", tc.name, allocs, window)
			}
		})
	}
}
