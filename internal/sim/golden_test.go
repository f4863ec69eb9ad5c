package sim

import (
	"testing"
	"time"
)

// goldenWorkload drives every kind of kernel event — Advance, Yield,
// same-pair sends with shrinking delays, Batch envelopes, RecvMatch,
// RecvTimeout expiry and Spawn from a running proc — and returns the
// kernel plus an FNV-1a hash of what the receivers observed, in order.
func goldenWorkload() (*Kernel, uint64) {
	k := New(7)
	k.EnableTraceHash()
	seen := uint64(1469598103934665603)
	note := func(vals ...int64) {
		for _, v := range vals {
			seen ^= uint64(v)
			seen *= 1099511628211
		}
	}
	var sink, picky *Proc
	sink = k.Spawn("sink", func(p *Proc) {
		for {
			m, ok := p.RecvTimeout(3 * time.Microsecond)
			if !ok {
				note(-1, int64(p.Now()))
				return
			}
			note(int64(m.From), int64(m.SentAt), int64(m.At), int64(m.Payload.(int)))
			p.Advance(time.Duration(p.Rand().Intn(200)) * time.Nanosecond)
		}
	})
	picky = k.Spawn("picky", func(p *Proc) {
		for i := 0; i < 30; i++ {
			m := p.RecvMatch(func(m Msg) bool { return m.Payload.(int)%3 == i%3 })
			note(int64(m.From), int64(m.At), int64(m.Payload.(int)))
			if i%4 == 0 {
				p.Yield()
			}
		}
		for p.Pending() > 0 {
			m := p.Recv()
			note(int64(m.From), int64(m.At), int64(m.Payload.(int)))
		}
	})
	for s := 0; s < 4; s++ {
		k.Spawn("sender", func(p *Proc) {
			r := p.Rand()
			for i := 0; i < 40; i++ {
				v := s*1000 + i
				switch r.Intn(4) {
				case 0: // shrinking delays on one pair: FIFO clamp
					p.Send(sink, v, time.Duration(2000-50*i)*time.Nanosecond)
				case 1:
					b := GetBatch()
					b.Payloads = append(b.Payloads, v, v+500)
					p.Send(sink, b, time.Duration(r.Intn(900))*time.Nanosecond)
				case 2:
					p.Send(picky, v, time.Duration(r.Intn(1500))*time.Nanosecond)
				default:
					p.Yield()
				}
				p.Advance(time.Duration(r.Intn(400)+1) * time.Nanosecond)
				if i == 20 && s%2 == 0 {
					k.Spawn("child", func(c *Proc) {
						c.Advance(time.Duration(c.Rand().Intn(300)+1) * time.Nanosecond)
						c.Send(picky, 3*s, 100*time.Nanosecond)
						c.Send(sink, 7*s+1, 10*time.Nanosecond)
					})
				}
			}
		})
	}
	k.Run(Infinity)
	return k, seen
}

// TestGoldenEventOrder pins the kernel's event order to constants: any
// change to (time, seq) ordering, FIFO clamping, envelope unpacking or
// wake-up scheduling moves them. Every committed sim figure depends on this
// order, so the constants change only with a deliberate, documented change
// to simulated behaviour.
func TestGoldenEventOrder(t *testing.T) {
	k, seen := goldenWorkload()
	const (
		wantTrace  = 0x7935adc73c9d179a
		wantEvents = 458
		wantSeen   = 0x188aa48d25192a51
		wantNow    = Time(16387)
	)
	if k.TraceHash() != wantTrace || k.EventsRun() != wantEvents || seen != wantSeen || k.Now() != wantNow {
		t.Fatalf("trace=%#x events=%d seen=%#x now=%d, want trace=%#x events=%d seen=%#x now=%d",
			k.TraceHash(), k.EventsRun(), seen, k.Now(), uint64(wantTrace), wantEvents, uint64(wantSeen), wantNow)
	}
	if k.Live() != 0 {
		t.Fatalf("live = %d after the workload drained", k.Live())
	}
}
