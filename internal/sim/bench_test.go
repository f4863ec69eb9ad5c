package sim

import (
	"testing"
	"time"
)

// BenchmarkEventDispatch measures raw kernel event throughput (heap push +
// pop + callback) without proc handoffs.
func BenchmarkEventDispatch(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.At(time.Nanosecond, tick)
		}
	}
	k.At(time.Nanosecond, tick)
	b.ResetTimer()
	k.Run(Infinity)
}

// BenchmarkProcHandoff measures the cost of one Advance round trip between
// the kernel and a proc: schedule the wake-up, switch out of the proc's
// coroutine, pop the event and switch back in.
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(time.Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run(Infinity)
}

// BenchmarkSendRecv measures a one-message ping-pong between two procs. The
// payload is a fresh int each round, so boxing it counts against the op.
func BenchmarkSendRecv(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	var a, c *Proc
	a = k.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Send(c, i, time.Nanosecond)
			p.Recv()
		}
	})
	c = k.Spawn("c", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			m := p.Recv()
			p.Send(a, m.Payload, time.Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run(Infinity)
}

// BenchmarkSendRecvPrealloc is BenchmarkSendRecv with one payload boxed up
// front, so the allocations reported are the kernel's own.
func BenchmarkSendRecvPrealloc(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	payload := any(&struct{ n int }{})
	var a, c *Proc
	a = k.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Send(c, payload, time.Nanosecond)
			p.Recv()
		}
	})
	c = k.Spawn("c", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Send(a, p.Recv().Payload, time.Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run(Infinity)
}

// BenchmarkRand measures the PRNG.
func BenchmarkRand(b *testing.B) {
	b.ReportAllocs()
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
