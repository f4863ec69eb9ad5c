package main

import (
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/dslock"
	"repro/internal/live"
	"repro/internal/mem"
	"repro/internal/port"
	"repro/internal/sim"
)

// The layer microbenchmarks time each layer's exported functions on the
// workload's own inputs: keys and conflict shapes come from the same
// seeded generators the clients draw from, and the directory and memory
// are the last traced repetition's, as the run left them.

const (
	microBatches = 5
	microTarget  = 20 * time.Millisecond // calibrated length of one batch
	microOps     = 4096                  // generated operations per client stream
)

// nsPerCall calibrates n so one call of fn(n) takes about microTarget,
// then returns the median over microBatches of elapsed/n. With workers > 1,
// fn(w, n) runs on that many goroutines at once, each making n calls, and
// the result is the per-call time under that parallelism.
func nsPerCall(workers int, fn func(worker, n int)) float64 {
	batch := func(n int) time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(w, n)
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	n := 256
	for batch(n) < microTarget/4 {
		n *= 2
	}
	var ns []float64
	for i := 0; i < microBatches; i++ {
		ns = append(ns, float64(batch(n).Nanoseconds())/float64(n))
	}
	return median(ns)
}

// streamOps returns client's first microOps generated operations.
func (b *bench) streamOps(client int) []op {
	g := newGen(b.w, b.z, b.seed, client)
	ops := make([]op, microOps)
	for i := range ops {
		ops[i].reads = make([]int, 0, b.w.readSet)
		g.next(&ops[i])
	}
	return ops
}

// streamKeys flattens client's stream into the lock keys its operations
// touch, in access order.
func (b *bench) streamKeys(client int) []mem.Addr {
	var keys, buf []mem.Addr
	for _, o := range b.streamOps(client) {
		buf = accountKeys(b.accts, &o, buf)
		keys = append(keys, buf...)
	}
	return keys
}

// lockRequest is one DS-Lock acquisition of the workload: a read or a write
// lock on key.
type lockRequest struct {
	key   mem.Addr
	write bool
}

// lockStream returns client 0's lock requests per operation, as the
// protocol issues them: visible reads lock every read; every transfer
// write-locks both accounts at commit; TL2 takes no read locks.
func (b *bench) lockStream() [][]lockRequest {
	visible := b.w.protocol == core.ProtocolVisible
	var out [][]lockRequest
	for _, o := range b.streamOps(0) {
		var reqs []lockRequest
		if o.audit {
			if visible {
				for _, i := range o.reads {
					reqs = append(reqs, lockRequest{key: b.accts.Addr(i)})
				}
			}
		} else {
			for _, i := range []int{o.from, o.to} {
				if visible {
					reqs = append(reqs, lockRequest{key: b.accts.Addr(i)})
				}
				reqs = append(reqs, lockRequest{key: b.accts.Addr(i), write: true})
			}
		}
		out = append(out, reqs)
	}
	return out
}

// resolveNs times cm.Policy.Resolve on the workload's conflict shapes: each
// lock request of the stream meets one enemy on another application core
// with an independently drawn priority (RAW for reads, WAR and WAW for
// writes).
func (b *bench) resolveNs() float64 {
	type shape struct {
		req     cm.Meta
		enemies []cm.Meta
		kind    cm.Kind
	}
	pol := b.sys.Config().Policy
	apps := b.sys.NumAppCores()
	r := rand.New(rand.NewPCG(b.seed, 0x51))
	var shapes []shape
	for _, reqs := range b.lockStream() {
		for _, lr := range reqs {
			kinds := []cm.Kind{cm.RAW}
			if lr.write {
				kinds = []cm.Kind{cm.WAR, cm.WAW}
			}
			for _, k := range kinds {
				enemy := cm.Meta{Core: 1 + r.IntN(max(apps-1, 1)), TxID: r.Uint64(), Prio: r.Int64()}
				shapes = append(shapes, shape{
					req:     cm.Meta{Core: 0, TxID: r.Uint64(), Prio: r.Int64()},
					enemies: []cm.Meta{enemy},
					kind:    k,
				})
			}
		}
	}
	var sink cm.Decision
	ns := nsPerCall(1, func(_, n int) {
		for i := 0; i < n; i++ {
			s := &shapes[i%len(shapes)]
			sink ^= pol.Resolve(s.req, s.enemies, s.kind)
		}
	})
	_ = sink
	return ns
}

// acquireReleaseNs times one DS-Lock acquire+release pair on a DTM node's
// table: per operation, every lock request is conflict-checked and granted,
// then all are released, as a commit or abort does.
func (b *bench) acquireReleaseNs() float64 {
	ops := b.lockStream()
	locks := 0
	for _, reqs := range ops {
		locks += len(reqs)
	}
	t := dslock.NewTable()
	m := cm.Meta{Core: 0}
	perOp := func(reqs []lockRequest) {
		m.TxID++
		for _, lr := range reqs {
			if lr.write {
				if t.WriteConflict(lr.key, m) == nil {
					t.SetWriter(lr.key, m)
				}
			} else if t.ReadConflict(lr.key, m) == nil {
				t.AddReader(lr.key, m)
			}
		}
		for _, lr := range reqs {
			if lr.write {
				t.ReleaseWrite(lr.key, m.Core, m.TxID)
			} else {
				t.ReleaseRead(lr.key, m.Core, m.TxID)
			}
		}
	}
	// One call of the timed function is one pass over the whole stream.
	ns := nsPerCall(1, func(_, n int) {
		for i := 0; i < n; i++ {
			perOp(ops[i%len(ops)])
		}
	})
	return ns * float64(len(ops)) / float64(locks)
}

// keysPerWorker returns one key stream per application client, capped at
// two (the live workloads' application cores).
func (b *bench) keysPerWorker() [][]mem.Addr {
	n := min(2, len(b.clients))
	keys := make([][]mem.Addr, n)
	for i := range keys {
		keys[i] = b.streamKeys(i)
	}
	return keys
}

// placementNs times Directory.Owner and Directory.Record from two
// goroutines in parallel on the workload's directory and key streams.
func (b *bench) placementNs() (owner, record float64) {
	dir := b.sys.Placement()
	keys := b.keysPerWorker()
	apps := b.sys.AppCores()
	var sink [2]int
	owner = nsPerCall(len(keys), func(w, n int) {
		ks := keys[w]
		for i := 0; i < n; i++ {
			sink[w] += dir.Owner(ks[i%len(ks)])
		}
	})
	record = nsPerCall(len(keys), func(w, n int) {
		ks := keys[w]
		src := b.sys.Platform().ClusterOf(apps[w])
		for i := 0; i < n; i++ {
			j := i % len(ks)
			dir.Record(src, ks[j:j+1]...)
		}
	})
	return owner, record
}

// clockCtx is the memory layer's execution context for the microbenchmark:
// a monotonic clock whose modeled latency charges are dropped, as on live.
type clockCtx struct{ t0 time.Time }

func (c *clockCtx) Now() sim.Time         { return sim.Time(time.Since(c.t0)) }
func (c *clockCtx) Advance(time.Duration) {}

// memNs times mem.Memory Read and Write from two goroutines in parallel on
// the workload's memory and key streams. Writes store each word's current
// value, so the bank is unchanged.
func (b *bench) memNs() (read, write float64) {
	m := b.sys.Mem
	keys := b.keysPerWorker()
	vals := make([][]uint64, len(keys))
	for w, ks := range keys {
		for _, k := range ks {
			vals[w] = append(vals[w], m.ReadRaw(k))
		}
	}
	ctx := &clockCtx{t0: time.Now()}
	var sink [2]uint64
	read = nsPerCall(len(keys), func(w, n int) {
		ks := keys[w]
		for i := 0; i < n; i++ {
			sink[w] += m.Read(ctx, w, ks[i%len(ks)])
		}
	})
	write = nsPerCall(len(keys), func(w, n int) {
		ks, vs := keys[w], vals[w]
		for i := 0; i < n; i++ {
			m.Write(ctx, w, ks[i%len(ks)], vs[i%len(vs)])
		}
	})
	return read, write
}

// readVersionedNs times mem.Memory.ReadVersionedTo, TL2's read, from two
// goroutines in parallel on the workload's memory and key streams.
func (b *bench) readVersionedNs() float64 {
	m := b.sys.Mem
	keys := b.keysPerWorker()
	ctx := &clockCtx{t0: time.Now()}
	var sink [2]uint64
	return nsPerCall(len(keys), func(w, n int) {
		ks := keys[w]
		var dst [1]uint64
		for i := 0; i < n; i++ {
			k := ks[i%len(ks)]
			v, ver, _ := m.ReadVersionedTo(ctx, w, k, k, dst[:])
			sink[w] += v[0] + ver
		}
	})
}

// idPort is an outbox destination: the Outbox only asks a port for its ID.
type idPort struct {
	port.Port
	id int
}

func (p *idPort) ID() int { return p.id }

// stageFlushNs times one commit scatter burst through port.Outbox: every
// write key of a transfer staged toward its owning DTM node, then one
// Flush. Audits send nothing at commit and are skipped.
func (b *bench) stageFlushNs() float64 {
	dir := b.sys.Placement()
	dsts := make([]port.Port, b.sys.NumServiceCores())
	for i := range dsts {
		dsts[i] = &idPort{id: i}
	}
	var bursts [][]int // owning node per staged payload
	for _, o := range b.streamOps(0) {
		if !o.audit {
			bursts = append(bursts, []int{dir.Owner(b.accts.Addr(o.from)), dir.Owner(b.accts.Addr(o.to))})
		}
	}
	var out port.Outbox
	payload := new(int)
	sent := 0
	send := func(e *port.OutEntry) { sent += len(e.Payloads) }
	return nsPerCall(1, func(_, n int) {
		for i := 0; i < n; i++ {
			for _, node := range bursts[i%len(bursts)] {
				out.Stage(dsts[node], node, payload, 16, 0)
			}
			out.Flush(send)
		}
	})
}

// sendRecvNs times a two-port Send→RecvMatch round trip on the live
// backend's mailboxes: a pinger sends, an echo port receives and answers,
// and the pinger selectively receives the answer.
func sendRecvNs(seed uint64) float64 {
	const trips = 20000
	eng := live.New(seed)
	var ping, echo port.Port
	var ns []float64
	done := make(chan struct{})
	payload := new(int)
	isEcho := func(m port.Msg) bool { return m.Payload == payload }
	echo = eng.Spawn("echo", func(p port.Port) {
		for {
			m := p.Recv()
			p.Send(ping, m.Payload, 0)
		}
	})
	ping = eng.Spawn("ping", func(p port.Port) {
		defer close(done)
		for b := 0; b < microBatches+1; b++ {
			t0 := time.Now()
			for i := 0; i < trips; i++ {
				p.Send(echo, payload, 0)
				p.RecvMatch(isEcho)
			}
			if b > 0 { // the first batch warms the mailboxes up
				ns = append(ns, float64(time.Since(t0).Nanoseconds())/trips)
			}
		}
	})
	eng.Start()
	<-done
	eng.Shutdown()
	return median(ns)
}

// handoffNs times one sim proc handoff: an Advance that parks the proc and
// resumes it from the kernel's event loop.
func handoffNs(seed uint64) float64 {
	return nsPerCall(1, func(_, n int) {
		k := sim.New(seed)
		k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Advance(time.Nanosecond)
			}
		})
		k.Run(sim.Infinity)
		k.Shutdown()
	})
}

// spanStats derives the core layer's timing metrics from the traced
// repetitions' spans: body attempt durations, commit durations, and the
// wasted share — operation time from the first body attempt's start to the
// final one's, i.e. spent in aborted attempts, over total operation time.
func spanStats(clients []*client) (bodyUs, commitUs []float64, wasted float64, dropped uint64) {
	var wastedNs, totalNs float64
	for _, c := range clients {
		dropped += c.spansDropped
		var opStart, opEnd, firstBody, lastBody sim.Time
		for _, s := range c.spans {
			switch s.kind {
			case spanOp:
				opStart, opEnd = s.start, s.end
			case spanAttempt:
				bodyUs = append(bodyUs, float64(s.end-s.start)/1e3)
				if s.attempt == 1 {
					firstBody = s.start
				}
				lastBody = s.start
			case spanCommit:
				commitUs = append(commitUs, float64(s.end-s.start)/1e3)
				wastedNs += float64(lastBody - firstBody)
				totalNs += float64(opEnd - opStart)
			}
		}
	}
	slices.Sort(bodyUs)
	slices.Sort(commitUs)
	if totalNs > 0 {
		wasted = wastedNs / totalNs
	}
	return bodyUs, commitUs, wasted, dropped
}
