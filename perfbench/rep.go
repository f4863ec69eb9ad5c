package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// Sample-buffer capacities, shared across a run's clients and allocated
// before the first timed window.
const (
	latSamplesTotal  = 1 << 21
	spanSamplesTotal = 1 << 21
)

// bench runs one workload's repetitions for one seed.
type bench struct {
	w       *workload
	seed    uint64
	z       *zipf
	clients []*client
	merged  []int64 // scratch for latency percentiles

	// sys and accts are the last repetition's system and accounts, kept for
	// the layer microbenchmarks of the traced run.
	sys   *core.System
	accts core.TArray[uint64]
}

func newBench(w *workload, seed uint64, traced bool) *bench {
	cores := w.cores
	if cores == 0 {
		pl := noc.SCC(0)
		cores = pl.NumCores()
	}
	n := cores - cores/2 // Dedicated: half the cores serve the DTM
	b := &bench{w: w, seed: seed, z: w.newZipfFor(), merged: pretouched[int64](latSamplesTotal)}
	for i := 0; i < n; i++ {
		c := newClient(i, latSamplesTotal/n)
		if traced {
			c.spans = pretouched[span](spanSamplesTotal / n)
		}
		b.clients = append(b.clients, c)
	}
	return b
}

// rep is the outcome of one repetition: a freshly built system, populated,
// run for one window and checked.
type rep struct {
	setup time.Duration // system construction + account population
	wall  time.Duration // wall time of System.Run
	st    core.Stats

	dispatched, completed, attempts uint64
	p50us, p99us                    float64
	samples                         int
	mallocs                         uint64
	heapMB                          float64

	intervals []interval // live only

	// The program's commit-phase histograms (bucketed), in µs.
	commitHistP50us, commitHistP99us                  float64
	scatterHistP50us, gatherHistP50us, revalHistP50us float64
	events                                            uint64 // sim kernel events (sim only)
	traceEvents                                       uint64 // flight-recorder events emitted (traced only)

	checked, audited bool  // the correctness gate (and the audit) ran
	err              error // failed correctness check
}

// intervalWidth is the live measurement unit: a live repetition's window is
// cut into intervals of this width, and the live throughput and latency
// metrics are midmeans over intervals, so a burst of interference from
// outside the process moves a few intervals rather than the result.
const intervalWidth = 100 * time.Millisecond

// interval is what completed inside one intervalWidth of a live window.
type interval struct {
	ops          int
	p50us, p99us float64
}

// throughputs returns the repetition's throughput samples in completed
// operations per wall second: one per interval on live, one for the whole
// run on sim, where wall time is the simulator's.
func (r *rep) throughputs(live bool) []float64 {
	if !live {
		return []float64{float64(r.completed) / r.wall.Seconds()}
	}
	v := make([]float64, len(r.intervals))
	for i, iv := range r.intervals {
		v[i] = float64(iv.ops) / intervalWidth.Seconds()
	}
	return v
}

// latencyQuantiles returns the repetition's p50 and p99 samples in µs: one
// pair per non-empty interval on live, the whole run's on sim.
func (r *rep) latencyQuantiles(live bool) (p50, p99 []float64) {
	if !live {
		return []float64{r.p50us}, []float64{r.p99us}
	}
	for _, iv := range r.intervals {
		if iv.ops > 0 {
			p50 = append(p50, iv.p50us)
			p99 = append(p99, iv.p99us)
		}
	}
	return p50, p99
}

func (r *rep) commitRate() float64 {
	return float64(r.st.Commits) / float64(r.st.Commits+r.st.Aborts)
}

// runRep builds, populates, runs and checks one system. The timed window
// is bracketed by ReadMemStats, so allocations count only inside it.
func (b *bench) runRep(window time.Duration, traced, audit bool) (*rep, error) {
	w := b.w
	r := &rep{}
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBase := ms.HeapAlloc

	t0 := time.Now()
	sys, err := core.NewSystem(w.config(b.seed, traced))
	if err != nil {
		return nil, fmt.Errorf("build system: %w", err)
	}
	accts := core.NewTArray(sys, core.Uint64Codec(), w.accounts, uint64(initialBalance))
	if audit {
		sys.EnableAudit()
	}
	if sys.NumAppCores() != len(b.clients) {
		return nil, fmt.Errorf("system has %d application cores, benchmark built %d clients", sys.NumAppCores(), len(b.clients))
	}
	for i, c := range b.clients {
		c.reset(newGen(w, b.z, b.seed, i), accts, traced)
	}
	sys.SpawnWorkers(func(rt *core.Runtime) { b.clients[rt.AppIndex()].run(rt) })
	r.setup = time.Since(t0)

	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	t1 := time.Now()
	st := sys.Run(window)
	r.wall = time.Since(t1)
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - mallocs

	r.st = *st
	for _, c := range b.clients {
		r.dispatched += c.dispatched
		r.completed += c.completed
		r.attempts += c.attempts
	}
	r.latencies(b)
	if w.live() {
		r.cutIntervals(b, window)
	}
	us := func(t sim.Time) float64 { return float64(t) / 1e3 }
	r.commitHistP50us, r.commitHistP99us = us(sys.CommitLatency.Quantile(0.5)), us(sys.CommitLatency.Quantile(0.99))
	r.scatterHistP50us, r.gatherHistP50us = us(sys.ScatterLatency.Quantile(0.5)), us(sys.GatherLatency.Quantile(0.5))
	r.revalHistP50us = us(sys.RevalidateLatency.Quantile(0.5))
	if sys.K != nil {
		r.events = sys.K.EventsRun()
	}
	if t := sys.Trace(); t != nil {
		r.traceEvents = uint64(len(t.Events)) + t.Dropped
	}
	r.err = check(sys, accts, r, audit)
	r.checked, r.audited = true, audit

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapMB = (float64(ms.HeapAlloc) - float64(heapBase)) / (1 << 20)
	b.sys, b.accts = sys, accts
	return r, nil
}

// latencies merges the clients' samples and takes the repetition's p50/p99.
func (r *rep) latencies(b *bench) {
	m := b.merged[:0]
	for _, c := range b.clients {
		m = append(m, c.lat...)
	}
	slices.Sort(m)
	r.samples = len(m)
	if len(m) == 0 {
		return
	}
	r.p50us = float64(quantileSorted(m, 0.50)) / 1e3
	r.p99us = float64(quantileSorted(m, 0.99)) / 1e3
}

// cutIntervals buckets the operations that completed inside the window by
// completion interval and takes each interval's p50/p99. The drain tail past
// the window is left out.
func (r *rep) cutIntervals(b *bench, window time.Duration) {
	n := int(window / intervalWidth)
	off := make([]int, n+1)
	for _, c := range b.clients {
		for _, e := range c.ends {
			if k := int(e / int64(intervalWidth)); k < n {
				off[k+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		off[k+1] += off[k]
	}
	m := b.merged[:off[n]]
	next := slices.Clone(off[:n])
	for _, c := range b.clients {
		for i, e := range c.ends {
			if k := int(e / int64(intervalWidth)); k < n {
				m[next[k]] = c.lat[i]
				next[k]++
			}
		}
	}
	r.intervals = make([]interval, n)
	for k := range r.intervals {
		seg := m[off[k]:off[k+1]]
		slices.Sort(seg)
		r.intervals[k].ops = len(seg)
		if len(seg) > 0 {
			r.intervals[k].p50us = float64(quantileSorted(seg, 0.50)) / 1e3
			r.intervals[k].p99us = float64(quantileSorted(seg, 0.99)) / 1e3
		}
	}
}

// quantileSorted returns the nearest-rank q-quantile of sorted s.
func quantileSorted[T int64 | float64](s []T, q float64) T {
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return s[i]
}

// check is the correctness gate every repetition passes: money is
// conserved, no lock outlives the drain, every dispatched operation
// finished and committed exactly once, the program's counters agree with
// the attempts RunKind returned, and on sim the commit history replays
// serially.
func check(sys *core.System, accts core.TArray[uint64], r *rep, audit bool) error {
	var errs []error
	var total uint64
	for i := 0; i < accts.Len(); i++ {
		total += accts.GetRaw(i)
	}
	if want := uint64(accts.Len()) * initialBalance; total != want {
		errs = append(errs, fmt.Errorf("bank total %d, want %d", total, want))
	}
	if n := sys.LockedAddrs(); n != 0 {
		errs = append(errs, fmt.Errorf("%d addresses still locked at quiesce", n))
	}
	if r.completed != r.dispatched {
		errs = append(errs, fmt.Errorf("%d of %d operations never finished", r.dispatched-r.completed, r.dispatched))
	}
	if r.completed == 0 {
		errs = append(errs, errors.New("no operation completed"))
	}
	st := &r.st
	if st.Ops != r.completed || st.Commits != r.completed {
		errs = append(errs, fmt.Errorf("stats report %d ops and %d commits, benchmark completed %d", st.Ops, st.Commits, r.completed))
	}
	if st.Commits+st.Aborts != r.attempts {
		errs = append(errs, fmt.Errorf("stats report %d attempts, RunKind returned %d", st.Commits+st.Aborts, r.attempts))
	}
	if audit {
		initial := make(map[mem.Addr]uint64, accts.Len())
		for i := 0; i < accts.Len(); i++ {
			initial[accts.Addr(i)] = initialBalance
		}
		if err := sys.CheckAudit(initial); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
