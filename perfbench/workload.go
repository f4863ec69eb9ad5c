package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/placement"
	"repro/internal/trace"
)

// initialBalance funds every account; the bank total is accounts × this.
const initialBalance = 1000

// workload is one input set the benchmark runs: a bank of accounts, an
// operation mix, and the system configuration that serves it.
type workload struct {
	name string
	why  string

	backend   core.Backend
	protocol  core.Protocol
	placement placement.Kind
	cores     int // TotalCores; 0 = the whole 48-core SCC

	accounts int
	readPct  int     // share of operations that are read-only audits, in percent
	readSet  int     // accounts read per audit
	theta    float64 // Zipf exponent of the audit read set

	// window is the virtual run length of one sim repetition. Live
	// repetitions split the measured wall seconds instead.
	window time.Duration
}

var workloads = []*workload{
	{
		name:     "transfer-contended",
		why:      "the paper's contended bank (1024 accounts, uniform transfers, visible reads, FairCM) on live: loads dslock, cm, live mailboxes and port",
		backend:  core.BackendLive,
		cores:    4,
		accounts: 1024,
	},
	{
		name:     "readmostly-tl2",
		why:      "TL2 on live, 90% 16-read Zipf(0.99) audits beside 10% transfers over 65,536 accounts: loads mem versioned reads and commit revalidation",
		backend:  core.BackendLive,
		protocol: core.ProtocolTL2,
		cores:    4,
		accounts: 1 << 16,
		readPct:  90,
		readSet:  16,
		theta:    0.99,
	},
	{
		name:      "scale-hier",
		why:       "2^20 accounts, uniform transfers, hier placement on live: loads the placement directory and paged mem; cm idle",
		backend:   core.BackendLive,
		placement: placement.AdaptiveHier,
		cores:     4,
		accounts:  1 << 20,
	},
	{
		name:     "transfer-sim",
		why:      "transfer-contended's bank on the simulated 48-core SCC: wall throughput is simulator speed, model throughput is pinned",
		backend:  core.BackendSim,
		accounts: 1024,
		window:   20 * time.Millisecond,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

func (w *workload) live() bool { return w.backend != core.BackendSim }

func (w *workload) config(seed uint64, traced bool) core.Config {
	cfg := core.Config{
		Backend:    w.backend,
		Protocol:   w.protocol,
		Placement:  w.placement,
		Seed:       seed,
		TotalCores: w.cores,
		Deployment: core.Dedicated,
		Policy:     cm.FairCM,
	}
	if traced {
		cfg.Trace = &trace.Options{} // the flight recorder, default ring sizes
	}
	return cfg
}

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^theta from a cumulative
// table; theta may be below 1, which math/rand's Zipf does not support.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return &zipf{cdf: cdf}
}

func (z *zipf) pick(r *rand.Rand) int { return sort.SearchFloat64s(z.cdf, r.Float64()) }

// gen is one client's operation stream. The same (seed, client) pair always
// yields the same operations, on every repetition and every backend.
type gen struct {
	w *workload
	z *zipf
	r *rand.Rand
}

func newGen(w *workload, z *zipf, seed uint64, client int) *gen {
	return &gen{w: w, z: z, r: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(client)))}
}

// op is one generated operation: a transfer from→to, or an audit reading
// the accounts in reads.
type op struct {
	audit    bool
	from, to int
	reads    []int
}

// next fills o with the stream's next operation without allocating.
func (g *gen) next(o *op) {
	n := g.w.accounts
	if g.w.readPct > 0 && g.r.IntN(100) < g.w.readPct {
		o.audit = true
		o.reads = o.reads[:0]
		for i := 0; i < g.w.readSet; i++ {
			o.reads = append(o.reads, g.z.pick(g.r))
		}
		return
	}
	o.audit = false
	o.from = g.r.IntN(n)
	o.to = (o.from + 1 + g.r.IntN(n-1)) % n
}

// newZipfFor returns the workload's audit sampler, or nil when it has no
// audits.
func (w *workload) newZipfFor() *zipf {
	if w.readPct == 0 {
		return nil
	}
	return newZipf(w.accounts, w.theta)
}

// accountKeys returns the lock keys an operation touches, in access order:
// the audit's read set, or a transfer's two accounts.
func accountKeys(accts core.TArray[uint64], o *op, dst []mem.Addr) []mem.Addr {
	dst = dst[:0]
	if o.audit {
		for _, i := range o.reads {
			dst = append(dst, accts.Addr(i))
		}
		return dst
	}
	return append(dst, accts.Addr(o.from), accts.Addr(o.to))
}
