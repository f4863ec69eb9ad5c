// Command perfbench is the repository's benchmark. It drives the TM2C
// runtime through its public calls (core.NewSystem, SpawnWorkers,
// Runtime.RunKind, TArray Get/Set) with closed-loop clients whose
// operations come from the benchmark's own seeded generators, checks every
// repetition for correctness, and prints every metric by name with its
// unit. See README.md for the workloads and metrics.
//
//	go run . --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. The line
// before it is the full report: every metric, absent ones with a reason,
// per-repetition figures and host metadata.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/placement"
)

// endToEnd and perLayer are the metrics of the result line, in the order of
// BENCHMARK.json; every workload produces each of them.
var (
	endToEnd = []string{
		"throughput_ops_s", "latency_p50_us", "commit_rate", "heap_mb", "setup_s",
	}
	perLayer = []string{
		"core.attempts_per_op", "core.body_us_p50", "core.commit_us_p50", "core.commit_us_p99",
		"core.wasted_share", "core.commit_round_trips_per_op", "core.dtm_imbalance",
		"cm.conflicts_per_op", "cm.revocations_per_op", "cm.resolve_ns",
		"dslock.write_lock_reqs_per_op", "dslock.acquire_release_ns",
		"placement.owner_ns", "placement.record_ns",
		"mem.read_ns", "mem.write_ns",
		"port.msgs_per_op", "port.wire_msgs_per_op", "port.bytes_per_op", "port.stage_flush_ns",
		"trace_overhead",
	}
)

// Repetition plan. Live runs split the measured seconds over up to
// liveReps freshly built systems, each at least minLiveRep long, after a
// short warm-up; a traced live run alternates liveTraced untraced/traced
// pairs. Sim runs repeat the fixed virtual window until the simulator's
// wall time reaches the measured seconds.
const (
	liveReps    = 20
	minLiveRep  = 5 * intervalWidth
	liveTraced  = 2
	minSimReps  = 3
	maxWarmup   = 500 * time.Millisecond
	warmupShare = 10 // warm-up is at most 1/warmupShare of the window
)

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per workload")
	traced := flag.Int("trace", 0, "1 runs the traced repetitions and reports per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory the traced run writes its spans to (none when empty)")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fatalf("%v", err)
		}
		ws = []*workload{w}
	}
	dur := time.Duration(*seconds * float64(time.Second))

	var results []*result
	for _, w := range ws {
		r, err := runWorkload(w, *seed, dur, *traced == 1)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if *traced == 1 && *spansDir != "" {
			if err := writeSpans(*spansDir, w.name, r.clients); err != nil {
				fatalf("%s: write spans: %v", w.name, err)
			}
		}
		r.clients = nil
		r.summary(os.Stderr)
		out, err := json.Marshal(r)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		fmt.Println(string(out))
		results = append(results, r)
	}

	names := endToEnd
	if *traced == 1 {
		names = perLayer
	}
	line := resultLine{Correct: true}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		src := r.Metrics
		if *traced == 1 {
			src = r.Layers
		}
		sel, ok := src.only(names)
		if !ok {
			line.Correct = false
			fmt.Fprintf(os.Stderr, "%s: a result-line metric was not measured\n", r.Workload)
		}
		for _, n := range sel.names {
			key := n
			if len(results) > 1 {
				key = r.Workload + "/" + n
			}
			line.Metrics.set(key, sel.m[n])
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// result is one workload's full report.
type result struct {
	Workload  string         `json:"workload"`
	Why       string         `json:"why"`
	Seed      uint64         `json:"seed"`
	Traced    bool           `json:"traced"`
	Host      map[string]any `json:"host"`
	Correct   bool           `json:"correct"`
	Attempted uint64         `json:"attempted"`
	Failed    uint64         `json:"failed"`
	Checked   int            `json:"checked_reps"` // repetitions the correctness gate checked
	Audited   int            `json:"audited_reps"` // of which replayed by the serializability audit
	Errors    []string       `json:"errors,omitempty"`
	Metrics   metrics        `json:"metrics"`
	Layers    metrics        `json:"layers,omitempty"`
	Reps      []repSummary   `json:"reps"`

	clients []*client // traced runs: the span buffers, written after the report
}

type repSummary struct {
	Kind       string  `json:"kind"` // warmup, timed or traced
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	Ops        uint64  `json:"ops"`
	Throughput float64 `json:"throughput_ops_s"`
	P50us      float64 `json:"latency_p50_us"`
	P99us      float64 `json:"latency_p99_us"`
	CommitRate float64 `json:"commit_rate"`
	Allocs     float64 `json:"allocs_per_op"`
	HeapMB     float64 `json:"heap_mb"`
}

// runWorkload runs one workload's repetitions and derives its metrics.
func runWorkload(w *workload, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	b := newBench(w, seed, traced)
	res := &result{Workload: w.name, Why: w.why, Seed: seed, Traced: traced, Host: hostInfo(w, len(b.clients))}

	var all, timed, tracedReps []*rep
	runRep := func(window time.Duration, tr, audit bool, kind string) error {
		r, err := b.runRep(window, tr, audit)
		if err != nil {
			return err
		}
		all = append(all, r)
		switch kind {
		case "timed":
			timed = append(timed, r)
		case "traced":
			tracedReps = append(tracedReps, r)
		}
		res.Reps = append(res.Reps, summarize(r, kind, w.live()))
		return nil
	}

	// The warm-up repetition is not timed. On sim it runs the full window
	// with the serializability audit on, and is the reference every later
	// repetition must reproduce exactly.
	var err error
	if w.live() {
		err = runRep(min(maxWarmup, seconds/warmupShare), false, false, "warmup")
	} else {
		err = runRep(w.window, false, true, "warmup")
	}
	if err != nil {
		return nil, err
	}
	switch {
	case w.live() && !traced:
		n := max(1, min(liveReps, int(seconds/minLiveRep)))
		for i := 0; i < n && err == nil; i++ {
			err = runRep(seconds/time.Duration(n), false, false, "timed")
		}
	case w.live():
		window := max(intervalWidth, seconds/(2*liveTraced))
		for i := 0; i < liveTraced && err == nil; i++ {
			if err = runRep(window, false, false, "timed"); err == nil {
				err = runRep(window, true, false, "traced")
			}
		}
	default:
		var wall time.Duration
		for i := 0; err == nil && (i < minSimReps || wall < seconds); i++ {
			if err = runRep(w.window, false, false, "timed"); err != nil {
				break
			}
			wall += timed[len(timed)-1].wall
			if traced {
				if err = runRep(w.window, true, false, "traced"); err == nil {
					wall += tracedReps[len(tracedReps)-1].wall
				}
			}
		}
	}
	if err != nil {
		return nil, err
	}

	res.Correct = true
	for i, r := range all {
		res.Attempted += r.dispatched
		res.Failed += r.dispatched - r.completed
		if r.checked {
			res.Checked++
		}
		if r.audited {
			res.Audited++
		}
		if r.err != nil {
			res.Correct = false
			res.Errors = append(res.Errors, fmt.Sprintf("repetition %d: %v", i, r.err))
		}
		if !w.live() && i > 0 {
			if err := sameModel(all[0], r); err != nil {
				res.Correct = false
				res.Errors = append(res.Errors, fmt.Sprintf("repetition %d: %v", i, err))
			}
		}
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	res.Metrics = endToEndMetrics(w, all[0], timed, res)
	if traced {
		res.Layers = layerMetrics(b, timed, tracedReps)
		res.clients = b.clients
	}
	return res, nil
}

// sameModel checks that a sim repetition reproduced the reference
// repetition's virtual-time outcome exactly.
func sameModel(ref, r *rep) error {
	if r.completed != ref.completed || r.attempts != ref.attempts || r.st.Msgs != ref.st.Msgs ||
		r.st.Duration != ref.st.Duration || r.p50us != ref.p50us || r.p99us != ref.p99us {
		return fmt.Errorf("sim run not reproduced: %d ops/%d attempts/%d msgs/%v vs reference %d/%d/%d/%v",
			r.completed, r.attempts, r.st.Msgs, r.st.Duration, ref.completed, ref.attempts, ref.st.Msgs, ref.st.Duration)
	}
	return nil
}

func summarize(r *rep, kind string, live bool) repSummary {
	p50, p99 := r.latencyQuantiles(live)
	return repSummary{
		Kind: kind, SetupS: r.setup.Seconds(), WallS: r.wall.Seconds(), Ops: r.completed,
		Throughput: midmean(r.throughputs(live)), P50us: midmean(p50), P99us: midmean(p99),
		CommitRate: r.commitRate(), Allocs: perOp(r.mallocs, r.completed), HeapMB: r.heapMB,
	}
}

// pooled concatenates f's samples over reps.
func pooled(reps []*rep, f func(*rep) []float64) []float64 {
	var v []float64
	for _, r := range reps {
		v = append(v, f(r)...)
	}
	return v
}

// endToEndMetrics summarizes the timed repetitions: the midmean of the
// throughput, latency and commit-rate samples (live throughput and latency
// pool every repetition's intervals), the median of the rest.
func endToEndMetrics(w *workload, ref *rep, timed []*rep, res *result) metrics {
	var ms metrics
	live := w.live()
	pick := func(f func(r *rep) float64) float64 {
		return median(repVals(timed, f))
	}
	var p50, p99 []float64
	samples := 0
	for _, r := range timed {
		a, b := r.latencyQuantiles(live)
		p50, p99 = append(p50, a...), append(p99, b...)
		samples += r.samples
	}
	ms.val("throughput_ops_s", midmean(pooled(timed, func(r *rep) []float64 { return r.throughputs(live) })), "1/s")
	ms.set("latency_p50_us", metric{Value: midmean(p50), Unit: "us", Samples: samples})
	ms.set("latency_p99_us", metric{Value: midmean(p99), Unit: "us", Samples: samples})
	ms.val("commit_rate", midmean(repVals(timed, (*rep).commitRate)), "ratio")
	ms.val("error_rate", float64(res.Failed)/float64(res.Attempted), "ratio")
	ms.val("allocs_per_op", pick(func(r *rep) float64 { return perOp(r.mallocs, r.completed) }), "count")
	ms.val("setup_s", pick(func(r *rep) float64 { return r.setup.Seconds() }), "s")
	ms.val("heap_mb", pick(func(r *rep) float64 { return r.heapMB }), "MB")
	if live {
		ms.absent("model_ops_per_ms", "ops/ms", "live backend has no virtual clock")
	} else {
		ms.val("model_ops_per_ms", ref.st.Throughput(), "ops/ms")
	}
	return ms
}

// layerMetrics derives the per-layer metrics from the traced repetitions
// and the layer microbenchmarks.
func layerMetrics(b *bench, timed, traced []*rep) metrics {
	w := b.w
	var ms metrics
	var st core.Stats
	var ops, attempts, events uint64
	var wall time.Duration
	var imbalance, leaves, migrations []float64
	for _, r := range traced {
		ops += r.completed
		attempts += r.attempts
		events += r.events
		wall += r.wall
		addStats(&st, &r.st)
		imbalance = append(imbalance, r.st.LoadImbalance())
		leaves = append(leaves, float64(r.st.MaterializedLeaves))
		migrations = append(migrations, float64(r.st.Migrations))
	}
	tput := func(r *rep) []float64 { return r.throughputs(w.live()) }
	bodyUs, commitUs, wasted, dropped := spanStats(b.clients)
	tl2 := w.protocol == core.ProtocolTL2
	adaptive := w.placement == placement.Adaptive || w.placement == placement.AdaptiveHier

	ms.val("core.attempts_per_op", perOp(attempts, ops), "count")
	ms.set("core.body_us_p50", metric{Value: quantileSorted(bodyUs, 0.5), Unit: "us", Samples: len(bodyUs)})
	ms.set("core.commit_us_p50", metric{Value: quantileSorted(commitUs, 0.5), Unit: "us", Samples: len(commitUs)})
	ms.set("core.commit_us_p99", metric{Value: quantileSorted(commitUs, 0.99), Unit: "us", Samples: len(commitUs)})
	ms.val("core.wasted_share", wasted, "ratio")
	ms.val("core.commit_round_trips_per_op", perOp(st.CommitRoundTrips, ops), "count")
	ms.val("core.dtm_imbalance", median(imbalance), "ratio")
	hist := func(f func(r *rep) float64) float64 { return median(repVals(traced, f)) }
	ms.val("core.commit_hist_us_p50", hist(func(r *rep) float64 { return r.commitHistP50us }), "us")
	ms.val("core.commit_hist_us_p99", hist(func(r *rep) float64 { return r.commitHistP99us }), "us")
	ms.val("core.scatter_hist_us_p50", hist(func(r *rep) float64 { return r.scatterHistP50us }), "us")
	ms.val("core.gather_hist_us_p50", hist(func(r *rep) float64 { return r.gatherHistP50us }), "us")
	ms.val("core.spans_dropped", float64(dropped), "count")

	ms.val("cm.conflicts_per_op", perOp(st.Conflicts, ops), "count")
	ms.val("cm.revocations_per_op", perOp(st.Revocations, ops), "count")
	ms.val("cm.resolve_ns", b.resolveNs(), "ns")

	if tl2 {
		ms.absent("dslock.read_lock_reqs_per_op", "count", "tl2 reads take no read locks")
	} else {
		ms.val("dslock.read_lock_reqs_per_op", perOp(st.ReadLockReqs, ops), "count")
	}
	ms.val("dslock.write_lock_reqs_per_op", perOp(st.WriteLockReqs, ops), "count")
	ms.val("dslock.acquire_release_ns", b.acquireReleaseNs(), "ns")

	owner, record := b.placementNs()
	ms.val("placement.owner_ns", owner, "ns")
	ms.val("placement.record_ns", record, "ns")
	if adaptive {
		ms.val("placement.materialized_leaves", median(leaves), "count")
		ms.val("placement.migrations", median(migrations), "count")
		ms.val("placement.stale_nacks_per_op", perOp(st.StaleNacks, ops), "count")
		ms.val("placement.remote_share", st.RemoteAccessRatio(), "ratio")
	} else {
		why := "static " + w.placement.String() + " placement keeps no directory state"
		ms.absent("placement.materialized_leaves", "count", why)
		ms.absent("placement.migrations", "count", why)
		ms.absent("placement.stale_nacks_per_op", "count", why)
		ms.absent("placement.remote_share", "ratio", "static "+w.placement.String()+" placement records no accesses")
	}

	read, write := b.memNs()
	ms.val("mem.read_ns", read, "ns")
	ms.val("mem.write_ns", write, "ns")
	if tl2 {
		ms.val("mem.read_versioned_ns", b.readVersionedNs(), "ns")
		ms.val("mem.local_reads_per_op", perOp(st.LocalReads, ops), "count")
		ms.val("mem.doomed_reads_per_op", perOp(st.DoomedReads, ops), "count")
		ms.val("mem.clock_ticks_per_op", perOp(st.ClockAdvances, ops), "count")
		ms.val("mem.revalidations_per_op", perOp(st.Revalidations, ops), "count")
		ms.val("mem.revalidate_hist_us_p50", hist(func(r *rep) float64 { return r.revalHistP50us }), "us")
	} else {
		why := "visible reads use no version table"
		ms.absent("mem.read_versioned_ns", "ns", why)
		for _, n := range []string{"mem.local_reads_per_op", "mem.doomed_reads_per_op", "mem.clock_ticks_per_op", "mem.revalidations_per_op"} {
			ms.absent(n, "count", why)
		}
		ms.absent("mem.revalidate_hist_us_p50", "us", why)
	}

	ms.val("port.msgs_per_op", perOp(st.Msgs, ops), "count")
	ms.val("port.wire_msgs_per_op", perOp(st.WireMsgs, ops), "count")
	ms.val("port.bytes_per_op", perOp(st.MsgBytes, ops), "B")
	ms.val("port.stage_flush_ns", b.stageFlushNs(), "ns")

	if w.live() {
		ms.val("live.send_recv_ns", sendRecvNs(b.seed), "ns")
		why := "live backend runs no simulator"
		ms.absent("sim.events_per_op", "count", why)
		ms.absent("sim.wall_ns_per_event", "ns", why)
		ms.absent("sim.handoff_ns", "ns", why)
	} else {
		ms.absent("live.send_recv_ns", "ns", "sim backend uses no live mailbox")
		ms.val("sim.events_per_op", perOp(events, ops), "count")
		ms.val("sim.wall_ns_per_event", float64(wall.Nanoseconds())/float64(events), "ns")
		ms.val("sim.handoff_ns", handoffNs(b.seed), "ns")
	}

	var traceEvents uint64
	for _, r := range traced {
		traceEvents += r.traceEvents
	}
	ms.val("trace.recorder_events_per_op", perOp(traceEvents, ops), "count")
	ms.val("trace_overhead", 1-midmean(pooled(traced, tput))/midmean(pooled(timed, tput)), "ratio")
	return ms
}

func repVals(reps []*rep, f func(*rep) float64) []float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return v
}

// addStats sums the counters the layer metrics read.
func addStats(dst, s *core.Stats) {
	dst.CommitRoundTrips += s.CommitRoundTrips
	dst.Conflicts += s.Conflicts
	dst.Revocations += s.Revocations
	dst.ReadLockReqs += s.ReadLockReqs
	dst.WriteLockReqs += s.WriteLockReqs
	dst.StaleNacks += s.StaleNacks
	dst.LocalAccesses += s.LocalAccesses
	dst.RemoteAccesses += s.RemoteAccesses
	dst.LocalReads += s.LocalReads
	dst.DoomedReads += s.DoomedReads
	dst.ClockAdvances += s.ClockAdvances
	dst.Revalidations += s.Revalidations
	dst.Msgs += s.Msgs
	dst.WireMsgs += s.WireMsgs
	dst.MsgBytes += s.MsgBytes
}

// hostInfo records where and how the run was made. A live run whose
// application cores outnumber GOMAXPROCS is flagged: its numbers are bound
// by the Go scheduler, not the runtime.
func hostInfo(w *workload, appCores int) map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"backend":    w.backend.String(),
		"app_cores":  appCores,
	}
	if w.live() {
		h["oversubscribed"] = appCores > runtime.GOMAXPROCS(0)
	} else {
		h["oversubscribed"] = metric{Unit: "bool", Absent: "sim cores are simulated on one OS thread"}
	}
	h["commit"] = metric{Unit: "git", Absent: "binary carries no VCS stamp (not built from a git checkout)"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			h["commit"] = rev
		}
	}
	return h
}

// summary prints the report for people, one metric per line.
func (r *result) summary(w io.Writer) {
	fmt.Fprintf(w, "== %s (seed %d, traced %v): correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Traced, r.Correct, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   ERROR %s\n", e)
	}
	for _, ms := range []metrics{r.Metrics, r.Layers} {
		for _, n := range ms.names {
			m := ms.m[n]
			if m.Absent != "" {
				fmt.Fprintf(w, "   %-34s absent (%s)\n", n, m.Absent)
				continue
			}
			fmt.Fprintf(w, "   %-34s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
}

// writeSpans writes the traced run's spans as fixed 32-byte little-endian
// records: op ID (u64), client (u16), kind (u8: 0 op, 1 body attempt,
// 2 commit), pad (u8), attempt (u32), start and end (i64 ns on the port
// clock). The file is replaced on every traced run of the workload.
func writeSpans(dir, workload string, clients []*client) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf []byte
	for _, c := range clients {
		for _, s := range c.spans {
			buf = binary.LittleEndian.AppendUint64(buf, s.op)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(c.idx))
			buf = append(buf, s.kind, 0)
			buf = binary.LittleEndian.AppendUint32(buf, s.attempt)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.start))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.end))
		}
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans"), buf, 0o644)
}
