package placement

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestHierSplitMergeProperty drives hierarchical directories through random
// schedules of clustered accesses, forced migrations, handoff completions
// and full decay cycles, asserting after every step that the structural
// invariants hold — in particular that exactly one node owns every stripe
// (materialized or not) and that no leaf carrying a frozen stripe is ever
// merged away (CheckInvariants recounts each leaf's frozen bookkeeping, so
// a stranded freeze would surface as a mismatch or a panic on handoff).
//
// Merged leaves are recycled, so the schedule also splits random
// super-stripes directly and checks that every newly materialized leaf —
// fresh or reused — starts clean.
func TestHierSplitMergeProperty(t *testing.T) {
	r := sim.NewRand(99)
	recycled := 0
	for trial := 0; trial < 20; trial++ {
		nodes := 2 + r.Intn(6)
		stripes := 64 << r.Intn(3)
		clusters := make([]int, nodes)
		for i := range clusters {
			clusters[i] = r.Intn(1 + i)
		}
		d, err := New(Config{
			Nodes: nodes, Kind: AdaptiveHier, Stripes: stripes, Span: 1,
			LeafStripes: 8, Clusters: clusters,
			EvalEvery: 16 + r.Intn(64), MaxMoves: 1 + r.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[*leaf]bool) // every leaf ever materialized
		for step := 0; step < 4000; step++ {
			switch r.Intn(10) {
			case 0:
				d.InitiateMove(r.Intn(stripes), r.Intn(nodes))
			case 1, 2:
				for _, s := range d.PendingFor(r.Intn(nodes)) {
					if r.Intn(2) == 0 {
						d.CompleteHandoff(s)
					}
				}
			case 3:
				s := r.Intn(stripes)
				d.mu.Lock()
				split := d.leaves[s>>d.leafShift] == nil
				lf, _ := d.materialize(s)
				d.mu.Unlock()
				if split {
					if seen[lf] {
						recycled++
					}
					if err := leafClean(d, lf); err != nil {
						t.Fatalf("trial %d step %d: new leaf %d not clean: %v", trial, step, lf.id, err)
					}
				}
			default:
				// Skewed clustered accesses: a few hot leaves, the rest cold,
				// so splits and merges both happen along the way.
				base := r.Intn(4) * 8
				d.Record(r.Intn(len(clusters)), mem.Addr(base+r.Intn(8)))
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for _, lf := range d.live {
				seen[lf] = true
			}
		}
		// Drain everything, then let repeated evaluation decay all heat: no
		// frozen stripe may survive the drain, and every still-materialized
		// leaf must be there for a reason (moved ownership), never stranded
		// with pending state.
		for n := 0; n < nodes; n++ {
			for _, s := range d.PendingFor(n) {
				d.CompleteHandoff(s)
			}
			if d.HasPending(n) {
				t.Fatalf("trial %d: node %d still pending after drain", trial, n)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("trial %d post-drain: %v", trial, err)
		}
		// One owner per stripe across the whole universe.
		perNode := make([]int, nodes)
		for s := 0; s < d.NumStripes(); s++ {
			o := d.StripeOwner(s)
			if o < 0 || o >= nodes {
				t.Fatalf("trial %d: stripe %d owned by %d", trial, s, o)
			}
			perNode[o]++
		}
		total := 0
		for _, c := range perNode {
			total += c
		}
		if total != d.NumStripes() {
			t.Fatalf("trial %d: %d stripes accounted, want %d", trial, total, d.NumStripes())
		}
	}
	if recycled == 0 {
		t.Error("no merged leaf was ever reused by a split")
	}
}

// leafClean reports how lf differs from a freshly split leaf: default
// owners, nothing pending, zero counts and votes, an empty touched index
// and zero aggregates.
func leafClean(d *Directory, lf *leaf) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	base := lf.id << d.leafShift
	for i, sl := range lf.slots {
		if want := (slot{owner: d.defaultOwner(base + i), pending: -1}); sl != want {
			return fmt.Errorf("slot %d is %+v, want %+v", i, sl, want)
		}
	}
	if len(lf.touched) != 0 || lf.total != 0 || lf.frozen != 0 || lf.moved != 0 {
		return fmt.Errorf("touched %v, total %d, frozen %d, moved %d", lf.touched, lf.total, lf.frozen, lf.moved)
	}
	return nil
}

// TestRepartitionTiesPickLowestStripe records equal-count stripes in
// descending order, so both the live-leaf list and each touched index hold
// them highest first, and checks that every policy still sheds the lowest
// stripe indexes first. One-stripe-per-node leaves (LeafStripes 2 with two
// nodes) also exercise the leaf skip, whose aggregate heat ties the
// incumbent's count.
func TestRepartitionTiesPickLowestStripe(t *testing.T) {
	for _, kind := range []Kind{Adaptive, AdaptiveHier} {
		for _, leafStripes := range []int{2, 8} {
			d, err := New(Config{
				Nodes: 2, Kind: kind, Stripes: 64, Span: 1,
				LeafStripes: leafStripes, EvalEvery: 1 << 20, MaxMoves: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Even stripes all default to node 0, which carries the whole
			// load: every one is an equally good candidate.
			for s := 62; s >= 0; s -= 2 {
				d.Record(-1, mem.Addr(s))
			}
			d.mu.Lock()
			moves := d.pol.Repartition(d)
			d.mu.Unlock()
			var got []int
			for _, m := range moves {
				got = append(got, m.Stripe)
			}
			if want := []int{0, 2, 4, 6}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%v, %d-stripe leaves: moved stripes %v, want %v", kind, leafStripes, got, want)
			}
		}
	}
}

// TestRecordAllocFree pins the steady state of the adaptive directories at
// zero heap allocations per Record: on a million-stripe universe under
// uniform keys, leaves split and merge every few epochs, and merged leaves
// must be reused rather than reallocated.
func TestRecordAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, kind := range []Kind{Adaptive, AdaptiveHier} {
		d, keys := uniformDirectory(t, kind)
		j := 0
		record := func() {
			d.Record(j&1, keys[j&(len(keys)-1)])
			j++
		}
		for i := 0; i < 1<<18; i++ { // warm-up: fill the spare-leaf pool
			record()
		}
		if allocs := testing.AllocsPerRun(1<<16, record); allocs > 0.1 {
			t.Errorf("%v: %.3f allocs per Record, want <= 0.1", kind, allocs)
		}
		if d.Merges == 0 {
			t.Errorf("%v: no leaf merged, so no leaf was recycled", kind)
		}
	}
}

// uniformDirectory builds a two-cluster, four-node directory over 2^20
// one-word stripes and a stream of uniformly random keys across it.
func uniformDirectory(tb testing.TB, kind Kind) (*Directory, []mem.Addr) {
	const universe = 1 << 20
	d, err := New(Config{
		Nodes: 4, Kind: kind, RegionWords: universe, Span: 1,
		Clusters: []int{0, 0, 1, 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := sim.NewRand(5)
	keys := make([]mem.Addr, 1<<16)
	for i := range keys {
		keys[i] = mem.Addr(r.Intn(universe))
	}
	return d, keys
}

// BenchmarkDirectoryRecord measures Record from parallel goroutines, each
// with its own uniform key stream over a million-stripe universe.
func BenchmarkDirectoryRecord(b *testing.B) {
	for _, kind := range []Kind{Adaptive, AdaptiveHier} {
		b.Run(kind.String(), func(b *testing.B) {
			d, keys := uniformDirectory(b, kind)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(next.Add(1))
				j := w * 7919 // distinct stream offset per goroutine
				for pb.Next() {
					d.Record(w&1, keys[j&(len(keys)-1)])
					j++
				}
			})
		})
	}
}

// TestHierLeavesMergeWhenCold checks the merge half of the lifecycle: after
// a burst of localized traffic stops, epoch decay must dematerialize every
// cooled leaf, leaving only leaves that still carry migrated ownership.
func TestHierLeavesMergeWhenCold(t *testing.T) {
	// ImbalanceFactor prohibitive: no migrations, so no stripe ever leaves
	// its default owner and the merge path is isolated from the move path.
	d, err := New(Config{
		Nodes: 4, Kind: AdaptiveHier, Stripes: 1 << 12, Span: 1,
		LeafStripes: 64, EvalEvery: 64, ImbalanceFactor: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer one leaf's worth of stripes hard enough that per-epoch decay
	// (halving) cannot zero them while the traffic lasts.
	for i := 0; i < 512; i++ {
		d.Record(-1, mem.Addr(i%8))
	}
	if d.MaterializedLeaves() == 0 {
		t.Fatal("no leaves materialized by recorded traffic")
	}
	if d.MaterializedLeaves() > 1 {
		t.Fatalf("%d leaves materialized for an 8-stripe working set with 64-stripe leaves", d.MaterializedLeaves())
	}
	// Cold epochs: traffic on one distant stripe keeps evaluation ticking
	// while the hot leaf's counts decay to zero and it merges away.
	for i := 0; i < 64*64; i++ {
		d.Record(-1, mem.Addr(4000))
	}
	if d.Merges == 0 {
		t.Error("no leaf merged after its counts fully decayed")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHierDirectoryWorkIsOTouched is the scaling witness at the directory
// level: a million-stripe universe with a small working set must
// materialize leaves proportional to the working set, not the universe.
func TestHierDirectoryWorkIsOTouched(t *testing.T) {
	const universeWords = 1 << 20
	d, err := New(Config{
		Nodes: 8, Kind: AdaptiveHier, RegionWords: universeWords, Span: 1,
		LeafStripes: 256, EvalEvery: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.LeafUniverse() != universeWords/256 {
		t.Fatalf("leaf universe = %d, want %d", d.LeafUniverse(), universeWords/256)
	}
	// A 4096-word working set scattered across the universe.
	r := sim.NewRand(7)
	keys := make([]mem.Addr, 4096)
	for i := range keys {
		keys[i] = mem.Addr(r.Intn(universeWords))
	}
	for i := 0; i < 1<<16; i++ {
		d.Record(i%4, keys[r.Intn(len(keys))])
	}
	leaves, universe := d.MaterializedLeaves(), d.LeafUniverse()
	if leaves > len(keys) { // one leaf per key is the worst case
		t.Fatalf("%d leaves for a %d-key working set", leaves, len(keys))
	}
	if 10*leaves >= universe {
		t.Fatalf("materialized leaves %d not ≪ leaf universe %d", leaves, universe)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHierCoMappingPullsDataToAccessors checks the locality bias at the
// policy level: with two clusters whose cores touch disjoint stripe sets
// (each set starting on the wrong side), the hier policy must migrate
// stripes toward their accessors' cluster, strictly lowering the remote
// access ratio across epoch windows; the flat adaptive policy, blind to
// affinity, must end up with a higher remote ratio on the same stream.
func TestHierCoMappingPullsDataToAccessors(t *testing.T) {
	run := func(kind Kind) *Directory {
		d, err := New(Config{
			Nodes: 4, Kind: kind, Stripes: 256, Span: 1,
			LeafStripes: 16, Clusters: []int{0, 0, 1, 1},
			EvalEvery: 512, MaxMoves: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := sim.NewRand(11)
		// Cluster 0 hammers stripes whose interleaved default owners sit in
		// cluster 1 and vice versa: every access starts remote, and only
		// affinity-aware migration can fix it. Heat is skewed (Zipf-ish via
		// nested Intn) and stable across the whole run.
		for i := 0; i < 1<<16; i++ {
			k := r.Intn(1 + r.Intn(64))
			if i%2 == 0 {
				d.Record(0, mem.Addr(4*k+2)) // default owner 2: cluster 1
			} else {
				d.Record(1, mem.Addr(4*k+1)) // default owner 1: cluster 0
			}
			// Stripes drain instantly: no lock table in this test.
			for n := 0; n < 4; n++ {
				for _, s := range d.PendingFor(n) {
					d.CompleteHandoff(s)
				}
			}
		}
		return d
	}
	hier := run(AdaptiveHier)
	flat := run(Adaptive)
	hist := hier.RemoteHistory()
	if len(hist) < 2 {
		t.Fatalf("only %d epoch windows recorded", len(hist))
	}
	first, last := hist[0], hist[len(hist)-1]
	if last >= first {
		t.Errorf("hier remote ratio did not drop: first window %.3f, last %.3f", first, last)
	}
	hl, hr := hier.AccessLocality()
	fl, fr := flat.AccessLocality()
	hierRatio := float64(hr) / float64(hl+hr)
	flatRatio := float64(fr) / float64(fl+fr)
	if hierRatio >= flatRatio {
		t.Errorf("co-mapping remote ratio %.3f not below flat adaptive %.3f", hierRatio, flatRatio)
	}
	if err := hier.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
