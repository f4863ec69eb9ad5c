package core

import (
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
)

// The coalescing message plane (TransportCoalesce) must change how protocol
// payloads travel — fewer, fatter wire messages — without changing what the
// protocol decides. These tests pin both halves: per-seed outcome
// equivalence (commits, aborts, final memory, serializability audit) on a
// deterministic workload where coalescing genuinely merges, and an
// invariant + wire-count check on a contended bank workload.

// coalesceSystem builds a sim system whose commit bursts produce several
// payloads per destination node: NoBatching splits the scatter burst into
// one request per object, which is exactly the multiplicity the transport
// re-merges (the protocol-batching ablation grid in exp/ablations.go shows
// the same effect at scale).
func coalesceSystem(t *testing.T, seed uint64, tr Transport) *System {
	t.Helper()
	s, err := NewSystem(Config{
		Platform:     noc.SCC(0),
		Seed:         seed,
		TotalCores:   12,
		ServiceCores: 4,
		Policy:       cm.FairCM,
		NoBatching:   true,
		Transport:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// disjointRun executes a fixed, conflict-free workload: every worker
// performs a deterministic sequence of 6-object writes confined to its own
// slice of the array, so the protocol outcome — commits, aborts, every
// final memory word — is defined independently of message timing. Returns
// the final memory image alongside the stats.
func disjointRun(t *testing.T, seed uint64, tr Transport) (*Stats, []uint64) {
	t.Helper()
	s := coalesceSystem(t, seed, tr)
	s.EnableAudit()
	const perCore, rounds = 64, 12
	n := s.NumAppCores()
	base := s.Mem.Alloc(n*perCore, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		r := rt.Rand()
		lo := rt.AppIndex() * perCore
		for i := 0; i < rounds; i++ {
			rt.Run(func(tx *Tx) {
				for k := 0; k < 6; k++ {
					slot := lo + r.Intn(perCore)
					tx.Write(base+mem.Addr(slot), uint64(slot)<<16|uint64(i))
				}
			})
		}
	})
	st := s.RunToCompletion()
	if err := s.CheckAudit(nil); err != nil {
		t.Fatalf("audit failed (transport=%v, seed=%d): %v", tr, seed, err)
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Fatalf("%d locks leaked (transport=%v, seed=%d)", leaked, tr, seed)
	}
	img := make([]uint64, n*perCore)
	for i := range img {
		img[i] = s.Mem.ReadRaw(base + mem.Addr(i))
	}
	return st, img
}

// TestCoalesceOutcomeEquivalence: per seed, a coalesced run must reach the
// exact same protocol outcome as the uncoalesced run — same commits, same
// aborts, same logical message counts, identical final memory, clean audit
// — while provably merging (strictly fewer wire messages, payloads riding
// in shared envelopes). This is the non-vacuous equivalence the coalescing
// refactor promises: only the wire format changed, not the protocol.
func TestCoalesceOutcomeEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		off, imgOff := disjointRun(t, seed, TransportPlain)
		on, imgOn := disjointRun(t, seed, TransportCoalesce)
		if off.Commits != on.Commits || off.Aborts != on.Aborts {
			t.Errorf("seed %d: commits/aborts %d/%d coalesced vs %d/%d uncoalesced",
				seed, on.Commits, on.Aborts, off.Commits, off.Aborts)
		}
		if off.Msgs != on.Msgs {
			t.Errorf("seed %d: logical payloads %d coalesced vs %d uncoalesced",
				seed, on.Msgs, off.Msgs)
		}
		for i := range imgOff {
			if imgOff[i] != imgOn[i] {
				t.Fatalf("seed %d: final memory diverges at word %d: %#x vs %#x",
					seed, i, imgOn[i], imgOff[i])
			}
		}
		if off.WireMsgs != off.Msgs || off.CoalescedPayloads != 0 {
			t.Errorf("seed %d: uncoalesced run counted %d wire msgs for %d payloads (%d coalesced)",
				seed, off.WireMsgs, off.Msgs, off.CoalescedPayloads)
		}
		if on.WireMsgs >= off.WireMsgs {
			t.Errorf("seed %d: coalescing did not reduce wire messages (%d vs %d) — equivalence is vacuous",
				seed, on.WireMsgs, off.WireMsgs)
		}
		if on.CoalescedPayloads == 0 {
			t.Errorf("seed %d: no payload rode a shared envelope", seed)
		}
	}
}

// TestCoalesceContendedBankFewerWireMsgs: on a contended bank workload the
// coalesced plane must send strictly fewer wire messages for the same kind
// of work, and every correctness invariant must hold: money conserved,
// empty lock tables, clean serializability audit.
func TestCoalesceContendedBankFewerWireMsgs(t *testing.T) {
	run := func(tr Transport) *Stats {
		s := coalesceSystem(t, 3, tr)
		s.EnableAudit()
		const accounts = 48
		base := s.Mem.Alloc(accounts, 0)
		initial := make(map[mem.Addr]uint64, accounts)
		for i := 0; i < accounts; i++ {
			s.Mem.WriteRaw(base+mem.Addr(i), 100)
			initial[base+mem.Addr(i)] = 100
		}
		s.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for i := 0; i < 30; i++ {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				rt.Run(func(tx *Tx) {
					f := tx.Read(base + mem.Addr(from))
					tv := tx.Read(base + mem.Addr(to))
					tx.Write(base+mem.Addr(from), f-1)
					tx.Write(base+mem.Addr(to), tv+1)
				})
			}
		})
		st := s.RunToCompletion()
		if err := s.CheckAudit(initial); err != nil {
			t.Fatalf("audit failed (transport=%v): %v", tr, err)
		}
		if leaked := s.LockedAddrs(); leaked != 0 {
			t.Fatalf("%d locks leaked (transport=%v)", leaked, tr)
		}
		var total uint64
		for i := 0; i < accounts; i++ {
			total += s.Mem.ReadRaw(base + mem.Addr(i))
		}
		if want := uint64(accounts) * 100; total != want {
			t.Fatalf("money not conserved (transport=%v): %d != %d", tr, total, want)
		}
		return st
	}
	off, on := run(TransportPlain), run(TransportCoalesce)
	if on.WireMsgs >= off.WireMsgs {
		t.Errorf("contended bank: coalesced run sent %d wire messages, uncoalesced %d — want strictly fewer",
			on.WireMsgs, off.WireMsgs)
	}
	if on.PayloadsPerWireMsg() <= 1 {
		t.Errorf("contended bank: payloads/wire = %.3f, want > 1", on.PayloadsPerWireMsg())
	}
}

// TestCoalesceMultitaskConserves exercises the multitask flush points (the
// co-located node's staged responses leave at every dispatch boundary):
// a coalesced multitask bank must drain, conserve money, and leak no locks.
func TestCoalesceMultitaskConserves(t *testing.T) {
	s, err := NewSystem(Config{
		Platform:   noc.SCC(0),
		Seed:       11,
		TotalCores: 6,
		Deployment: Multitask,
		Policy:     cm.FairCM,
		NoBatching: true,
		Transport:  TransportCoalesce,
	})
	if err != nil {
		t.Fatal(err)
	}
	const accounts = 32
	base := s.Mem.Alloc(accounts, 0)
	for i := 0; i < accounts; i++ {
		s.Mem.WriteRaw(base+mem.Addr(i), 100)
	}
	s.SpawnWorkers(func(rt *Runtime) {
		r := rt.Rand()
		for i := 0; i < 25; i++ {
			from := r.Intn(accounts)
			to := (from + 1 + r.Intn(accounts-1)) % accounts
			rt.Run(func(tx *Tx) {
				f := tx.Read(base + mem.Addr(from))
				tv := tx.Read(base + mem.Addr(to))
				tx.Write(base+mem.Addr(from), f-1)
				tx.Write(base+mem.Addr(to), tv+1)
			})
		}
	})
	st := s.RunToCompletion()
	if st.Commits == 0 {
		t.Fatal("nothing committed")
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Fatalf("%d locks leaked", leaked)
	}
	var total uint64
	for i := 0; i < accounts; i++ {
		total += s.Mem.ReadRaw(base + mem.Addr(i))
	}
	if want := uint64(accounts) * 100; total != want {
		t.Fatalf("money not conserved: %d != %d", total, want)
	}
}

// TestCoalesceDeterministic: the coalesced plane must stay bit-identical
// across same-seed sim runs — staging and flushing introduce no map-order
// or other nondeterminism.
func TestCoalesceDeterministic(t *testing.T) {
	run := func() *Stats {
		s := coalesceSystem(t, 21, TransportCoalesce)
		const accounts = 24
		base := s.Mem.Alloc(accounts, 0)
		s.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for !rt.Stopped() {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				rt.Run(func(tx *Tx) {
					f := tx.Read(base + mem.Addr(from))
					tx.Write(base+mem.Addr(from), f-1)
					tx.Write(base+mem.Addr(to), tx.Read(base+mem.Addr(to))+1)
				})
				rt.AddOps(1)
			}
		})
		return s.Run(2 * time.Millisecond)
	}
	a, b := run(), run()
	if a.Commits != b.Commits || a.Aborts != b.Aborts || a.Msgs != b.Msgs ||
		a.WireMsgs != b.WireMsgs || a.CoalescedPayloads != b.CoalescedPayloads {
		t.Fatalf("same-seed coalesced runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestCoalesceEagerAndElastic: the non-default protocol modes run through
// the coalesced plane too (eager write locks are awaited round trips, the
// elastic-early release burst is staged); both must quiesce cleanly.
func TestCoalesceEagerAndElastic(t *testing.T) {
	for _, acq := range []AcquireMode{Eager, Lazy} {
		s2, err := NewSystem(Config{
			Platform:     noc.SCC(0),
			Seed:         17,
			TotalCores:   8,
			ServiceCores: 2,
			Policy:       cm.FairCM,
			Acquire:      acq,
			Transport:    TransportCoalesce,
		})
		if err != nil {
			t.Fatal(err)
		}
		base := s2.Mem.Alloc(16, 0)
		s2.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for i := 0; i < 15; i++ {
				rt.RunKind(ElasticEarly, func(tx *Tx) {
					a := mem.Addr(r.Intn(16))
					tx.Read(base + a)
					tx.EarlyRelease(base + a)
					tx.Write(base+mem.Addr(r.Intn(16)), uint64(i))
				})
			}
		})
		s2.RunToCompletion()
		if leaked := s2.LockedAddrs(); leaked != 0 {
			t.Fatalf("acquire=%v: %d locks leaked", acq, leaked)
		}
	}
}

// TestCoalesceSingletonPlaneBitIdentical pins the strongest transparency
// property of the coalescing plane: when no burst has two payloads for one
// destination (default protocol batching — one write-lock request, one
// release per node per burst), every flush is a singleton and goes out as
// a bare payload at the same virtual instant with the same MsgDelay, so a
// coalesced sim run is BIT-IDENTICAL to the uncoalesced run — not merely
// outcome-equivalent.
func TestCoalesceSingletonPlaneBitIdentical(t *testing.T) {
	run := func(tr Transport) *Stats {
		s, err := NewSystem(Config{
			Platform:     noc.SCC(0),
			Seed:         13,
			TotalCores:   12,
			ServiceCores: 4,
			Policy:       cm.FairCM,
			Transport:    tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		const accounts = 48
		base := s.Mem.Alloc(accounts, 0)
		s.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for !rt.Stopped() {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				rt.Run(func(tx *Tx) {
					f := tx.Read(base + mem.Addr(from))
					tv := tx.Read(base + mem.Addr(to))
					tx.Write(base+mem.Addr(from), f-1)
					tx.Write(base+mem.Addr(to), tv+1)
				})
				rt.AddOps(1)
			}
		})
		return s.Run(2 * time.Millisecond)
	}
	off, on := run(TransportPlain), run(TransportCoalesce)
	if off.Commits != on.Commits || off.Aborts != on.Aborts || off.Msgs != on.Msgs ||
		off.MsgBytes != on.MsgBytes || off.Duration != on.Duration {
		t.Fatalf("singleton-burst coalesced run diverged from uncoalesced:\noff %+v\non  %+v", off, on)
	}
	if on.WireMsgs != on.Msgs || on.CoalescedPayloads != 0 {
		t.Fatalf("singleton bursts produced envelopes: %d wire msgs for %d payloads, %d coalesced",
			on.WireMsgs, on.Msgs, on.CoalescedPayloads)
	}
}
