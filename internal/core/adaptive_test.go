package core

import (
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// Adaptive outbox flush (TransportAdaptive) defers fire-and-forget
// traffic below the platform's bytes-per-fixed-cost sweet spot so a later
// burst to the same node shares the envelope. These tests pin the contract:
// it only changes when staged payloads leave, never what the protocol
// decides; the size trigger degenerates to the plain coalescing plane; and
// everything stays deterministic in virtual time.

func adaptiveSystem(t *testing.T, seed uint64, mut func(*Config)) *System {
	t.Helper()
	cfg := Config{
		Platform:     noc.SCC(0),
		Seed:         seed,
		TotalCores:   12,
		ServiceCores: 4,
		Policy:       cm.FairCM,
		NoBatching:   true, // several payloads per destination per burst
		Transport:    TransportCoalesce,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAdaptiveFlushRequiresCoalesce: adaptive flush is a policy over
// staged envelopes, so TransportAdaptive must stage bursts exactly like
// TransportCoalesce does.
func TestAdaptiveFlushRequiresCoalesce(t *testing.T) {
	s := adaptiveSystem(t, 1, func(c *Config) { c.Transport = TransportAdaptive })
	if !s.coalesce() {
		t.Fatal("TransportAdaptive does not stage bursts in the outbox")
	}
}

func TestAdaptiveFlushDefaultsFromPlatform(t *testing.T) {
	s := adaptiveSystem(t, 1, func(c *Config) { c.Transport = TransportAdaptive })
	pl := s.cfg.Platform
	if want := pl.FlushBytes(); s.flushBytes != want {
		t.Errorf("size trigger is %d, want platform sweet spot %d", s.flushBytes, want)
	}
	if want := sim.Time(pl.FlushAge()); s.flushAge != want {
		t.Errorf("age trigger is %v, want platform bound %v", s.flushAge, want)
	}
}

// adaptiveDisjointRun is the conflict-free fixed workload of the coalesce
// tests: every protocol decision is independent of message timing, so any
// configuration of the transport must reach the identical outcome.
func adaptiveDisjointRun(t *testing.T, seed uint64, mut func(*Config)) (*Stats, []uint64) {
	t.Helper()
	s := adaptiveSystem(t, seed, mut)
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
		t.Fatalf("audit failed (seed %d): %v", seed, err)
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Fatalf("%d locks leaked (seed %d)", leaked, seed)
	}
	img := make([]uint64, n*perCore)
	for i := range img {
		img[i] = s.Mem.ReadRaw(base + mem.Addr(i))
	}
	return st, img
}

// TestAdaptiveFlushOutcomeEquivalence: on the timing-independent workload,
// adaptive flushing must reach the exact outcome of the plain coalescing
// plane — same commits and aborts, same logical payloads, identical final
// memory — while non-vacuously deferring: strictly fewer wire messages,
// because held-back release envelopes merge into later bursts.
func TestAdaptiveFlushOutcomeEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		plain, imgP := adaptiveDisjointRun(t, seed, nil)
		adpt, imgA := adaptiveDisjointRun(t, seed, func(c *Config) { c.Transport = TransportAdaptive })
		if plain.Commits != adpt.Commits || plain.Aborts != adpt.Aborts {
			t.Errorf("seed %d: commits/aborts %d/%d adaptive vs %d/%d plain",
				seed, adpt.Commits, adpt.Aborts, plain.Commits, plain.Aborts)
		}
		if plain.Msgs != adpt.Msgs {
			t.Errorf("seed %d: logical payloads %d adaptive vs %d plain", seed, adpt.Msgs, plain.Msgs)
		}
		for i := range imgP {
			if imgP[i] != imgA[i] {
				t.Fatalf("seed %d: final memory diverges at word %d: %#x vs %#x",
					seed, i, imgA[i], imgP[i])
			}
		}
		if adpt.WireMsgs >= plain.WireMsgs {
			t.Errorf("seed %d: adaptive flush did not reduce wire messages (%d vs %d) — deferral is vacuous",
				seed, adpt.WireMsgs, plain.WireMsgs)
		}
	}
}

// TestAdaptiveFlushDeterministic: adaptive flushing must stay bit-identical
// across same-seed sim runs — the size and age triggers read only virtual
// time and staged byte counts, never wall-clock state.
func TestAdaptiveFlushDeterministic(t *testing.T) {
	run := func() *Stats {
		s := adaptiveSystem(t, 21, func(c *Config) { c.Transport = TransportAdaptive })
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
		a.WireMsgs != b.WireMsgs || a.CoalescedPayloads != b.CoalescedPayloads ||
		a.Duration != b.Duration {
		t.Fatalf("same-seed adaptive runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestAdaptiveFlushSizeTriggerDegenerates: on a platform whose
// bytes-per-fixed-cost sweet spot is a single byte (per-byte cost equal to
// the fixed per-message overhead), every staged entry satisfies the size
// trigger at every soft flush point, so the adaptive plane must be
// BIT-IDENTICAL to the plain coalescing plane — same emission order, same
// virtual instants, same wire message count. This pins two properties at
// once: the size trigger emits whole entries in staged order (a burst is
// never split or reordered), and turning adaptive off loses nothing but the
// deferral.
func TestAdaptiveFlushSizeTriggerDegenerates(t *testing.T) {
	pl := noc.SCC(0)
	pl.PerByte = pl.SendOverhead + pl.RecvOverhead
	if pl.FlushBytes() > 1 {
		t.Fatalf("platform size trigger is %d bytes, want <= 1", pl.FlushBytes())
	}
	run := func(adaptive bool) *Stats {
		s := adaptiveSystem(t, 13, func(c *Config) {
			c.Platform = pl
			if adaptive {
				c.Transport = TransportAdaptive
			}
		})
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
	off, on := run(false), run(true)
	if off.Commits != on.Commits || off.Aborts != on.Aborts || off.Msgs != on.Msgs ||
		off.MsgBytes != on.MsgBytes || off.WireMsgs != on.WireMsgs ||
		off.CoalescedPayloads != on.CoalescedPayloads || off.Duration != on.Duration {
		t.Fatalf("size-trigger-1 adaptive run diverged from plain coalescing:\noff %+v\non  %+v", off, on)
	}
}

// TestAdaptiveFlushContendedConserves: under real contention deferred
// releases interact with lock stealing (an enemy can revoke a lock whose
// release is still staged). The run must drain with money conserved, no
// leaked locks, and a clean serializability audit.
func TestAdaptiveFlushContendedConserves(t *testing.T) {
	s := adaptiveSystem(t, 3, func(c *Config) { c.Transport = TransportAdaptive })
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
	if st.Commits == 0 {
		t.Fatal("nothing committed")
	}
	if err := s.CheckAudit(initial); err != nil {
		t.Fatalf("audit failed: %v", err)
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
