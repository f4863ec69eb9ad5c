package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
)

// TestGoldenBankTrace pins the simulated 48-core FairCM bank (seed 1, a
// fixed 1 ms virtual window) to constants: the kernel's event-trace hash
// and the run's counters. Any change to simulated event order or protocol
// behaviour moves them; the same-build determinism tests cannot see that.
func TestGoldenBankTrace(t *testing.T) {
	s, err := NewSystem(Config{
		Platform:   noc.SCC(0),
		Seed:       1,
		TotalCores: 48,
		Policy:     cm.FairCM,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.K.EnableTraceHash()
	const accounts = 1024
	pool := s.Mem.Alloc(accounts, 0)
	for a := 0; a < accounts; a++ {
		s.Mem.WriteRaw(pool+mem.Addr(a), 100)
	}
	s.SpawnWorkers(func(rt *Runtime) {
		r := rt.Rand()
		for !rt.Stopped() {
			from := r.Intn(accounts)
			to := (from + 1 + r.Intn(accounts-1)) % accounts
			rt.Run(func(tx *Tx) {
				f := tx.Read(pool + mem.Addr(from))
				tv := tx.Read(pool + mem.Addr(to))
				tx.Write(pool+mem.Addr(from), f-1)
				tx.Write(pool+mem.Addr(to), tv+1)
			})
			rt.AddOps(1)
		}
	})
	st := s.Run(time.Millisecond)
	got := fmt.Sprintf("trace=%#x events=%d commits=%d aborts=%d ops=%d msgs=%d wire=%d "+
		"readlocks=%d writelocks=%d releases=%d responses=%d roundtrips=%d conflicts=%d revocations=%d duration=%d",
		s.K.TraceHash(), s.K.EventsRun(), st.Commits, st.Aborts, st.Ops, st.Msgs, st.WireMsgs,
		st.ReadLockReqs, st.WriteLockReqs, st.ReleaseMsgs, st.Responses, st.CommitRoundTrips,
		st.Conflicts, st.Revocations, st.Duration)
	const want = "trace=0x6b85d86c7e83166d events=14176 commits=554 aborts=28 ops=554 msgs=5620 wire=5620 " +
		"readlocks=1152 writelocks=1101 releases=1114 responses=2253 roundtrips=564 conflicts=40 revocations=16 duration=1058312"
	if got != want {
		t.Fatalf("golden bank run moved:\n got %s\nwant %s", got, want)
	}
}
