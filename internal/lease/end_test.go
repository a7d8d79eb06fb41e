package lease_test

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/event"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/repl"
	"sensorcer/internal/rio"
	"sensorcer/internal/space"
	"sensorcer/internal/txn"
	"sensorcer/internal/wal"
)

var policy = lease.Policy{Max: time.Hour, Min: time.Millisecond}

func openWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, wal.WithSyncEveryAppend(false))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func uidEntry(uid int64) space.Entry { return space.NewEntry("job", "uid", uid) }

// TestCancelReleasesEveryGrantor: for each grantor that hands out a
// lease.Table lease, a holder's Cancel releases the resource at once,
// from every view the grantor offers — and, for the journaled ones,
// across a restart and a replication promotion — while a second resource
// granted beside it, left alone, stays in every one of those views.
func TestCancelReleasesEveryGrantor(t *testing.T) {
	cases := []struct {
		name string
		// run grants a kept and a cancelled resource through the
		// grantor's public API and returns the cancelled one's lease and
		// check, which asserts the views after the Cancel.
		run func(t *testing.T) (cancelled lease.Lease, check func(t *testing.T))
	}{
		{"space/restart", func(t *testing.T) (lease.Lease, func(*testing.T)) {
			dir := t.TempDir()
			log := openWAL(t, dir)
			s, err := space.Recover(clockwork.Real(), policy, log)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Write(uidEntry(1), nil, time.Hour); err != nil {
				t.Fatal(err)
			}
			l, err := s.Write(uidEntry(2), nil, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			return l, func(t *testing.T) {
				views := func(stage string, s *space.Space) {
					if n := s.Count(uidEntry(2)); n != 0 {
						t.Errorf("%s: cancelled entry counted %d times", stage, n)
					}
					if n := s.Count(uidEntry(1)); n != 1 {
						t.Errorf("%s: kept entry counted %d times", stage, n)
					}
				}
				views("live", s)
				s.Close()
				_ = log.Close()
				log = openWAL(t, dir)
				defer log.Close()
				re, err := space.Recover(clockwork.Real(), policy, log)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				views("after restart", re)
				if e, err := re.Take(uidEntry(2), nil, 0); !errors.Is(err, space.ErrTimeout) {
					t.Errorf("after restart: the cancelled entry was taken: %v %v", e, err)
				}
			}
		}},
		{"space/promotion", func(t *testing.T) (lease.Lease, func(*testing.T)) {
			a, err := repl.NewNode("a", clockwork.Real(), policy, t.TempDir(),
				repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
			if err != nil {
				t.Fatal(err)
			}
			b, err := repl.NewNode("b", clockwork.Real(), policy, t.TempDir(),
				repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
			if err != nil {
				t.Fatal(err)
			}
			r, err := repl.NewRouter(clockwork.Real(), a, b)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = r.Close(); _ = a.Close(); _ = b.Close() })
			if _, err := r.Write(uidEntry(1), nil, time.Hour); err != nil {
				t.Fatal(err)
			}
			l, err := r.Write(uidEntry(2), nil, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			return l, func(t *testing.T) {
				if n := r.Count(uidEntry(2)); n != 0 {
					t.Errorf("cancelled entry counted %d times on the primary", n)
				}
				a.Kill()
				if _, err := r.Failover(r.Gen()); err != nil {
					t.Fatal(err)
				}
				if n := r.Count(uidEntry(2)); n != 0 {
					t.Errorf("promoted backup holds the cancelled entry (%d)", n)
				}
				if n := r.Count(uidEntry(1)); n != 1 {
					t.Errorf("promoted backup counts the kept entry %d times", n)
				}
			}
		}},
		{"registry", func(t *testing.T) (lease.Lease, func(*testing.T)) {
			dir := t.TempDir()
			log := openWAL(t, dir)
			lus, err := registry.Recover("lus", clockwork.Real(), log, registry.WithLeasePolicy(policy))
			if err != nil {
				t.Fatal(err)
			}
			item := func(name string) registry.ServiceItem {
				return registry.ServiceItem{Service: name, Types: []string{"Sensor"}, Attributes: attr.Set{attr.Name(name)}}
			}
			if _, err := lus.Register(item("kept"), time.Hour); err != nil {
				t.Fatal(err)
			}
			reg, err := lus.Register(item("gone"), time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			return reg.Lease, func(t *testing.T) {
				views := func(stage string, lus *registry.LookupService) {
					if n := lus.Len(); n != 1 {
						t.Errorf("%s: Len = %d, want 1", stage, n)
					}
					if _, err := lus.LookupOne(registry.ByName("gone")); !errors.Is(err, registry.ErrNotFound) {
						t.Errorf("%s: cancelled registration still looked up (%v)", stage, err)
					}
					if _, err := lus.LookupOne(registry.ByName("kept")); err != nil {
						t.Errorf("%s: kept registration: %v", stage, err)
					}
					if err := lus.Deregister(reg.ServiceID); !errors.Is(err, registry.ErrNotFound) {
						t.Errorf("%s: Deregister of the cancelled item = %v", stage, err)
					}
				}
				views("live", lus)
				lus.Close()
				_ = log.Close()
				log = openWAL(t, dir)
				defer log.Close()
				re, err := registry.Recover("lus", clockwork.Real(), log, registry.WithLeasePolicy(policy))
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				views("after restart", re)
			}
		}},
		{"event.Generator", func(t *testing.T) (lease.Lease, func(*testing.T)) {
			g := event.NewGenerator(ids.NewServiceID(), clockwork.Real(), policy)
			t.Cleanup(g.Close)
			var kept, gone atomic.Int32
			count := func(n *atomic.Int32) event.Listener {
				return event.ListenerFunc(func(event.RemoteEvent) error { n.Add(1); return nil })
			}
			if _, err := g.Register(event.AnyEvent, count(&kept), time.Hour); err != nil {
				t.Fatal(err)
			}
			l, err := g.Register(event.AnyEvent, count(&gone), time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			pumps := runtime.NumGoroutine()
			return l, func(t *testing.T) {
				if n := g.Count(); n != 1 {
					t.Errorf("Count = %d, want 1", n)
				}
				// The cancelled registration's pump has returned by the time
				// Cancel does; give the runtime a moment to retire it.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > pumps-1 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > pumps-1 {
					t.Errorf("%d goroutines after the cancel, want at most %d", n, pumps-1)
				}
				g.Fire(1, nil)
				deadline = time.Now().Add(2 * time.Second)
				for kept.Load() == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if kept.Load() != 1 || gone.Load() != 0 {
					t.Errorf("deliveries: kept %d, cancelled %d; want 1, 0", kept.Load(), gone.Load())
				}
			}
		}},
		{"event.Mailbox", func(t *testing.T) (lease.Lease, func(*testing.T)) {
			m := event.NewMailbox(clockwork.Real(), policy, 0)
			kept, _ := m.Register(time.Hour)
			gone, l := m.Register(time.Hour)
			if err := gone.Notify(event.RemoteEvent{SeqNo: 1}); err != nil {
				t.Fatal(err)
			}
			return l, func(t *testing.T) {
				if n := m.BoxCount(); n != 1 {
					t.Errorf("BoxCount = %d, want 1", n)
				}
				if err := gone.Notify(event.RemoteEvent{SeqNo: 2}); !errors.Is(err, event.ErrBoxExpired) {
					t.Errorf("Notify on the cancelled box = %v, want ErrBoxExpired", err)
				}
				if evs, _ := gone.DrainWithDropped(0); len(evs) != 0 {
					t.Errorf("cancelled box still stores %d events", len(evs))
				}
				if err := kept.Notify(event.RemoteEvent{SeqNo: 1}); err != nil {
					t.Errorf("Notify on the kept box: %v", err)
				}
			}
		}},
		{"txn.Manager", func(t *testing.T) (lease.Lease, func(*testing.T)) {
			m := txn.NewManager(clockwork.Real(), policy)
			s := space.New(clockwork.Real(), policy)
			t.Cleanup(s.Close)
			keptTx, _ := m.Create(time.Hour)
			tx, l := m.Create(time.Hour)
			if _, err := s.Write(uidEntry(1), tx, time.Hour); err != nil {
				t.Fatal(err)
			}
			return l, func(t *testing.T) {
				if n := m.Active(); n != 1 {
					t.Errorf("Active = %d, want 1", n)
				}
				if _, ok := m.Get(tx.ID()); ok {
					t.Error("cancelled transaction still tracked")
				}
				if st := tx.State(); st != txn.Aborted {
					t.Errorf("cancelled transaction is %s, want aborted", st)
				}
				if _, err := s.Read(uidEntry(1), tx, 0); !errors.Is(err, space.ErrTimeout) {
					t.Errorf("cancelled transaction's staged write still readable: %v", err)
				}
				if keptTx.State() != txn.Active {
					t.Errorf("kept transaction is %s", keptTx.State())
				}
			}
		}},
		{"rio.Monitor", func(t *testing.T) (lease.Lease, func(*testing.T)) {
			m := rio.NewMonitor(clockwork.Real(), nil)
			t.Cleanup(m.Close)
			factories := rio.NewFactoryRegistry()
			kept := rio.NewCybernode("kept", rio.Capability{CPUs: 1}, factories)
			gone := rio.NewCybernode("gone", rio.Capability{CPUs: 1}, factories)
			if _, err := m.RegisterCybernode(kept, time.Hour); err != nil {
				t.Fatal(err)
			}
			l, err := m.RegisterCybernode(gone, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			return l, func(t *testing.T) {
				nodes := m.Nodes()
				if len(nodes) != 1 || nodes[0] != kept {
					t.Errorf("Nodes = %v, want only the kept node", nodes)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, check := tc.run(t)
			if err := l.Cancel(); err != nil {
				t.Fatalf("Cancel: %v", err)
			}
			check(t)
		})
	}
}
