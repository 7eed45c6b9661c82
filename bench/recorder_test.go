package main

import (
	"errors"
	"fmt"
	"testing"

	"zombiessd/internal/ftl"
	"zombiessd/internal/health"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/trace"
	"zombiessd/internal/workload"
)

// readOnly is a device whose governor has gone read-only: every write is
// refused with health.ErrReadOnly wrapped the way the health device wraps
// it, and the health report says so.
type readOnly struct{ sim.Device }

func (readOnly) HealthStats() health.Stats { return health.Stats{State: health.ReadOnly} }

func (readOnly) Write(lpn ftl.LPN, _ trace.Hash, _ ssd.Time) (ssd.Time, error) {
	return 0, fmt.Errorf("sim: write of LPN %d rejected: %w", lpn, health.ErrReadOnly)
}

func (d readOnly) Store() *ftl.Store { return sim.StoreOf(d.Device) }

// TestRecordersAreTransparent checks, for the device of every workload,
// that both recorders forward everything sim.RunTenants type-asserts on:
// a dropped forward would silently switch off the tenant ledger,
// telemetry, chip utilisation or the health report and change what the
// benchmark measures. A read-only refusal must also reach the engine
// recognisably, so it sheds the write instead of aborting the run.
func TestRecordersAreTransparent(t *testing.T) {
	const footprint = 4096
	wrappers := map[string]func(sim.Device) sim.Device{
		"ack":    func(d sim.Device) sim.Device { return newAckRecorder(d, footprint) },
		"timing": func(d sim.Device) sim.Device { return newTimingRecorder(newAckRecorder(d, footprint), true) },
	}
	for _, w := range workloads {
		for name, wrap := range wrappers {
			t.Run(w.name+"/"+name, func(t *testing.T) {
				dev, err := sim.NewDevice(w.device(footprint, smokeRequests))
				if err != nil {
					t.Fatal(err)
				}
				rec := wrap(dev)
				if sim.StoreOf(rec) == nil || sim.StoreOf(rec) != sim.StoreOf(dev) {
					t.Error("Store is not forwarded")
				}
				type busser interface{ Bus() *ssd.Bus }
				if b, ok := rec.(busser); !ok || b.Bus() == nil || b.Bus() != dev.(busser).Bus() {
					t.Error("Bus is not forwarded")
				}
				type healthy interface{ HealthStats() health.Stats }
				var want health.Stats
				if hs, ok := dev.(healthy); ok {
					want = hs.HealthStats()
				}
				if hs, ok := rec.(healthy); !ok || hs.HealthStats() != want {
					t.Error("HealthStats is not forwarded")
				}
				h := trace.HashOfValue(7)
				if _, err := rec.Write(3, h, 0); err != nil {
					t.Fatal(err)
				}
				if hr, ok := rec.(sim.HashReader); !ok {
					t.Error("ReadHash is not forwarded")
				} else if got, ok := hr.ReadHash(3); !ok || got != h {
					t.Errorf("ReadHash(3) = %x, %v; want %x", got, ok, h)
				}

				shed := wrap(readOnly{dev})
				p, _ := workload.ProfileByName("mail")
				traces, err := sim.GenerateTenants([]sim.TenantConfig{{Name: "host", Profile: p, Weight: 1}}, 2000, 1)
				if err != nil {
					t.Fatal(err)
				}
				var writes int64
				for _, r := range traces[0].Recs {
					if r.Op == trace.OpWrite {
						writes++
					}
				}
				mr, err := sim.RunTenants(shed, traces, sim.EngineOptions{LogicalPages: footprint})
				if err != nil {
					t.Fatalf("a read-only refusal aborted the run: %v", err)
				}
				if got := mr.Tenants[0].WritesRejected; got != writes {
					t.Errorf("%d writes shed as read-only, want %d", got, writes)
				}
				if mr.Health.State != health.ReadOnly {
					t.Errorf("the engine saw health state %v through the recorder, want read-only", mr.Health.State)
				}
				if _, err := shed.Write(5, h, 0); !errors.Is(err, health.ErrReadOnly) {
					t.Errorf("write error %v does not match health.ErrReadOnly", err)
				}
				ack, _ := shed.(*ackRecorder)
				if tr, ok := shed.(*timingRecorder); ok {
					ack = tr.inner.(*ackRecorder)
				}
				if ack.acked[5] != sim.PreconditionHash(5) {
					t.Error("the oracle recorded a refused write as acknowledged")
				}
			})
		}
	}
}
