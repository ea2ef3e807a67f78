package serve

import (
	"fmt"
	"testing"

	"dlsys/internal/fault"
)

// fleetGolden is one matrix cell's replay record: the kernel log
// fingerprint, the outcome-ledger fingerprint and the executed event
// count.
type fleetGolden struct {
	kernelFP, ledgerFP uint64
	events             int
}

// fleetMatrixFaults are the fault schedules the identity matrix crosses
// with the control-plane toggles: a calm day, the X14 flash crowd, a
// two-tenant retry storm (behind a short crowd, since a storm only bites
// once attempts fail) and a brownout of six of the ten replicas.
var fleetMatrixFaults = []struct {
	name     string
	schedule []fault.Window
}{
	{"none", nil},
	{"crowd", []fault.Window{{Kind: fault.KindArrival, StartS: 0.5, EndS: 0.8, Factor: 4}}},
	{"storm", []fault.Window{
		{Kind: fault.KindArrival, StartS: 0.5, EndS: 0.6, Factor: 3},
		{Kind: fault.KindRetryStorm, Workers: []int{0, 1}, StartS: 0.5, EndS: 1.0, Factor: 3},
	}},
	{"brownout", []fault.Window{{Kind: fault.KindBrownout, Workers: []int{0, 1, 2, 3, 4, 5}, StartS: 0.2, EndS: 0.8, Factor: 4}}},
}

// fleetMatrixGolden pins the matrix. The values were captured once from
// the closure-per-event kernel (container/heap over *Event) and the
// container/list result cache; they are never re-blessed, so any change to
// event order, stamps, the outcome ledger or the event population fails
// here.
var fleetMatrixGolden = map[string]fleetGolden{
	"none/cache=true/budget=true/adaptive=true":        {0x44642ab29b6d2d48, 0x25ad0576451210a2, 33746},
	"none/cache=true/budget=true/adaptive=false":       {0x44642ab29b6d2d48, 0x25ad0576451210a2, 33746},
	"none/cache=true/budget=false/adaptive=true":       {0x44642ab29b6d2d48, 0x25ad0576451210a2, 33746},
	"none/cache=true/budget=false/adaptive=false":      {0x44642ab29b6d2d48, 0x25ad0576451210a2, 33746},
	"none/cache=false/budget=true/adaptive=true":       {0x9f62d02a06d04e8d, 0x3054a348f4e7401, 32876},
	"none/cache=false/budget=true/adaptive=false":      {0x9f62d02a06d04e8d, 0x3054a348f4e7401, 32876},
	"none/cache=false/budget=false/adaptive=true":      {0x9f62d02a06d04e8d, 0x3054a348f4e7401, 32876},
	"none/cache=false/budget=false/adaptive=false":     {0x9f62d02a06d04e8d, 0x3054a348f4e7401, 32876},
	"crowd/cache=true/budget=true/adaptive=true":       {0xede8ec93b421b53, 0xf51a154ed71462f6, 30126},
	"crowd/cache=true/budget=true/adaptive=false":      {0xaeaaa50f5fe90e95, 0xd625c8a07d7a1758, 31290},
	"crowd/cache=true/budget=false/adaptive=true":      {0x7c435ca0ac03ffe1, 0x5b6ea460d950166, 45995},
	"crowd/cache=true/budget=false/adaptive=false":     {0x1d6d2daa3dd979e1, 0x7e3553089613bf, 54380},
	"crowd/cache=false/budget=true/adaptive=true":      {0x138333b57217ca8d, 0x4437d91407a242dd, 29390},
	"crowd/cache=false/budget=true/adaptive=false":     {0xa54555b35e682788, 0xff49f434a7903059, 31456},
	"crowd/cache=false/budget=false/adaptive=true":     {0x65f68b5447fed42d, 0xd15bb830383b73d0, 53442},
	"crowd/cache=false/budget=false/adaptive=false":    {0x4ce531b9887fb91e, 0x390714110af013be, 62074},
	"storm/cache=true/budget=true/adaptive=true":       {0xa99bec773b5e3233, 0x7062b22823fec70d, 32336},
	"storm/cache=true/budget=true/adaptive=false":      {0x25eac622f70482f8, 0xf84dce7e6efef638, 32460},
	"storm/cache=true/budget=false/adaptive=true":      {0x66d03bbef38aa3b2, 0xa4edb2bc6ee7c714, 47363},
	"storm/cache=true/budget=false/adaptive=false":     {0xbc1bf63394913862, 0x664e89af2479f8ad, 58860},
	"storm/cache=false/budget=true/adaptive=true":      {0xa897639de936f1c6, 0xf5434c60bbd0d0b3, 31853},
	"storm/cache=false/budget=true/adaptive=false":     {0x6293aa94e1a7dab0, 0xcecf588e9c9ec901, 32412},
	"storm/cache=false/budget=false/adaptive=true":     {0xd857460a423d8397, 0x57279d914b57c1b6, 56239},
	"storm/cache=false/budget=false/adaptive=false":    {0x6a8b8cc54e2f1644, 0x39cf01767433b249, 67772},
	"brownout/cache=true/budget=true/adaptive=true":    {0x3d9812de063d8af, 0x4badc58d38d1e3db, 31945},
	"brownout/cache=true/budget=true/adaptive=false":   {0xd601cf936d292ee0, 0x166f1c4eb0b44772, 32308},
	"brownout/cache=true/budget=false/adaptive=true":   {0x54ad8809d786b485, 0x1722c7d2c6ac1c40, 38783},
	"brownout/cache=true/budget=false/adaptive=false":  {0xa96761b96038ceab, 0x5b7270aacdcf772a, 63249},
	"brownout/cache=false/budget=true/adaptive=true":   {0x7d86d5f7156f6cef, 0x3e17a5a7f39be9e, 32221},
	"brownout/cache=false/budget=true/adaptive=false":  {0xe1b2d233ab3f00ba, 0x1340d59602f8ba04, 32313},
	"brownout/cache=false/budget=false/adaptive=true":  {0x59ce186c6e9edd62, 0xe1ea304d47bb050a, 45709},
	"brownout/cache=false/budget=false/adaptive=false": {0xc51ec3906d4dd6c7, 0xd45430ba3ac205e6, 78653},
}

// TestFleetBitIdentity runs the fleet over cache on/off × retry budgets
// on/off × adaptive admission on/off × four fault schedules, autoscaler
// on, and checks every cell's kernel fingerprint, ledger fingerprint and
// event count against the golden values.
func TestFleetBitIdentity(t *testing.T) {
	for _, fs := range fleetMatrixFaults {
		for _, cache := range []bool{true, false} {
			for _, budget := range []bool{true, false} {
				for _, adaptive := range []bool{true, false} {
					name := fmt.Sprintf("%s/cache=%v/budget=%v/adaptive=%v", fs.name, cache, budget, adaptive)
					cfg := fleetScenario(17, 24000, true)
					cfg.Faults.Schedule = fs.schedule
					cfg.Cache.Disabled = !cache
					cfg.Budget.Disabled = !budget
					cfg.Admission.Adaptive = adaptive
					f, err := NewFleet(cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					res := f.Run()
					got := fleetGolden{f.Kernel().Fingerprint(), res.LedgerFP, f.Kernel().Processed()}
					want, ok := fleetMatrixGolden[name]
					if !ok {
						t.Errorf("%s: no golden record", name)
						continue
					}
					if got != want {
						t.Errorf("%s: got {kernel %x, ledger %x, events %d}, golden {kernel %x, ledger %x, events %d}",
							name, got.kernelFP, got.ledgerFP, got.events, want.kernelFP, want.ledgerFP, want.events)
					}
				}
			}
		}
	}
}
