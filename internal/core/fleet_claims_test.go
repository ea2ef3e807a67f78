package core

import (
	"runtime"
	"testing"
)

// TestX14FleetClaims pins the X14 acceptance criteria at Quick scale:
// the budgets-off arm collapses metastably after the flash crowd, the
// full control plane recovers within the stated virtual-time bound and
// holds the per-tenant availability floor, the autoscaler and cache
// leave evidence, every obs counter reconciles exactly with the request
// ledger, and the day replays bit-identically. Every check rides on
// deterministic simulated quantities, so one run suffices.
func TestX14FleetClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("X14 overload day skipped in -short mode")
	}
	e, ok := Get("X14")
	if !ok {
		t.Fatal("X14 not registered")
	}
	tab := e.Run(Quick)
	t.Log("\n" + tab.Render())
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}
	want := map[string]bool{
		"scale":                             false,
		"metastable-collapse (budgets off)": false,
		"recovery (full control plane)":     false,
		"tenant-isolation":                  false,
		"elasticity+cache":                  false,
		"reconcile":                         false,
		"replay":                            false,
	}
	for _, row := range tab.Rows {
		check := row[col["check"]]
		if _, known := want[check]; !known {
			t.Errorf("unexpected row %q", check)
			continue
		}
		want[check] = true
		if row[col["ok"]] != "yes" {
			t.Errorf("%s failed: %s", check, row[col["detail"]])
		}
	}
	for check, seen := range want {
		if !seen {
			t.Errorf("missing row %q", check)
		}
	}
}

// TestX14ReplaysAcrossGOMAXPROCS extends the replay contract to the
// scheduler for the overload day: both X14 arms replayed at GOMAXPROCS 1,
// 2 and 8 must leave the kernel log, the fleet's outcome ledger and the
// metric registry fingerprints identical.
func TestX14ReplaysAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("X14 overload day skipped in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, fullPlane := range []bool{true, false} {
		var ref [3]uint64
		for i, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			res, kernelFP, regFP, _, err := x14Run(x14Requests(Quick), fullPlane)
			if err != nil {
				t.Fatalf("fullPlane=%v GOMAXPROCS=%d: %v", fullPlane, procs, err)
			}
			got := [3]uint64{kernelFP, res.LedgerFP, regFP}
			if i == 0 {
				ref = got
				continue
			}
			if got != ref {
				t.Errorf("fullPlane=%v GOMAXPROCS=%d fingerprints (kernel, ledger, registry) %x, GOMAXPROCS=1 %x",
					fullPlane, procs, got, ref)
			}
		}
	}
}
