package core

import "testing"

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
