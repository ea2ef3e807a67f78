package core

import "testing"

// TestX11LiveIndexClaims pins the X11 acceptance criteria: across the
// drift-schedule × fault-rate matrix, the online index-maintenance engine
// holds all four invariants — (a) 100% availability with every answer
// matching the client-side oracle, (b) no validated index serving past its
// declared max search window, (c) exact counter/stats/ledger
// reconciliation with bit-identical kernel/ledger/registry replay in every
// cell, and (d) the learned latency/memory win re-attained live after
// retrains, with corrupted bursts quarantined on rollback. Every check is
// on deterministic simulated quantities, so one run suffices.
func TestX11LiveIndexClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("X11 drift matrix skipped in -short mode")
	}
	e, ok := Get("X11")
	if !ok {
		t.Fatal("X11 not registered")
	}
	tab := e.Run(Quick)
	t.Log("\n" + tab.Render())
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}

	wantChecks := []string{
		"matrix",
		"cell-steady-clean", "cell-steady-bursty",
		"cell-gradual-clean", "cell-gradual-bursty",
		"cell-flash-clean", "cell-flash-bursty",
		"invariant-a-availability", "invariant-b-window-contract",
		"invariant-c-reconcile-replay", "invariant-d-learned-win",
	}
	if len(tab.Rows) != len(wantChecks) {
		t.Fatalf("X11 produced %d rows, want %d: %v", len(tab.Rows), len(wantChecks), tab.Rows)
	}
	for i, row := range tab.Rows {
		if row[col["check"]] != wantChecks[i] {
			t.Errorf("row %d is %q, want %q", i, row[col["check"]], wantChecks[i])
			continue
		}
		if row[col["ok"]] != "yes" {
			t.Errorf("%s failed: %s", row[col["check"]], row[col["detail"]])
		}
	}
}
