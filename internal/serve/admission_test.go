package serve

import "testing"

func TestCodelStateMachine(t *testing.T) {
	c := codel{target: 0.005, interval: 0.1}
	// Below-target sojourns never arm the controller.
	for i := 0; i < 100; i++ {
		c.onDequeue(0.004, float64(i)*0.01)
		if c.shouldShed(float64(i) * 0.01) {
			t.Fatal("shed with sojourn below target")
		}
	}
	// One above-target sample arms first_above but does not shed yet.
	c.onDequeue(0.01, 1.0)
	if c.dropping || c.shouldShed(1.0) {
		t.Fatal("entered dropping before a full interval above target")
	}
	// Staying above target for a full interval enters dropping.
	c.onDequeue(0.01, 1.11)
	if !c.dropping {
		t.Fatal("sustained high sojourn did not enter dropping")
	}
	// The first shed happens immediately; the next only after
	// interval/sqrt(2).
	if !c.shouldShed(1.11) {
		t.Fatal("dropping state refused the first shed")
	}
	if c.shouldShed(1.12) {
		t.Fatal("second shed came before the control-law gap")
	}
	if !c.shouldShed(1.25) {
		t.Fatal("control law never released the second shed")
	}
	// One below-target sojourn resets everything.
	c.onDequeue(0.001, 1.3)
	if c.dropping || c.shouldShed(1.3) {
		t.Fatal("below-target sojourn did not exit dropping")
	}
}

func TestAdmitterLegacyQueueCap(t *testing.T) {
	a := newAdmitter(AdmissionConfig{QueueCap: 5}, 0.02, 0.001, 25000, []float64{1})
	for q := 0; q < 5; q++ {
		if !a.admit(0, 0, 10 /* even an absurd delay estimate */, q) {
			t.Fatalf("legacy gate rejected with queue %d below cap", q)
		}
	}
	if a.admit(0, 0, 0, 5) {
		t.Fatal("legacy gate admitted past the cap")
	}
}

func TestAdmitterDeadlineInfeasibility(t *testing.T) {
	a := newAdmitter(AdmissionConfig{Adaptive: true}, 0.02, 0.001, 25000, []float64{1})
	if !a.admit(0, 0, 0.018, 0) {
		t.Fatal("feasible request rejected")
	}
	if a.admit(0, 0, 0.0195, 0) {
		t.Fatal("infeasible request admitted (est delay + service > deadline)")
	}
}

func TestAdmitterFairShareCaps(t *testing.T) {
	// Two tenants, 75/25 entitlements, drain 25k/s, deadline 20ms:
	// horizon = (0.02-0.001)*25000 = 475 slots, fairDepth 237.
	a := newAdmitter(AdmissionConfig{Adaptive: true}, 0.02, 0.001, 25000, []float64{0.75, 0.25})
	if a.tenantCap[0] <= a.tenantCap[1] {
		t.Fatalf("caps %v do not follow entitlements", a.tenantCap)
	}
	// Underloaded: tenant 1 may exceed its cap (work-conserving).
	for i := 0; i < a.tenantCap[1]+5; i++ {
		a.enqueued(1)
	}
	if !a.admit(1, 0, 0, a.fairDepth-1) {
		t.Fatal("fair cap enforced while the fleet is underloaded")
	}
	// Overloaded: the cap binds for tenant 1 but tenant 0 still enters.
	if a.admit(1, 0, 0, a.fairDepth+1) {
		t.Fatal("over-cap tenant admitted under overload")
	}
	if !a.admit(0, 0, 0, a.fairDepth+1) {
		t.Fatal("under-cap tenant rejected under overload")
	}
}

func TestRetryBudgetTokens(t *testing.T) {
	b := newRetryBudget(RetryBudgetConfig{Ratio: 0.1, Burst: 2}, 1)
	// Starts with a full (burst) bucket: two retries pass, the third is
	// denied.
	if !b.allow(0) || !b.allow(0) {
		t.Fatal("initial burst tokens missing")
	}
	if b.allow(0) {
		t.Fatal("empty bucket allowed a retry")
	}
	// Ten successes earn one token.
	for i := 0; i < 10; i++ {
		b.earn(0)
	}
	if !b.allow(0) {
		t.Fatal("earned token not spendable")
	}
	if b.allow(0) {
		t.Fatal("token spent twice")
	}
	// A disabled budget always allows.
	d := newRetryBudget(RetryBudgetConfig{Disabled: true}, 1)
	for i := 0; i < 100; i++ {
		if !d.allow(0) {
			t.Fatal("disabled budget denied a retry")
		}
	}
}

func TestResultCacheLRUAndTTL(t *testing.T) {
	c := newResultCache(CacheConfig{Capacity: 2, TTLS: 1}, 0.02, 4)
	c.put(1, 11, 0)
	c.put(2, 22, 0)
	if v, ok := c.get(1, 0.5); !ok || v != 11 {
		t.Fatalf("get(1) = %d,%v", v, ok)
	}
	// Key 1 is now MRU; inserting key 3 evicts key 2.
	c.put(3, 33, 0.5)
	if _, ok := c.get(2, 0.5); ok {
		t.Fatal("LRU key survived eviction")
	}
	if v, ok := c.get(1, 0.5); !ok || v != 11 {
		t.Fatalf("MRU key evicted: %d,%v", v, ok)
	}
	// TTL: key 1 (inserted at 0) expires at 1.
	if _, ok := c.get(1, 1.01); ok {
		t.Fatal("expired entry served")
	}
	if c.len() != 1 { // key 3 remains
		t.Fatalf("cache len %d after expiry eviction", c.len())
	}
}
