package serve

import (
	"strconv"

	"dlsys/internal/obs"
)

// fleetObs holds the pre-resolved instruments for one fleet run. Counter
// names mirror the FleetResult tallies one-to-one — X14 asserts they
// reconcile exactly against the request ledger, the serving-side analogue
// of the X8 contract. The fleet always instruments through a non-nil
// handle (a private one when the caller passes none) because the
// autoscaler is *driven* by these gauges: metrics here are part of the
// control loop, not just telemetry.
type fleetObs struct {
	h *obs.Handle

	arrived, admitted, shed  *obs.Counter
	served, failed           *obs.Counter
	retries, retriesDenied   *obs.Counter
	cacheHits, cacheMisses   *obs.Counter
	scaleUps, scaleDowns     *obs.Counter
	tenantArrived            []*obs.Counter
	tenantServed             []*obs.Counter
	tenantShed, tenantFailed []*obs.Counter

	replicas, queueLen, queueDelayEst *obs.Gauge
}

func newFleetObs(h *obs.Handle, tenants int) *fleetObs {
	o := &fleetObs{
		h:             h,
		arrived:       h.Counter("fleet.arrived"),
		admitted:      h.Counter("fleet.admitted"),
		shed:          h.Counter("fleet.shed"),
		served:        h.Counter("fleet.served"),
		failed:        h.Counter("fleet.failed"),
		retries:       h.Counter("fleet.retries"),
		retriesDenied: h.Counter("fleet.retries_denied"),
		cacheHits:     h.Counter("fleet.cache_hits"),
		cacheMisses:   h.Counter("fleet.cache_misses"),
		scaleUps:      h.Counter("fleet.scale_up_replicas"),
		scaleDowns:    h.Counter("fleet.scale_down_replicas"),
		replicas:      h.Gauge("fleet.replicas"),
		queueLen:      h.Gauge("fleet.queue_len"),
		queueDelayEst: h.Gauge("fleet.queue_delay_est"),
	}
	for t := 0; t < tenants; t++ {
		o.tenantArrived = append(o.tenantArrived, h.Counter(TenantCounterName(t, "arrived")))
		o.tenantServed = append(o.tenantServed, h.Counter(TenantCounterName(t, "served")))
		o.tenantShed = append(o.tenantShed, h.Counter(TenantCounterName(t, "shed")))
		o.tenantFailed = append(o.tenantFailed, h.Counter(TenantCounterName(t, "failed")))
	}
	return o
}

// TenantCounterName is the fleet's per-tenant counter naming scheme
// (fleet.tenantNN.suffix), exported so the X10/X14 reconcilers can walk
// the same names the fleet wrote.
func TenantCounterName(tenant int, suffix string) string {
	n := strconv.Itoa(tenant)
	if tenant >= 0 && tenant < 10 {
		n = "0" + n // %02d without fmt, which dominated the fleet's set-up
	}
	return "fleet.tenant" + n + "." + suffix
}
