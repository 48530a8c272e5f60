// Fixture for the obsname analyzer: every string literal handed to an
// obs Trace call must follow the documented span naming convention.
// Dynamic names are invisible to the analyzer. Metric names are not
// checked here: the registry validates them at registration.
package fixture

import (
	"context"

	"geostat/internal/obs"
)

func metrics(r *obs.Registry) {
	// A bad metric name is the registry's to reject, at runtime.
	r.Counter("geostatd_requests", "no unit suffix").Inc()
}

func spans(ctx context.Context) {
	// Conforming span names pass silently.
	ctx, root := obs.NewTrace(ctx, "request")
	_, sp := obs.Trace(ctx, "kdv.compute")
	sp.End()
	root.End()

	_, bad := obs.Trace(ctx, "KDV.Compute") // want `not a valid span name`
	bad.End()
	_, deep := obs.Trace(ctx, "a.b.c.d") // want `not a valid span name`
	deep.End()
	_, top := obs.NewTrace(ctx, "Request") // want `not a valid span name`
	top.End()

	// A provably-fine case the analyzer cannot see is suppressed with the
	// standard directive (here: exercising the suppression path).
	_, allowed := obs.Trace(ctx, "Kdv.Compute") //lint:allow obsname fixture exercises the suppression path
	allowed.End()

	// Dynamic names are skipped statically.
	tool := "kdv"
	_, dyn := obs.Trace(ctx, tool+".parse")
	dyn.End()
}
