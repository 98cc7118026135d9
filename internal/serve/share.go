package serve

import (
	"calsys"
	"calsys/internal/caldb"
	"calsys/internal/core/callang"
	"calsys/internal/core/plan"
)

// PlanShare answers next-instant queries on expressions that read only
// basic calendars over a dedicated empty-catalog system. The server does not
// use it (a tenant's own caldb.Prepared answers /next); it and Shareable stay
// for calbench's in-process replica of the handlers, which compiles against
// them.
type PlanShare struct{ mgr *caldb.Manager }

// NewPlanShare builds the share over a dedicated system (empty catalog,
// default epoch).
func NewPlanShare() (*PlanShare, error) {
	sys, err := calsys.Open(calsys.WithCatalogScope("shared-plans"))
	if err != nil {
		return nil, err
	}
	return &PlanShare{mgr: sys.Rules().Cal()}, nil
}

// Shareable reports whether a parsed expression references only basic
// calendars (no catalog entries, no `today`): what a /next response reports
// as shared_plan.
func Shareable(e callang.Expr) bool { return callang.BasicOnly(e) }

// SchedulerFor returns a scheduler of its own for a basic-only expression,
// built from the share's lowering of it on each call. ok=false means the
// expression reads the catalog.
func (p *PlanShare) SchedulerFor(e callang.Expr) (*plan.Scheduler, bool, error) {
	if !callang.BasicOnly(e) {
		return nil, false, nil
	}
	l, err := p.mgr.Prepared("", e.String()).Lowered()
	if err != nil {
		return nil, false, err
	}
	return plan.NewScheduler(p.mgr.Env(), l.Expr, l.Gran), true, nil
}
