package serve

import (
	"calsys"
	"calsys/internal/caldb"
	"calsys/internal/core/callang"
	"calsys/internal/core/plan"
)

// PlanShare is the next-instant scheduler table of a dedicated empty-catalog
// system, for expressions that read only basic calendars. The server no
// longer uses it (a tenant's own caldb.Prepared answers /next); it and
// Shareable stay for calbench's in-process replica of the handlers, which
// compiles against them.
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

// SchedulerFor returns the share's scheduler for a basic-only expression.
// ok=false means the expression reads the catalog.
func (p *PlanShare) SchedulerFor(e callang.Expr) (*plan.Scheduler, bool, error) {
	if !callang.BasicOnly(e) {
		return nil, false, nil
	}
	s, err := p.mgr.Prepared("", e.String()).Scheduler()
	return s, err == nil, err
}
