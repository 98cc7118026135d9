package serve

import (
	"calsys"
	"calsys/internal/caldb"
	"calsys/internal/core/callang"
	"calsys/internal/core/plan"
)

// PlanShare holds prepared next-instant schedulers for catalog-independent
// expressions — those referencing only the basic calendars (DAYS, WEEKS,
// MONTHS, YEARS, ...), which is exactly what the recurrence compiler emits.
// Because such an expression evaluates identically for every tenant, one
// Scheduler (with its probe cache and exact-pattern fast path) serves
// thousands of tenants: the Bettini-style "stay on the compiled/pattern
// path" economics of the server. Tenant-dependent expressions never land
// here; they are evaluated under the owning tenant's catalog.
//
// The share keeps no state of its own: it is the prepared-expression table
// of a dedicated empty-catalog system, whose generation never moves.
type PlanShare struct{ mgr *caldb.Manager }

// NewPlanShare builds the share over a dedicated system (empty catalog,
// default epoch — basic calendars only, so the catalog never matters).
func NewPlanShare() (*PlanShare, error) {
	sys, err := calsys.Open(calsys.WithCatalogScope("shared-plans"))
	if err != nil {
		return nil, err
	}
	return &PlanShare{mgr: sys.Rules().Cal()}, nil
}

// Shareable reports whether a parsed expression references only basic
// calendars (no catalog entries, no `today`), making its plan valid for
// every tenant.
func Shareable(e callang.Expr) bool { return callang.BasicOnly(e) }

// SchedulerFor returns the shared scheduler for a basic-only expression,
// building it on first use. ok=false means the expression is tenant-
// dependent and the caller must evaluate it under the tenant's own catalog.
func (p *PlanShare) SchedulerFor(e callang.Expr) (*plan.Scheduler, bool, error) {
	if !callang.BasicOnly(e) {
		return nil, false, nil
	}
	s, err := p.scheduler(e.String())
	return s, err == nil, err
}

// scheduler returns the shared scheduler for a basic-only expression's
// canonical text.
func (p *PlanShare) scheduler(canon string) (*plan.Scheduler, error) {
	return p.mgr.Prepared("", canon).Scheduler()
}

// ShareStats is the /v1/stats rendering of the plan share.
type ShareStats struct {
	Plans  int   `json:"plans"`  // distinct shared schedulers
	Hits   int64 `json:"hits"`   // lookups answered by an already prepared expression
	Misses int64 `json:"misses"` // expressions prepared
}

// Stats snapshots the share counters.
func (p *PlanShare) Stats() ShareStats {
	st := p.mgr.PreparedStats()
	return ShareStats{Plans: len(p.mgr.Schedulers()), Hits: st.Hits, Misses: st.Misses}
}
