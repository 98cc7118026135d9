package serve

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"

	"calsys"
	"calsys/internal/caldb"
	"calsys/internal/chronology"
)

// ErrTenantExists is wrapped by Registry.Create when the name is taken.
var ErrTenantExists = errors.New("already exists")

// tenantNameRe bounds tenant names: URL-safe, case-insensitive, ≤ 64 runes.
var tenantNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Tenant is one namespace: its own calsys.System (catalog, rule engine,
// store, clock) behind a bearer token. The system's materialization-cache
// scope is tenant-prefixed, so the tenant's catalog generation counter is
// private — its Replace/Define/Drop never invalidates a peer's warm cache
// entries.
type Tenant struct {
	Name  string
	Token string

	sys *calsys.System

	// mu guards the rule bookkeeping below; the engine has its own locks
	// but the server also tracks each rule's source for listing.
	mu    sync.Mutex
	rules map[string]*ruleInfo // lower-case name -> info
}

// ruleInfo is the server's record of one temporal rule.
type ruleInfo struct {
	Name  string
	Expr  string // canonical calendar expression
	Fired int64  // action invocations (in-memory; reset on restart)
}

// System exposes the tenant's assembled system.
func (t *Tenant) System() *calsys.System { return t.sys }

// Manager exposes the tenant's catalog manager.
func (t *Tenant) Manager() *caldb.Manager { return t.sys.Rules().Cal() }

// rememberRule records a defined rule for listing.
func (t *Tenant) rememberRule(name, expr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules[strings.ToLower(name)] = &ruleInfo{Name: name, Expr: expr}
}

// forgetRule drops the listing record.
func (t *Tenant) forgetRule(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.rules, strings.ToLower(name))
}

// ruleByName returns a copy of one rule record.
func (t *Tenant) ruleByName(name string) (ruleInfo, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.rules[strings.ToLower(name)]
	if !ok {
		return ruleInfo{}, false
	}
	return *r, true
}

// ruleList returns copies of all rule records, sorted by name.
func (t *Tenant) ruleList() []ruleInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ruleInfo, 0, len(t.rules))
	for _, r := range t.rules {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// markFired bumps a rule's in-memory firing counter (the rule action).
func (t *Tenant) markFired(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.rules[strings.ToLower(name)]; ok {
		r.Fired++
	}
}

// Registry owns the tenant set. Tenants are in-memory: calserved is the
// serving layer over the embedded engine, and durability of tenant data
// rides on the engine's snapshot/journal machinery, not on the registry.
type Registry struct {
	adminToken string
	today      chronology.Civil // the civil date all tenant clocks start at

	mu      sync.RWMutex
	tenants map[string]*Tenant // lower-case name -> tenant
}

// NewRegistry creates a registry; adminToken authorizes tenant lifecycle
// and stats endpoints, today anchors every tenant's virtual clock (rules
// compute their first trigger strictly after it).
func NewRegistry(adminToken string, today chronology.Civil) *Registry {
	return &Registry{
		adminToken: adminToken,
		today:      today,
		tenants:    map[string]*Tenant{},
	}
}

// newToken mints an unguessable bearer token.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: crypto/rand failed: %v", err))
	}
	return "ct_" + hex.EncodeToString(b[:])
}

// Create provisions a tenant: a fresh system whose catalog scope — and with
// it the generation counter keyed into the shared materialization cache —
// is prefixed with the tenant name.
func (r *Registry) Create(name string) (*Tenant, error) {
	if !tenantNameRe.MatchString(name) {
		return nil, fmt.Errorf("invalid tenant name %q (want [A-Za-z0-9][A-Za-z0-9_.-]{0,63})", name)
	}
	key := strings.ToLower(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[key]; ok {
		return nil, fmt.Errorf("tenant %q %w", name, ErrTenantExists)
	}
	clock := calsys.NewVirtualClock(0)
	sys, err := calsys.Open(
		calsys.WithClock(clock),
		calsys.WithCatalogScope("tenant/"+key),
	)
	if err != nil {
		return nil, err
	}
	clock.Set(sys.SecondsOf(r.today))
	t := &Tenant{Name: name, Token: newToken(), sys: sys, rules: map[string]*ruleInfo{}}
	r.tenants[key] = t
	return t, nil
}

// Drop removes a tenant; its cache entries become unaddressable (no key
// carries its scope any more) and age out of the shared LRU.
func (r *Registry) Drop(name string) bool {
	key := strings.ToLower(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.tenants[key]
	delete(r.tenants, key)
	return ok
}

// Get resolves a tenant by name.
func (r *Registry) Get(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[strings.ToLower(name)]
	return t, ok
}

// IsAdmin reports whether token is the admin token.
func (r *Registry) IsAdmin(token string) bool {
	return tokenEqual(token, r.adminToken)
}

// tokenEqual reports whether a presented bearer token is the expected one,
// in time independent of where they first differ. An empty presented token
// never matches.
func tokenEqual(presented, want string) bool {
	return presented != "" && subtle.ConstantTimeCompare([]byte(presented), []byte(want)) == 1
}

// Names lists tenants, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// preparedStats sums the tenants' prepared-expression tables.
func (r *Registry) preparedStats() caldb.PreparedStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var sum caldb.PreparedStats
	for _, t := range r.tenants {
		st := t.Manager().PreparedStats()
		sum.Entries += st.Entries
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Stale += st.Stale
		sum.Resets += st.Resets
		sum.PatternExpands += st.PatternExpands
	}
	return sum
}
