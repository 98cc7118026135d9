// Package faultinject is a deterministic fault-injection harness for chaos
// testing the durability layer. Code under test declares named sites
// (faultinject.Hit(inj, "journal.append")); tests arm sites with a plan —
// fail or crash exactly the nth call — so a run replays identically.
//
// A nil *Injector is inert: every Hit returns nil at the cost of one branch,
// so production code threads the injector through unconditionally.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the sentinel all injected failures wrap; match with
// errors.Is.
var ErrInjected = errors.New("injected fault")

// InjectedError reports which site and call number produced a fault.
type InjectedError struct {
	Site  string
	Nth   int // 1-based call count at the site when the fault fired
	Crash bool
}

// Error implements error.
func (e *InjectedError) Error() string {
	kind := "fault"
	if e.Crash {
		kind = "crash"
	}
	return fmt.Sprintf("injected %s at %s (call %d)", kind, e.Site, e.Nth)
}

// Is makes errors.Is(err, ErrInjected) true for injected errors.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// IsCrash reports whether err carries an injected crash, i.e. the harness
// asked the component to die here rather than handle a failure.
func IsCrash(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie) && ie.Crash
}

// plan is one armed behaviour at a site: it fires on exactly the nth call
// (1-based) and is then disarmed. A crash asks the caller to abandon the
// component mid-operation, the way a killed daemon would.
type plan struct {
	nth   int
	crash bool
}

type site struct {
	calls int
	plans []plan
}

// Injector holds armed sites. All methods are safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	sites map[string]*site
}

// New returns an injector with no site armed. The argument is ignored: it
// seeded a probabilistic arming mode that had no caller, and stays only
// because bench/cron.go, frozen beside BENCHMARK.json, still passes one.
func New(_ int64) *Injector {
	return &Injector{sites: map[string]*site{}}
}

func (in *Injector) site(name string) *site {
	s, ok := in.sites[name]
	if !ok {
		s = &site{}
		in.sites[name] = s
	}
	return s
}

// FailAt arms site to fail exactly its nth call (1-based), once.
func (in *Injector) FailAt(name string, nth int) {
	in.arm(name, plan{nth: nth})
}

// CrashAt arms site to crash exactly its nth call (1-based), once.
func (in *Injector) CrashAt(name string, nth int) {
	in.arm(name, plan{nth: nth, crash: true})
}

func (in *Injector) arm(name string, p plan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.site(name)
	s.plans = append(s.plans, p)
}

// Count returns how many times site has been hit.
func (in *Injector) Count(name string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.sites[name]; ok {
		return s.calls
	}
	return 0
}

// Hit is the injection point: code under test calls it with its site name.
// It is nil-safe so production builds pay only a branch.
func Hit(in *Injector, name string) error {
	if in == nil {
		return nil
	}
	return in.hit(name)
}

func (in *Injector) hit(name string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.site(name)
	s.calls++
	for i, p := range s.plans {
		if p.nth == s.calls {
			s.plans = append(s.plans[:i], s.plans[i+1:]...)
			return &InjectedError{Site: name, Nth: s.calls, Crash: p.crash}
		}
	}
	return nil
}
