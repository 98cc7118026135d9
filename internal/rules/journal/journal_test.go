package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"calsys/internal/faultinject"
)

func open(t *testing.T, path string, opts ...Option) *Journal {
	t.Helper()
	j, err := Open(path, append([]Option{WithSync(false)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestLifecycleAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "firing.journal")
	j := open(t, path)

	s1, err := j.Scheduled("daily", 100)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := j.Scheduled("weekly", 200)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("sequence numbers must be distinct")
	}
	if err := j.Begin(s1, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Ack(s1); err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(s2, 1); err != nil {
		t.Fatal(err)
	}
	// crash before ack of s2
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := open(t, path)
	defer j2.Close()
	pend := j2.State().Pending
	if len(pend) != 1 || pend[0].Rule != "weekly" || pend[0].At != 200 || pend[0].Attempts != 1 {
		t.Fatalf("pending = %+v", pend)
	}
	if got := j2.State().AckedThrough["daily"]; got != 100 {
		t.Errorf("AckedThrough(daily) = %d", got)
	}
	if got := j2.State().AckedThrough["weekly"]; got != 0 {
		t.Errorf("AckedThrough(weekly) = %d", got)
	}
	// new sequence numbers continue after the replayed ones
	s3, err := j2.Scheduled("daily", 300)
	if err != nil {
		t.Fatal(err)
	}
	if s3 <= s2 {
		t.Errorf("seq did not advance: %d after %d", s3, s2)
	}
}

func TestDeadAndSkipComplete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	s1, _ := j.Scheduled("a", 10)
	s2, _ := j.Scheduled("b", 20)
	if err := j.Dead(s1, 5, "gave up: boom"); err != nil {
		t.Fatal(err)
	}
	if err := j.Skip(s2); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := open(t, path)
	defer j2.Close()
	if p := j2.State().Pending; len(p) != 0 {
		t.Fatalf("pending = %+v", p)
	}
	if hi := j2.State().AckedThrough; hi["a"] != 10 || hi["b"] != 20 {
		t.Errorf("acked-through: a=%d b=%d", hi["a"], hi["b"])
	}
}

func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	s1, _ := j.Scheduled("a", 10)
	if err := j.Ack(s1); err != nil {
		t.Fatal(err)
	}
	s2, _ := j.Scheduled("b", 20)
	_ = s2
	j.Close()

	// Simulate a torn final write: chop the file mid-record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := open(t, path)
	st := j2.State()
	if !st.Truncated {
		t.Error("torn tail not flagged")
	}
	if len(st.Pending) != 0 {
		t.Errorf("pending after torn S = %+v", st.Pending)
	}
	if st.AckedThrough["a"] != 10 {
		t.Errorf("acked-through lost: %d", st.AckedThrough["a"])
	}
	// Appending after recovery must yield a clean journal again.
	s3, err := j2.Scheduled("c", 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Ack(s3); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3 := open(t, path)
	defer j3.Close()
	if st := j3.State(); st.Truncated || st.AckedThrough["c"] != 30 {
		t.Errorf("post-recovery journal unhealthy: %+v", st)
	}
}

func TestGarbageTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	s1, _ := j.Scheduled("a", 10)
	j.Ack(s1)
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("X@@ total garbage\n")
	f.Close()

	j2 := open(t, path)
	defer j2.Close()
	if st := j2.State(); !st.Truncated || st.AckedThrough["a"] != 10 {
		t.Errorf("garbage tail: %+v", st)
	}
}

func TestRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestQuotedRuleNamesRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	name := `we"ird rule \n name`
	s, err := j.Scheduled(name, 42)
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	j.Close()
	j2 := open(t, path)
	defer j2.Close()
	p := j2.State().Pending
	if len(p) != 1 || p[0].Rule != name {
		t.Fatalf("pending = %+v", p)
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	for i := 0; i < 50; i++ {
		s, _ := j.Scheduled("daily", int64(100+i))
		j.Begin(s, 1)
		j.Ack(s)
	}
	sPend, _ := j.Scheduled("daily", 999)
	j.Begin(sPend, 2)
	big, _ := os.Stat(path)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	small, _ := os.Stat(path)
	if small.Size() >= big.Size() {
		t.Errorf("compact did not shrink: %d -> %d", big.Size(), small.Size())
	}
	// State preserved across compact + reopen.
	s2, err := j.Scheduled("daily", 1000)
	if err != nil {
		t.Fatal(err)
	}
	j.Ack(s2)
	j.Close()
	j2 := open(t, path)
	defer j2.Close()
	if got := j2.State().AckedThrough["daily"]; got != 1000 {
		t.Errorf("acked-through after compact = %d", got)
	}
	p := j2.State().Pending
	if len(p) != 1 || p[0].At != 999 || p[0].Attempts != 2 {
		t.Fatalf("pending after compact = %+v", p)
	}

	// Many rules, acked in scrambled order: every high-water survives
	// compaction and reopening, and the T records come out sorted.
	const n = 2000
	path = filepath.Join(t.TempDir(), "many")
	jm := open(t, path)
	want := map[string]int64{}
	for i := 0; i < n; i++ {
		rule := fmt.Sprintf("rule-%d", i*7919%n)
		s, _ := jm.Scheduled(rule, int64(1000+i))
		if err := jm.Ack(s); err != nil {
			t.Fatal(err)
		}
		want[rule] = int64(1000 + i)
	}
	if err := jm.Compact(); err != nil {
		t.Fatal(err)
	}
	jm.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.SplitN(line, " ", 3); fields[0] == "T" {
			name, err := strconv.Unquote(fields[2])
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
	}
	if len(names) != n || !sort.StringsAreSorted(names) {
		t.Errorf("compacted T records: %d, sorted %v; want %d sorted", len(names), sort.StringsAreSorted(names), n)
	}
	jm = open(t, path)
	defer jm.Close()
	for rule, at := range want {
		if got := jm.State().AckedThrough[rule]; got != at {
			t.Fatalf("AckedThrough(%s) after compact = %d, want %d", rule, got, at)
		}
	}
}

// Two epoch files whose intents collide on sequence numbers merge into one
// journal: Create of the merged state reopens with distinct sequence numbers,
// the higher attempt count of an intent pending in both files, no intent the
// other file's high-water proves committed, and max-merged high-waters; an
// Ack then completes exactly one intent.
func TestMergeStatesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e1 := open(t, ShardFile(dir, 0, 1))
	for _, f := range []struct {
		rule string
		at   int64
	}{{"a", 100}, {"b", 50}} {
		s, _ := e1.Scheduled(f.rule, f.at)
		e1.Ack(s)
	}
	s, _ := e1.Scheduled("a", 200) // seq 3
	e1.Begin(s, 1)
	e1.Scheduled("c", 300) // seq 4: below epoch 2's high-water for c
	e1.Close()

	e2 := open(t, ShardFile(dir, 0, 2))
	s, _ = e2.Scheduled("a", 200) // seq 1: pending in both files
	e2.Begin(s, 3)
	s, _ = e2.Scheduled("c", 350)
	e2.Ack(s)
	s, _ = e2.Scheduled("b", 40)
	e2.Ack(s)
	e2.Scheduled("d", 500) // seq 4, as epoch 1's c@300
	e2.Close()

	var states []*State
	for _, epoch := range []uint64{1, 2} {
		st, err := ReplayFile(ShardFile(dir, 0, epoch))
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, st)
	}
	path := ShardFile(dir, 0, 3)
	j, err := Create(path, MergeStates(states...), WithSync(false))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	j = open(t, path)
	p := j.State().Pending
	if len(p) != 2 || p[0].Rule != "a" || p[0].At != 200 || p[0].Attempts != 3 ||
		p[1].Rule != "d" || p[1].At != 500 || p[0].Seq == p[1].Seq {
		t.Fatalf("merged pending = %+v, want a@200 (3 attempts) and d@500 under distinct seqs", p)
	}
	for rule, hi := range map[string]int64{"a": 100, "b": 50, "c": 350, "d": 0} {
		if got := j.State().AckedThrough[rule]; got != hi {
			t.Errorf("merged AckedThrough(%s) = %d, want %d", rule, got, hi)
		}
	}
	if err := j.Ack(p[1].Seq); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j = open(t, path)
	defer j.Close()
	if got := j.State().Pending; len(got) != 1 || got[0] != p[0] {
		t.Fatalf("after acking d: pending = %+v, want only %+v", got, p[0])
	}
}

func TestInjectedAppendFailureSurfaces(t *testing.T) {
	inj := faultinject.New(1)
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path, WithFaults(inj))
	defer j.Close()
	inj.CrashAt(SiteAppend, inj.Count(SiteAppend)+1)
	if _, err := j.Scheduled("a", 1); !faultinject.IsCrash(err) {
		t.Fatalf("err = %v, want injected crash", err)
	}
	// After the crash point passes, the journal keeps working.
	if _, err := j.Scheduled("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil && !errors.Is(err, faultinject.ErrInjected) {
		t.Fatal(err)
	}
}
