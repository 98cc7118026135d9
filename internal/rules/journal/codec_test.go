package journal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The reference codec: the journal's records as they were written with fmt
// and split with strings.SplitN. The appending encoder and the Cut-based
// parser must agree with it byte for byte and record for record.

func fmtScheduled(seq uint64, at int64, rule string) string {
	return fmt.Sprintf("S %d %d %s", seq, at, strconv.Quote(rule))
}

func fmtMinimal(st *State) string {
	var b strings.Builder
	bw := bufio.NewWriter(&b)
	fmt.Fprintln(bw, magic)
	rules := make([]string, 0, len(st.AckedThrough))
	for rule := range st.AckedThrough {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	for _, rule := range rules {
		fmt.Fprintf(bw, "T %d %s\n", st.AckedThrough[rule], strconv.Quote(rule))
	}
	for _, p := range st.Pending {
		fmt.Fprintf(bw, "%s\n", fmtScheduled(p.Seq, p.At, p.Rule))
		if p.Attempts > 0 {
			fmt.Fprintf(bw, "B %d %d\n", p.Seq, p.Attempts)
		}
	}
	bw.Flush()
	return b.String()
}

func splitNParse(line string) (record, bool) {
	if line == "" {
		return record{}, false
	}
	var r record
	r.kind = line[0]
	rest := strings.TrimPrefix(line[1:], " ")
	switch r.kind {
	case 'S':
		parts := strings.SplitN(rest, " ", 3)
		if len(parts) != 3 {
			return record{}, false
		}
		seq, err1 := strconv.ParseUint(parts[0], 10, 64)
		at, err2 := strconv.ParseInt(parts[1], 10, 64)
		rule, err3 := strconv.Unquote(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return record{}, false
		}
		r.seq, r.at, r.rule = seq, at, rule
	case 'B':
		parts := strings.SplitN(rest, " ", 2)
		if len(parts) != 2 {
			return record{}, false
		}
		seq, err1 := strconv.ParseUint(parts[0], 10, 64)
		n, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return record{}, false
		}
		r.seq, r.attempt = seq, n
	case 'A', 'K':
		seq, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return record{}, false
		}
		r.seq = seq
	case 'D':
		parts := strings.SplitN(rest, " ", 3)
		if len(parts) != 3 {
			return record{}, false
		}
		seq, err1 := strconv.ParseUint(parts[0], 10, 64)
		n, err2 := strconv.Atoi(parts[1])
		if _, err3 := strconv.Unquote(parts[2]); err1 != nil || err2 != nil || err3 != nil {
			return record{}, false
		}
		r.seq, r.attempt = seq, n
	case 'T':
		parts := strings.SplitN(rest, " ", 2)
		if len(parts) != 2 {
			return record{}, false
		}
		at, err1 := strconv.ParseInt(parts[0], 10, 64)
		rule, err2 := strconv.Unquote(parts[1])
		if err1 != nil || err2 != nil {
			return record{}, false
		}
		r.at, r.rule = at, rule
	default:
		return record{}, false
	}
	return r, true
}

// codecRules are rule names and reasons that exercise quoting: spaces,
// quotes, backslashes, control bytes, non-ASCII and invalid UTF-8.
var codecRules = []string{
	"daily", "month end close", `say "hi"`, `back\slash`, "tab\there\nnewline",
	"Zürich Feiertag", "月末", "emoji 🗓", "bad \xff utf8", "",
}

func replayFile(t *testing.T, path string) *State {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := Replay(f)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// A scripted S/B/A/D/K sequence and its compaction (T records) are written
// byte-identical to the fmt lines, and replaying the fmt-written file yields
// the same State as replaying the journal's own.
func TestRecordsMatchFmtOracle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	j := open(t, path)
	var want strings.Builder
	want.WriteString(magic + "\n")
	line := func(s string) { want.WriteString(s + "\n") }
	for i, rule := range codecRules {
		at := int64(725846400 + 86400*i)
		if i == 3 {
			at = -at // a trigger before the epoch
		}
		seq, err := j.Scheduled(rule, at)
		if err != nil {
			t.Fatal(err)
		}
		line(fmtScheduled(seq, at, rule))
		if err := j.Begin(seq, i+1); err != nil {
			t.Fatal(err)
		}
		line(fmt.Sprintf("B %d %d", seq, i+1))
		switch i % 4 {
		case 0:
			err = j.Ack(seq)
			line(fmt.Sprintf("A %d", seq))
		case 1:
			reason := "gave up: " + codecRules[len(codecRules)-1-i]
			err = j.Dead(seq, i+1, reason)
			line(fmt.Sprintf("D %d %d %s", seq, i+1, strconv.Quote(reason)))
		case 2:
			err = j.Skip(seq)
			line(fmt.Sprintf("K %d", seq))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("journal bytes differ from the fmt lines\n got %q\nwant %q", got, want.String())
	}
	oldPath := filepath.Join(dir, "old")
	if err := os.WriteFile(oldPath, []byte(want.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	st := replayFile(t, path)
	if old := replayFile(t, oldPath); !reflect.DeepEqual(st, old) {
		t.Fatalf("Replay differs\n new %+v\n old %+v", st, old)
	}
	if len(st.Pending) == 0 || len(st.AckedThrough) == 0 {
		t.Fatalf("script left pending %d, acked %d: both kinds of minimal record must be exercised",
			len(st.Pending), len(st.AckedThrough))
	}

	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if minimal := fmtMinimal(st); string(compacted) != minimal {
		t.Fatalf("compacted journal differs from the fmt form\n got %q\nwant %q", compacted, minimal)
	}
}

// parseRecord accepts and rejects exactly what the SplitN parser did, on
// every record kind and on every prefix of each (what a torn write leaves),
// plus malformed spacing.
func TestParseRecordMatchesSplitN(t *testing.T) {
	lines := []string{
		"S 1 2 \"x\"", "S1 2 \"x\"", "S 1 2", "S 1 2 \"a b\" c", "S  1 2 \"x\"", "S 1  2 \"x\"",
		"B 1 2", "B 1", "B 1 2 3", "B 1 -2", "A 7", "A", "A ", "A 7 ", "K 18446744073709551615",
		"K 18446744073709551616", "D 1 2 \"r\"", "D 1 2", "D 1 2 \"r\" x", "T 5 \"a\"", "T 5",
		"T -5 \"a b\"", "T 5 \"a\" \"b\"", "X 1", "", " ", "S 1 2 \"\\xff\"",
	}
	for i, rule := range codecRules {
		for _, l := range []string{
			fmtScheduled(uint64(i+1), int64(i)*86400, rule),
			fmt.Sprintf("D %d %d %s", i, i, strconv.Quote(rule)),
			fmt.Sprintf("T %d %s", i, strconv.Quote(rule)),
		} {
			for n := 0; n <= len(l); n++ {
				lines = append(lines, l[:n])
			}
		}
	}
	for _, l := range lines {
		got, gok := parseRecord(l)
		want, wok := splitNParse(l)
		if gok != wok || got != want {
			t.Errorf("parseRecord(%q) = %+v, %v; SplitN parser %+v, %v", l, got, gok, want, wok)
		}
	}
}

// BenchmarkJournalRecord is one durable firing's records, fsync off: the
// Scheduled, Begin and Ack lines of a firing.
func BenchmarkJournalRecord(b *testing.B) {
	j, err := Open(filepath.Join(b.TempDir(), "j"), WithSync(false))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, err := j.Scheduled("r4711", 725846400+int64(i))
		if err == nil {
			err = j.Begin(seq, 1)
		}
		if err == nil {
			err = j.Ack(seq)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
