// Package journal is the write-ahead firing journal of the rules engine: an
// append-only, line-oriented log of scheduled → fired → acked transitions for
// every temporal-rule firing, fsynced on commit, replayed at startup to
// recover firings a crashed daemon had accepted but not completed.
//
// Format (text, one record per line; names and reasons strconv-quoted):
//
//	calsys-journal 1
//	S <seq> <at> <rule>             firing accepted into the schedule
//	B <seq> <attempt>               execution attempt begins
//	A <seq>                         firing committed (acked)
//	D <seq> <attempts> <reason>     firing dead-lettered after retry budget
//	K <seq>                         firing skipped by the catch-up policy
//	T <at> <rule>                   acked high-water mark (written by Compact and Create)
//
// A firing is pending iff it has an S record and no A/D/K. Replay tolerates
// a torn final line (a crash mid-write): the tail is dropped and Open
// truncates the file back to the last whole record.
package journal

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"calsys/internal/faultinject"
)

const magic = "calsys-journal 1"

// Fault-injection sites in the journal I/O path.
const (
	SiteAppend = "journal.append"
	SiteSync   = "journal.sync"
)

// PendingFiring is a firing the journal accepted but never saw completed.
type PendingFiring struct {
	Seq      uint64
	Rule     string
	At       int64 // trigger instant, epoch seconds
	Attempts int   // B records seen (execution may have begun before the crash)
}

// State is what replaying a journal yields.
type State struct {
	Pending []PendingFiring // S without A/D/K, in seq order
	// AckedThrough maps each rule to the latest trigger instant the journal
	// saw completed (acked, dead-lettered or skipped). Recovery uses it to
	// avoid re-firing instants whose RULE-TIME update was lost with an old
	// snapshot.
	AckedThrough map[string]int64
	NextSeq      uint64
	Records      int
	Truncated    bool  // a torn/corrupt tail was dropped
	ValidBytes   int64 // offset of the last whole record
}

// Journal is an open firing journal. Methods are safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	path   string
	seq    uint64
	sync   bool
	faults *faultinject.Injector
	state  State
}

// Option configures Open.
type Option func(*Journal)

// WithSync controls fsync-on-commit (default true). Tests disable it for
// speed; production keeps it on.
func WithSync(on bool) Option { return func(j *Journal) { j.sync = on } }

// WithFaults threads a fault injector through the journal's I/O sites.
func WithFaults(in *faultinject.Injector) Option { return func(j *Journal) { j.faults = in } }

// Open opens (or creates) the journal at path, replays any existing records,
// truncates a torn tail, and positions for appending. The replayed state is
// available via State / Pending.
func Open(path string, opts ...Option) (*Journal, error) {
	j := &Journal{path: path, sync: true}
	for _, fn := range opts {
		fn(j)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	st, err := Replay(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Truncated {
		if err := f.Truncate(st.ValidBytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(st.ValidBytes, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.seq = st.NextSeq
	j.state = *st
	if st.Records == 0 && st.ValidBytes == 0 {
		if err := j.appendLine(magic, true); err != nil {
			f.Close()
			return nil, err
		}
		j.state.ValidBytes = int64(len(magic)) + 1
	}
	return j, nil
}

// Replay parses a journal image from f (which may be any *os.File opened for
// reading) and derives its state. A torn or corrupt suffix is tolerated:
// parsing stops at the first bad line and Truncated is set.
func Replay(f *os.File) (*State, error) {
	if _, err := f.Seek(0, 0); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	st := &State{AckedThrough: map[string]int64{}, NextSeq: 1}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	type sched struct {
		pf   PendingFiring
		done bool
	}
	byseq := map[uint64]*sched{}
	var order []uint64
	var offset int64

	first := true
	for sc.Scan() {
		line := sc.Text()
		lineLen := int64(len(sc.Bytes())) + 1
		if first {
			if line != magic {
				if line == "" {
					break
				}
				return nil, fmt.Errorf("journal: not a firing journal (bad magic %q)", line)
			}
			first = false
			offset += lineLen
			continue
		}
		rec, ok := parseRecord(line)
		if !ok {
			st.Truncated = true
			break
		}
		switch rec.kind {
		case 'S':
			s := &sched{pf: PendingFiring{Seq: rec.seq, Rule: rec.rule, At: rec.at}}
			byseq[rec.seq] = s
			order = append(order, rec.seq)
			if rec.seq >= st.NextSeq {
				st.NextSeq = rec.seq + 1
			}
		case 'B':
			if s, ok := byseq[rec.seq]; ok {
				s.pf.Attempts = rec.attempt
			}
		case 'A', 'D', 'K':
			if s, ok := byseq[rec.seq]; ok {
				s.done = true
				key := strings.ToLower(s.pf.Rule)
				if s.pf.At > st.AckedThrough[key] {
					st.AckedThrough[key] = s.pf.At
				}
			}
		case 'T':
			key := strings.ToLower(rec.rule)
			if rec.at > st.AckedThrough[key] {
				st.AckedThrough[key] = rec.at
			}
		}
		st.Records++
		offset += lineLen
	}
	if err := sc.Err(); err != nil {
		// An overlong or unreadable tail is treated like a torn write.
		st.Truncated = true
	}
	st.ValidBytes = offset
	for _, seq := range order {
		if s := byseq[seq]; !s.done {
			st.Pending = append(st.Pending, s.pf)
		}
	}
	return st, nil
}

type record struct {
	kind    byte
	seq     uint64
	at      int64
	attempt int
	rule    string
}

func parseRecord(line string) (record, bool) {
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

// State returns the state replayed when the journal was opened.
func (j *Journal) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Journal) appendLine(line string, sync bool) error {
	if err := faultinject.Hit(j.faults, SiteAppend); err != nil {
		return err
	}
	if _, err := j.w.WriteString(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if sync && j.sync {
		if err := faultinject.Hit(j.faults, SiteSync); err != nil {
			return err
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	return nil
}

// Scheduled records a firing entering the schedule and returns its sequence
// number. The record is written but not synced; call Sync after a batch (the
// probe writes one batch per window).
func (j *Journal) Scheduled(rule string, at int64) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq := j.seq
	j.seq++
	err := j.appendLine(fmt.Sprintf("S %d %d %s", seq, at, strconv.Quote(rule)), false)
	return seq, err
}

// Begin records the start of execution attempt n (1-based) for seq.
func (j *Journal) Begin(seq uint64, attempt int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLine(fmt.Sprintf("B %d %d", seq, attempt), false)
}

// Ack records seq as committed and fsyncs.
func (j *Journal) Ack(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLine(fmt.Sprintf("A %d", seq), true)
}

// Dead records seq as dead-lettered after attempts tries and fsyncs.
func (j *Journal) Dead(seq uint64, attempts int, reason string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLine(fmt.Sprintf("D %d %d %s", seq, attempts, strconv.Quote(reason)), true)
}

// Skip records seq as skipped by the catch-up policy and fsyncs.
func (j *Journal) Skip(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLine(fmt.Sprintf("K %d", seq), true)
}

// Sync flushes and fsyncs the journal.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := faultinject.Hit(j.faults, SiteSync); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if !j.sync {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// writeMinimal writes st to path in its minimal replay form — the magic
// line, one T high-water record per rule, S/B records for still-pending
// firings — through a temp file, fsync and rename, so a crash leaves either
// the old file or the whole new one. The fsync is a journal.sync site.
func writeMinimal(path string, st *State, faults *faultinject.Injector) error {
	tmp := path + ".compact"
	nf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	bw := bufio.NewWriter(nf)
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
		fmt.Fprintf(bw, "S %d %d %s\n", p.Seq, p.At, strconv.Quote(p.Rule))
		if p.Attempts > 0 {
			fmt.Fprintf(bw, "B %d %d\n", p.Seq, p.Attempts)
		}
	}
	if err := bw.Flush(); err != nil {
		nf.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := faultinject.Hit(faults, SiteSync); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := nf.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Create writes st as a new journal at path in the minimal form Compact
// leaves behind, then opens it for appending. A shard's new epoch journal
// is created from the merged state of its predecessors' files
// (MergeStates); Recover then resolves it like any crashed daemon's.
func Create(path string, st *State, opts ...Option) (*Journal, error) {
	j := &Journal{}
	for _, fn := range opts {
		fn(j)
	}
	if err := writeMinimal(path, st, j.faults); err != nil {
		return nil, err
	}
	return Open(path, opts...)
}

// Compact rewrites the journal to its minimal replay form (writeMinimal).
// Call it on clean shutdown or periodically to bound growth.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	st, err := Replay(j.f)
	if err != nil {
		return err
	}
	if err := writeMinimal(j.path, st, j.faults); err != nil {
		return err
	}
	old := j.f
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopening after compact: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	old.Close()
	j.f = f
	j.w = bufio.NewWriter(f)
	j.state = *st
	return nil
}

func lowerKey(rule string) string { return strings.ToLower(rule) }

// Close flushes, fsyncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	flushErr := j.w.Flush()
	if j.sync {
		if err := j.f.Sync(); err != nil && flushErr == nil {
			flushErr = err
		}
	}
	closeErr := j.f.Close()
	j.f = nil
	if flushErr != nil {
		return fmt.Errorf("journal: %w", flushErr)
	}
	if closeErr != nil {
		return fmt.Errorf("journal: %w", closeErr)
	}
	return nil
}
