// Package journal is the write-ahead firing journal of the rules engine: an
// append-only, line-oriented log of scheduled → fired → acked transitions for
// every temporal-rule firing, replayed at startup to recover firings a
// crashed daemon had accepted but not completed. S and A records wait for
// the next write; a write that carries an A, D or K record is a commit
// point, and fsyncs when the journal syncs.
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
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"calsys/internal/faultinject"
)

const magic = "calsys-journal 1"

// bufSize bounds the journal's write buffer: room for a probe of about
// 2 000 buffered S records, which then go out in one write.
const bufSize = 64 << 10

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
	path   string
	seq    uint64
	sync   bool
	faults *faultinject.Injector
	state  State
	buf    []byte // records not yet written
	acked  bool   // buf holds an A record
	stats  Stats
}

// Stats counts the journal's write(2) and fsync calls since Open.
type Stats struct{ Writes, Fsyncs int64 }

// Option configures Open.
type Option func(*Journal)

// WithSync controls fsync-on-commit (default true). Tests disable it for
// speed; production keeps it on.
func WithSync(on bool) Option { return func(j *Journal) { j.sync = on } }

// WithFaults threads a fault injector through the journal's I/O sites.
func WithFaults(in *faultinject.Injector) Option { return func(j *Journal) { j.faults = in } }

// Open opens (or creates) the journal at path for appending, replays any
// existing records and truncates a torn tail. The replayed state is
// available via State / Pending.
func Open(path string, opts ...Option) (*Journal, error) {
	j := &Journal{path: path, sync: true}
	for _, fn := range opts {
		fn(j)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
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
	j.f = f
	j.seq = st.NextSeq
	j.state = *st
	if st.Records == 0 && st.ValidBytes == 0 {
		if err := j.appendLine(append(j.buf, magic...), true); err != nil {
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
	// A record ends at its newline, and every byte before it is the record's:
	// a final line without one is a torn write even when it parses ("A 12"
	// torn from "A 123"), and a '\r' is not stripped.
	torn := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if atEOF && len(data) > 0 {
			torn = true
			return len(data), data, nil
		}
		return 0, nil, nil
	})

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
		if first && line != magic {
			if line != "" {
				return nil, fmt.Errorf("journal: not a firing journal (bad magic %q)", line)
			}
			st.Truncated = true // Open empties the file and writes the magic line
			break
		}
		rec, ok := parseRecord(line)
		if _, dup := byseq[rec.seq]; ok && rec.kind == 'S' && (dup || rec.seq == math.MaxUint64) {
			ok = false // no journal schedules a seq twice, or one NextSeq cannot follow
		}
		if torn || (!first && !ok) {
			st.Truncated = true
			break
		}
		offset += int64(len(line)) + 1
		if first {
			first = false
			continue
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

// parseRecord parses one record line, cutting its fields out in place.
func parseRecord(line string) (record, bool) {
	if line == "" {
		return record{}, false
	}
	var r record
	r.kind = line[0]
	rest := strings.TrimPrefix(line[1:], " ")
	switch r.kind {
	case 'S':
		seqs, rest, ok1 := strings.Cut(rest, " ")
		ats, quoted, ok2 := strings.Cut(rest, " ")
		if !ok1 || !ok2 {
			return record{}, false
		}
		seq, err1 := strconv.ParseUint(seqs, 10, 64)
		at, err2 := strconv.ParseInt(ats, 10, 64)
		rule, err3 := strconv.Unquote(quoted)
		if err1 != nil || err2 != nil || err3 != nil {
			return record{}, false
		}
		r.seq, r.at, r.rule = seq, at, rule
	case 'B':
		seqs, ns, ok := strings.Cut(rest, " ")
		if !ok {
			return record{}, false
		}
		seq, err1 := strconv.ParseUint(seqs, 10, 64)
		n, err2 := strconv.Atoi(ns)
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
		seqs, rest, ok1 := strings.Cut(rest, " ")
		ns, quoted, ok2 := strings.Cut(rest, " ")
		if !ok1 || !ok2 {
			return record{}, false
		}
		seq, err1 := strconv.ParseUint(seqs, 10, 64)
		n, err2 := strconv.Atoi(ns)
		if _, err3 := strconv.Unquote(quoted); err1 != nil || err2 != nil || err3 != nil {
			return record{}, false
		}
		r.seq, r.attempt = seq, n
	case 'T':
		ats, quoted, ok := strings.Cut(rest, " ")
		if !ok {
			return record{}, false
		}
		at, err1 := strconv.ParseInt(ats, 10, 64)
		rule, err2 := strconv.Unquote(quoted)
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

// bufferLine keeps buf, the buffer with one more record appended (an A
// record when ack), and ends the record with a newline. Nothing reaches the
// file until the next write, or until the buffer outgrows bufSize.
func (j *Journal) bufferLine(buf []byte, ack bool) error {
	if err := faultinject.Hit(j.faults, SiteAppend); err != nil {
		return err
	}
	j.acked = j.acked || ack
	if j.buf = append(buf, '\n'); len(j.buf) >= bufSize {
		return j.write(false)
	}
	return nil
}

// appendLine buffers a record and writes it, with whatever the buffer held
// before it, in one write.
func (j *Journal) appendLine(buf []byte, commit bool) error {
	if err := j.bufferLine(buf, false); err != nil {
		return err
	}
	return j.write(commit)
}

// write hands the buffer, if any, to the file in one write. A commit point,
// and any write that carries an A record, hits the journal.sync site whether
// or not the journal syncs, then fsyncs when it does.
func (j *Journal) write(commit bool) error {
	if len(j.buf) > 0 {
		j.stats.Writes++
		n, err := j.f.Write(j.buf)
		j.buf = j.buf[:copy(j.buf, j.buf[n:])] // a short write keeps the rest
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	commit, j.acked = commit || j.acked, false
	if !commit {
		return nil
	}
	if err := faultinject.Hit(j.faults, SiteSync); err != nil {
		return err
	}
	if !j.sync {
		return nil
	}
	j.stats.Fsyncs++
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// The record appenders write one field each, preceded by its space.
func appendSeq(b []byte, seq uint64) []byte  { return strconv.AppendUint(append(b, ' '), seq, 10) }
func appendInt(b []byte, n int64) []byte     { return strconv.AppendInt(append(b, ' '), n, 10) }
func appendQuoted(b []byte, s string) []byte { return strconv.AppendQuote(append(b, ' '), s) }

// Scheduled records a firing entering the schedule and returns its sequence
// number. The record is only buffered: the probe's Sync writes its whole
// batch at once, and a Begin writes any record buffered before it, so an
// execution never starts ahead of its S record on disk.
func (j *Journal) Scheduled(rule string, at int64) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq := j.seq
	j.seq++
	err := j.bufferLine(appendQuoted(appendInt(appendSeq(append(j.buf, 'S'), seq), at), rule), false)
	return seq, err
}

// Begin records the start of execution attempt n (1-based) for seq. Its
// write carries every record buffered before it, so an action never starts
// while an earlier firing's ack is in memory only.
func (j *Journal) Begin(seq uint64, attempt int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLine(appendInt(appendSeq(append(j.buf, 'B'), seq), int64(attempt)), false)
}

// Ack records seq as committed. The record is only buffered: the next
// write carries it, and fsyncs when the journal syncs.
func (j *Journal) Ack(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bufferLine(appendSeq(append(j.buf, 'A'), seq), true)
}

// Dead records seq as dead-lettered after attempts tries: a commit point.
func (j *Journal) Dead(seq uint64, attempts int, reason string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLine(appendQuoted(appendInt(appendSeq(append(j.buf, 'D'), seq), int64(attempts)), reason), true)
}

// Skip records seq as skipped by the catch-up policy: a commit point.
func (j *Journal) Skip(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLine(appendSeq(append(j.buf, 'K'), seq), true)
}

// Sync writes what the journal buffers and fsyncs it: a commit point.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.write(true)
}

// Flush writes what the journal buffers, if anything: a commit point when
// it carries an ack.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.write(false)
}

// Stats reports the journal's writes and fsyncs since Open.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// writeMinimal writes st to path in its minimal replay form — the magic
// line, one T high-water record per rule, S/B records for still-pending
// firings — through a temp file, fsync and rename, so a crash leaves either
// the old file or the whole new one. The fsync is a journal.sync site, hit
// whether or not the journal syncs (WithSync).
func writeMinimal(path string, st *State, faults *faultinject.Injector, sync bool) error {
	tmp := path + ".compact"
	nf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	b := append(make([]byte, 0, 4096), magic+"\n"...)
	rules := make([]string, 0, len(st.AckedThrough))
	for rule := range st.AckedThrough {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	for _, rule := range rules {
		b = append(appendQuoted(appendInt(append(b, 'T'), st.AckedThrough[rule]), rule), '\n')
	}
	for _, p := range st.Pending {
		b = append(appendQuoted(appendInt(appendSeq(append(b, 'S'), p.Seq), p.At), p.Rule), '\n')
		if p.Attempts > 0 {
			b = append(appendInt(appendSeq(append(b, 'B'), p.Seq), int64(p.Attempts)), '\n')
		}
	}
	if _, err := nf.Write(b); err != nil {
		nf.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := faultinject.Hit(faults, SiteSync); err != nil {
		nf.Close()
		return err
	}
	if sync {
		if err := nf.Sync(); err != nil {
			nf.Close()
			return fmt.Errorf("journal: %w", err)
		}
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
	j := &Journal{sync: true}
	for _, fn := range opts {
		fn(j)
	}
	if err := writeMinimal(path, st, j.faults, j.sync); err != nil {
		return nil, err
	}
	return Open(path, opts...)
}

// Compact rewrites the journal to its minimal replay form (writeMinimal).
// Call it on clean shutdown or periodically to bound growth.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.acked = false // the rewrite below commits the buffered ack
	if err := j.write(false); err != nil {
		return err
	}
	st, err := Replay(j.f)
	if err != nil {
		return err
	}
	if err := writeMinimal(j.path, st, j.faults, j.sync); err != nil {
		return err
	}
	j.stats.Writes++
	if j.sync {
		j.stats.Fsyncs++
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopening after compact: %w", err)
	}
	j.f.Close()
	j.f = f
	j.state = *st
	return nil
}

func lowerKey(rule string) string { return strings.ToLower(rule) }

// Close writes what the journal buffers, fsyncs it (a commit point) and
// closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.write(true)
	if cerr := j.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: %w", cerr)
	}
	j.f = nil
	return err
}
