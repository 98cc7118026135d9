package store

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// Snapshot format: a line-oriented, typed text dump of all tables, schemas,
// indexes and rows. Values are URL-style %-escaped so embedded separators
// and newlines round-trip. The format is versioned; Load rejects unknown
// versions.
//
//	calsysdb 1
//	table <name> <ncols>
//	col <name> <type>
//	index <column>
//	row <v1> <v2> ...          (one field per column: <type>:<escaped>)
//	end
//
// User-defined functions and event listeners are code, not data, and are
// re-registered by the application after Load.

const snapshotMagic = "calsysdb 1"

// saveChunk is how many encoded bytes Save gathers before writing them out.
const saveChunk = 64 << 10

// Save writes a snapshot of every table to w. It runs as a reader holding
// the transaction lock, so the snapshot is consistent, and writes index
// lines in column order, so two saves of one database are byte-equal.
func (db *DB) Save(w io.Writer) error {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	buf := make([]byte, 0, saveChunk+4<<10)
	buf = append(buf, snapshotMagic+"\n"...)
	var err error
	flush := func(min int) {
		if err == nil && len(buf) >= min {
			_, err = w.Write(buf)
			buf = buf[:0]
		}
	}
	for _, name := range db.TableNames() {
		t, _ := db.Table(name)
		buf = appendEscaped(append(buf, "table "...), t.Name)
		buf = append(strconv.AppendInt(append(buf, ' '), int64(len(t.Schema.Cols)), 10), '\n')
		for _, c := range t.Schema.Cols {
			buf = appendEscaped(append(buf, "col "...), c.Name)
			buf = append(append(append(buf, ' '), c.Type.String()...), '\n')
		}
		for _, col := range t.indexColumns() {
			buf = append(appendEscaped(append(buf, "index "...), col), '\n')
		}
		t.Scan(func(_ int64, row Row) bool {
			buf = append(buf, "row"...)
			for i := range row {
				if buf, err = appendValue(append(buf, ' '), &row[i]); err != nil {
					return false
				}
			}
			buf = append(buf, '\n')
			flush(saveChunk)
			return err == nil
		})
		if err != nil {
			return err
		}
		buf = append(buf, "end\n"...)
	}
	flush(0)
	return err
}

// snapReader wraps the scanner with a line counter so every corruption
// error names the exact snapshot line and what was expected there —
// operators diagnosing a damaged snapshot should not need a hex dump.
type snapReader struct {
	sc   *bufio.Scanner
	line int
}

func (r *snapReader) scan() bool {
	if r.sc.Scan() {
		r.line++
		return true
	}
	return false
}

func (r *snapReader) text() string { return r.sc.Text() }

// errf positions an error at the current line.
func (r *snapReader) errf(format string, args ...any) error {
	return fmt.Errorf("store: snapshot line %d: %s", r.line, fmt.Sprintf(format, args...))
}

// Load replaces the database's tables with a snapshot previously written by
// Save. The database must be empty of tables. Corruption errors carry the
// snapshot line number and the expectation that failed. A table's rows go in
// at once at its end line, then its indexes are built.
func (db *DB) Load(r io.Reader) error {
	if len(db.TableNames()) != 0 {
		return fmt.Errorf("store: Load requires an empty database")
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<26)
	sr := &snapReader{sc: sc}
	if !sr.scan() || sr.text() != snapshotMagic {
		return fmt.Errorf("store: snapshot line 1: not a calsys snapshot (want magic %q)", snapshotMagic)
	}
	for sr.scan() {
		line := sr.text()
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] != "table" || len(fields) != 3 {
			return sr.errf("expected %q, got %q", "table <name> <ncols>", line)
		}
		name, err := unescape(fields[1])
		if err != nil {
			return sr.errf("bad table name: %v", err)
		}
		ncols, err := strconv.Atoi(fields[2])
		if err != nil || ncols <= 0 {
			return sr.errf("bad column count in %q (want positive integer)", line)
		}
		if err := db.loadTable(sr, name, ncols); err != nil {
			return err
		}
	}
	return sc.Err()
}

func (db *DB) loadTable(sr *snapReader, name string, ncols int) error {
	var cols []Column
	var indexCols []string
	var rows []Row
	var slab []Value // the values of the next 64 rows, allocated at once
	for sr.scan() {
		line := sr.text()
		switch {
		case line == "end":
			schema, err := NewSchema(cols...)
			if err != nil {
				return sr.errf("table %s: %v", name, err)
			}
			if len(schema.Cols) != ncols {
				return sr.errf("table %s declares %d cols, header said %d", name, len(schema.Cols), ncols)
			}
			if err := db.CreateTable(name, schema); err != nil {
				return sr.errf("table %s: %v", name, err)
			}
			t, _ := db.Table(name)
			if err := db.RunTxn(func(tx *Txn) error { return tx.load(t, rows) }); err != nil {
				return sr.errf("table %s rows: %v", name, err)
			}
			for _, col := range indexCols {
				if err := db.CreateIndex(name, col); err != nil {
					return sr.errf("table %s index: %v", name, err)
				}
			}
			return nil
		case strings.HasPrefix(line, "col "):
			if rows != nil {
				return sr.errf("table %s: col line after rows (want cols, then indexes, then rows)", name)
			}
			fields := strings.Fields(line)
			if len(fields) != 3 {
				return sr.errf("expected %q, got %q", "col <name> <type>", line)
			}
			cname, err := unescape(fields[1])
			if err != nil {
				return sr.errf("bad column name: %v", err)
			}
			typ, err := ParseType(fields[2])
			if err != nil {
				return sr.errf("column %s: %v", cname, err)
			}
			cols = append(cols, Column{Name: cname, Type: typ})
		case strings.HasPrefix(line, "index "):
			col, err := unescape(strings.TrimPrefix(line, "index "))
			if err != nil {
				return sr.errf("bad index column: %v", err)
			}
			indexCols = append(indexCols, col)
		case line == "row" || strings.HasPrefix(line, "row "):
			// Each field follows one space; they are cut out of the line.
			if n := strings.Count(line, " "); n != ncols {
				return sr.errf("row has %d fields, want %d (table %s)", n, ncols, name)
			}
			if len(slab) < ncols {
				slab = make([]Value, 64*ncols)
			}
			row := Row(slab[:ncols:ncols])
			slab = slab[ncols:]
			rest := line[len("row "):]
			for i := range row {
				var f string
				f, rest, _ = strings.Cut(rest, " ")
				v, err := decodeValue(f)
				if err != nil {
					return sr.errf("field %d: %v", i+1, err)
				}
				row[i] = v
			}
			rows = append(rows, row)
		default:
			return sr.errf("unexpected %q in table %s (want col/index/row/end)", line, name)
		}
	}
	return sr.errf("table %s not terminated (missing %q — truncated snapshot?)", name, "end")
}

// appendValue appends a value as <type>:<escaped payload>.
func appendValue(buf []byte, v *Value) ([]byte, error) {
	switch v.T {
	case TNull:
		return append(buf, "null:"...), nil
	case TInt:
		return strconv.AppendInt(append(buf, "int:"...), v.I, 10), nil
	case TFloat:
		return strconv.AppendFloat(append(buf, "float:"...), v.F, 'g', -1, 64), nil
	case TText:
		return appendEscaped(append(buf, "text:"...), v.S), nil
	case TBool:
		return strconv.AppendBool(append(buf, "bool:"...), v.B), nil
	case TDate:
		return chronology.AppendCivil(append(buf, "date:"...), v.D), nil
	case TInterval:
		buf = strconv.AppendInt(append(buf, "interval:"...), v.Iv.Lo, 10)
		return strconv.AppendInt(append(buf, ','), v.Iv.Hi, 10), nil
	case TCalendar:
		buf = append(buf, "calendar:"...)
		if v.Cal == nil {
			return buf, nil
		}
		return appendEscaped(append(buf, v.Cal.Granularity().String()...), v.Cal.String()), nil
	}
	return buf, fmt.Errorf("store: cannot encode type %v", v.T)
}

func decodeValue(field string) (Value, error) {
	kind, payload, ok := strings.Cut(field, ":")
	if !ok {
		return Null, fmt.Errorf("malformed field %q", field)
	}
	switch kind {
	case "null":
		if payload != "" {
			return Null, fmt.Errorf("malformed null %q (want an empty payload)", payload)
		}
		return Null, nil
	case "int":
		n, err := strconv.ParseInt(payload, 10, 64)
		if err != nil {
			return Null, err
		}
		return NewInt(n), nil
	case "float":
		f, err := strconv.ParseFloat(payload, 64)
		if err != nil {
			return Null, err
		}
		return NewFloat(f), nil
	case "text":
		s, err := unescape(payload)
		if err != nil {
			return Null, err
		}
		return NewText(s), nil
	case "bool":
		if payload != "true" && payload != "false" {
			return Null, fmt.Errorf("malformed bool %q (want true or false)", payload)
		}
		return NewBool(payload == "true"), nil
	case "date":
		d, err := chronology.ParseCivil(payload)
		if err != nil {
			return Null, err
		}
		return NewDate(d), nil
	case "interval":
		lo, hi, ok := strings.Cut(payload, ",")
		if !ok {
			return Null, fmt.Errorf("malformed interval %q", payload)
		}
		l, err1 := strconv.ParseInt(lo, 10, 64)
		h, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil {
			return Null, fmt.Errorf("malformed interval %q", payload)
		}
		iv, err := interval.New(l, h)
		if err != nil {
			return Null, err
		}
		return NewInterval(iv), nil
	case "calendar":
		if payload == "" {
			return Value{T: TCalendar}, nil
		}
		// The payload is GRANNAME{...} with the braces escaped.
		cut := strings.Index(payload, "%7B") // '{'
		if cut < 0 {
			return Null, fmt.Errorf("malformed calendar %q", payload)
		}
		g, err := chronology.ParseGranularity(payload[:cut])
		if err != nil {
			return Null, err
		}
		body, err := unescape(payload[cut:])
		if err != nil {
			return Null, err
		}
		cal, err := calendar.Parse(g, body)
		if err != nil {
			return Null, err
		}
		return NewCalendar(cal), nil
	}
	return Null, fmt.Errorf("unknown field type %q", kind)
}

const upperHex = "0123456789ABCDEF"

// appendEscaped appends s with spaces, percent signs, braces and control
// bytes written as %XX, so fields stay whitespace-free single tokens.
func appendEscaped(buf []byte, s string) []byte {
	from := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c == '%' || c == '{' || c == '}' || c == 0x7f {
			buf = append(append(buf, s[from:i]...), '%', upperHex[c>>4], upperHex[c&15])
			from = i + 1
		}
	}
	return append(buf, s[from:]...)
}

// unescape reverses appendEscaped. A string without a % is returned as is.
func unescape(s string) (string, error) {
	if strings.IndexByte(s, '%') < 0 {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	from := 0
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("store: truncated escape in %q", s)
		}
		// Either case of a hex digit sits at its value modulo 16.
		const digits = "0123456789abcdef0123456789ABCDEF"
		hi, lo := strings.IndexByte(digits, s[i+1]), strings.IndexByte(digits, s[i+2])
		if hi < 0 || lo < 0 {
			return "", fmt.Errorf("store: bad escape in %q", s)
		}
		b.WriteString(s[from:i])
		b.WriteByte(byte(hi&15<<4 | lo&15))
		i += 2
		from = i + 1
	}
	b.WriteString(s[from:])
	return b.String(), nil
}
