// Package durable is the one crash-safe persistence layer behind every
// journal and artefact the system writes. It has three parts:
//
//   - Log, an append-only JSONL file: every Append is one
//     newline-terminated line, fsynced before it returns; Open cuts a
//     torn tail left by a killed append; Scan decodes every complete
//     line and counts the ones it cannot decode.
//   - WriteFileAtomic, a whole-file replace that leaves either the old
//     file or the new one after a crash, never a torn one.
//   - The hex state codec: sampled float64 states travel as their
//     IEEE-754 bit patterns in hex, because corrupted runs legitimately
//     sample NaN and ±Inf (which encoding/json rejects) and bit patterns
//     round-trip exactly.
//
// The campaign journal (internal/campaign), the lifecycle feedback and
// verdict-diff journals (internal/lifecycle) and detector bundles
// (internal/serve) all persist through this package.
//
// Crash contract: an Append that returned nil survives any later crash.
// After a crash, Open followed by Scan yields exactly the acknowledged
// lines, in order; a line cut short by the crash is dropped.
//
// Ownership and concurrency: a Log is safe for concurrent Appends; Close
// it once, after its last Append. A Log owns its file: two Logs (or two
// processes) must not append to one path at once.
package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// maxLine bounds one log line. A campaign checkpoint holds a whole
// shard's records, so lines can be large.
const maxLine = 1 << 28

// Log is one open append-only JSONL file.
type Log struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens the log at path for appending, creating it (and fsyncing
// its directory, so the new entry survives a crash) if it does not
// exist. An existing log is first cut back to the byte after its last
// newline: the cut bytes are a line a crash interrupted, never
// acknowledged, and appending after them would glue the next
// acknowledged line onto the fragment and lose both.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, os.ErrNotExist) {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, err
		}
		if err := flushDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
		return &Log{f: f}, nil
	}
	if err != nil {
		return nil, err
	}
	if err := repairTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// repairTail truncates f to the byte after its last newline (to empty
// when it holds none) and fsyncs the cut.
func repairTail(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	keep := int64(0)
	buf := make([]byte, 4096)
	for end := size; end > 0; {
		n := min(end, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			keep = end - n + int64(i) + 1
			break
		}
		end -= n
	}
	if keep == size {
		return nil
	}
	if err := f.Truncate(keep); err != nil {
		return err
	}
	return f.Sync()
}

// Append writes line as one newline-terminated log line (adding the
// newline unless line already ends with one) and fsyncs it, so the line
// survives any crash after Append returns. line must hold no other
// newline.
func (l *Log) Append(line []byte) error {
	if len(line) == 0 || line[len(line)-1] != '\n' {
		line = append(line[:len(line):len(line)], '\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(line); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Scan decodes each complete line of the log at path as JSON into a T
// and hands it to fn, in file order, skipping empty lines. A line that
// does not decode is counted in torn and skipped, and so is a final
// line without its newline: that is a torn append, which Open would
// cut. Scan stops at, and returns, the first error fn returns. A
// missing file is an empty log.
func Scan[T any](path string, fn func(T) error) (torn int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	unterminated := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), maxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if atEOF && len(data) > 0 {
			unterminated = true
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var v T
		if unterminated || json.Unmarshal(line, &v) != nil {
			torn++
			continue
		}
		if err := fn(v); err != nil {
			return torn, err
		}
	}
	return torn, sc.Err()
}

// WriteFileAtomic replaces dir/name with data durably: the bytes are
// staged to a temp file and fsynced, renamed into place, and the
// directory is fsynced so the rename itself survives a crash. A crash at
// any point leaves either the old file or the new one.
func WriteFileAtomic(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return flushDir(dir)
}

// flushDir fsyncs a directory, making the entries created or renamed in
// it durable.
func flushDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// FormatBits renders v as its IEEE-754 bit pattern in lowercase hex,
// without zero padding: 0 is "0" and 1 is "3ff0000000000000". Journal
// bytes depend on this exact spelling.
func FormatBits(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

// ParseBits parses a FormatBits string back into its float64, bit for
// bit (NaN payloads included).
func ParseBits(s string) (float64, error) {
	bits, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("durable: bad state bits %q: %w", s, err)
	}
	return math.Float64frombits(bits), nil
}

// EncodeState renders a state vector with FormatBits, element by
// element; nil stays nil.
func EncodeState(vals []float64) []string {
	if vals == nil {
		return nil
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = FormatBits(v)
	}
	return out
}

// DecodeState parses an EncodeState vector back into float64s; nil
// stays nil.
func DecodeState(hex []string) ([]float64, error) {
	if hex == nil {
		return nil, nil
	}
	out := make([]float64, len(hex))
	for i, s := range hex {
		v, err := ParseBits(s)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
