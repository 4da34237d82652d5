package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// readAll scans the log at path into records.
func readAll(t *testing.T, path string) ([]rec, int) {
	t.Helper()
	var out []rec
	torn, err := Scan(path, func(r rec) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, torn
}

func appendRec(t *testing.T, l *Log, r rec) {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(data); err != nil {
		t.Fatal(err)
	}
}

// TestStateEncodingPins pins the exact encoder strings. Decoding cannot
// tell a zero-padded encoder from this one, but every journal's bytes
// depend on the difference.
func TestStateEncodingPins(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{math.Copysign(0, -1), "8000000000000000"},
		{1, "3ff0000000000000"},
		{math.SmallestNonzeroFloat64, "1"},
		{math.Float64frombits(0x7ff8000000000001), "7ff8000000000001"},
		{math.Inf(1), "7ff0000000000000"},
		{math.Inf(-1), "fff0000000000000"},
	} {
		got := FormatBits(c.v)
		if got != c.want {
			t.Errorf("FormatBits(%x) = %q, want %q", math.Float64bits(c.v), got, c.want)
		}
		back, err := ParseBits(got)
		if err != nil || math.Float64bits(back) != math.Float64bits(c.v) {
			t.Errorf("ParseBits(%q) = %x, %v; want %x", got, math.Float64bits(back), err, math.Float64bits(c.v))
		}
	}
	if EncodeState(nil) != nil {
		t.Error("EncodeState(nil) is not nil")
	}
	if got := EncodeState([]float64{0, 1}); !reflect.DeepEqual(got, []string{"0", "3ff0000000000000"}) {
		t.Errorf("EncodeState = %q", got)
	}
	if vals, err := DecodeState(nil); vals != nil || err != nil {
		t.Errorf("DecodeState(nil) = %v, %v", vals, err)
	}
	if _, err := DecodeState([]string{"0", "xyz"}); err == nil {
		t.Error("DecodeState accepted a non-hex element")
	}
}

// TestLogCrashAtEveryByte cuts a log of k acknowledged records at every
// byte offset, as a crash during the next append might. Reopening and
// appending one record must then read back exactly the records whose
// lines survived whole, followed by the new one, with nothing torn.
func TestLogCrashAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	const k = 4
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []rec
	var ends []int // ends[i]: file size once record i is acknowledged
	for i := 0; i < k; i++ {
		r := rec{N: i, S: fmt.Sprint("record-", i)}
		appendRec(t, l, r)
		want = append(want, r)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(info.Size()))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	next := rec{N: 99, S: "after-crash"}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		acked := 0
		for acked < k && ends[acked] <= cut {
			acked++
		}
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		appendRec(t, l, next)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, torn := readAll(t, path)
		exp := append(append([]rec(nil), want[:acked]...), next)
		if torn != 0 || !reflect.DeepEqual(got, exp) {
			t.Fatalf("cut at byte %d: got %v (torn %d), want %v", cut, got, torn, exp)
		}
	}
}

// TestScanCountsTorn: undecodable lines and a final line without its
// newline are counted and skipped; empty lines are ignored; a missing
// file is an empty log.
func TestScanCountsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if got, torn := readAll(t, path); len(got) != 0 || torn != 0 {
		t.Fatalf("missing log: %v (torn %d)", got, torn)
	}
	data := "{\"n\":1}\n\ngarbage\n{\"n\":2}\n{\"n\":3}"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	got, torn := readAll(t, path)
	if torn != 2 || !reflect.DeepEqual(got, []rec{{N: 1}, {N: 2}}) {
		t.Fatalf("got %v (torn %d), want records 1 and 2 with 2 torn", got, torn)
	}
	stop := fmt.Errorf("stop")
	if _, err := Scan(path, func(rec) error { return stop }); err != stop {
		t.Fatalf("Scan returned %v, want fn's error", err)
	}
}

// TestLogConcurrentAppends: appends from many goroutines each land as
// one whole line.
func TestLogConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				data, _ := json.Marshal(rec{N: w*each + i, S: "concurrent"})
				if err := l.Append(data); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn := readAll(t, path)
	seen := map[int]bool{}
	for _, r := range got {
		seen[r.N] = true
	}
	if torn != 0 || len(got) != writers*each || len(seen) != writers*each {
		t.Fatalf("%d records (%d distinct, torn %d), want %d", len(got), len(seen), torn, writers*each)
	}
}

// TestWriteFileAtomic: the target is replaced whole and no staging file
// is left behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	for _, data := range []string{"old contents\n", "new\n"} {
		if err := WriteFileAtomic(dir, "f.json", []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "f.json"))
		if err != nil || string(got) != data {
			t.Fatalf("read %q, %v; want %q", got, err, data)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only the target", len(entries), err)
	}
}

// FuzzLogRecover opens a log holding arbitrary bytes, appends one
// record and scans it back: nothing may panic, the bytes up to the last
// newline must survive untouched, and the appended record must be the
// last line decoded.
func FuzzLogRecover(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"n\":1}\n{\"n\":2"))
	f.Add([]byte("garbage\n\n{\"n\":3}\n"))
	f.Add([]byte("\x00\xff\n{"))
	f.Fuzz(func(t *testing.T, initial []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, initial, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		appended := []byte(`{"fuzz":"appended"}`)
		if err := l.Append(appended); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		kept := initial[:bytes.LastIndexByte(initial, '\n')+1]
		if !bytes.HasPrefix(got, kept) {
			t.Fatalf("acknowledged prefix %q not preserved in %q", kept, got)
		}
		var last json.RawMessage
		if _, err := Scan(path, func(m json.RawMessage) error {
			last = m
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(last, appended) {
			t.Fatalf("last decoded line %q, want the appended %q", last, appended)
		}
	})
}

// TestAppendErrorSticky: when the fragment of a failed append cannot be
// cut, the log refuses every later append rather than glue it onto the
// fragment.
func TestAppendErrorSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, l, rec{N: 1, S: "kept"})
	// A read-only handle fails both the write and the truncate.
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	good := l.f
	l.f = ro
	if err := l.Append([]byte(`{"n":2}`)); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	l.f = good
	if err := l.Append([]byte(`{"n":3}`)); err == nil {
		t.Fatal("append after an uncut fragment succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, torn := readAll(t, path); torn != 0 || !reflect.DeepEqual(got, []rec{{N: 1, S: "kept"}}) {
		t.Fatalf("got %v (torn %d)", got, torn)
	}
}
