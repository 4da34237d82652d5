package durable

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// TestAppendFailureLeavesNoFragment forces a real short write. A child
// process lowers its file-size limit (RLIMIT_FSIZE) so that an Append
// stops partway through its line: the kernel writes up to the limit and
// the rest fails with EFBIG (Go ignores SIGXFSZ). The child then raises
// the limit and appends once more. The acknowledged lines must read back
// whole, with nothing torn: the second line must not be glued onto the
// fragment of the failed one.
func TestAppendFailureLeavesNoFragment(t *testing.T) {
	if path := os.Getenv("DURABLE_FSIZE_CHILD"); path != "" {
		appendPastFileSizeLimit(t, path)
		return
	}
	path := filepath.Join(t.TempDir(), "log.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestAppendFailureLeavesNoFragment$", "-test.count=1")
	cmd.Env = append(os.Environ(), "DURABLE_FSIZE_CHILD="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	got, torn := readAll(t, path)
	want := []rec{{N: 1, S: "before"}, {N: 3, S: "after"}}
	if torn != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v (torn %d), want %v", got, torn, want)
	}
}

func appendPastFileSizeLimit(t *testing.T, path string) {
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, l, rec{N: 1, S: "before"})
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	low := lim
	low.Cur = uint64(info.Size()) + 8
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &low); err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(rec{N: 2, S: strings.Repeat("x", 64)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(line); err == nil {
		t.Fatal("append past the file-size limit succeeded")
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	appendRec(t, l, rec{N: 3, S: "after"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
