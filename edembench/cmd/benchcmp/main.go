// Command benchcmp runs the repository benchmark on two source trees in
// alternating pairs and says, per workload and end-to-end metric,
// whether the change gained, stayed within the bound BENCHMARK.json
// fixes, regressed, or could not be resolved at this spread.
//
// Usage, from the benchmark directory:
//
//	go run ./cmd/benchcmp -parent ../../parent -change .. -pairs 10
//	go run ./cmd/benchcmp -change .. -pairs 10    # spread of one tree
//
// Every workload BENCHMARK.json lists is run. Pair i runs seed i (from
// 1) on both trees, the parent first on odd pairs and the change first
// on even ones. A gain is claimed only when the change wins at least
// nine tenths of the pairs (ties count for neither side) and the
// medians differ by more than the parent's interquartile range. Every
// ratio is printed with its base.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
	}
	os.Exit(code)
}

// benchmarkSpec is the part of BENCHMARK.json the comparator reads.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is the last line a benchmark run prints.
type runResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	parent := fs.String("parent", "", "source tree of the parent commit (omit to report one tree's spread)")
	change := fs.String("change", "", "source tree of the change; its BENCHMARK.json is used")
	pairs := fs.Int("pairs", 10, "runs per side")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if *change == "" || *pairs < 2 {
		return 2, fmt.Errorf("need -change DIR and -pairs >= 2")
	}
	data, err := os.ReadFile(filepath.Join(*change, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return 1, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	sides := []string{*change}
	if *parent != "" {
		sides = []string{*parent, *change}
	}
	regressed := false
	for _, wl := range spec.Workloads {
		w := wl.Name
		values := make([]map[string][]float64, len(sides)) // side -> metric -> per-pair values
		for s := range sides {
			values[s] = map[string][]float64{}
		}
		for i := 1; i <= *pairs; i++ {
			order := []int{0, 1}
			if i%2 == 0 {
				order = []int{1, 0}
			}
			for _, s := range order {
				if s >= len(sides) {
					continue
				}
				res, err := runOnce(sides[s], spec, w, i)
				if err != nil {
					return 1, fmt.Errorf("%s on %s, seed %d: %w", w, sides[s], i, err)
				}
				for _, m := range spec.EndToEnd {
					v, ok := res.Metrics[m.Name]
					if !ok {
						return 1, fmt.Errorf("%s on %s printed no %s", w, sides[s], m.Name)
					}
					values[s][m.Name] = append(values[s][m.Name], v.Value)
				}
			}
		}
		fmt.Fprintf(out, "workload %s (%d runs per side, seeds 1..%d)\n", w, *pairs, *pairs)
		for _, m := range spec.EndToEnd {
			if len(sides) == 1 {
				fmt.Fprintln(out, "  "+spreadLine(m, values[0][m.Name]))
				continue
			}
			row := compare(m, values[0][m.Name], values[1][m.Name])
			regressed = regressed || row.verdict == verdictRegression
			fmt.Fprintln(out, "  "+row.String())
		}
	}
	if regressed {
		return 1, nil
	}
	return 0, nil
}

// runOnce runs the benchmark command in dir and parses its last line.
// A run that reports incorrect output is an error: its figures mean
// nothing.
func runOnce(dir string, spec benchmarkSpec, workload string, seed int) (*runResult, error) {
	if len(spec.Command) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json has no command")
	}
	args := append(append([]string(nil), spec.Command[1:]...),
		"--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
	cmd := exec.Command(spec.Command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v\n%s", err, lastLines(stderr.String(), 20))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("incorrect output (%d of %d operations failed)\n%s",
			res.Failed, res.Attempted, lastLines(stderr.String(), 20))
	}
	return &res, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
