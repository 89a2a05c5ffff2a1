package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runRepeat runs this binary k times with seeds seed..seed+k-1 and
// prints, for each metric of the mode, the median, the quartiles (as
// Python's statistics.quantiles(values, n=4) gives them) and the spread
// (q3-q1)/median — the evidence behind the bounds in BENCHMARK.json.
func runRepeat(o options, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		seed := o.seed + int64(i)
		args := []string{"--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", map[bool]string{false: "0", true: "1"}[o.trace]}
		var stdout bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		out, err := lastLine(stdout.Bytes())
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		names := make([]string, 0, len(out.Metrics))
		for name, m := range out.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d", seed, out.Correct, out.Attempted, out.Failed)
		for _, name := range names {
			fmt.Printf(" %s=%.6g", name, out.Metrics[name].Value)
		}
		fmt.Println()
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s over %d seeds from %d (--trace %v):\n", o.workload, k, o.seed, o.trace)
	fmt.Printf("  %-36s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "spread")
	summary := map[string]map[string]float64{}
	for _, n := range names {
		xs := values[n]
		med := median(append([]float64(nil), xs...))
		q1, q3 := quartiles(xs)
		spread := ratio(q3-q1, med)
		fmt.Printf("  %-36s %12.6g %12.6g %12.6g %8.4f %s\n", n, med, q1, q3, spread, units[n])
		summary[n] = map[string]float64{"median": med, "q1": q1, "q3": q3, "spread": spread}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// lastLine parses the final JSON line of a run's output.
func lastLine(b []byte) (*output, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var out output
	if err := json.Unmarshal(last, &out); err != nil {
		return nil, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	return &out, nil
}
