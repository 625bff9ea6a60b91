package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs every workload n times, interleaved (seed i of every
// workload before seed i+1 of any), each as a fresh child process exactly
// as a single invocation would run, and prints every metric's median,
// quartiles, range, interquartile spread as a share of the median, and
// how many distinct values it took (1: bit-identical in every run).
// This is the evidence for the bounds in BENCHMARK.json.
func runSteady(n int, seconds int, traced bool, root string) error {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	failed := map[string]int{}
	for seed := 1; seed <= n; seed++ {
		for _, w := range workloads {
			args := []string{"--root", root, "--workload", w, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", map[bool]string{true: "1", false: "0"}[traced]}
			cmd := exec.Command(os.Args[0], args...)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct {
				failed[w]++
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
				units[name] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d done\n", w, seed)
		}
	}
	for _, w := range workloads {
		fmt.Printf("\n%s: %d runs, %d with failed checks\n", w, n, failed[w])
		fmt.Printf("%-28s %-6s %14s %14s %14s %14s %14s %8s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med", "distinct")
		var metrics []string
		for name := range values[w] {
			metrics = append(metrics, name)
		}
		sort.Strings(metrics)
		for _, name := range metrics {
			xs := values[w][name]
			q1, med, q3 := quartiles(xs)
			lo, hi := xs[0], xs[0]
			distinct := map[float64]bool{}
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
				distinct[x] = true
			}
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("%-28s %-6s %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f %8d\n", name, units[name], med, q1, q3, lo, hi, spread, len(distinct))
		}
	}
	return nil
}
