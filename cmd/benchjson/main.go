// benchjson converts `go test -bench` output into the repository's
// benchmark-trajectory JSON and optionally gates it against a committed
// baseline. The CI bench job runs all steps in one invocation:
//
//	go test -run '^$' -bench 'Table2|Cluster|QoS' -benchtime 1x . | tee bench.txt
//	benchjson -in bench.txt -out BENCH_ci.json -hostout BENCH_host.json \
//	          -baseline BENCH_baseline.json -match 'Table2' -tolerance 0.25 \
//	          -hostbudget 'Table2_GCM_1core_128=60'
//
// Only deterministic virtual-time throughput metrics (*_Mbps at the
// modeled 190 MHz, voice_retention) participate in the baseline gate;
// ns/op, host_Mbps and allocs/op describe the host machine and are
// recorded — -hostout writes them to a separate informational trajectory
// file — but never gated against the baseline. Three targeted host-side
// checks exist instead: -hostbudget (catastrophic-regression smoke
// check: a named benchmark's wall clock, ns/op x iterations, must stay
// under a deliberately generous budget in seconds), -clusterscale (the
// pipelined cluster dispatcher's host-scaling ratio, derated to the
// run's CPU count and skipped on single-CPU machines) and -allocspacket
// (the zero-alloc packet path's allocations-per-packet ceiling).
//
// -smoke runs every smoke gate registered in harness.Experiments (E13–E18
// today; each gate's bounds are documented on its Smoke function) in
// process, prints each verdict with its checks and detail lines, and
// fails if any check fails. The gates need no bench input, so
// `benchjson -smoke` alone is a complete invocation. Exit status: 0
// clean, 1 regression/budget/gate violation, 2 usage/IO error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mccp/internal/benchfmt"
	"mccp/internal/harness"
	"mccp/internal/obs"
)

func main() {
	in := flag.String("in", "-", "bench output to read (- = stdin)")
	out := flag.String("out", "", "write trajectory JSON here (empty = skip)")
	hostOut := flag.String("hostout", "", "write host-speed metrics (ns/op, host_Mbps, allocs/op) here (empty = skip)")
	benchExpr := flag.String("bench", "", "provenance note: the -bench expression the run used")
	baselinePath := flag.String("baseline", "", "baseline JSON to gate against (empty = no gate)")
	match := flag.String("match", "Table2", "regexp of benchmark names the gate covers")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional throughput drop before the gate fails")
	hostBudget := flag.String("hostbudget", "", "host-speed smoke check, 'BenchName=seconds': fail if that benchmark's wall clock exceeded the budget")
	clusterScale := flag.String("clusterscale", "", "cluster host-scaling gate, 'Top:Base=ratio' (e.g. 'Cluster/shards=8:Cluster/shards=1=1.5'): fail if Top's host_Mbps is below ratio x Base's; derated to 0.6 x GOMAXPROCS and skipped on single-CPU runs, where host-parallel speedup is impossible")
	allocsBudget := flag.String("allocspacket", "", "allocation ceiling, 'BenchName=allocs': fail if the benchmark's allocs_op per packet exceeds the ceiling")
	smoke := flag.Bool("smoke", false, "run every registered experiment smoke gate (E13-E18) in-process and fail if any check fails")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("benchjson"))
		return
	}

	// The smoke gates run the simulation directly (no bench input needed),
	// so they are checked before input parsing and compose with the other
	// gates when input is present.
	if *smoke {
		if failed := runSmokeGates(); len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: smoke gate(s) failed: %s\n", strings.Join(failed, ", "))
			os.Exit(1)
		}
		if *in == "-" && *out == "" && *baselinePath == "" && *hostOut == "" {
			return // smoke-only invocation
		}
	}

	results, err := parseInput(*in)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in %s", *in))
	}

	if *out != "" {
		writeResults(*out, *benchExpr, results)
	}
	if *hostOut != "" {
		host := benchfmt.HostOnly(results)
		if len(host) == 0 {
			fatal(fmt.Errorf("no host metrics found for -hostout"))
		}
		writeResults(*hostOut, *benchExpr, host)
	}
	if *hostBudget != "" {
		if err := checkHostBudget(*hostBudget, results); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
	if *clusterScale != "" {
		if err := checkClusterScale(*clusterScale, results); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
	if *allocsBudget != "" {
		if err := checkAllocsPerPacket(*allocsBudget, results); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}

	if *baselinePath == "" {
		return
	}
	bf, err := os.Open(*baselinePath)
	if err != nil {
		fatal(err)
	}
	baseline, err := benchfmt.ReadJSON(bf)
	bf.Close()
	if err != nil {
		fatal(err)
	}
	regs, err := benchfmt.Gate(results, baseline, *match, *tolerance)
	if err != nil {
		fatal(err)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.0f%% against %s:\n",
			len(regs), 100**tolerance, *baselinePath)
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Printf("benchjson: gate clean (%q, tolerance %.0f%%) against %s\n",
		*match, 100**tolerance, *baselinePath)
}

func writeResults(path, benchExpr string, results []benchfmt.Result) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := benchfmt.WriteJSON(f, benchExpr, results); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(results), path)
}

// checkHostBudget enforces 'BenchName=seconds': the named benchmark's total
// wall clock (ns/op x iterations) must stay under the budget. This is a
// catastrophic-kernel-regression smoke check, so budgets should be set an
// order of magnitude above a healthy run.
func checkHostBudget(spec string, results []benchfmt.Result) error {
	name, limitStr, ok := strings.Cut(spec, "=")
	if !ok {
		fatal(fmt.Errorf("bad -hostbudget %q (want 'BenchName=seconds')", spec))
	}
	limit, err := strconv.ParseFloat(limitStr, 64)
	if err != nil || limit <= 0 {
		fatal(fmt.Errorf("bad -hostbudget seconds in %q", spec))
	}
	for _, r := range results {
		if r.Name != name {
			continue
		}
		wall := r.Metrics["ns_op"] * float64(r.Iterations) / 1e9
		if wall > limit {
			return fmt.Errorf("host-speed smoke check failed: %s took %.1fs (budget %.0fs) — the simulation kernel has regressed catastrophically", name, wall, limit)
		}
		fmt.Printf("benchjson: host budget ok: %s took %.2fs (budget %.0fs)\n", name, wall, limit)
		return nil
	}
	return fmt.Errorf("host budget benchmark %q missing from results", name)
}

// checkClusterScale enforces 'Top:Base=ratio': Top's host_Mbps must reach
// ratio x Base's. The requested ratio is derated to what the run's CPU
// count makes possible (0.6 x GOMAXPROCS); single-CPU runs skip the
// check with a notice — the pipelined dispatcher cannot manufacture
// parallel wall-clock speedup without CPUs to run the shards on.
func checkClusterScale(spec string, results []benchfmt.Result) error {
	// Split on the LAST '=' — benchmark names (Cluster/shards=8) carry
	// their own.
	pair, ratioStr, ok := cutLast(spec, "=")
	if !ok {
		fatal(fmt.Errorf("bad -clusterscale %q (want 'Top:Base=ratio')", spec))
	}
	top, base, ok := strings.Cut(pair, ":")
	if !ok {
		fatal(fmt.Errorf("bad -clusterscale %q (want 'Top:Base=ratio')", spec))
	}
	minRatio, err := strconv.ParseFloat(ratioStr, 64)
	if err != nil || minRatio <= 0 {
		fatal(fmt.Errorf("bad -clusterscale ratio in %q", spec))
	}
	// A missing benchmark is a gate failure (exit 1), like -hostbudget's
	// equivalent case — only malformed specs are usage errors.
	h, err := benchfmt.CheckHostScale(results, top, base, minRatio)
	if err != nil {
		return err
	}
	if h.Skipped != "" {
		fmt.Printf("benchjson: cluster scaling check skipped (%s; measured %.2fx)\n", h.Skipped, h.Ratio)
		return nil
	}
	if !h.Pass() {
		return fmt.Errorf("cluster host scaling regressed: %s is %.2fx %s in host_Mbps (want >= %.2fx) — the pipelined dispatch path has serialized", top, h.Ratio, base, h.Want)
	}
	fmt.Printf("benchjson: cluster scaling ok: %s = %.2fx %s host_Mbps (floor %.2fx)\n", top, h.Ratio, base, h.Want)
	return nil
}

// checkAllocsPerPacket enforces 'BenchName=allocs': the benchmark's
// allocs_op spread over its packets metric must stay under the ceiling —
// the zero-alloc packet path's regression guard.
func checkAllocsPerPacket(spec string, results []benchfmt.Result) error {
	name, limitStr, ok := cutLast(spec, "=")
	if !ok {
		fatal(fmt.Errorf("bad -allocspacket %q (want 'BenchName=allocs')", spec))
	}
	limit, err := strconv.ParseFloat(limitStr, 64)
	if err != nil || limit <= 0 {
		fatal(fmt.Errorf("bad -allocspacket ceiling in %q", spec))
	}
	perPkt, err := benchfmt.AllocsPerPacket(results, name)
	if err != nil {
		return err // missing benchmark/metric fails the gate, not usage
	}
	if perPkt > limit {
		return fmt.Errorf("allocation regression: %s allocates %.0f objects/packet (ceiling %.0f) — the packet path has started allocating again", name, perPkt, limit)
	}
	fmt.Printf("benchjson: allocs ok: %s at %.0f allocs/packet (ceiling %.0f)\n", name, perPkt, limit)
	return nil
}

// runSmokeGates runs every registered smoke gate in experiment order,
// prints each verdict with its checks and detail lines, and returns the
// names of the gates that failed.
func runSmokeGates() []string {
	var failed []string
	for _, id := range harness.ExperimentIDs() {
		exp := harness.Experiments[id]
		if exp.Smoke == nil {
			continue
		}
		v := exp.Smoke()
		status := "ok"
		if !v.Pass() {
			status = "FAIL"
			failed = append(failed, v.Gate)
		}
		fmt.Printf("benchjson: %s %s smoke gate %s\n", exp.ID, v.Gate, status)
		for _, c := range v.Checks {
			fmt.Printf("benchjson:   %s\n", c)
		}
		for _, note := range v.Notes {
			fmt.Printf("benchjson:   %s\n", note)
		}
	}
	return failed
}

// cutLast splits s around its last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

func parseInput(path string) ([]benchfmt.Result, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return benchfmt.Parse(r)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(2)
}
