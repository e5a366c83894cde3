// Command perfbench is the host-time benchmark of the mccp stack. It runs
// one workload (table2, wire-mix or wire-small) against the real program
// for a fixed wall-clock length, checks every output, and prints the
// end-to-end metrics by name with their units. With --trace 1 it instead
// makes an untraced and a traced run of the same workload and seed and
// prints the per-layer metrics, writing the traced run's spans (JSONL),
// CPU profile and per-layer table under --out. The last line of standard
// output is always one JSON result object. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one set of inputs the benchmark can run.
type workload struct {
	name string
	// traceEvery samples one request in every traceEvery for spans.
	traceEvery uint64
	run        func(cfg *config) (*measurement, error)
	// headline is the end-to-end figure trace.overhead_frac compares, and
	// whether a larger value is better.
	headline       func(e e2e) float64
	headlineHigher bool
}

var workloads = []workload{
	{name: "table2", traceEvery: 1, run: runTable2,
		headline: func(e e2e) float64 { return e.hostMbps }, headlineHigher: true},
	{name: "wire-mix", traceEvery: 1, run: runWireMix,
		headline: func(e e2e) float64 { return e.p50 }},
	{name: "wire-small", traceEvery: 8, run: runWireSmall,
		headline: func(e e2e) float64 { return e.reqPerS }, headlineHigher: true},
}

// config is one run's settings.
type config struct {
	seed      uint64
	seconds   float64
	setupReps int
	tr        *tracer   // nil = untraced
	meter     *runMeter // brackets the measured window
	// corruptEvery > 0 flips one byte of every corruptEvery-th output
	// before it is checked; pins overrides table2's pinned values. Both
	// exist for the benchmark's own tests of its checks.
	corruptEvery uint64
	pins         *table2Pins
}

// measurement is what a workload run reports.
type measurement struct {
	setupS            []float64 // each repeated set-up, seconds
	attempted, failed uint64    // operations, including the checks' own
	windows           []window
	ops               uint64 // operations completed in the measured window
	allocObjs         uint64 // heap allocations over the timed regions
	allocBytes        uint64
	layers            map[string]float64 // counter-derived per-layer metrics
	late              reservoir          // open-loop send lateness, ms
	notes             []string           // extra human-readable lines
}

// runMeter samples host and runtime state at the edges of the measured
// window and, for the traced run, records a CPU profile across it.
type runMeter struct {
	profile    bool
	prof       bytes.Buffer
	profErr    error
	rt0, rt1   rtSample
	cpu0, cpu1 cpuTimes
}

func (m *runMeter) begin() {
	m.cpu0, m.rt0 = readCPUTimes(), readRuntime()
	if m.profile {
		m.profErr = pprof.StartCPUProfile(&m.prof)
	}
}

func (m *runMeter) end() {
	if m.profile && m.profErr == nil {
		pprof.StopCPUProfile()
	}
	m.rt1, m.cpu1 = readRuntime(), readCPUTimes()
}

// metric is one named figure with its unit.
type metric struct {
	name, unit string
	value      float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table2, wire-mix or wire-small")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured length of one run, seconds")
	trace := fs.Int("trace", 0, "1 = untraced plus traced run, printing per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for the traced run's spans, profile and layer table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload table2|wire-mix|wire-small, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	var err error
	if *trace == 0 {
		err = runE2E(wl, *seed, *seconds, stdout)
	} else {
		err = runTraced(wl, *seed, *seconds, *out, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	return 0
}

// setupReps is how many times the untraced run builds its set-up; setup_s
// is the median.
const setupReps = 21

func runE2E(wl *workload, seed uint64, seconds float64, w io.Writer) error {
	cfg := &config{seed: seed, seconds: seconds, setupReps: setupReps, meter: &runMeter{}}
	m, err := wl.run(cfg)
	if err != nil {
		return err
	}
	e := summarize(m.windows)
	printHeader(w, wl.name, seed, seconds, 0)
	printContext(w, m, e, cfg.meter)
	ms := e2eMetrics(m, e)
	for _, x := range ms {
		fmt.Fprintf(w, "e2e %-12s %14.6f %s\n", x.name, x.value, x.unit)
	}
	// The tail is printed but carries no bound: on a shared VM it moves
	// several-fold with a neighbour's load (see README.md).
	fmt.Fprintf(w, "e2e %-12s %14.6f %s (unbounded)\n", "p99_ms", e.p99, "ms")
	return printResult(w, m, ms)
}

func e2eMetrics(m *measurement, e e2e) []metric {
	return []metric{
		{"setup_s", "s", median(m.setupS)},
		{"host_Mbps", "Mbit/cpu-s", e.hostMbps},
		{"req_per_s", "1/cpu-s", e.reqPerS},
		{"p50_ms", "ms", e.p50},
		{"rss_peak_MB", "MB", peakRSSMB()},
	}
}

func runTraced(wl *workload, seed uint64, seconds float64, outDir string, w io.Writer) error {
	base, err := wl.run(&config{seed: seed, seconds: seconds, setupReps: 1, meter: &runMeter{}})
	if err != nil {
		return fmt.Errorf("untraced run: %w", err)
	}
	tr := newTracer(wl.traceEvery)
	meter := &runMeter{profile: true}
	m, err := wl.run(&config{seed: seed, seconds: seconds, setupReps: 1, tr: tr, meter: meter})
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	if meter.profErr != nil {
		return fmt.Errorf("cpu profile: %w", meter.profErr)
	}
	byPkg, err := cpuByPackage(meter.prof.Bytes())
	if err != nil {
		return err
	}
	eBase, e := summarize(base.windows), summarize(m.windows)
	ms := layerMetrics(wl, m, meter, byPkg, eBase, e)

	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", wl.name, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.writeJSONL(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), meter.prof.Bytes(), 0o644); err != nil {
		return err
	}
	var table bytes.Buffer
	writeLayerTable(&table, ms, byPkg)
	if err := os.WriteFile(filepath.Join(dir, "layers.tsv"), table.Bytes(), 0o644); err != nil {
		return err
	}

	printHeader(w, wl.name, seed, seconds, 1)
	printContext(w, m, e, meter)
	fmt.Fprintf(w, "trace: %d spans (%d dropped, 1 request in %d traced) -> %s\n",
		tr.count(), tr.dropped, tr.every, dir)
	for _, x := range ms {
		fmt.Fprintf(w, "layer %-28s %14.6f %s\n", x.name, x.value, x.unit)
	}
	attempted, failed := base.attempted+m.attempted, base.failed+m.failed
	return printResult(w, &measurement{attempted: attempted, failed: failed}, ms)
}

// layerMetrics assembles every per-layer metric, in a fixed order; a layer
// the workload bypasses, or one the benchmark cannot observe on it,
// reports 0.
func layerMetrics(wl *workload, m *measurement, meter *runMeter, byPkg map[string]float64, eBase, e e2e) []metric {
	l := func(k string) float64 { return m.layers[k] }
	frac, cpuNs := layerFractions(byPkg)
	simNs := frac["sim"] * cpuNs
	overhead := ratio(wl.headline(eBase)-wl.headline(e), wl.headline(eBase))
	if !wl.headlineHigher {
		overhead = -overhead
	}
	ops := float64(m.ops)
	ms := []metric{
		{"sim.events_per_block", "count", l("sim.events_per_block")},
		{"sim.ns_per_event", "ns", ratio(simNs, l("sim.events"))},
		{"picoblaze.instr_per_block", "count", l("picoblaze.instr_per_block")},
		{"picoblaze.instr_per_event", "count", l("picoblaze.instr_per_event")},
		{"cryptounit.issues_per_block", "count", l("cryptounit.issues_per_block")},
		{"keysched.expansions_per_kop", "count", l("keysched.expansions_per_kop")},
		{"cluster.ops_per_batch", "count", l("cluster.ops_per_batch")},
		{"server.queue_us.p50", "us", l("server.queue_us.p50")},
		{"server.queue_us.p99", "us", l("server.queue_us.p99")},
		{"server.service_us.p50", "us", l("server.service_us.p50")},
		{"server.service_us.p99", "us", l("server.service_us.p99")},
		{"server.transport_us.p50", "us", l("server.transport_us.p50")},
		{"server.transport_us.p99", "us", l("server.transport_us.p99")},
		{"qos.shed_frac", "ratio", l("qos.shed_frac")},
		{"runtime.allocs_per_op", "count", ratio(float64(m.allocObjs), ops)},
		{"runtime.alloc_KB_per_op", "KB", ratio(float64(m.allocBytes)/1024, ops)},
		{"runtime.gc_cpu_frac", "ratio", ratio(meter.rt1.gcCPU-meter.rt0.gcCPU, meter.rt1.totalCPU-meter.rt0.totalCPU)},
		{"runtime.sched_wait_us.p99", "us", schedP99us(meter.rt0, meter.rt1)},
	}
	for _, layer := range cpuLayers {
		ms = append(ms, metric{layer + ".cpu_frac", "ratio", frac[layer]})
	}
	return append(ms,
		metric{"client.p99_ms", "ms", eBase.p99},
		metric{"loadgen.late_ms.p99", "ms", percentile(m.late.sorted(), 99)},
		metric{"host.steal_frac", "ratio", stealFrac(meter.cpu0, meter.cpu1)},
		metric{"trace.overhead_frac", "ratio", overhead},
	)
}

// writeLayerTable writes the per-layer metrics and the per-package CPU
// self time behind cpu_frac as tab-separated text.
func writeLayerTable(w io.Writer, ms []metric, byPkg map[string]float64) {
	fmt.Fprintf(w, "metric\tvalue\tunit\n")
	for _, x := range ms {
		fmt.Fprintf(w, "%s\t%.6g\t%s\n", x.name, x.value, x.unit)
	}
	var total float64
	pkgs := make([]string, 0, len(byPkg))
	for p, ns := range byPkg {
		pkgs = append(pkgs, p)
		total += ns
	}
	sort.Slice(pkgs, func(i, j int) bool { return byPkg[pkgs[i]] > byPkg[pkgs[j]] })
	fmt.Fprintf(w, "\npackage\tlayer\tcpu_frac\tcpu_ms\n")
	for _, p := range pkgs {
		fmt.Fprintf(w, "%s\t%s\t%.4f\t%.1f\n", p, layerOf(p), ratio(byPkg[p], total), byPkg[p]/1e6)
	}
}

func printHeader(w io.Writer, name string, seed uint64, seconds float64, trace int) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", name, seed, seconds, trace)
}

// printContext prints the run-context block: what ran where, how many
// samples the figures rest on, and how noisy the host was meanwhile.
func printContext(w io.Writer, m *measurement, e e2e, meter *runMeter) {
	fmt.Fprintf(w, "context commit=%s source=%s go=%s nproc=%d GOMAXPROCS=%d\n",
		commit(), sourceDigest("."), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "context windows=%d calm=%d samples=%d setups=%d host.steal_frac=%.4f loadgen.late_ms.p99=%.3f\n",
		e.windows, e.calm, e.samples, len(m.setupS), stealFrac(meter.cpu0, meter.cpu1), percentile(m.late.sorted(), 99))
	fmt.Fprintf(w, "context all-window latency p50=%.4f ms p99=%.4f ms\n", e.allP50, e.allP99)
	fmt.Fprintf(w, "context wall-clock rates: %.4f Mbit/s, %.2f ops/s\n", e.wallMbps, e.wallReqPerS)
	fmt.Fprintf(w, "context per-window wall Mbit/s:")
	for _, x := range e.perWindowMbps {
		fmt.Fprintf(w, " %.2f", x)
	}
	fmt.Fprintf(w, "\ncontext per-window p50/p99 ms:")
	for i := range e.perWindowP50 {
		fmt.Fprintf(w, " %.3f/%.3f", e.perWindowP50[i], e.perWindowP99[i])
	}
	fmt.Fprintf(w, "\ncontext per-window steal:")
	for _, x := range e.perWindowSteal {
		fmt.Fprintf(w, " %.3f", x)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "check attempted=%d failed=%d error_frac=%.6g\n",
		m.attempted, m.failed, ratio(float64(m.failed), float64(m.attempted)))
	for _, n := range m.notes {
		fmt.Fprintln(w, n)
	}
}

// printResult writes the final JSON line. A run is correct when no
// operation failed or produced a wrong output and every metric is finite.
func printResult(w io.Writer, m *measurement, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]value{}}
	res.Correct = m.failed == 0 && m.attempted > 0
	var bad []string
	for _, x := range ms {
		if math.IsNaN(x.value) || math.IsInf(x.value, 0) {
			bad = append(bad, x.name)
			continue
		}
		res.Metrics[x.name] = value{x.value, x.unit}
	}
	if len(bad) > 0 {
		return fmt.Errorf("non-finite metrics: %s", strings.Join(bad, ", "))
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
