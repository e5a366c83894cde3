package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// spec is the metric list of BENCHMARK.json.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runShort runs the command in-process for a short run and returns its
// standard output and parsed result.
func runShort(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	if rc := run(args, &out, &errb); rc != 0 {
		t.Fatalf("%v: exit %d: %s", args, rc, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	return out.String(), res
}

// checkMetrics asserts the result carries exactly the named metrics with
// their units, each also printed on a human-readable line.
func checkMetrics(t *testing.T, out string, res result, prefix string, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics in result, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
		if !strings.Contains(out, prefix+" "+m.Name+" ") || !strings.Contains(out, " "+m.Unit+"\n") {
			t.Errorf("metric %s not printed with its unit", m.Name)
		}
	}
}

func TestBenchmarkJSONNamesRunnableWorkloads(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		found := false
		for _, x := range workloads {
			found = found || x.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json names workload %q, which the command does not run", w.Name)
		}
	}
}

func TestEveryWorkloadPrintsEndToEndMetrics(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, res := runShort(t, "--workload", w.name, "--seed", "3", "--seconds", "0.5", "--trace", "0")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
			}
			checkMetrics(t, out, res, "e2e", s.EndToEnd)
			for _, m := range s.EndToEnd {
				if v := res.Metrics[m.Name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			for _, want := range []string{"context commit=", "GOMAXPROCS=", "host.steal_frac=", "loadgen.late_ms.p99=", "error_frac=0"} {
				if !strings.Contains(out, want) {
					t.Errorf("run context lacks %q", want)
				}
			}
		})
	}
}

func TestTracedRunWritesSpansAndLayerTable(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			out, res := runShort(t, "--workload", w.name, "--seed", "4", "--seconds", "0.5", "--trace", "1", "--out", dir)
			if !res.Correct {
				t.Fatalf("traced run not correct:\n%s", out)
			}
			checkMetrics(t, out, res, "layer", s.PerLayer)
			run := filepath.Join(dir, w.name+"-seed4")
			spans, err := os.ReadFile(filepath.Join(run, "spans.jsonl"))
			if err != nil || len(spans) == 0 {
				t.Fatalf("spans.jsonl: %v (%d bytes)", err, len(spans))
			}
			var first map[string]any
			if err := json.Unmarshal(spans[:bytes.IndexByte(spans, '\n')], &first); err != nil {
				t.Fatalf("span line is not JSON: %v", err)
			}
			for _, k := range []string{"name", "id", "parent", "req", "start_ns", "end_ns"} {
				if _, ok := first[k]; !ok {
					t.Errorf("span lacks %q", k)
				}
			}
			table, err := os.ReadFile(filepath.Join(run, "layers.tsv"))
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"sim.events_per_block", "server.queue_us.p50", "sim.cpu_frac", "runtime.cpu_frac"} {
				if !bytes.Contains(table, []byte(want)) {
					t.Errorf("layers.tsv lacks %s", want)
				}
			}
			if _, err := os.Stat(filepath.Join(run, "cpu.pprof")); err != nil {
				t.Error(err)
			}
			layer := func(n string) float64 { return res.Metrics[n].Value }
			if w.name == "table2" {
				if layer("sim.events_per_block") <= 0 || layer("picoblaze.instr_per_block") <= 0 {
					t.Errorf("table2 counted no events or instructions")
				}
			} else if layer("server.queue_us.p50") <= 0 || layer("cluster.ops_per_batch") <= 0 {
				t.Errorf("%s measured no server queueing or batches", w.name)
			}
			var cpu float64
			for _, l := range cpuLayers {
				cpu += layer(l + ".cpu_frac")
			}
			if cpu < 0.99 || cpu > 1.01 {
				t.Errorf("cpu_frac sums to %v, want 1", cpu)
			}
		})
	}
}

func TestCorruptedOutputRaisesErrorFrac(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			m, err := w.run(&config{seed: 5, seconds: 0.3, setupReps: 1, meter: &runMeter{}, corruptEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			if m.failed == 0 || m.failed > m.attempted {
				t.Errorf("corrupted outputs: failed=%d attempted=%d, want 0 < failed <= attempted", m.failed, m.attempted)
			}
		})
	}
}

func TestWrongPinRaisesErrorFrac(t *testing.T) {
	digest := t2Pins
	digest.coldDigest[2] = "0000000000000000"
	cycles := t2Pins
	cycles.roundCycles[4]++
	for name, pins := range map[string]*table2Pins{"digest": &digest, "round cycles": &cycles} {
		m, err := runTable2(&config{seed: 6, seconds: 0.3, setupReps: 1, meter: &runMeter{}, pins: pins})
		if err != nil {
			t.Fatal(err)
		}
		if m.failed < t2Waves {
			t.Errorf("wrong pinned %s: failed=%d, want >= %d", name, m.failed, t2Waves)
		}
	}
	m, err := runTable2(&config{seed: 6, seconds: 0.3, setupReps: 1, meter: &runMeter{}})
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 {
		t.Errorf("pinned values: failed=%d, want 0\n%s", m.failed, strings.Join(m.notes, "\n"))
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "table2", "--trace", "2"},
		{"--workload", "table2", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if rc := run(args, &out, &errb); rc == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want a failure and no result", args, rc, out.String())
		}
	}
}

func TestStatistics(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 50); got != 5 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(sorted, 99); got != 10 {
		t.Errorf("p99 = %v", got)
	}
	for _, c := range []struct {
		steal []float64
		want  string
	}{
		{[]float64{0.3, 0.0, 0.2, 0.1, 0.5, 0.0, 0.4, 0.2}, "[1 5]"},
		{[]float64{0.3, 0.1, 0.2, 0.1, 0.5, 0.0, 0.4, 0.2}, "[1 3 5]"},
		{[]float64{0, 0, 0}, "[0 1 2]"},
		{[]float64{0.2}, "[0]"},
	} {
		if got := fmt.Sprint(calmest(c.steal)); got != c.want {
			t.Errorf("calmest(%v) = %s, want %s", c.steal, got, c.want)
		}
	}
	var r reservoir
	for i := 0; i < 3*reservoirCap; i++ {
		r.add(float64(i))
	}
	if len(r.v) != reservoirCap || r.seen != 3*reservoirCap {
		t.Errorf("reservoir kept %d of %d", len(r.v), r.seen)
	}
	if m := median(r.v); m < 1.2*reservoirCap || m > 1.8*reservoirCap {
		t.Errorf("reservoir median %v is not near the stream's", m)
	}
}

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"mccp/internal/sim.(*Engine).Step":        "sim",
		"mccp/internal/cryptocore.(*Core).Start":  "cryptounit",
		"mccp/internal/aes.encryptBlock":          "aes",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/syscall.Syscall6":       "runtime",
		"internal/poll.(*FD).Read":                "net",
		"main.runTable2.func1":                    "loadgen",
		"mccp/internal/fleet.(*Fleet).Scale":      "other",
		"crypto/internal/fips140/aes/gcm.seal":    "other",
		"mccp/internal/server.(*Server).batcher":  "server",
		"mccp/internal/cluster.(*Cluster).Flush":  "cluster",
		"mccp/internal/picoblaze.(*CPU).step":     "picoblaze",
		"mccp/internal/keysched.(*Scheduler).Run": "keysched",
	} {
		if got := layerOf(funcPackage(sym)); got != want {
			t.Errorf("%s -> %s, want %s", sym, got, want)
		}
	}
}
