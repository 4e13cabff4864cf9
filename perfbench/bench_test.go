package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/multitree"
)

// benchmarkJSON is the part of BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

// TestMetricListsMatchBenchmarkJSON: the printed metric lists and the
// workloads are exactly the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	check := func(kind string, decl []struct{ Name, Unit string }, specs []metricSpec) {
		if len(decl) != len(specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(decl), len(specs))
		}
		for i := range min(len(decl), len(specs)) {
			if decl[i].Name != specs[i].name || decl[i].Unit != specs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i,
					decl[i].Name, decl[i].Unit, specs[i].name, specs[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

// TestTinyPassPrintsEveryMetric runs every workload at self-test scale,
// untraced and traced, through the command's entry point and checks
// the last line names every declared metric with its unit and passes
// the correctness gate.
func TestTinyPassPrintsEveryMetric(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.Name, "-seed", "5", "-seconds", "1", "-trace", trace,
					"-tiny", "-out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("gate: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := bj.EndToEnd
				if trace == "1" {
					want = bj.PerLayer
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
					if trace == "0" && !(got.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// tamper rewrites the makespan in every served answer, the way a
// scheduler bug would.
func tamper(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		var doc map[string]any
		if json.Unmarshal(body, &doc) == nil {
			target := doc
			if inner, ok := doc["response"].(map[string]any); ok {
				target = inner
			}
			if ms, ok := target["makespan"].(float64); ok {
				target["makespan"] = ms * 1.001
				body, _ = json.Marshal(doc)
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestGateRejectsTamperedResponses: with the handler's answers altered,
// both served workloads must report every op wrong and the run
// incorrect.
func TestGateRejectsTamperedResponses(t *testing.T) {
	for _, name := range []string{"serve-warm", "jobs-cold"} {
		t.Run(name, func(t *testing.T) {
			var log bytes.Buffer
			cfg := &config{workload: name, seed: 3, seconds: 1, tiny: true, wrap: tamper, log: &log}
			res, rep, err := execute(cfg, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || rep.failed != rep.attempted || rep.attempted == 0 {
				t.Fatalf("tampered run passed the gate: correct=%v attempted=%d failed=%d",
					res.Correct, rep.attempted, rep.failed)
			}
			if !strings.Contains(log.String(), "makespan") {
				t.Errorf("log does not name the mismatching field:\n%s", log.String())
			}
		})
	}
}

// TestGateRejectsMutatedClusterResult: each cluster-stream check bites
// on a result altered to break it.
func TestGateRejectsMutatedClusterResult(t *testing.T) {
	cfg := &config{seed: 2, tiny: true}
	specs, info := multitree.MakeStream(streamOptions(cfg))
	r, err := runCluster(specs, info, multitree.EASY{}, true)
	if err != nil {
		t.Fatal(err)
	}
	var digest uint64
	if bad := checkCluster(r.res, info, &digest); len(bad) > 0 {
		t.Fatalf("unaltered result rejected: %v", bad)
	}
	again, err := runCluster(specs, info, multitree.EASY{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkCluster(again.res, info, &digest); len(bad) > 0 {
		t.Fatalf("repeat rejected: %v", bad)
	}
	mutations := map[string]func(*multitree.Result){
		"events":        func(res *multitree.Result) { res.Events-- },
		"failed jobs":   func(res *multitree.Result) { res.FailedJobs = 1 },
		"over-reserved": func(res *multitree.Result) { res.PeakReserved = info.Mem * 1.01 },
		"digest":        func(res *multitree.Result) { res.Jobs[len(res.Jobs)/2].Finish += 1e-9 },
	}
	for name, mutate := range mutations {
		res := *r.res
		res.Jobs = append([]multitree.JobResult(nil), r.res.Jobs...)
		mutate(&res)
		d := digest
		if bad := checkCluster(&res, info, &d); len(bad) == 0 {
			t.Errorf("%s: mutated result passed the gate", name)
		}
	}
}

// TestLadderInterpolates: the highest passing rate lies between the
// last passing and the first failing rung, found in log-latency.
func TestLadderInterpolates(t *testing.T) {
	p99 := map[float64]float64{10: 20, 20: 40, 30: 80, 40: 320}
	run := func(rate float64) *rung {
		return &rung{rate: rate, lat: []float64{p99[rate]}, p50: p99[rate], p99: p99[rate]}
	}
	got, rungs := ladder([]float64{10, 20, 30, 40}, run(20), 160, 4, run)
	if math.Abs(got-35) > 1e-9 || len(rungs) != 5 {
		t.Errorf("max rate %v over %d rungs, want 35 over 5", got, len(rungs))
	}
	// After the bisection (30 passes, 40 fails) the walk measures the
	// failing rate again, then steps down.
	var walk []float64
	for _, r := range rungs[3:] {
		walk = append(walk, r.rate)
	}
	if !slices.Equal(walk, []float64{40, 30}) {
		t.Errorf("walk %v, want [40 30]", walk)
	}
	// A failing nominal rung searches down the ladder.
	got, _ = ladder([]float64{10, 20, 30, 40}, run(30), 30, 4, run)
	if !(got > 10 && got < 20) {
		t.Errorf("max rate %v, want within (10, 20)", got)
	}
	// A rate that passes once and then fails is judged on both rungs:
	// 40's pooled p99 misses the limit, so the result stays below it.
	seen40 := 0
	flaky := func(rate float64) *rung {
		if rate == 40 {
			if seen40++; seen40 == 1 {
				return &rung{rate: 40, lat: []float64{100}}
			}
		}
		return run(rate)
	}
	got, _ = ladder([]float64{10, 20, 30, 40}, run(20), 160, 4, flaky)
	if !(got > 30 && got < 40) {
		t.Errorf("max rate %v with a flaky 40, want within (30, 40)", got)
	}
}

func TestExecuteNeedsEveryEndToEndMetric(t *testing.T) {
	partial := func(context.Context, *config) (*report, error) {
		rep := newReport()
		rep.attempted = 1
		rep.metrics["setup_s"] = 1
		return rep, nil
	}
	if _, _, err := execute(&config{workload: "partial", log: &bytes.Buffer{}}, partial); err == nil {
		t.Error("a report missing end-to-end metrics was accepted")
	}
}
