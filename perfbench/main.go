// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the scheduler stack — the treeschedd
// handler behind a loopback listener, or the multitree cluster loop —
// with inputs drawn from a seed, checks every output against the
// benchmark's own in-process evaluation, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run is traced (timing decorators around core.Scheduler and
// multitree.Policy, a timing middleware around the handler, replayed
// per-layer spans) and the metrics are the per-layer set. A result
// file with the machine fingerprint and the raw samples is written
// under -out. See README.md for the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every corpus, rate and phase so a self-test pass of
	// a workload takes about a second.
	tiny bool
	// wrap, when set, wraps the service handler (the self-test's
	// response-tampering case).
	wrap handlerWrapper
	log  io.Writer
}

// report is what a workload measured: every metric it computed, the
// op counts behind the correctness verdict, and raw samples for the
// result file.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	samples           map[string][]float64
	spans             []span
	// errors holds the first few correctness failures, for the log.
	errors []string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, samples: map[string][]float64{}}
}

// fail records one failed op with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errors) < 8 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, cfg *config) (*report, error)

var workloads = map[string]workloadFunc{
	"serve-warm":     serveWarm,
	"jobs-cold":      jobsCold,
	"cluster-stream": clusterStream,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-warm, jobs-cold or cluster-stream")
	seed := fs.Uint64("seed", 1, "seed every input is drawn from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the result file (empty: none)")
	tiny := fs.Bool("tiny", false, "self-test scale: tiny corpora and rates")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload serve-warm|jobs-cold|cluster-stream, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	cfg := &config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny, log: stderr}
	res, rep, err := execute(cfg, wf)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.trace {
		printLayerTable(stdout, rep)
	}
	if *out != "" {
		if err := writeResultFile(*out, cfg, res, rep); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 3
	}
	return 0
}

// execute runs one workload and shapes its report into the printed
// result: the end-to-end set untraced, the per-layer set traced.
func execute(cfg *config, wf workloadFunc) (*result, *report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep, err := wf(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range rep.errors {
		fmt.Fprintf(cfg.log, "perfbench: %s: failed op: %s\n", cfg.workload, e)
	}
	if rep.attempted < 1 {
		return nil, nil, fmt.Errorf("no op was attempted")
	}
	rep.metrics["error_ratio"] = float64(rep.failed) / float64(rep.attempted)
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := &result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricOut, len(specs))}
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if !ok {
			if !cfg.trace {
				return nil, nil, fmt.Errorf("end-to-end metric %s was not measured", s.name)
			}
			v = 0 // a layer this workload does not exercise
		}
		res.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	return res, rep, nil
}

// printLayerTable prints each layer's self time per op and the tracing
// overhead, ahead of the JSON line.
func printLayerTable(w io.Writer, rep *report) {
	fmt.Fprintf(w, "%-10s %14s\n", "layer", "self ms/op")
	for _, l := range layers {
		if v := rep.metrics[l+".self_ms_per_op"]; v > 0 {
			fmt.Fprintf(w, "%-10s %14.4f\n", l, v)
		}
	}
	fmt.Fprintf(w, "trace.overhead_ratio %.4f\n", rep.metrics["trace.overhead_ratio"])
}

// writeResultFile stores the printed result together with the machine
// fingerprint, the run's settings and its raw samples, so results are
// only ever compared with results from the same machine.
func writeResultFile(dir string, cfg *config, res *result, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("result dir: %w", err)
	}
	doc := struct {
		Workload string               `json:"workload"`
		Seed     uint64               `json:"seed"`
		Seconds  float64              `json:"seconds"`
		Trace    bool                 `json:"trace"`
		Machine  fingerprint          `json:"machine"`
		Result   *result              `json:"result"`
		Samples  map[string][]float64 `json:"samples"`
		Errors   []string             `json:"errors,omitempty"`
	}{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, machineFingerprint(), res, rep.samples, rep.errors}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	mode := 0
	if cfg.trace {
		mode = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, mode)
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	if cfg.trace {
		if err := writeSpans(filepath.Join(dir, base+"-spans.jsonl"), rep.spans); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	return nil
}
