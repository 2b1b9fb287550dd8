// Command perfbench is the repository's end-to-end benchmark. It builds
// its inputs from a seed, drives the real dclserved daemon over loopback
// HTTP, checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload overlap-dcl --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run, scaled to a nominal host speed by a reference probe run
// between verdicts (hostref.go); with --trace 1 it carries the per-layer
// metrics of a traced run plus an in-process replay of the same windows
// through each layer's public functions. See NOTES.md for the workloads
// and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Run shape.
const (
	setups          = 5   // set-ups per run; setup_s is their median
	verdictsPerSec  = 2.5 // timed verdicts per --seconds (sized on one 2-CPU box)
	minVerdicts     = 20
	tracedShare     = 3 // a traced run replays 1/tracedShare of the verdicts
	minTracedWindow = 10
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: overlap-dcl or fleet-healthy")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 45, "nominal run length; sets the number of timed verdicts")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
		daemonBin = flag.String("daemon", "", "dclserved binary")
		workDir   = flag.String("work", ".bench_build", "scratch directory for stores, logs and fingerprints")
	)
	flag.Parse()
	// The generator is one process on one core; the system under test
	// gets the other.
	runtime.GOMAXPROCS(1)
	if *daemonBin == "" || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -daemon is required and --trace must be 0 or 1 (use perfbench/run.sh)")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *traced == 1, *daemonBin, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one benchmark run. An error means the run could not be
// carried out at all; a run that completes with wrong outputs returns a
// result with Correct false.
func run(name string, seed int64, seconds float64, traced bool, bin, workDir string) (*result, error) {
	ctx := context.Background()
	n := max(minVerdicts, int(math.Round(seconds*verdictsPerSec)))
	t0 := time.Now()
	w, err := buildWorkload(name, seed, n)
	if err != nil {
		return nil, err
	}
	inputs := inputHash(w)
	if pin := pinnedInputs[name]; seed == 1 && n == pinnedVerdicts && pin != inputs {
		return nil, fmt.Errorf("inputs of seed 1 changed (sha256 %s, pinned %s): the simulator or a generator changed the workload", inputs, pin)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d timed verdicts, inputs %s (generated in %.1fs)\n",
		name, seed, n, inputs[:16], time.Since(t0).Seconds())

	dir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("run-%s-%d", name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start := filepath.Join(dir, "start-store")
	if err := writeStartStore(start, w); err != nil {
		return nil, err
	}

	ck := &checker{}
	wk := work{Inputs: inputs}
	res := &result{Attempted: w.timed(), Metrics: map[string]metric{}}
	if traced {
		err = tracedRun(ctx, w, bin, dir, start, ck, &wk, res.Metrics)
		res.Attempted = w.truncate(tracedWindows(n)).timed()
	} else {
		err = untracedRun(ctx, w, bin, dir, start, ck, &wk, res.Metrics)
	}
	if err != nil {
		return nil, err
	}
	src, err := sourceHash(".")
	if err != nil {
		return nil, err
	}
	mode := map[bool]string{false: "e2e", true: "traced"}[traced]
	checkFingerprint(ck, filepath.Join(workDir, "fingerprints"), fmt.Sprintf("%s-%s-s%d-n%d-%s", src, name, seed, n, mode), wk)
	fmt.Fprintf(os.Stderr, "perfbench: work %+v\n", wk)
	for _, p := range ck.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res.Correct = len(ck.problems) == 0 && ck.failed == 0
	res.Failed = ck.failed
	return res, nil
}

func tracedWindows(n int) int { return max(minTracedWindow, n/tracedShare) }

// untracedRun measures the end-to-end metrics. Every time metric is
// scaled to the nominal host by the reference probes around it.
func untracedRun(ctx context.Context, w *workload, bin, dir, start string, ck *checker, wk *work, m map[string]metric) error {
	cpu := daemonCPU()
	pr := &prober{k: newRefKernel(), cpu: cpu}
	pr.probe() // page the kernel in
	leg, err := runLeg(ctx, w, legConfig{bin: bin, dir: dir, start: start, setups: setups, cpu: cpu, probe: pr})
	if err != nil {
		return err
	}
	decided, got := checkDaemonLeg(ck, w, leg, wk)
	agree, err := agreement(w, decided, got)
	if err != nil {
		ck.failf("verdict agreement: %v", err)
	}
	n := len(leg.verdictMS)
	verdict := leg.scaledVerdicts()
	wall, cpuScale := scaleTo(leg.probes, n, wallOf), scaleTo(leg.probes, n, cpuOf)
	var cycles, cpuFactor float64
	for i := range verdict {
		cycles += leg.cycleMS[i] * wall[i]
		cpuFactor += cpuScale[i] / float64(n)
	}
	setupRef := median(pluck(leg.setupRef, wallOf))
	setupS := median(leg.setupS) * refNominalMS / setupRef

	m["setup_s"] = metric{setupS, "s"}
	m["windows_per_s"] = metric{1e3 * float64(n) / cycles, "1/s"}
	m["verdict_p50_ms"] = metric{quantile(verdict, 0.5), "ms"}
	m["verdict_p90_ms"] = metric{quantile(verdict, 0.9), "ms"}
	m["cpu_ms_per_window"] = metric{leg.cpuMS * cpuFactor / float64(n), "ms"}
	m["peak_rss_mb"] = metric{leg.hwmMB, "MB"}
	m["verdict_agreement"] = metric{agree, "ratio"}
	fmt.Fprintf(os.Stderr, "perfbench: %d verdicts on cpu %d; unscaled: set-ups %.3f s, %.3f windows/s, verdict p50 %.1f ms, p90 %.1f ms, cpu %.1f ms/window; probe median %.2f ms wall, %.2f ms cpu (nominal %.1f)\n",
		n, cpu, median(leg.setupS), float64(n)/leg.elapsed.Seconds(), median(leg.verdictMS), quantile(leg.verdictMS, 0.9),
		leg.cpuMS/float64(n), median(pluck(leg.probes, wallOf)), median(pluck(leg.probes, cpuOf)), refNominalMS)
	return nil
}
