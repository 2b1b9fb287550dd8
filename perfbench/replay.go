package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dominantlink/internal/core"
	"dominantlink/internal/mmhd"
	"dominantlink/internal/stats"
	"dominantlink/internal/store"
	"dominantlink/internal/trace"
)

// windowSpans is the span part of one window_done log line.
type windowSpans struct {
	Event       string  `json:"event"`
	Path        string  `json:"path"`
	Window      int     `json:"window"`
	Outcome     string  `json:"outcome"`
	EnqueueWait float64 `json:"enqueue_wait_ms"`
	Fit         float64 `json:"fit_ms"`
	Append      float64 `json:"append_ms"`
	Total       float64 `json:"total_ms"`
}

// readSpans parses the window_done lines of a traced daemon's log.
func readSpans(path string) (map[string]map[int]windowSpans, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[int]windowSpans{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue // the daemon's plain start-up lines
		}
		var s windowSpans
		if json.Unmarshal(line, &s) != nil || s.Event != "window_done" {
			continue
		}
		if out[s.Path] == nil {
			out[s.Path] = map[int]windowSpans{}
		}
		out[s.Path][s.Window] = s
	}
	return out, sc.Err()
}

// identifyConfig is the daemon's identification setting (dclserved's
// defaults: MMHD with per-state loss, M=5, N=2, threshold 1e-3, at most
// 500 iterations, 5 restarts, x=0.06, strict y=0), run serially.
func identifyConfig() core.IdentifyConfig {
	return core.IdentifyConfig{
		Symbols: 5, HiddenStates: 2, Threshold: 1e-3, MaxIter: 500, Restarts: 5,
		Seed: emSeed, Parallelism: 1,
	}.WithX(0.06).WithY(0)
}

// tracedRun measures the per-layer metrics on the first verdicts of the
// workload: three daemon legs over the same windows (untraced, traced,
// untraced, with host probes between verdicts, so that the host's drift
// cancels in the tracing overhead), the traced leg's window_done spans,
// and an in-process replay of the same windows through each layer's
// public functions.
func tracedRun(ctx context.Context, w *workload, bin, dir, start string, ck *checker, wk *work, m map[string]metric) error {
	dw := *w.truncate(tracedWindows(w.timed()))
	// Every workload reads its history back here, so monitor.read_p50_ms
	// exists on each; the reads fall outside the verdict latencies the
	// legs compare.
	dw.reads = true
	single := len(dw.paths) == 1
	cpu := daemonCPU()
	pr := &prober{k: newRefKernel(), cpu: cpu}
	var legs []*legResult
	for i, traced := range []bool{false, true, false} {
		sub := filepath.Join(dir, fmt.Sprintf("leg-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		leg, err := runLeg(ctx, &dw, legConfig{bin: bin, dir: sub, start: start, traced: traced, setups: 1, mixedFmt: single, cpu: cpu, probe: pr})
		if err != nil {
			return err
		}
		legs = append(legs, leg)
	}
	before, leg, after := legs[0], legs[1], legs[2]
	checkDaemonLeg(ck, &dw, before, &work{}) // the work is counted once, below
	checkDaemonLeg(ck, &dw, after, &work{})
	checkDaemonLeg(ck, &dw, leg, wk)

	spans, err := readSpans(leg.logPath)
	if err != nil {
		return err
	}
	var wait, fit, unaccounted, coverage []float64
	for i, s := range dw.schedule[1:] {
		p := dw.paths[s.path]
		sp, ok := spans[p.id][priorWindows+s.win]
		if !ok {
			ck.failf("traced: no window_done line for %s window %d", p.id, priorWindows+s.win)
			continue
		}
		wait = append(wait, sp.EnqueueWait)
		if sp.Fit > 0 {
			fit = append(fit, sp.Fit)
		}
		staged := leg.lastPost[i] + sp.Total
		unaccounted = append(unaccounted, leg.verdictMS[i]-staged)
		coverage = append(coverage, 100*staged/leg.verdictMS[i])
	}
	cov := median(coverage)
	if single && (cov < 95 || cov > 101) {
		ck.failf("traced: stage spans cover %.1f%% of the verdict latency, want 95-101%%", cov)
	}
	// The legs verdict the same windows, so the overhead is the median of
	// per-window ratios of latencies scaled to the nominal host; that
	// cancels the windows' unequal costs and the host's drift.
	var ratio []float64
	b, t, a := before.scaledVerdicts(), leg.scaledVerdicts(), after.scaledVerdicts()
	for i := range t {
		ratio = append(ratio, 2*t[i]/(b[i]+a[i]))
	}
	var posts []float64
	for _, xs := range leg.ingestMS {
		posts = append(posts, xs...)
	}
	m["monitor.ingest_p50_ms"] = metric{quantile(posts, 0.5), "ms"}
	m["monitor.ingest_p90_ms"] = metric{quantile(posts, 0.9), "ms"}
	m["monitor.post_first_ms"] = metric{median(leg.firstPost), "ms"}
	m["monitor.read_p50_ms"] = metric{median(leg.readMS), "ms"}
	m["monitor.post_csv_ms"] = metric{median(leg.ingestMS["csv"]), "ms"}
	m["monitor.post_json_ms"] = metric{median(leg.ingestMS["json"]), "ms"}
	m["monitor.enqueue_wait_ms"] = metric{median(wait), "ms"}
	m["monitor.unaccounted_ms"] = metric{median(unaccounted), "ms"}
	m["monitor.span_coverage_pct"] = metric{cov, "%"}
	m["mmhd.fit_ms"] = metric{median(fit), "ms"}
	m["obs.overhead_pct"] = metric{100 * (median(ratio) - 1), "%"}

	if err := replayLayers(&dw, leg, ck, wk, m); err != nil {
		return err
	}
	return replayStore(&dw, leg, start, dir, m)
}

// replayLayers feeds the traced windows through the public functions of
// each layer in process, one core, timing every call: decode, gate,
// discretize+encode, every EM restart, and the tests. Every layer runs on
// every window, whether or not the daemon's gate admitted it.
func replayLayers(w *workload, leg *legResult, ck *checker, wk *work, m map[string]metric) error {
	cfg := identifyConfig()
	sc := mmhd.NewScratch()
	var (
		decodeMS, rows                     float64
		gate, disc, restart, tests         []float64
		windows, rejected, discarded       int
		iters, forward, maxIter, winnerSum int
		allocs                             uint64
		ms0, ms1                           runtime.MemStats
	)
	for _, s := range w.schedule[1:] {
		p := w.paths[s.path]
		from, to, _ := w.windowRows(s.win)
		body, _ := encodeChunk("csv", p.obs[from:to])
		runtime.ReadMemStats(&ms0)

		t0 := time.Now()
		decoded, err := decode(body)
		if err != nil {
			return err
		}
		decodeMS += ms(time.Since(t0))
		rows += float64(decoded)
		tr := &trace.Trace{Observations: p.obs[from:to]}

		t0 = time.Now()
		rep := core.StationarityCheck(tr, core.StationarityConfig{})
		gate = append(gate, ms(time.Since(t0)))
		if !rep.Stationary {
			rejected++
		}

		t0 = time.Now()
		d, err := core.NewDiscretization(tr.Observations, cfg.Symbols, cfg.KnownPropagation)
		if err != nil {
			return err
		}
		enc := d.Encode(tr.Observations)
		disc = append(disc, ms(time.Since(t0)))

		var best *mmhd.Result
		for r := 0; r < cfg.Restarts; r++ {
			t0 = time.Now()
			_, fr, err := mmhd.FitWithScratch(enc, mmhd.Config{
				HiddenStates: cfg.HiddenStates, Symbols: cfg.Symbols, Threshold: cfg.Threshold, MaxIter: cfg.MaxIter,
				Seed: stats.RestartSeed(cfg.Seed, r), PerStateLoss: !cfg.PerSymbolLoss,
			}, sc)
			restart = append(restart, ms(time.Since(t0)))
			if err != nil {
				return err
			}
			iters += fr.Iterations
			forward += fr.Iterations * len(enc)
			if fr.Iterations >= cfg.MaxIter {
				maxIter++
			}
			if best == nil || fr.LogLik > best.LogLik {
				best = fr
			}
		}
		windows++
		winnerSum += best.Iterations
		if best.VirtualPMF == nil {
			discarded++
		} else {
			t0 = time.Now()
			core.IdentifyFromPMF(tr, cfg, d, best.VirtualPMF)
			tests = append(tests, ms(time.Since(t0)))
		}
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs

		// The replay must reproduce the daemon's fit of the same window.
		var served store.Window
		if ws := leg.windows[s.path]; s.win < len(ws) {
			served = ws[s.win]
		}
		switch {
		case !served.Admitted:
		case served.NoLosses != (best.VirtualPMF == nil):
			ck.failf("replay: %s window %d no-loss %v, daemon %v", p.id, served.Window, best.VirtualPMF == nil, served.NoLosses)
		case !served.NoLosses && served.EMIterations != best.Iterations:
			ck.failf("replay: %s window %d winner iterations %d, daemon %d", p.id, served.Window, best.Iterations, served.EMIterations)
		}
		if w.gate && served.Admitted != rep.Stationary {
			ck.failf("replay: %s window %d gate %v, daemon admitted %v", p.id, served.Window, rep.Stationary, served.Admitted)
		}
	}
	wk.ReplayIters = iters
	nw := float64(windows)
	m["trace.csv_decode_us_per_krow"] = metric{1e3 * decodeMS / (rows / 1e3), "us"}
	m["core.gate_ms"] = metric{median(gate), "ms"}
	m["core.gate_reject_share"] = metric{float64(rejected) / nw, "ratio"}
	m["core.discretize_ms"] = metric{median(disc), "ms"}
	m["core.tests_ms"] = metric{median(tests), "ms"}
	m["mmhd.restart_ms"] = metric{median(restart), "ms"}
	m["mmhd.winner_iters"] = metric{float64(winnerSum) / nw, "count"}
	m["mmhd.iters_per_window"] = metric{float64(iters) / nw, "count"}
	m["mmhd.forward_steps_per_window"] = metric{float64(forward) / nw, "count"}
	m["mmhd.maxiter_share"] = metric{float64(maxIter) / (float64(cfg.Restarts) * nw), "ratio"}
	m["mmhd.discarded_share"] = metric{float64(discarded) / nw, "ratio"}
	m["go.allocs_per_window"] = metric{float64(allocs) / nw, "count"}
	return nil
}

// decode parses one window's CSV the way the daemon's POST path does:
// StreamCSV into a columnar batch.
func decode(body []byte) (int, error) {
	src := trace.StreamCSV(bytes.NewReader(body))
	b := trace.NewBatch(0)
	for {
		_, err := src.NextBatch(b, 0)
		if err == io.EOF {
			return b.Len(), nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// replayStore times the store layer through its public functions:
// recovery of the start store with and without manifests, appends of the
// traced leg's window records, and a scan of a full history.
func replayStore(w *workload, leg *legResult, start, dir string, m map[string]metric) error {
	const reps = 5
	recoverMS := func(dropManifests bool) (float64, error) {
		var xs []float64
		for r := 0; r < reps; r++ {
			cp := filepath.Join(dir, "recover")
			if err := copyTree(start, cp); err != nil {
				return 0, err
			}
			if dropManifests {
				if err := removeManifests(cp); err != nil {
					return 0, err
				}
			}
			t0 := time.Now()
			st, err := store.Open(store.Options{Dir: cp, Fsync: store.FsyncNone})
			if err != nil {
				return 0, err
			}
			for _, p := range w.paths {
				if _, err := st.Log(p.id); err != nil {
					st.Close()
					return 0, err
				}
			}
			xs = append(xs, ms(time.Since(t0)))
			if err := st.Close(); err != nil {
				return 0, err
			}
			if err := os.RemoveAll(cp); err != nil {
				return 0, err
			}
		}
		return median(xs), nil
	}
	rec, err := recoverMS(false)
	if err != nil {
		return err
	}
	recNoMan, err := recoverMS(true)
	if err != nil {
		return err
	}

	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "append"), Fsync: store.FsyncNone})
	if err != nil {
		return err
	}
	var appendMS []float64
	records := 0
	for pi, p := range w.paths {
		l, err := st.Log(p.id)
		if err != nil {
			st.Close()
			return err
		}
		for _, win := range leg.windows[pi] {
			rec := store.Record{Kind: store.KindWindow, AppendedAt: 1_800_000_000_000_000_000, Window: win}
			t0 := time.Now()
			if err := l.Append(&rec); err != nil {
				st.Close()
				return err
			}
			appendMS = append(appendMS, ms(time.Since(t0)))
			records++
		}
	}
	written := st.Metrics().BytesWritten.Load()
	if err := st.Close(); err != nil {
		return err
	}

	ro, err := store.Open(store.Options{Dir: start, ReadOnly: true})
	if err != nil {
		return err
	}
	defer ro.Close()
	l, err := ro.Log(w.paths[0].id)
	if err != nil {
		return err
	}
	var scans []float64
	for r := 0; r < reps; r++ {
		n := 0
		t0 := time.Now()
		if err := l.Scan(0, func(store.Record) error { n++; return nil }); err != nil {
			return err
		}
		scans = append(scans, ms(time.Since(t0)))
	}
	m["store.recover_ms"] = metric{rec, "ms"}
	m["store.recover_nomanifest_ms"] = metric{recNoMan, "ms"}
	m["store.append_ms"] = metric{median(appendMS), "ms"}
	m["store.scan_ms"] = metric{median(scans), "ms"}
	m["store.bytes_per_window"] = metric{math.Round(float64(written) / float64(records)), "bytes"}
	return nil
}

// removeManifests deletes every manifest sidecar under dir.
func removeManifests(dir string) error {
	return filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && info.Name() == "manifest.json" {
			return os.Remove(path)
		}
		return nil
	})
}
