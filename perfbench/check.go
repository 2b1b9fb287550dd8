package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dominantlink/internal/core"
	"dominantlink/internal/store"
	"dominantlink/internal/trace"
)

// checker collects failed correctness checks and failed operations.
type checker struct {
	problems []string
	failed   int
}

func (c *checker) failf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// verdict is the part of a window's outcome the agreement compares.
type verdict struct{ sdcl, wdcl, noLoss bool }

// truthVerdict applies the paper's tests to the simulator's ground-truth
// virtual-delay distribution of rows [from, to) of a path, as the
// integration test TestIntegrationGroundTruthTestAgrees does.
func truthVerdict(p *pathInput, from, to int) (verdict, error) {
	obs := p.obs[from:to]
	tr := &trace.Trace{Observations: obs, Truth: make([]trace.GroundTruth, len(obs))}
	for i, o := range obs {
		tr.Truth[i] = trace.GroundTruth{Seq: o.Seq, Lost: o.Lost, VirtualQueuing: p.vq[from+i]}
	}
	cfg := identifyConfig()
	disc, err := core.NewDiscretization(obs, cfg.Symbols, 0)
	if err != nil {
		return verdict{}, err
	}
	pmf := core.TruthVirtualPMF(tr, disc, p.prop)
	if pmf == nil {
		return verdict{noLoss: true}, nil
	}
	id := core.IdentifyFromPMF(tr, cfg, disc, pmf)
	return verdict{sdcl: id.SDCL.Accept, wdcl: id.WDCL.Accept}, nil
}

// agreement is the share of decided windows whose verdict equals the
// ground-truth verdict. decided[i] and got[i] describe timed verdict i.
func agreement(w *workload, decided []bool, got []verdict) (float64, error) {
	agree, n := 0, 0
	for i, s := range w.schedule[1:] {
		if !decided[i] {
			continue
		}
		from, to, _ := w.windowRows(s.win)
		want, err := truthVerdict(w.paths[s.path], from, to)
		if err != nil {
			return 0, err
		}
		n++
		if want == got[i] {
			agree++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no decided windows")
	}
	return float64(agree) / float64(n), nil
}

// work is the exact amount of work a run did; two runs of one seed on one
// source tree must agree on every field.
type work struct {
	Inputs       string `json:"inputs_sha256"`
	Windows      int    `json:"windows"`
	Admitted     int    `json:"admitted"`
	EMIterations int    `json:"em_iterations"`
	ReplayIters  int    `json:"replay_restart_iterations,omitempty"`
}

// checkDaemonLeg verifies a daemon leg: window numbering and counts, the
// failure outcomes, the WAL against the served results, and the
// observation accounting. It returns the per-timed-verdict outcomes.
func checkDaemonLeg(ck *checker, w *workload, res *legResult, wk *work) (decided []bool, got []verdict) {
	perPath := make([]int, len(w.paths))
	for _, s := range w.schedule {
		perPath[s.path]++
	}
	byIndex := make([]map[int]store.Window, len(w.paths))
	var totalRows, admitted uint64
	for pi, p := range w.paths {
		want := perPath[pi]
		ws := res.windows[pi]
		byIndex[pi] = map[int]store.Window{}
		if len(ws) != want {
			ck.failf("%s: %d windows, want %d", p.id, len(ws), want)
			ck.failed += abs(len(ws) - want)
		}
		for j, win := range ws {
			if win.Window != priorWindows+j {
				ck.failf("%s: window %d at position %d: indexes not contiguous from %d", p.id, win.Window, j, priorWindows)
			}
			if _, dup := byIndex[pi][win.Window]; dup {
				ck.failed++
			}
			byIndex[pi][win.Window] = win
			if win.Shed || (win.Error != "" && !win.NoLosses) {
				ck.failf("%s: window %d failed: shed=%v error=%q", p.id, win.Window, win.Shed, win.Error)
				ck.failed++
			}
			if win.Admitted {
				admitted++
			} else if !w.gate {
				ck.failf("%s: window %d not admitted with the gate off", p.id, win.Window)
			}
			wk.Windows++
			wk.EMIterations += win.EMIterations
		}
		// The WAL holds the prior history plus exactly the served windows.
		wal := res.wal[pi]
		if len(wal) != priorWindows+len(ws) {
			ck.failf("%s: WAL holds %d windows, want %d prior + %d new", p.id, len(wal), priorWindows, len(ws))
		}
		for j, rec := range wal {
			if rec.Window != j {
				ck.failf("%s: WAL record %d has index %d", p.id, j, rec.Window)
				break
			}
			if j < priorWindows {
				if !sameJSON(rec, priorWindow(j, w.size)) {
					ck.failf("%s: prior WAL window %d changed", p.id, j)
					break
				}
			} else if j-priorWindows < len(ws) && !sameJSON(rec, ws[j-priorWindows]) {
				ck.failf("%s: WAL window %d differs from the served result", p.id, j)
				break
			}
		}
		// Accounting: every posted row ingested, every window full.
		rows := uint64(0)
		if want > 0 {
			rows = uint64((want-1)*w.stride + w.size)
		}
		totalRows += rows
		var st *statusJSON
		for i := range res.statuses {
			if res.statuses[i].Path == p.id {
				st = &res.statuses[i]
			}
		}
		switch {
		case st == nil:
			ck.failf("%s: missing from /v1/paths", p.id)
		case st.Ingested != rows || st.Dropped != 0:
			ck.failf("%s: ingested %d dropped %d, posted %d", p.id, st.Ingested, st.Dropped, rows)
		case st.Windowed != uint64(len(ws)*w.size):
			ck.failf("%s: %d observations windowed, want %d windows x %d", p.id, st.Windowed, len(ws), w.size)
		case w.stride == w.size && st.Windowed+st.Evicted+st.Lost != st.Ingested:
			ck.failf("%s: windowed %d + evicted %d + lost %d != ingested %d", p.id, st.Windowed, st.Evicted, st.Lost, st.Ingested)
		case st.Evicted != 0 || st.Lost != 0:
			ck.failf("%s: evicted %d lost %d", p.id, st.Evicted, st.Lost)
		}
	}
	wk.Admitted = int(admitted)
	for key, want := range map[string]uint64{
		"observations_ingested": totalRows, "observations_dropped": 0, "observations_evicted": 0,
		"observations_lost": 0, "windows_admitted": admitted, "windows_shed": 0, "windows_deadline_expired": 0,
	} {
		if got, ok := res.metrics[key].(float64); !ok || uint64(got) != want {
			ck.failf("/metrics %s = %v, want %d", key, res.metrics[key], want)
		}
	}
	for _, s := range w.schedule[1:] {
		win, ok := byIndex[s.path][priorWindows+s.win]
		decided = append(decided, ok && win.Decided)
		got = append(got, verdict{sdcl: win.SDCL, wdcl: win.WDCL, noLoss: win.NoLosses})
	}
	return decided, got
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(x) == string(y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// sourceHash fingerprints the source tree of the checkout (every .go file
// and go.mod outside the build directory), standing in for a commit id.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		name := info.Name()
		if info.IsDir() && (name == ".bench_build" || name == ".git") {
			return filepath.SkipDir
		}
		if !info.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f) // f is under root by construction
		io.WriteString(h, rel+"\x00")
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkFingerprint records the work of this run, or compares it with the
// record of an earlier run of the same seed, length and mode on the same
// source tree.
func checkFingerprint(ck *checker, dir, key string, wk work) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		ck.failf("fingerprint: %v", err)
		return
	}
	path := filepath.Join(dir, key+".json")
	mine, _ := json.Marshal(wk) // plain struct of strings and ints
	prev, err := os.ReadFile(path)
	switch {
	case err == nil && string(prev) != string(mine):
		ck.failf("work fingerprint differs from an earlier run of the same seed: %s vs %s", prev, mine)
	case os.IsNotExist(err):
		if err := os.WriteFile(path, mine, 0o644); err != nil {
			ck.failf("fingerprint: %v", err)
		}
	case err != nil:
		ck.failf("fingerprint: %v", err)
	}
}

// quantile is the linearly interpolated q-quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
