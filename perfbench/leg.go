package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"dominantlink/internal/store"
)

// legResult is what one daemon leg measured and collected.
type legResult struct {
	setupS    []float64 // one per set-up
	verdictMS []float64 // per timed verdict: completing POST sent -> SSE event
	cycleMS   []float64 // per timed verdict: its whole closed-loop cycle, reads included
	lastPost  []float64 // per timed verdict: round trip of the completing POST
	firstPost []float64 // per timed verdict: round trip of its first POST
	ingestMS  map[string][]float64
	readMS    []float64
	probes    []refProbe    // host probes: before the first timed verdict and after each one
	setupRef  []refProbe    // host probes: before and after each set-up
	elapsed   time.Duration // timed phase, probes excluded
	cpuMS     float64       // daemon CPU over the timed phase
	hwmMB     float64
	windows   [][]store.Window // per path: the windows this run produced, by index
	statuses  []statusJSON
	metrics   map[string]any
	wal       [][]store.Window // per path: every window record in the WAL after shutdown
	logPath   string
}

// scaledVerdicts returns the verdict latencies scaled to the nominal host
// by the probes around each.
func (r *legResult) scaledVerdicts() []float64 {
	f := scaleTo(r.probes, len(r.verdictMS), wallOf)
	out := make([]float64, len(f))
	for i := range out {
		out[i] = r.verdictMS[i] * f[i]
	}
	return out
}

// statusJSON is the part of a session's registry entry the checks read.
type statusJSON struct {
	Path     string `json:"path"`
	Ingested uint64 `json:"observations_ingested"`
	Dropped  uint64 `json:"observations_dropped"`
	Evicted  uint64 `json:"observations_evicted"`
	Lost     uint64 `json:"observations_lost"`
	Windowed uint64 `json:"observations_windowed"`
}

// legConfig shapes one daemon leg.
type legConfig struct {
	bin      string
	dir      string // scratch directory of the leg
	start    string // the start store every set-up copies
	traced   bool
	setups   int
	mixedFmt bool    // alternate CSV and JSON chunks on every path
	cpu      int     // the daemon's core, or -1 to leave it unpinned
	probe    *prober // probes the host's speed between set-ups and verdicts
}

// encodeSlots pre-encodes the POST bodies of every scheduled window, so the
// timed phase measures the daemon, not the generator's encoder. Chunk
// sizes are drawn from the workload's seed.
func encodeSlots(w *workload, mixed bool) [][]chunk {
	rng := rand.New(rand.NewSource(w.chunkSeed))
	out := make([][]chunk, len(w.schedule))
	n := 0
	for i, s := range w.schedule {
		p := w.paths[s.path]
		_, to, fresh := w.windowRows(s.win)
		for from, end := fresh, 0; from < to; from = end {
			end = min(from+chunkMin+rng.Intn(chunkMax-chunkMin+1), to)
			format := p.format
			if mixed && n%2 == 1 {
				format = "json"
			} else if mixed {
				format = "csv"
			}
			n++
			body, ctype := encodeChunk(format, p.obs[from:end])
			out[i] = append(out[i], chunk{body: body, ctype: ctype, format: format, rows: end - from})
		}
	}
	return out
}

// runLeg restarts the daemon cfg.setups times on a copy of the start
// store, timing each set-up, and drives the timed phase on the last one:
// a closed loop that posts each window's chunks, waits for its verdict on
// SSE and, on workloads that read, reads the path's full history back
// after every fourth verdict. It then collects results, counters and the
// WAL for the checks.
func runLeg(ctx context.Context, w *workload, cfg legConfig) (*legResult, error) {
	chunks := encodeSlots(w, cfg.mixedFmt)
	res := &legResult{ingestMS: map[string][]float64{}, logPath: filepath.Join(cfg.dir, "dclserved.log")}
	single := len(w.paths) == 1
	var (
		d   *daemon
		c   *client
		sub *subscription
	)
	defer func() {
		if sub != nil {
			sub.close()
		}
		if c != nil {
			c.close()
		}
		if d != nil {
			d.kill()
		}
	}()
	warm := w.schedule[0]
	warmPath := w.paths[warm.path]
	for r := 0; r < cfg.setups; r++ {
		storeDir := filepath.Join(cfg.dir, fmt.Sprintf("store-%d", r))
		if err := copyTree(cfg.start, storeDir); err != nil {
			return nil, err
		}
		res.setupRef = append(res.setupRef, cfg.probe.probe())
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg.bin, storeDir, res.logPath, cfg.traced, cfg.cpu); err != nil {
			return nil, err
		}
		c = newClient(d.base)
		if err := c.waitReady(ctx, d); err != nil {
			return nil, err
		}
		for _, p := range w.paths {
			if err := c.put(ctx, w, p.id); err != nil {
				return nil, err
			}
		}
		if sub, err = c.subscribe(ctx, warmPath.id, priorWindows-1); err != nil {
			return nil, err
		}
		for _, ch := range chunks[0] {
			if _, err := c.post(ctx, warmPath.id, ch); err != nil {
				return nil, err
			}
		}
		if _, err := sub.await(priorWindows+warm.win, time.Minute); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		res.setupRef = append(res.setupRef, cfg.probe.probe())
		if r == cfg.setups-1 {
			break
		}
		sub.close()
		c.close()
		d.kill()
		sub, c, d = nil, nil, nil
		if err := os.RemoveAll(storeDir); err != nil {
			return nil, err
		}
	}
	if !single {
		sub.close()
		sub = nil
	}

	// The generator's own garbage collector stays out of the timed phase;
	// it allocates a few MB per run.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	probe := func() { res.probes = append(res.probes, cfg.probe.probe()) }
	probe()
	cpu0, _, err := procStat(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	for i, s := range w.schedule[1:] {
		p := w.paths[s.path]
		index := priorWindows + s.win
		c0 := time.Now()
		if !single {
			if sub, err = c.subscribe(ctx, p.id, index-1); err != nil {
				return nil, err
			}
		}
		cs := chunks[i+1]
		for j, ch := range cs[:len(cs)-1] {
			rtt, err := c.post(ctx, p.id, ch)
			if err != nil {
				return nil, err
			}
			res.ingestMS[ch.format] = append(res.ingestMS[ch.format], ms(rtt))
			if j == 0 {
				res.firstPost = append(res.firstPost, ms(rtt))
			}
		}
		last := cs[len(cs)-1]
		t0 := time.Now()
		rtt, err := c.post(ctx, p.id, last)
		if err != nil {
			return nil, err
		}
		ev, err := sub.await(index, time.Minute)
		if err != nil {
			return nil, err
		}
		res.verdictMS = append(res.verdictMS, ms(ev.at.Sub(t0)))
		res.lastPost = append(res.lastPost, ms(rtt))
		res.ingestMS[last.format] = append(res.ingestMS[last.format], ms(rtt))
		if len(cs) == 1 {
			res.firstPost = append(res.firstPost, ms(rtt))
		}
		if !single {
			sub.close()
			sub = nil
		}
		if w.reads && (i+1)%4 == 0 {
			rtt, err := c.read(ctx, p.id)
			if err != nil {
				return nil, err
			}
			res.readMS = append(res.readMS, ms(rtt))
		}
		cycle := time.Since(c0)
		res.cycleMS = append(res.cycleMS, ms(cycle))
		res.elapsed += cycle
		probe()
	}
	cpu1, hwm, err := procStat(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res.cpuMS, res.hwmMB = cpu1-cpu0, hwm

	// Collect what the checks need, then drain the daemon cleanly.
	for _, p := range w.paths {
		ws, err := c.results(ctx, p.id, priorWindows)
		if err != nil {
			return nil, err
		}
		res.windows = append(res.windows, ws)
	}
	var list struct {
		Paths []statusJSON `json:"paths"`
	}
	if err := c.getJSON(ctx, "/v1/paths", &list); err != nil {
		return nil, err
	}
	res.statuses = list.Paths
	if err := c.getJSON(ctx, "/metrics", &res.metrics); err != nil {
		return nil, err
	}
	if sub != nil {
		sub.close()
		sub = nil
	}
	c.close()
	c = nil
	err = d.stop()
	d = nil
	if err != nil {
		return nil, fmt.Errorf("dclserved shutdown: %v (log %s)", err, res.logPath)
	}
	storeDir := filepath.Join(cfg.dir, fmt.Sprintf("store-%d", cfg.setups-1))
	if res.wal, err = readWAL(storeDir, w); err != nil {
		return nil, err
	}
	return res, nil
}

// readWAL reads every window record of every path from a stopped
// daemon's store.
func readWAL(dir string, w *workload) ([][]store.Window, error) {
	st, err := store.Open(store.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out [][]store.Window
	for _, p := range w.paths {
		l, err := st.Log(p.id)
		if err != nil {
			return nil, err
		}
		var ws []store.Window
		err = l.Scan(0, func(rec store.Record) error {
			if rec.Kind == store.KindWindow {
				ws = append(ws, rec.Window)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ws)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
