package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"dominantlink/internal/scenario"
	"dominantlink/internal/store"
	"dominantlink/internal/trace"
	"dominantlink/internal/traffic"
)

// Workload names.
const (
	wlOverlap = "overlap-dcl"
	wlFleet   = "fleet-healthy"
)

// Fixed workload shape (see NOTES.md for why each value was chosen).
const (
	probeInterval = 0.02 // the paper's 20 ms probing period
	chunkMin      = 125  // a POST carries 2.5-5 s of probes, as agents send them
	chunkMax      = 250
	segmentRows   = 5000 // 100 s of probes per simulated overlap-dcl segment
	fleetPaths    = 16
	priorWindows  = 600 // per path; more than the daemon's 512-entry result ring
	warmSeed      = 1   // the warm-up window is the same on every seed
	emSeed        = 1   // the daemon's default -seed
)

// fleetLossy marks the two simulated, non-stationary fleet paths; the
// other fourteen are loss-free jitter.
var fleetLossy = map[int]string{5: "sdcl", 10: "wdcl"}

// pinnedInputs is the SHA-256 of the generated inputs of seed 1 at the
// declared run length (pinnedVerdicts timed verdicts). A change to the
// simulator or the generators changes the workload itself, so the run
// fails instead of silently measuring something else.
var pinnedInputs = map[string]string{
	wlOverlap: "d39e9b67608515dae09818e51ba61cdc95c02ab352630eb0a2d1acb5c4313aff",
	wlFleet:   "25043adb629c90a1223621d85f0c176449158ed3e821e965ca35f765f6dcc056",
}

const pinnedVerdicts = 113

// pathInput is one monitored path's probe stream plus the ground truth
// the verdict check needs. The truth never leaves the benchmark.
type pathInput struct {
	id     string
	format string // "csv" or "json" body of its POSTs
	obs    []trace.Observation
	// vq is the simulator's virtual queuing delay of each probe, shifted
	// so that prop+vq is its one-way delay.
	vq   []float64
	prop float64
}

// slot is one scheduled verdict: window win of path.
type slot struct{ path, win int }

// workload is everything one run drives: the paths, the window shape, and
// the closed-loop schedule. schedule[0] is the warm-up verdict of set-up.
type workload struct {
	size      int
	stride    int
	gate      bool
	reads     bool  // read a path's history back after every 4th verdict
	chunkSeed int64 // draws the POST chunk sizes
	paths     []*pathInput
	schedule  []slot
}

// timed is the number of verdicts of the timed phase.
func (w *workload) timed() int { return len(w.schedule) - 1 }

// windowRows returns the row range [from, to) of window win of a path, and
// the first row that window adds to the stream.
func (w *workload) windowRows(win int) (from, to, fresh int) {
	from = win * w.stride
	to = from + w.size
	fresh = 0
	if win > 0 {
		fresh = to - w.stride
	}
	return from, to, fresh
}

// truncate returns the workload cut to its first k timed verdicts.
func (w *workload) truncate(k int) *workload {
	if k >= w.timed() {
		return w
	}
	c := *w
	c.schedule = w.schedule[:k+1]
	return &c
}

// buildWorkload generates the inputs of a workload from its seed. n is the
// number of timed verdicts.
func buildWorkload(name string, seed int64, n int) (*workload, error) {
	var w *workload
	switch name {
	case wlOverlap:
		w = overlapWorkload(seed, n)
	case wlFleet:
		w = fleetWorkload(seed, n)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s or %s)", name, wlOverlap, wlFleet)
	}
	w.chunkSeed = mixSeed(seed, 300)
	return w, nil
}

// overlapWorkload is one path whose stream is a fixed warm-up window
// followed by simulated segments of segmentRows probes that cycle through
// SDCL, WDCL and no-DCL (the paper's Table II, III and IV detailed
// settings), cut into 2000-probe windows with stride 500. Many short
// segments, each simulated with its own seed, keep one seed's mix of
// windows close to another's.
func overlapWorkload(seed int64, n int) *workload {
	w := &workload{size: 2000, stride: 500}
	total := w.size + n*w.stride
	p := &pathInput{id: "ovl", format: "csv"}
	appendSim(p, scenario.StronglyDominant(1e6, warmSeed), w.size)
	for k := int64(1); len(p.obs) < total; k++ {
		var sp scenario.Spec
		switch k % 3 {
		case 1:
			sp = scenario.StronglyDominant(1e6, mixSeed(seed, k))
		case 2:
			sp = scenario.WeaklyDominant(0.7e6, 1, mixSeed(seed, k))
		default:
			sp = scenario.NoDominant(scenario.Table4Bandwidths[0][0], scenario.Table4Bandwidths[0][1], mixSeed(seed, k))
		}
		appendSim(p, sp, segmentRows)
	}
	p.cut(total)
	w.paths = []*pathInput{p}
	for i := 0; i <= n; i++ {
		w.schedule = append(w.schedule, slot{0, i})
	}
	return w
}

// fleetWorkload is sixteen paths in 1500-probe tumbling windows with the
// gate on: fourteen loss-free jitter paths and two simulated lossy ones.
// Verdicts go round-robin over the paths.
func fleetWorkload(seed int64, n int) *workload {
	w := &workload{size: 1500, stride: 1500, gate: true, reads: true}
	perPath := (n + fleetPaths) / fleetPaths // windows per path, warm-up included
	rows := perPath * w.size
	for i := 0; i < fleetPaths; i++ {
		p := &pathInput{id: fmt.Sprintf("fleet-%02d", i), format: "csv"}
		if i%2 == 0 {
			p.format = "json"
		}
		switch fleetLossy[i] {
		case "sdcl":
			appendSim(p, scenario.StronglyDominant(1e6, mixSeed(seed, 100+int64(i))), rows)
		case "wdcl":
			appendSim(p, scenario.WeaklyDominant(0.7e6, 1, mixSeed(seed, 100+int64(i))), rows)
		default:
			if i == 0 {
				appendJitter(p, warmSeed, w.size) // the warm-up window
				appendJitter(p, mixSeed(seed, 200), rows-w.size)
			} else {
				appendJitter(p, mixSeed(seed, 200+int64(i)), rows)
			}
		}
		w.paths = append(w.paths, p)
	}
	for win := 0; win < perPath; win++ {
		for i := 0; i < fleetPaths; i++ {
			w.schedule = append(w.schedule, slot{i, win})
		}
	}
	w.schedule = w.schedule[:n+1]
	return w
}

func mixSeed(seed, k int64) int64 { return seed*1000003 + k*7919 }

// appendSim simulates a paper scenario long enough for probes probes and
// appends them to p, continuing its sequence numbers and send times.
func appendSim(p *pathInput, sp scenario.Spec, probes int) {
	start := 50.0
	stop := start + float64(probes)*probeInterval + 0.5*probeInterval
	sp.Duration = stop + 5
	sp.Probe = traffic.ProbeConfig{Interval: probeInterval, Size: 10, Start: start, Stop: stop}
	sp.LossPairs = false
	run := sp.Execute()
	tr := run.Trace
	if len(tr.Observations) < probes || len(tr.Truth) != len(tr.Observations) {
		panic(fmt.Sprintf("simulation gave %d probes (truth %d), want %d", len(tr.Observations), len(tr.Truth), probes))
	}
	if len(p.obs) == 0 {
		p.prop = run.TrueProp
	}
	seq0, t0 := p.next()
	base := tr.Observations[0].SendTime
	for i := 0; i < probes; i++ {
		o := tr.Observations[i]
		o.Seq = seq0 + int64(i)
		o.SendTime = t0 + (o.SendTime - base)
		p.obs = append(p.obs, o)
		// Express the truth against the path's first propagation floor, so
		// windows that straddle two segments keep one reference.
		p.vq = append(p.vq, tr.Truth[i].VirtualQueuing+run.TrueProp-p.prop)
	}
}

// appendJitter appends loss-free probes whose one-way delay is a seeded
// propagation floor plus exponential queuing jitter.
func appendJitter(p *pathInput, seed int64, probes int) {
	rng := rand.New(rand.NewSource(seed))
	floor := 0.010 + 0.030*rng.Float64()
	mean := 0.001 + 0.004*rng.Float64()
	if len(p.obs) == 0 {
		p.prop = floor
	}
	seq0, t0 := p.next()
	for i := 0; i < probes; i++ {
		q := mean * rng.ExpFloat64()
		p.obs = append(p.obs, trace.Observation{
			Seq: seq0 + int64(i), SendTime: t0 + float64(i)*probeInterval, Delay: floor + q,
		})
		p.vq = append(p.vq, floor+q-p.prop)
	}
}

// next returns the sequence number and send time of the probe after the
// last one of p.
func (p *pathInput) next() (int64, float64) {
	if len(p.obs) == 0 {
		return 0, 0
	}
	last := p.obs[len(p.obs)-1]
	return last.Seq + 1, last.SendTime + probeInterval
}

func (p *pathInput) cut(n int) {
	p.obs, p.vq = p.obs[:n], p.vq[:n]
}

// inputHash fingerprints the inputs of a workload: every posted row of
// every path, in order, plus the window shape, the chunking and the
// schedule.
func inputHash(w *workload) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(w.size))
	put(uint64(w.stride))
	put(uint64(w.chunkSeed))
	put(chunkMin<<32 | chunkMax)
	for _, s := range w.schedule {
		put(uint64(s.path)<<32 | uint64(s.win))
	}
	for _, p := range w.paths {
		h.Write([]byte(p.id + "/" + p.format))
		for i, o := range p.obs {
			put(uint64(o.Seq))
			put(math.Float64bits(o.SendTime))
			put(math.Float64bits(o.Delay))
			put(math.Float64bits(p.vq[i]))
			if o.Lost {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeChunk renders rows as a POST body in the path's format. Ground
// truth never leaves the benchmark: only the observable columns are sent.
func encodeChunk(format string, rows []trace.Observation) ([]byte, string) {
	if format == "json" {
		type row struct {
			Seq      int64   `json:"seq"`
			SendTime float64 `json:"send_time"`
			Delay    float64 `json:"delay"`
			Lost     bool    `json:"lost"`
		}
		out := make([]row, len(rows))
		for i, o := range rows {
			out[i] = row{o.Seq, o.SendTime, o.Delay, o.Lost}
		}
		b, _ := json.Marshal(out) // plain structs of numbers always marshal
		return b, "application/json"
	}
	var b bytes.Buffer
	(&trace.Trace{Observations: rows}).WriteCSV(&b) // a bytes.Buffer never fails
	return b.Bytes(), "text/csv"
}

// priorWindow is the synthetic history record of window i of a path:
// a decided loss-free window, as the daemon writes one.
func priorWindow(i, size int) store.Window {
	return store.Window{
		Window: i, Start: i * size, End: (i + 1) * size,
		StartTime: float64(i*size) * probeInterval, EndTime: float64((i+1)*size-1) * probeInterval,
		Stationary: true, Admitted: true, Decided: true, NoLosses: true,
		Error: "core: trace has no losses; dominant congested link is undefined without losses (§III-A)",
	}
}

// writeStartStore creates the store every daemon run restarts on: each
// path already holds priorWindows windows of history.
func writeStartStore(dir string, w *workload) error {
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNone})
	if err != nil {
		return err
	}
	for _, p := range w.paths {
		l, err := st.Log(p.id)
		if err != nil {
			st.Close()
			return err
		}
		for i := 0; i < priorWindows; i++ {
			rec := store.Record{Kind: store.KindWindow, AppendedAt: 1_700_000_000_000_000_000 + int64(i), Window: priorWindow(i, w.size)}
			if err := l.Append(&rec); err != nil {
				st.Close()
				return err
			}
		}
	}
	return st.Close()
}

// copyTree copies the regular files of src into a fresh dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
