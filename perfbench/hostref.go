package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts for minutes at a time on a shared VM: the same
// work on the same binary has read 30-48% apart in runs a quarter of an
// hour apart (NOTES.md, "Host speed"). So the benchmark measures the host
// with a reference probe between verdicts, on the daemon's core while the
// daemon is idle, and reports its time metrics scaled to a nominal host.
// The probe is a frozen kernel of the benchmark's own, shaped like the
// daemon's hot loop (a scaled HMM forward-backward pass), so no change to
// the program can move it.

const (
	refStates    = 10   // M*N hidden states of the paper's MMHD default
	refSteps     = 2000 // probes in an overlap-dcl window
	refPasses    = 6    // forward-backward passes per probe
	refNominalMS = 4.0  // about a probe's wall time on the reference box when it runs fast
	refSpan      = 5    // a verdict is scaled by the median probe within ±refSpan
)

// refKernel is the frozen reference workload: a fixed random HMM and a
// fixed emission sequence.
type refKernel struct {
	a     [refStates][refStates]float64
	e     [refSteps][refStates]float64
	alpha [refSteps][refStates]float64
	beta  [refStates]float64
	sink  float64
}

func newRefKernel() *refKernel {
	k := &refKernel{}
	x := uint64(0x9e3779b97f4a7c15) // xorshift: fixed, independent of every seed
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11)/(1<<53) + 1e-3
	}
	for i := range k.a {
		var s float64
		for j := range k.a[i] {
			k.a[i][j] = next()
			s += k.a[i][j]
		}
		for j := range k.a[i] {
			k.a[i][j] /= s
		}
	}
	for t := range k.e {
		for j := range k.e[t] {
			k.e[t][j] = next()
		}
	}
	return k
}

// pass runs one scaled forward and one backward pass.
func (k *refKernel) pass() {
	for j := range k.alpha[0] {
		k.alpha[0][j] = k.e[0][j] / refStates
	}
	ll := 0.0
	for t := 1; t < refSteps; t++ {
		var c float64
		for j := 0; j < refStates; j++ {
			var s float64
			for i := 0; i < refStates; i++ {
				s += k.alpha[t-1][i] * k.a[i][j]
			}
			k.alpha[t][j] = s * k.e[t][j]
			c += k.alpha[t][j]
		}
		for j := range k.alpha[t] {
			k.alpha[t][j] /= c
		}
		ll += math.Log(c)
	}
	for j := range k.beta {
		k.beta[j] = 1
	}
	var next [refStates]float64
	for t := refSteps - 2; t >= 0; t-- {
		var c float64
		for i := 0; i < refStates; i++ {
			var s float64
			for j := 0; j < refStates; j++ {
				s += k.a[i][j] * k.e[t+1][j] * k.beta[j]
			}
			next[i] = s
			c += s
		}
		for i := range next {
			k.beta[i] = next[i] / c
		}
	}
	k.sink += ll + k.beta[0]
}

// refProbe is one reference measurement: the probe's wall and CPU time.
type refProbe struct{ wallMS, cpuMS float64 }

// prober runs the reference kernel pinned to the daemon's core.
type prober struct {
	k   *refKernel
	cpu int // -1: not pinned
}

// probe runs the kernel once on the daemon's core and times it.
func (p *prober) probe() refProbe {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if p.cpu >= 0 {
		old, err := getAffinity()
		if err == nil && setAffinity(cpuMask(p.cpu)) == nil {
			defer setAffinity(old)
		}
	}
	c0 := threadCPUMS()
	t0 := time.Now()
	for i := 0; i < refPasses; i++ {
		p.k.pass()
	}
	return refProbe{wallMS: ms(time.Since(t0)), cpuMS: threadCPUMS() - c0}
}

// scaleTo returns, for each of n verdicts bracketed by probes i and i+1,
// the factor that scales its time to the nominal host: refNominalMS over
// the median probe time (by pick) within ±refSpan of it.
func scaleTo(probes []refProbe, n int, pick func(refProbe) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		lo, hi := max(0, i-refSpan), min(len(probes), i+2+refSpan)
		out[i] = refNominalMS / median(pluck(probes[lo:hi], pick))
	}
	return out
}

func wallOf(p refProbe) float64 { return p.wallMS }
func cpuOf(p refProbe) float64  { return p.cpuMS }

func pluck(ps []refProbe, f func(refProbe) float64) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return xs
}

// Thread affinity, through the raw system calls (the standard library has
// no wrapper). A mask covers the first 1024 CPUs.
type affinity [16]uint64

func cpuMask(cpu int) affinity {
	var m affinity
	m[cpu/64] |= 1 << (cpu % 64)
	return m
}

func getAffinity() (affinity, error) {
	var m affinity
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(m affinity) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// daemonCPU picks the core the daemon is pinned to: the last one this
// process may use, or -1 when it may use only one.
func daemonCPU() int {
	m, err := getAffinity()
	if err != nil {
		return -1
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) < 2 {
		return -1
	}
	return cpus[len(cpus)-1]
}

// startPinned runs start (which forks the daemon) on a thread pinned to
// cpu, so the daemon and every thread it starts inherit that core.
func startPinned(cpu int, start func() error) error {
	if cpu < 0 {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity()
	if err != nil {
		return err
	}
	if err := setAffinity(cpuMask(cpu)); err != nil {
		return fmt.Errorf("pinning the daemon to cpu %d: %v", cpu, err)
	}
	defer setAffinity(old)
	return start()
}

// threadCPUMS is the calling thread's CPU time in ms
// (CLOCK_THREAD_CPUTIME_ID, which unlike the thread's rusage is exact
// over intervals of a few ms).
func threadCPUMS() float64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return math.NaN()
	}
	return float64(ts.Sec)*1e3 + float64(ts.Nsec)/1e6
}
