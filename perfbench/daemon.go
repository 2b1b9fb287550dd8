package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dominantlink/internal/store"
)

// daemon is one dclserved process under test.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	done    chan error // receives cmd.Wait's result once
}

// startDaemon execs dclserved on a free loopback port over storeDir. The
// daemon gets one core: GOMAXPROCS=1, one identification worker, and,
// unless cpu is -1, that core alone. traced turns on the JSON window_done
// log line of every window; untraced keeps only warnings and no
// slowest-window ring.
func startDaemon(bin, storeDir, logPath string, traced bool, cpu int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close() // only the free port number is wanted
	args := []string{
		"-addr", addr, "-workers", "1", "-queue", "16384",
		"-store-dir", storeDir, "-seed", strconv.Itoa(emSeed),
	}
	if traced {
		args = append(args, "-log-level", "info", "-log-format", "json", "-trace-sample", "1")
	} else {
		args = append(args, "-log-level", "warn", "-trace-ring", "-1")
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := startPinned(cpu, cmd.Start); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that does not exit in time is killed. A non-zero exit is an error.
func (d *daemon) stop() error {
	// A daemon that already exited cannot be signalled; done reports how
	// it ended either way.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("dclserved did not drain within 30s")
	}
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // as in stop, done reports the exit
	<-d.done
}

// procStat reads the daemon's user+system CPU in milliseconds and its
// peak resident set (VmHWM) in MiB.
func procStat(pid int) (cpuMS float64, hwmMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	s := string(stat)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	hwm, err := vmHWM(fmt.Sprintf("/proc/%d/status", pid))
	return float64(ut+st) * 10, hwm, err
}

// vmHWM reads the VmHWM line of a /proc status file, in MiB.
func vmHWM(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// client is the load generator's side of the API. It keeps one
// connection for requests and one for the SSE subscription.
type client struct {
	base string
	hc   *http.Client
	sse  *http.Client
}

func newClient(base string) *client {
	tr := func() *http.Transport {
		return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	}
	return &client{base: base, hc: &http.Client{Transport: tr()}, sse: &http.Client{Transport: tr()}}
}

func (c *client) close() {
	c.hc.CloseIdleConnections()
	c.sse.CloseIdleConnections()
}

// do sends one request and returns the status and body.
func (c *client) do(ctx context.Context, method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) getJSON(ctx context.Context, path string, out any) error {
	code, body, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, body)
	}
	return json.Unmarshal(body, out)
}

// waitReady polls /readyz until it answers 200.
func (c *client) waitReady(ctx context.Context, d *daemon) error {
	for {
		code, _, err := c.do(ctx, http.MethodGet, "/readyz", "", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("dclserved exited before ready: %v (log %s)", err, d.logPath)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// put creates a path's session with the workload's window shape. The
// store log of the path is opened, and recovered, before PUT returns.
func (c *client) put(ctx context.Context, w *workload, id string) error {
	spec := map[string]any{"size": w.size, "stride": w.stride, "gate": w.gate, "flush_partial": false}
	body, _ := json.Marshal(spec) // a map of numbers and bools always marshals
	code, resp, err := c.do(ctx, http.MethodPut, "/v1/paths/"+id, "application/json", body)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("PUT %s: status %d: %s", id, code, resp)
	}
	return nil
}

// chunk is one pre-encoded POST body.
type chunk struct {
	body   []byte
	ctype  string
	format string
	rows   int
}

// post sends one chunk and returns its round trip. The queue holds far
// more than one window, so a 429 is unexpected; it is retried whole a few
// times, and any other non-200 answer is a failed operation.
func (c *client) post(ctx context.Context, id string, ch chunk) (time.Duration, error) {
	var last error
	for attempt := 0; attempt < 4; attempt++ {
		start := time.Now()
		code, body, err := c.do(ctx, http.MethodPost, "/v1/paths/"+id+"/observations", ch.ctype, ch.body)
		rtt := time.Since(start)
		if err == nil && code == http.StatusOK {
			var ack struct{ Accepted, Dropped int }
			if err := json.Unmarshal(body, &ack); err != nil || ack.Accepted != ch.rows || ack.Dropped != 0 {
				return rtt, fmt.Errorf("POST %s: ack %s for %d rows", id, body, ch.rows)
			}
			return rtt, nil
		}
		last = fmt.Errorf("POST %s: status %d %s: %v", id, code, body, err)
		if code != http.StatusTooManyRequests {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	return 0, last
}

// read fetches the full window history of a path (GET /results?since=0,
// the backfill read that reaches into the WAL) and returns its round
// trip.
func (c *client) read(ctx context.Context, id string) (time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/paths/"+id+"/results?since=0", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK || n == 0 {
		return 0, fmt.Errorf("GET results %s: status %d, %d bytes: %v", id, resp.StatusCode, n, err)
	}
	return rtt, nil
}

// results fetches the windows of a path with index >= since.
func (c *client) results(ctx context.Context, id string, since int) ([]store.Window, error) {
	var out struct {
		Results []store.Window `json:"results"`
	}
	err := c.getJSON(ctx, fmt.Sprintf("/v1/paths/%s/results?since=%d", id, since), &out)
	return out.Results, err
}

// sseEvent is one window event of the SSE feed with its arrival time.
type sseEvent struct {
	window store.Window
	at     time.Time
}

// subscription is one open SSE feed of a path.
type subscription struct {
	events chan sseEvent
	cancel context.CancelFunc
	done   chan struct{}
}

// subscribe opens the SSE feed of a path. Windows after lastSeen that the
// daemon already holds are replayed first (Last-Event-ID), so a window
// completed before the subscription opened is not missed.
func (c *client) subscribe(ctx context.Context, id string, lastSeen int) (*subscription, error) {
	sctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, c.base+"/v1/paths/"+id+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", strconv.Itoa(lastSeen))
	resp, err := c.sse.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("SSE %s: status %d", id, resp.StatusCode)
	}
	// One subscription has at most one window in flight; the buffer holds
	// a full backfill of the run's windows without blocking the reader.
	s := &subscription{events: make(chan sseEvent, 1024), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		var typ string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				typ = line[len("event: "):]
			case strings.HasPrefix(line, "data: ") && typ == "window":
				var w store.Window
				if json.Unmarshal([]byte(line[len("data: "):]), &w) == nil {
					select {
					case s.events <- sseEvent{window: w, at: time.Now()}:
					case <-sctx.Done():
						return
					}
				}
			case line == "":
				typ = ""
			}
		}
	}()
	return s, nil
}

// close ends the subscription and waits for its reader.
func (s *subscription) close() {
	s.cancel()
	<-s.done
}

// await returns the event of window index, skipping older ones.
func (s *subscription) await(index int, timeout time.Duration) (sseEvent, error) {
	deadline := time.After(timeout)
	for {
		select {
		case ev := <-s.events:
			if ev.window.Window == index {
				return ev, nil
			}
			if ev.window.Window > index {
				return ev, fmt.Errorf("SSE skipped window %d (got %d)", index, ev.window.Window)
			}
		case <-s.done:
			return sseEvent{}, fmt.Errorf("SSE feed closed before window %d", index)
		case <-deadline:
			return sseEvent{}, fmt.Errorf("no verdict for window %d within %v", index, timeout)
		}
	}
}
