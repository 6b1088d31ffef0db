package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The fleet is the system as deployed: one fusecu-route in front of two
// fusecu-serve replicas, each a child process started with only its
// address and backend flags.
const replicaCount = 2

const (
	startTimeout = 30 * time.Second
	// stopGrace covers fusecu-serve's drain window after SIGTERM.
	stopGrace = 5 * time.Second
	// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
	// it is 100 on every Linux configuration Go supports.
	clockTicks = 100
	// basePort is where the replicas' ports start. The router places
	// operators on a hash ring keyed by replica URL, so fixed ports keep
	// the operator-to-replica split, and with it the load balance, the same
	// on every run.
	basePort = 39170
)

// binaries names the executables the fleet is started from.
type binaries struct{ serve, route string }

// proc is one running child process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited is closed
}

// startProc starts bin and waits until it prints the address it listens
// on. A process that exits, hangs or is canceled before that is stopped and
// reported as an error.
func startProc(ctx context.Context, name, bin string, args ...string) (*proc, error) {
	w := &addrWriter{found: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = w
	cmd.Stderr = os.Stderr
	// The kernel kills the child if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	timer := time.NewTimer(startTimeout)
	defer timer.Stop()
	select {
	case addr := <-w.found:
		p.url = "http://" + addr
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening: %v", name, p.err)
	case <-timer.C:
		p.stop()
		return nil, fmt.Errorf("%s did not listen within %v", name, startTimeout)
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
}

// stop ends the process: SIGTERM, then SIGKILL after stopGrace. It returns
// once the process has been waited for.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	timer := time.NewTimer(stopGrace)
	defer timer.Stop()
	select {
	case <-p.exited:
	case <-timer.C:
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// addrWriter is a child's standard output: it picks the address out of the
// first "listening on ADDR" line and discards everything else.
type addrWriter struct {
	mu    sync.Mutex
	buf   []byte
	done  bool
	found chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if _, addr, ok := strings.Cut(line, "listening on "); ok {
			w.done, w.buf = true, nil
			w.found <- strings.TrimSpace(addr)
			return len(p), nil
		}
	}
}

// fleet is a running router and its replicas.
type fleet struct {
	replicas []*proc
	router   *proc
}

// startFleet starts the replicas, then the router in front of them, and
// waits until every process answers /readyz. On any failure the processes
// already started are stopped before it returns.
func startFleet(ctx context.Context, bins binaries) (*fleet, error) {
	f := &fleet{}
	if err := f.start(ctx, bins); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) start(ctx context.Context, bins binaries) error {
	var urls []string
	port := basePort
	for i := 0; i < replicaCount; i++ {
		var err error
		if port, err = freePort(port); err != nil {
			return err
		}
		p, err := startProc(ctx, fmt.Sprintf("replica%d", i), bins.serve, "-addr", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			return err
		}
		port++
		f.replicas = append(f.replicas, p)
		urls = append(urls, p.url)
	}
	router, err := startProc(ctx, "router", bins.route, "-addr", "127.0.0.1:0", "-backends", strings.Join(urls, ","))
	if err != nil {
		return err
	}
	f.router = router
	for _, p := range f.procs() {
		if err := awaitReady(ctx, p); err != nil {
			return err
		}
	}
	return nil
}

// procs lists every running process of the fleet.
func (f *fleet) procs() []*proc {
	out := append([]*proc(nil), f.replicas...)
	if f.router != nil {
		out = append(out, f.router)
	}
	return out
}

// stop ends every process, the router first, and returns once all have
// been waited for.
func (f *fleet) stop() {
	if f.router != nil {
		f.router.stop()
	}
	var wg sync.WaitGroup
	for _, p := range f.replicas {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// freePort returns the first port from from on that is free on loopback.
func freePort(from int) (int, error) {
	for p := from; p < from+1000; p++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err == nil {
			ln.Close()
			return p, nil
		}
	}
	return 0, fmt.Errorf("no free port in [%d, %d)", from, from+1000)
}

func awaitReady(ctx context.Context, p *proc) error {
	deadline := time.Now().Add(startTimeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %v (last error %v)", p.name, startTimeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cpuTime sums user and system CPU time of the fleet's processes.
func (f *fleet) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, p := range f.procs() {
		d, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// procCPU reads utime + stime from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis. utime and stime are fields 14 and 15.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS sums the peak resident set size (VmHWM) of the fleet's
// processes, in bytes.
func (f *fleet) peakRSS() (int64, error) {
	var total int64
	for _, p := range f.procs() {
		v, err := procHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

func procHWM(pid int) (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM of %d: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/" + strconv.Itoa(pid) + "/status")
}

// scrape reads a process's /metrics exposition into name → value. Bucket
// lines are skipped; only scalar samples are kept.
func scrape(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
