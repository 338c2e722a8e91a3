package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupTimeout is how long a server may take to answer /readyz before
// the benchmark refuses to run: ~10x the time the full-scale data set
// needs on the two-core sandbox.
const setupTimeout = 60 * time.Second

// serverProc is one hexserver child process in its own process group.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr string // path of the file holding the server's log
	waited chan struct{}

	killOnce sync.Once
}

// liveServers tracks running children so that every exit path — a
// returned error, a panic's deferred calls, SIGINT/SIGTERM — kills them.
var liveServers = struct {
	sync.Mutex
	m map[*serverProc]struct{}
}{m: map[*serverProc]struct{}{}}

func killAllServers() {
	liveServers.Lock()
	procs := make([]*serverProc, 0, len(liveServers.m))
	for p := range liveServers.m {
		procs = append(procs, p)
	}
	liveServers.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches bin with args on a free port and waits until
// /readyz answers 200. The returned duration is spawn-to-ready: parse,
// dictionary encode, sort, index build or bulk load, listen.
func startServer(bin string, args []string, stderrPath string) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(stderrPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	// Own process group, killed as a whole; Pdeathsig covers the one exit
	// path no handler sees, a SIGKILL of the benchmark itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, stderr: stderrPath, waited: make(chan struct{})}
	start := time.Now()
	started := make(chan error, 1)
	go func() {
		// Pdeathsig fires when the thread that forked exits, not the
		// process, so that thread is pinned until the child is reaped.
		runtime.LockOSThread()
		err := cmd.Start()
		started <- err
		if err == nil {
			cmd.Wait() //nolint:errcheck // exit status is irrelevant: the server is always killed
			close(p.waited)
		}
	}()
	if err := <-started; err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	liveServers.Lock()
	liveServers.m[p] = struct{}{}
	liveServers.Unlock()

	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return p, time.Since(start), nil
			}
		}
		select {
		case <-p.waited:
			p.kill()
			return nil, 0, fmt.Errorf("server exited during set-up; see %s", stderrPath)
		default:
		}
		if time.Since(start) > setupTimeout {
			p.kill()
			return nil, 0, fmt.Errorf("server not ready within %v; refusing to run (see %s)", setupTimeout, stderrPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the server's process group and waits for the process to
// be reaped. Safe to call more than once.
func (p *serverProc) kill() {
	// Once: after the child is reaped its pid may name another group.
	p.killOnce.Do(func() {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck // already gone is fine
	})
	<-p.waited
	liveServers.Lock()
	delete(liveServers.m, p)
	liveServers.Unlock()
}

// cpuTicks returns the server's user+system CPU time in clock ticks
// (USER_HZ, 100 per second on Linux) from /proc/<pid>/stat.
func (p *serverProc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat cpu fields")
	}
	return utime + stime, nil
}

const tickMillis = 10 // 1000 ms / USER_HZ

// rssPeakMB returns the server's peak resident set (VmHWM) in MB.
func (p *serverProc) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stats fetches and decodes the server's /stats document.
func (p *serverProc) stats() (map[string]any, error) {
	resp, err := http.Get(p.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return out, nil
}

// num digs a number out of a decoded JSON document by key path; absent
// keys read as 0, which is what a layer that is not configured reports.
func num(doc map[string]any, path ...string) float64 {
	var cur any = doc
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[k]
	}
	v, _ := cur.(float64)
	return v
}

// promMetrics fetches /metrics and sums the samples of each family,
// histogram _sum/_count series included, buckets excluded.
func (p *serverProc) promMetrics() (map[string]float64, error) {
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}
