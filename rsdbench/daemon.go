package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one rsd process started by the benchmark.
type daemon struct {
	name string
	cmd  *exec.Cmd
	base string // http://host:port, from the daemon's listening line
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// readyTimeout bounds the wait for the listening line; reaching it is a
// failed step, not a retry.
const readyTimeout = 60 * time.Second

// startDaemon execs rsd with args and returns once it prints its listening
// line, which names the (possibly OS-assigned) address it serves. The daemon
// is registered with the bench before it starts, so close kills it on every
// exit path; the kernel also kills it if the benchmark itself dies.
func (b *bench) startDaemon(name string, args ...string) (*daemon, error) {
	logPath := filepath.Join(b.workDir, fmt.Sprintf("%s-%d.log", name, len(b.daemons)))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(b.rsdBin, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	b.daemons = append(b.daemons, d)

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "rsd: listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		io.Copy(io.Discard, stdout)
		d.err = cmd.Wait()
		close(d.done)
	}()
	timer := time.NewTimer(readyTimeout)
	defer timer.Stop()
	select {
	case a := <-addr:
		host, port, err := net.SplitHostPort(a)
		if err != nil {
			return nil, fmt.Errorf("%s: bad listening address %q", name, a)
		}
		if host == "" || host == "::" || host == "0.0.0.0" {
			host = "127.0.0.1"
		}
		d.base = "http://" + net.JoinHostPort(host, port)
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening (%v): %s", name, d.err, tail(logPath))
	case <-timer.C:
		return nil, fmt.Errorf("%s not listening after %v: %s", name, readyTimeout, tail(logPath))
	case <-b.ctx.Done():
		return nil, b.ctx.Err()
	}
}

// stop kills the daemon and waits until it has been reaped.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.done
}

// tail returns the last lines of a log file, for failure messages.
func tail(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "(no log)"
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// procSample is one daemon's process accounting.
type procSample struct {
	hwmKB  int64 // VmHWM
	allocs int64 // runtime MemStats.Mallocs
	bytes  int64 // runtime MemStats.TotalAlloc
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// sample reads the daemon's peak RSS from /proc and its allocation totals
// from the MemStats block of /debug/pprof/allocs.
func (d *daemon) sample(ctx context.Context) (procSample, error) {
	var s procSample
	pid := d.cmd.Process.Pid
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			s.hwmKB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	body, err := httpGet(ctx, d.base+"/debug/pprof/allocs?debug=1")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			s.allocs, _ = strconv.ParseInt(v, 10, 64)
		}
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			s.bytes, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	if s.allocs == 0 {
		return s, fmt.Errorf("%s: no MemStats block in /debug/pprof/allocs (is -pprof set?)", d.name)
	}
	return s, nil
}

// cpu returns the daemon's utime+stime from /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * clockTick, nil
}

// hostCPU returns the machine's total and stolen CPU ticks from /proc/stat.
// Steal is time the hypervisor gave this machine's CPUs to someone else; a
// phase with a high steal share ran on a contended host.
func hostCPU() (total, steal int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// counters is one scrape of the daemon's /metrics.
type counters map[string]float64

func (d *daemon) scrape(ctx context.Context) (counters, error) {
	body, err := httpGet(ctx, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	c := counters{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			c[name] = f
		}
	}
	return c, nil
}

// delta returns after-before for every counter of after.
func (after counters) delta(before counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func httpGet(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(raw), nil
}

// fleetPort returns the loopback address replica r of a fleet listens on.
// Replicas need each other's addresses before they start, so they cannot
// learn theirs from their listening lines. The ring hashes the member URLs,
// so a fixed port, when free, makes a seed's inputs split between the
// replicas the same way on every run; otherwise the OS assigns one.
func fleetPort(r int) (string, error) {
	for _, a := range []string{fmt.Sprintf("127.0.0.1:%d", 47311+r), "127.0.0.1:0"} {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			continue
		}
		addr := ln.Addr().String()
		return addr, ln.Close()
	}
	return "", fmt.Errorf("no loopback port for replica %d", r)
}
