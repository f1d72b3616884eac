package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"indoorpath/internal/server"
)

// daemon is a running itspqd process serving the mall.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed once the process has exited
	once sync.Once
}

// startDaemon runs itspqd on an ephemeral loopback port and waits until
// it announces its address.
func startDaemon(bin string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, daemonFlags...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start itspqd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); i >= 0 && strings.Contains(line, "serving") {
				addr <- line[i:]
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("itspqd exited before serving: %v", cmd.ProcessState)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("itspqd did not announce an address within 60s")
	}
}

// stop terminates the daemon and waits for it to exit. Safe to call
// more than once.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	})
}

// cpuSeconds is the daemon's CPU time so far: the scheduler's run time
// of each of its threads, from /proc/<pid>/task/*/schedstat, which
// counts nanoseconds where /proc/<pid>/stat counts 10 ms ticks.
func (d *daemon) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	ns := 0.0
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for thread %s", t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse schedstat %q: %w", b, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// peakRSSMB is the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	return procStatusMB(d.cmd.Process.Pid, "VmHWM:")
}

func procStatusMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// statsz scrapes the daemon's cumulative counters.
func statsz(client *http.Client, base string) (*server.StatsResponse, error) {
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /statsz: %w", err)
	}
	return &st, nil
}

// buildz scrapes the daemon's build provenance.
func buildz(client *http.Client, base string) (*server.BuildzResponse, error) {
	resp, err := client.Get(base + "/buildz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var b server.BuildzResponse
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		return nil, fmt.Errorf("decode /buildz: %w", err)
	}
	return &b, nil
}

// cpuTimes reads the machine-wide CPU counters of /proc/stat: total
// and steal ticks.
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line := strings.SplitN(string(b), "\n", 2)[0]
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user..steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
