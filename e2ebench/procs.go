package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one yardstickd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	done chan struct{} // closed once the process has been waited for
}

// startDaemon launches bin on an ephemeral loopback port with the given
// extra flags and returns once it has printed its listen address. The
// process is tied to the benchmark's lifetime (it is killed if the
// benchmark dies) and must be stopped with stop.
func startDaemon(bin string, flags ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, flags...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain stdout to EOF before Wait, as os/exec requires.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "yardstickd listening on "); ok {
				addr <- a
			}
		}
		cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not report a listen address", bin)
	}
}

// waitHealthy polls GET /healthz until the daemon answers 200.
func (d *daemon) waitHealthy(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %v", d.base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop asks the daemon to shut down gracefully and waits until it has
// exited, killing it if it lingers.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// stopAll stops every daemon in ds.
func stopAll(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}

// rssProbe measures the resident-set high-water mark of the processes
// that run the program across one operation: it restarts their VmHWM
// at their current RSS before the operation (Linux clear_refs) and sums
// VmHWM after it. Per-operation peaks have a stable median; the peak of
// a whole run rests on one garbage-collection timing.
type rssProbe struct {
	pids []string // "self" or process IDs
	err  error    // first failure, reported by the run
}

func (p *rssProbe) reset() {
	for _, pid := range p.pids {
		if err := os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0); err != nil && p.err == nil {
			p.err = fmt.Errorf("reset VmHWM of %s: %w", pid, err)
		}
	}
}

func (p *rssProbe) read() float64 {
	total := 0.0
	for _, pid := range p.pids {
		mb, err := peakRSSMB("/proc/" + pid + "/status")
		if err != nil && p.err == nil {
			p.err = err
		}
		total += mb
	}
	return total
}

// peakRSSMB parses VmHWM (kB) out of a /proc status file.
func peakRSSMB(statusPath string) (float64, error) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + statusPath)
}
