package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// server is one gapd child process.
type server struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed when the process has been reaped
	err  error         // Wait's result, valid after done
	log  *os.File
	// stopped makes stop idempotent (it runs on the error paths too).
	stopped bool
}

// gapdFlags is the exact flag set a workload runs gapd with (the port
// is appended per launch).
func gapdFlags(w *workload, nproc int, dir string) []string {
	flags := []string{
		"-workers", strconv.Itoa(nproc),
		"-store-dir", filepath.Join(dir, "store"),
		"-journal", filepath.Join(dir, "journal"),
	}
	if w.cache != 0 {
		flags = append(flags, "-cache", strconv.Itoa(w.cache))
	}
	return flags
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startGapd launches bin with flags on a free loopback port and waits
// until /healthz answers 200. A launch that loses the port race is
// retried on a fresh port.
func startGapd(ctx context.Context, bin, logPath string, flags []string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s, err := launch(bin, logPath, append(append([]string{}, flags...), "-addr", fmt.Sprintf("127.0.0.1:%d", port)))
		if err != nil {
			return nil, err
		}
		s.base = fmt.Sprintf("http://127.0.0.1:%d", port)
		if lastErr = s.waitReady(ctx, 60*time.Second); lastErr == nil {
			return s, nil
		}
		s.stop()
	}
	return nil, fmt.Errorf("gapd did not become ready: %w", lastErr)
}

func launch(bin, logPath string, args []string) (*server, error) {
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// If the benchmark dies without running its cleanup, the kernel
	// still takes gapd down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start gapd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{}), log: lf}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// waitReady polls /healthz until it answers 200, the process exits, or
// the timeout passes.
func (s *server) waitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-s.done:
			return fmt.Errorf("gapd exited during start-up: %v", s.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("timed out waiting for /healthz")
		}
		// Poll often: cold_mixed's set-up takes a few milliseconds, and
		// a coarser poll would round setup_s to whole poll intervals.
		time.Sleep(100 * time.Microsecond)
	}
}

// stop sends SIGTERM (gapd drains and exits), escalates to SIGKILL after
// 20 s, and returns once the process has been reaped.
func (s *server) stop() {
	if s == nil || s.stopped {
		return
	}
	s.stopped = true
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
const clockTicks = 100

// cpuTime is the process's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat cpu fields")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// statusMB reads one kB-valued field of /proc/<pid>/status (VmHWM,
// VmRSS) in MiB.
func (s *server) statusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// version fetches /v1/version.
func (s *server) version() (map[string]any, error) {
	resp, err := http.Get(s.base + "/v1/version")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}
