package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"solarpred/internal/serve"
)

// daemon is one spawned solarpredd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	done    chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs solarpredd at paper scale on a free loopback port.
func startDaemon(binDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(binDir, "solarpredd"), "-full", "-addr", addr, "-drain-timeout", "5s")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start solarpredd: %w", err)
	}
	trackChild(cmd.Process, d.done)
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
		untrackChild(cmd.Process)
	}()
	return d, nil
}

// childAttr makes a child die with the benchmark even when the benchmark
// is killed before it can stop the child. The signal follows the thread
// that forked; the benchmark never ends a thread (every LockOSThread is
// paired with an unlock), so that thread lives as long as the process.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// waitHealthy polls /healthz until it answers ok.
func (d *daemon) waitHealthy(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("solarpredd exited during start-up: %v", d.waitErr)
		default:
		}
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("solarpredd not healthy after %s", timeout)
}

// stop drains the daemon with SIGTERM (SIGKILL if it does not exit),
// waits for it and returns its peak resident set in MiB.
func (d *daemon) stop() (float64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return 0, fmt.Errorf("solarpredd did not drain; killed")
	}
	if d.waitErr != nil {
		return 0, fmt.Errorf("solarpredd: %w", d.waitErr)
	}
	return maxRSSMiB(d.cmd.ProcessState), nil
}

// kill ends the daemon without ceremony; for error paths.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// maxRSSMiB is a reaped child's peak resident set (VmHWM) in MiB.
func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// stats fetches /v1/stats.
func (d *daemon) stats(c *http.Client) (*serve.StatsResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := (&serve.Client{Base: d.base, HTTP: c}).Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// newHTTPClient is the generator's client: at most conns connections to
// the daemon, kept alive between requests.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}
