package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// buildLinrecd builds the server from the checkout the benchmark runs in,
// once per process.  Build time is not set-up time: it is the toolchain's,
// not the system's.
func buildLinrecd(cfg config) (string, error) {
	buildOnce.Do(func() {
		buildPath = filepath.Join(cfg.work, "linrecd")
		cmd := exec.Command("go", "build", "-o", buildPath, "./cmd/linrecd")
		cmd.Dir = cfg.root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building linrecd: %v\n%s", err, out)
		}
	})
	return buildPath, buildErr
}

// child is a running linrecd.
type child struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	// exited closes once the process has been reaped.
	exited chan struct{}
	// boot is the time from exec to the first successful /healthz.
	boot time.Duration
}

// startChild execs linrecd with the given flags on an ephemeral port and
// waits until it answers /healthz.
func startChild(cfg config, name string, args ...string) (*child, error) {
	bin, err := buildLinrecd(cfg)
	if err != nil {
		return nil, err
	}
	portFile := filepath.Join(cfg.work, name+".addr")
	os.Remove(portFile)
	logFile, err := os.Create(filepath.Join(cfg.work, name+".log"))
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// The child must not outlive a benchmark that is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	c := &child{cmd: cmd, log: logFile, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(c.exited) }()
	for {
		select {
		case <-c.exited:
			logFile.Close()
			return nil, fmt.Errorf("linrecd exited during start; see %s", logFile.Name())
		default:
		}
		if time.Since(start) > 60*time.Second {
			c.kill()
			return nil, fmt.Errorf("linrecd not ready after 60s")
		}
		if c.addr == "" {
			if b, err := os.ReadFile(portFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				c.addr = string(bytes.TrimSpace(b))
			}
		}
		if c.addr != "" {
			if resp, err := http.Get("http://" + c.addr + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					c.boot = time.Since(start)
					return c, nil
				}
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// kill ends the child with SIGKILL — no shutdown hook runs, which is what
// the durability check needs — and waits until it is gone.
func (c *child) kill() {
	if c == nil {
		return
	}
	c.cmd.Process.Signal(syscall.SIGKILL)
	<-c.exited
	c.log.Close()
}

// rssPeakMB reads the child's peak resident set from /proc; 0 where that
// is not available.
func (c *child) rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	i := bytes.Index(b, []byte("VmHWM:"))
	if i < 0 {
		return 0
	}
	f := bytes.Fields(b[i+len("VmHWM:"):])
	kb, err := strconv.ParseFloat(string(f[0]), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
