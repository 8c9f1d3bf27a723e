package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fpgadbg/internal/service"
)

// daemon is one fpgadbgd process started for a single run.
type daemon struct {
	cmd    *exec.Cmd
	client *service.Client
	log    *os.File
	exited chan error
}

// startDaemon boots fpgadbgd with the given worker count on a free
// loopback port and returns once /healthz answers, with the boot-to-ready
// time.
func startDaemon(bin string, workers int, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, fmt.Errorf("daemon log: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	start := time.Now()
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(workers))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even a killed one.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{
		cmd:    cmd,
		client: &service.Client{Base: "http://" + addr, HTTP: newHTTPClient()},
		log:    logf,
		exited: make(chan error, 1),
	}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := d.client.Healthz(ctx)
		cancel()
		if err == nil {
			return d, time.Since(start), nil
		}
		select {
		case werr := <-d.exited:
			d.exited <- werr
			d.stop()
			return nil, 0, fmt.Errorf("fpgadbgd exited before ready: %v (log %s)", werr, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("fpgadbgd not ready after 30s: %v", err)
		}
	}
}

func newHTTPClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	return &http.Client{Transport: tr}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	defer d.log.Close()
	if d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // last resort; Wait below reaps it
		<-d.exited
	}
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read VmHWM: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
