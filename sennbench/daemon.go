package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is one senn-serverd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *lockedBuffer
	done chan struct{} // closed once the process has been reaped
}

// lockedBuffer collects the child's combined output.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// children tracks live daemons so every exit path, a signal included, can
// kill and reap them.
var children = struct {
	sync.Mutex
	live map[*daemon]bool
}{live: map[*daemon]bool{}}

// stopAllChildren kills every live daemon and waits for each to be reaped.
func stopAllChildren() {
	children.Lock()
	live := make([]*daemon, 0, len(children.live))
	for d := range children.live {
		live = append(live, d)
	}
	children.Unlock()
	for _, d := range live {
		d.stop()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startDaemon spawns senn-serverd on a free loopback port and waits until
// /healthz answers. It returns the time from
// spawn to healthy. On failure the child is killed and its log is part of
// the error.
func startDaemon(bin, store string, maxTxRange float64) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("free port: %w", err)
	}
	d := &daemon{
		addr: "127.0.0.1:" + strconv.Itoa(port),
		log:  &lockedBuffer{},
		done: make(chan struct{}),
	}
	d.cmd = exec.Command(bin,
		"-store", store,
		"-addr", d.addr,
		"-max-txrange", strconv.FormatFloat(maxTxRange, 'f', -1, 64))
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	// The kernel kills the child if this process dies without cleaning up.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	children.Lock()
	start := time.Now()
	err = d.cmd.Start()
	if err == nil {
		children.live[d] = true
	}
	children.Unlock()
	if err != nil {
		return nil, 0, fmt.Errorf("spawn %s: %w", bin, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is reported through the log
		close(d.done)
	}()

	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		select {
		case <-d.done:
			d.stop()
			return nil, 0, fmt.Errorf("senn-serverd exited before becoming healthy; log:\n%s", d.log.String())
		default:
		}
		resp, err := client.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("senn-serverd not healthy after 60s; log:\n%s", d.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pid is the child's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop terminates the child (SIGTERM, then SIGKILL after 5 s) and waits
// until it has been reaped. It is idempotent.
func (d *daemon) stop() {
	children.Lock()
	live := children.live[d]
	delete(children.live, d)
	children.Unlock()
	if !live {
		<-d.done
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// exitedEarly reports whether the child died on its own.
func (d *daemon) exitedEarly() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// fetchStats reads the daemon's /v1/stats.
func fetchStats(addr string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// settledStats waits (up to 5 s) until the daemon has no open connection,
// so every frame the sessions sent has been counted, and returns the stats.
func settledStats(addr string) (serve.Stats, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := fetchStats(addr)
		if err != nil || st.ActiveConns == 0 {
			return st, err
		}
		if time.Now().After(deadline) {
			return st, errors.New("stats: connections still open 5s after the sessions closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// makeStore writes the workload's POI store with the daemon's own -mkstore.
func makeStore(bin, path string, p serveParams, seed int64) error {
	out, err := exec.Command(bin, "-mkstore", path,
		"-pois", strconv.Itoa(p.POIs),
		"-clusters", strconv.Itoa(p.Clusters),
		"-width", strconv.FormatFloat(p.Width, 'f', -1, 64),
		"-seed", strconv.FormatInt(seed, 10)).CombinedOutput()
	if err != nil {
		return fmt.Errorf("mkstore: %w; output:\n%s", err, out)
	}
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("mkstore: %w", err)
	}
	return nil
}
