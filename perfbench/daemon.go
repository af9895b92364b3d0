package main

import (
	"bytes"
	"errors"
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

	"locshort/internal/obs"
	"locshort/internal/wire"
)

// daemon is one running locshortd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	base string // http://addr
	dir  string // working directory: data/, addr file, log
	log  *os.File
	done chan error
}

// startDaemons execs w.nodes locshortd processes, node i on the directory
// work/node<i> with its store in work/node<i>/data, and waits until each
// answers /readyz.
func startDaemons(bin, work string, w *workload) ([]*daemon, error) {
	ds := make([]*daemon, w.nodes)
	var peers []string
	if w.nodes > 1 {
		ports, err := freePorts(w.nodes)
		if err != nil {
			return nil, err
		}
		for _, p := range ports {
			peers = append(peers, fmt.Sprintf("127.0.0.1:%d", p))
		}
	}
	for i := range ds {
		dir := filepath.Join(work, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			stopDaemons(ds)
			return nil, err
		}
		args := []string{"-data", filepath.Join(dir, "data"), "-quiet", "-addrfile", filepath.Join(dir, "addr")}
		if w.cache > 0 {
			args = append(args, "-cache", strconv.Itoa(w.cache))
		}
		if peers != nil {
			// Anti-entropy is not what cluster-forward measures; a round
			// landing inside the window would only add noise.
			args = append(args, "-addr", peers[i], "-cluster-self", peers[i],
				"-cluster-peers", strings.Join(peers, ","), "-sync-interval", "1h")
		} else {
			args = append(args, "-addr", "127.0.0.1:0")
		}
		d, err := execDaemon(bin, dir, args)
		if err != nil {
			stopDaemons(ds)
			return nil, err
		}
		ds[i] = d
	}
	for _, d := range ds {
		if err := d.awaitReady(30 * time.Second); err != nil {
			stopDaemons(ds)
			return nil, err
		}
	}
	return ds, nil
}

func execDaemon(bin, dir string, args []string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, dir: dir, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	return d, nil
}

func (d *daemon) awaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("locshortd exited during start-up (%v): %s", err, d.logTail())
		default:
		}
		if d.addr == "" {
			if b, err := os.ReadFile(filepath.Join(d.dir, "addr")); err == nil && len(b) > 0 {
				d.addr = strings.TrimSpace(string(b))
				d.base = "http://" + d.addr
			}
		}
		if d.addr != "" {
			if resp, err := http.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("locshortd not ready after %v: %s", timeout, d.logTail())
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(filepath.Join(d.dir, "daemon.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// stop sends SIGTERM (a graceful drain that flushes pending store writes)
// and waits for the exit, killing the process if the drain hangs.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.done
		d.done <- err
		return fmt.Errorf("locshortd ignored SIGTERM: %v", err)
	}
}

func stopDaemons(ds []*daemon) error {
	var errs []error
	for _, d := range ds {
		if err := d.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// freePorts reserves n loopback ports by binding and releasing them;
// cluster nodes need their addresses before they start.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// procCPU returns the process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procHWM returns the process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

func (d *daemon) scrape() (*obs.Scrape, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParsePrometheus(resp.Body)
}

// ingest registers every catalog graph on every node as a canonical
// binary payload, the path that makes the daemon's representative the
// decoded payload.
func ingest(ds []*daemon, cat []*catalogGraph) error {
	for _, d := range ds {
		for _, cg := range cat {
			req, err := http.NewRequest(http.MethodPost, d.base+"/v1/graphs", bytes.NewReader(cg.payload))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", wire.ContentType)
			req.Header.Set("Accept", wire.ContentType)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("ingest %s on %s: %s: %s", cg.spec, d.addr, resp.Status, msg)
			}
		}
	}
	return nil
}

// awaitPersists waits until every build the nodes ran has landed in their
// stores, so binary hits serve stored payloads from the first measured
// request on.
func awaitPersists(ds []*daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range ds {
		for {
			sc, err := d.scrape()
			if err != nil {
				return err
			}
			builds, _ := sc.Value("locshort_engine_builds_total", nil)
			writes, _ := sc.Value("locshort_engine_store_writes_total", nil)
			if writes >= builds {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: %v of %v builds persisted after %v", d.addr, writes, builds, timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}
