package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/divserve from the checkout at root. The go
// command skips the link when the binary is already up to date.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/divserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building divserve: %w", err)
	}
	return nil
}

// live holds every server process this run has started and not yet
// reaped, so an error path can still stop them all.
var live struct {
	sync.Mutex
	procs map[*exec.Cmd]bool
}

// killAll stops and reaps every server still running.
func killAll() {
	live.Lock()
	cmds := make([]*exec.Cmd, 0, len(live.procs))
	for c := range live.procs {
		cmds = append(cmds, c)
	}
	live.Unlock()
	for _, c := range cmds {
		reap(c, syscall.SIGKILL)
	}
}

func reap(c *exec.Cmd, sig syscall.Signal) {
	_ = c.Process.Signal(sig) // fails only if the process already exited
	_ = c.Wait()              // a killed process reports its signal as an error
	live.Lock()
	delete(live.procs, c)
	live.Unlock()
}

// server is one divserve process: its flags, loopback address and log.
type server struct {
	bin  string
	args []string
	addr string
	log  string
	cmd  *exec.Cmd
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (s *server) start() error {
	logf, err := os.OpenFile(s.log, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(s.bin, append(append([]string(nil), s.args...), "-addr", s.addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, its servers die with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting divserve: %w", err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*exec.Cmd]bool)
	}
	live.procs[cmd] = true
	live.Unlock()
	s.cmd = cmd
	return nil
}

// stop delivers sig and waits for the process to exit.
func (s *server) stop(sig syscall.Signal) {
	if s.cmd != nil {
		reap(s.cmd, sig)
		s.cmd = nil
	}
}

// memory reads a /proc/<pid>/status field of the process ("VmRSS" for
// its resident set, "VmHWM" for the high-water mark of it), in MiB.
func (s *server) memory(field string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, s.cmd.Process.Pid)
}

// logTail returns the last lines of the server's log, for error reports.
func (s *server) logTail() string {
	b, err := os.ReadFile(s.log)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, "\n")
}

// deployment is the set of processes one workload serves from, and the
// address clients talk to: a single engine, or a coordinator in front of
// its shards.
type deployment struct {
	servers []*server
	front   *server
}

func (d *deployment) start() error {
	for _, s := range d.servers {
		if err := s.start(); err != nil {
			d.stop(syscall.SIGKILL)
			return err
		}
	}
	return nil
}

func (d *deployment) stop(sig syscall.Signal) {
	for _, s := range d.servers {
		s.stop(sig)
	}
}

// memory sums a /proc status memory field over the deployment, in MiB.
func (d *deployment) memory(field string) (float64, error) {
	total := 0.0
	for _, s := range d.servers {
		mb, err := s.memory(field)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// cpuNanos sums the CPU time the deployment's running processes have used,
// from the first field of /proc/<pid>/schedstat.
func (d *deployment) cpuNanos() int64 {
	var total int64
	for _, s := range d.servers {
		if s.cmd == nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "schedstat"))
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			total += ns
		}
	}
	return total
}

// sampleRSS records the deployment's summed resident set every interval
// until stop is closed, then returns the samples.
func (d *deployment) sampleRSS(interval time.Duration, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if mb, err := d.memory("VmRSS"); err == nil {
			out = append(out, mb)
		}
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

func (d *deployment) logTails() string {
	var b strings.Builder
	for _, s := range d.servers {
		fmt.Fprintf(&b, "--- %s\n%s\n", s.log, s.logTail())
	}
	return b.String()
}
