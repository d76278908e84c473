package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the bench started, so that whatever path
// leaves main — success, a failed check, a stall, a signal — kills them all.
var children struct {
	sync.Mutex
	live map[*child]bool
}

// child is one system-under-test process.
type child struct {
	name string
	args []string
	cmd  *exec.Cmd
	addr string
	// log keeps the tail of stderr for the error message when a boot fails.
	log    *tailBuffer
	exited chan struct{}
}

var listenLine = regexp.MustCompile(`msg="[a-z-]+ listening" addr=(\S+)`)

// startChild runs bin with args and returns once the process has logged the
// address it bound: every child listens on 127.0.0.1:0 and the bench reads
// the port from the log, so two runs on one box never collide.
func startChild(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, args: args, log: &tailBuffer{}, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	// A SIGKILLed bench must not leave servers behind.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*child]bool{}
	}
	children.live[c] = true
	children.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			c.log.add(line)
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		_ = c.cmd.Wait()
		close(c.exited)
	}()
	select {
	case c.addr = <-addrCh:
	case <-c.exited:
		c.forget()
		return nil, fmt.Errorf("%s exited before listening:\n%s", name, c.log)
	case <-time.After(stallLimit):
		c.kill()
		return nil, fmt.Errorf("%s did not listen within %s:\n%s", name, stallLimit, c.log)
	}
	if err := c.waitReady(); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

func (c *child) url(path string) string { return "http://" + c.addr + path }

func (c *child) waitReady() error {
	deadline := time.Now().Add(stallLimit)
	for time.Now().Before(deadline) {
		resp, err := http.Get(c.url("/readyz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("%s exited before ready:\n%s", c.name, c.log)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not ready within %s:\n%s", c.name, stallLimit, c.log)
}

// kill sends SIGKILL — the crash the durability checks are about — and waits
// for the process to be gone.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.exited
	c.forget()
}

func (c *child) forget() {
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

func killAllChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// procCPU returns the user+system CPU time the process has used so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks): unlike the per-thread
// files it still counts the threads that have exited.
func procCPU(pid int) (time.Duration, error) {
	path := fmt.Sprintf("/proc/%d/stat", pid)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name, field 2, is in parentheses and may itself hold
	// spaces and parentheses; the fields after its last one are plain.
	fields := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("malformed %s", path)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s", path)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// clockTick is the unit of the times in /proc/<pid>/stat: USER_HZ, which
// Linux fixes at 100 on every architecture.
const clockTick = time.Second / 100

// procPeakRSS returns VmHWM, the process's peak resident set, in MiB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// tailBuffer keeps the last few lines a child logged.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[len(t.lines)-20:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}
