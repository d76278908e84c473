package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var (
	// listeningRe is the pattern bench/proc.go reads each child's port from.
	listeningRe = regexp.MustCompile(`msg="[a-z-]+ listening" addr=(\S+)`)
	recoveredRe = regexp.MustCompile(`msg="?state recovered"?.* reports=([0-9]+)`)
)

// buildServer compiles the server binary once per test run.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "crowdwifi-server")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Skipf("cannot build server binary: %v\n%s", err, out)
	}
	return bin
}

// serverProc is a running crowdwifi-server child process.
type serverProc struct {
	cmd              *exec.Cmd
	addr             string
	recoveredReports int // parsed from the boot "state recovered" log line
}

// startServer launches the binary on an ephemeral port and parses the real
// bound address out of its structured log.
func startServer(t *testing.T, bin, dataDir string) *serverProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-aggregate-every", "0",
		"-snapshot-every", "0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})

	// "state recovered" is logged before "crowd-server listening", so the
	// count is settled by the time the address arrives.
	procCh := make(chan *serverProc, 1)
	go func() {
		p := &serverProc{cmd: cmd, recoveredReports: -1}
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := recoveredRe.FindStringSubmatch(line); m != nil {
				fmt.Sscanf(m[1], "%d", &p.recoveredReports)
			}
			if m := listeningRe.FindStringSubmatch(line); m != nil {
				p.addr = m[1]
				procCh <- p
			}
		}
	}()
	select {
	case p := <-procCh:
		return p
	case <-time.After(10 * time.Second):
		t.Fatal("server did not log its listening address")
		return nil
	}
}

func (p *serverProc) url() string { return "http://" + p.addr }

// kill SIGKILLs the child — no shutdown hook runs, no snapshot is cut.
func (p *serverProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = p.cmd.Process.Wait()
}

func postReport(t *testing.T, url, key string, body any) (int, string, bool) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/reports", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post %s: %v", key, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp.StatusCode, out.String(), resp.Header.Get("Idempotent-Replay") == "true"
}

type report struct {
	Vehicle string `json:"vehicle"`
	Segment string `json:"segment"`
	APs     []struct {
		X      float64 `json:"x"`
		Y      float64 `json:"y"`
		Credit float64 `json:"credit"`
	} `json:"aps"`
}

func makeReport(i int) report {
	r := report{Vehicle: fmt.Sprintf("v%d", i%3), Segment: "seg-kill"}
	r.APs = make([]struct {
		X      float64 `json:"x"`
		Y      float64 `json:"y"`
		Credit float64 `json:"credit"`
	}, 1)
	r.APs[0].X = float64(10 * i)
	r.APs[0].Y = 5
	r.APs[0].Credit = 1
	return r
}

// TestKillDashNineRecovery is the out-of-process half of the crash story:
// SIGKILL the real binary mid-ingest, restart it on the same directory, and
// verify a retrying client converges — every pre-kill upload dedupes, every
// lost upload lands, and the final count is exact.
func TestKillDashNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bin := buildServer(t)
	dataDir := filepath.Join(t.TempDir(), "data")

	const total = 20
	const preKill = 12
	p1 := startServer(t, bin, dataDir)
	for i := 0; i < preKill; i++ {
		status, body, replayed := postReport(t, p1.url(), fmt.Sprintf("kill-op-%02d", i), makeReport(i))
		if status != http.StatusCreated || replayed {
			t.Fatalf("op %d: status=%d replayed=%v body=%s", i, status, replayed, body)
		}
	}
	p1.kill(t)

	// The WAL must exist: every acknowledged upload was fsynced before its
	// ack, even though the process never shut down.
	if matches, _ := filepath.Glob(filepath.Join(dataDir, "wal-*.seg")); len(matches) == 0 {
		t.Fatal("no WAL segments on disk after kill")
	}
	if matches, _ := filepath.Glob(filepath.Join(dataDir, "snap-*.snap")); len(matches) != 0 {
		t.Fatal("a snapshot exists although the server was SIGKILLed")
	}

	p2 := startServer(t, bin, dataDir)
	if p2.recoveredReports != preKill {
		t.Fatalf("restart recovered %d reports, want %d", p2.recoveredReports, preKill)
	}
	// The client retries everything: old keys replay, new keys execute.
	replays := 0
	for i := 0; i < total; i++ {
		status, body, replayed := postReport(t, p2.url(), fmt.Sprintf("kill-op-%02d", i), makeReport(i))
		if status != http.StatusCreated {
			t.Fatalf("op %d after restart: status=%d body=%s", i, status, body)
		}
		if replayed {
			replays++
		} else if i < preKill {
			t.Fatalf("op %d executed twice across the kill", i)
		}
	}
	if replays != preKill {
		t.Fatalf("replays = %d, want %d", replays, preKill)
	}

	// A clean SIGTERM shutdown cuts a snapshot; the third boot loads it and
	// reports the exact total — no duplicates, nothing lost.
	if err := p2.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.cmd.Process.Wait(); err != nil {
		t.Fatal(err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dataDir, "snap-*.snap")); len(matches) == 0 {
		t.Fatal("clean shutdown did not write a snapshot")
	}
	p3 := startServer(t, bin, dataDir)
	if p3.recoveredReports != total {
		t.Fatalf("snapshot boot recovered %d reports, want %d", p3.recoveredReports, total)
	}
	// And the recovered idempotency cache still answers across the snapshot.
	if _, _, replayed := postReport(t, p3.url(), "kill-op-00", makeReport(0)); !replayed {
		t.Fatal("idempotency cache lost across snapshot boot")
	}
}

// TestHealthAndTraceEndpoints drives the real binary: liveness is always up,
// readiness follows the serving lifecycle, and an ingested upload is
// retrievable as an assembled trace over /debug/traces/{id}.
func TestHealthAndTraceEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bin := buildServer(t)
	p := startServer(t, bin, filepath.Join(t.TempDir(), "data"))

	getJSON := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(p.url() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("GET %s: decode: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var live, ready map[string]string
	if status := getJSON("/healthz", &live); status != http.StatusOK || live["status"] != "ok" {
		t.Fatalf("/healthz = %d %v, want 200 ok", status, live)
	}
	if status := getJSON("/readyz", &ready); status != http.StatusOK || ready["status"] != "ready" {
		t.Fatalf("/readyz = %d %v, want 200 ready", status, ready)
	}

	// One upload, then its trace must be assembled server-side: the remote
	// continuation span plus dedupe and WAL-append children.
	if status, body, _ := postReport(t, p.url(), "trace-op-00", makeReport(0)); status != http.StatusCreated {
		t.Fatalf("upload: status=%d body=%s", status, body)
	}
	var idx struct {
		Recent []struct {
			ID   string `json:"id"`
			Root string `json:"root"`
		} `json:"recent"`
	}
	if status := getJSON("/debug/traces", &idx); status != http.StatusOK {
		t.Fatalf("/debug/traces = %d, want 200", status)
	}
	if len(idx.Recent) == 0 {
		t.Fatal("/debug/traces lists no traces after an upload")
	}
	var tr struct {
		ID    string `json:"id"`
		Spans []struct {
			Name       string `json:"name"`
			DurationNS int64  `json:"durationNs"`
		} `json:"spans"`
	}
	if status := getJSON("/debug/traces/"+idx.Recent[0].ID, &tr); status != http.StatusOK {
		t.Fatalf("/debug/traces/{id} = %d, want 200", status)
	}
	want := map[string]bool{"server POST /v1/reports": false, "server.dedupe": false, "wal.append": false}
	for _, s := range tr.Spans {
		if _, ok := want[s.Name]; ok && s.DurationNS > 0 {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace %s is missing span %q with positive duration", tr.ID, name)
		}
	}

	// SIGTERM: readiness must drop (shutdown snapshot) while the process
	// drains. The listener may close at any moment after the signal, so a
	// refused connection also counts as "not ready".
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(p.url() + "/readyz")
		if err != nil {
			break // listener closed: no longer serving, which is the end state
		}
		status := resp.StatusCode
		resp.Body.Close()
		if status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still %d after SIGTERM", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := p.cmd.Process.Wait(); err != nil {
		t.Fatal(err)
	}
}
