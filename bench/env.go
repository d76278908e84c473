package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"crowdwifi/internal/eval"
)

// environment is the fingerprint written into every result, so that two
// numbers are compared only when the boxes that produced them are alike.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	WorkDir    string `json:"work_dir"`
	// WorkDirFS and FsyncP50Us tell a tmpfs run (fsync is free) from a disk
	// run: the ingest workloads are fsync-bound.
	WorkDirFS  string  `json:"work_dir_fs"`
	FsyncP50Us float64 `json:"env.fsync_p50_us"`
	BuildS     float64 `json:"env.build_s"`
}

// binaries are the system under test, built from this checkout.
type binaries struct{ server, router string }

// findRoot walks up from the working directory to the crowdwifi module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module crowdwifi\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a crowdwifi checkout: no go.mod with module crowdwifi above the working directory")
		}
		dir = parent
	}
}

// build compiles crowdwifi-server and crowdwifi-router into buildDir. The go
// tool skips what is already up to date, so only a checkout's first run pays.
func build(root, buildDir string) (binaries, time.Duration, error) {
	binDir := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return binaries{}, 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/crowdwifi-server", "./cmd/crowdwifi-router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, 0, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return binaries{
		server: filepath.Join(binDir, "crowdwifi-server"),
		router: filepath.Join(binDir, "crowdwifi-router"),
	}, time.Since(start), nil
}

func fingerprint(root, workDir string, buildTime time.Duration) (environment, error) {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		WorkDir:    workDir,
		BuildS:     buildTime.Seconds(),
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(workDir, &st); err != nil {
		return env, err
	}
	env.WorkDirFS = fsName(int64(st.Type))
	p50, err := fsyncP50(workDir)
	env.FsyncP50Us = p50
	return env, err
}

func fsName(magic int64) string {
	switch magic {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// fsyncP50 times 200 raw 4 KiB write+fsync calls in dir, in microseconds.
func fsyncP50(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var us []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	return eval.Median(us), nil
}
