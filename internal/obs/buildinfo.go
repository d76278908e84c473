package obs

import (
	"fmt"
	"io"
	"runtime"
)

// Version is the build's version string, stamped at link time:
//
//	go build -ldflags "-X crowdwifi/internal/obs.Version=v1.2.3"
//
// It stays "dev" for plain `go build` / `go test` binaries.
var Version = "dev"

// registerBuildInfo registers the crowdwifi_build_info gauge: a constant 1
// whose labels identify the running build, so dashboards can join any series
// against the version that produced it (and fleet rollouts are visible as a
// label changeover).
func registerBuildInfo(r *Registry) {
	r.Gauge("crowdwifi_build_info", "Build metadata; constant 1, labeled with the binary's version and Go toolchain.",
		L("version", Version), L("go_version", runtime.Version())).Set(1)
}

// PrintVersion writes the standard `-version` line for a binary.
func PrintVersion(w io.Writer, binary string) {
	fmt.Fprintf(w, "%s %s %s %s/%s\n", binary, Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
