package api

import (
	"os/exec"
	"strings"
	"testing"
)

// internalDeps lists the crowdwifi/internal packages pkgs depend on,
// transitively, without the prefix.
func internalDeps(t *testing.T, pkgs ...string) []string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	out, err := exec.Command(goBin, append([]string{"list", "-deps"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps %v: %v\n%s", pkgs, err, out)
	}
	var deps []string
	for _, line := range strings.Fields(string(out)) {
		if dep, ok := strings.CutPrefix(line, "crowdwifi/internal/"); ok {
			deps = append(deps, dep)
		}
	}
	return deps
}

// TestClientsDoNotLinkTheServer keeps the boundary this package exists for:
// a vehicle and the retry layer speak the protocol
// without compiling the crowd-server's store, inference, admission control,
// write-ahead log or the router.
func TestClientsDoNotLinkTheServer(t *testing.T) {
	forbidden := map[string]bool{
		"server": true, "crowd": true, "overload": true,
		"cluster": true, "cluster/ring": true, "wal": true,
	}
	for _, dep := range internalDeps(t, "crowdwifi/cmd/crowdwifi-vehicle",
		"crowdwifi/internal/client", "crowdwifi/internal/retry") {
		if forbidden[dep] {
			t.Errorf("a client depends on internal/%s", dep)
		}
	}
}

// TestProtocolIsALeaf: what every process imports may import only geometry
// and the frame envelope, which imports nothing of ours.
func TestProtocolIsALeaf(t *testing.T) {
	allowed := map[string]bool{"api": true, "geo": true, "frame": true}
	for _, dep := range internalDeps(t, "crowdwifi/internal/api") {
		if !allowed[dep] {
			t.Errorf("internal/api depends on internal/%s", dep)
		}
	}
}
