package chaos

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// TestHoldSyncWaitsForRelease: a held fsync waits for its release, takes its
// outcome from the plan before it waits, and holds only itself.
func TestHoldSyncWaitsForRelease(t *testing.T) {
	fs := NewFaultFS(nil)
	f, err := fs.Create(filepath.Join(t.TempDir(), "held"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	held, release := fs.HoldSync()
	defer release()
	done := make(chan error, 1)
	go func() { done <- f.Sync() }()
	<-held
	select {
	case err := <-done:
		t.Fatalf("held fsync returned (%v) before its release", err)
	case <-time.After(20 * time.Millisecond):
	}
	// A plan set while the fsync waits is the next fsync's, not this one's.
	fs.SetFault(FSFault{FailSyncs: 1})
	release()
	if err := <-done; err != nil {
		t.Fatalf("held fsync: %v, want the healthy outcome it took before waiting", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("next fsync: %v, want %v without a hold", err, ErrInjectedSync)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("fsync after the plan ran out: %v", err)
	}
}
