package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// makeLog creates a run log with one saved stage in dir and backdates its
// manifest by age.
func makeLog(t *testing.T, dir string, age time.Duration) {
	t.Helper()
	l, err := Create(dir, "run", "fp", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Save("coreset", -1, 0, struct{ X int }{1}); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-age)
	if err := os.Chtimes(filepath.Join(dir, ManifestName), old, old); err != nil {
		t.Fatal(err)
	}
}

func TestPruneSubdirectoryLogs(t *testing.T) {
	root := t.TempDir()
	makeLog(t, filepath.Join(root, "r1"), 48*time.Hour)
	makeLog(t, filepath.Join(root, "r2"), 30*time.Hour)
	makeLog(t, filepath.Join(root, "r3"), time.Minute)

	pruned, err := Prune(root, 24*time.Hour, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 2 {
		t.Fatalf("pruned %v, want r1 and r2", pruned)
	}
	for _, gone := range []string{"r1", "r2"} {
		if _, err := os.Stat(filepath.Join(root, gone)); !os.IsNotExist(err) {
			t.Fatalf("stale log %s still present (err=%v)", gone, err)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "r3", ManifestName)); err != nil {
		t.Fatalf("fresh log r3 was pruned: %v", err)
	}
}

func TestPruneKeepLatestExemptsNewest(t *testing.T) {
	root := t.TempDir()
	makeLog(t, filepath.Join(root, "old"), 72*time.Hour)
	makeLog(t, filepath.Join(root, "older"), 96*time.Hour)

	pruned, err := Prune(root, 24*time.Hour, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 1 || pruned[0] != "older" {
		t.Fatalf("pruned %v, want [older]", pruned)
	}
	if _, err := os.Stat(filepath.Join(root, "old", ManifestName)); err != nil {
		t.Fatalf("keepLatest log pruned: %v", err)
	}
}

func TestPruneDirItselfAsLog(t *testing.T) {
	dir := t.TempDir()
	makeLog(t, dir, 48*time.Hour)
	// A foreign file must survive the sweep.
	foreign := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(foreign, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	pruned, err := Prune(dir, 24*time.Hour, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 1 || pruned[0] != "." {
		t.Fatalf("pruned %v, want [.]", pruned)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
		t.Fatalf("manifest still present after prune (err=%v)", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file removed by prune: %v", err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("dir itself removed: %v", err)
	}
}

func TestPruneNoops(t *testing.T) {
	dir := t.TempDir()
	makeLog(t, filepath.Join(dir, "r1"), 48*time.Hour)
	if pruned, err := Prune(dir, 0, 0, nil); err != nil || pruned != nil {
		t.Fatalf("Prune(maxAge=0) = %v, %v, want no-op", pruned, err)
	}
	if pruned, err := Prune(filepath.Join(dir, "missing"), time.Hour, 0, nil); err != nil || pruned != nil {
		t.Fatalf("Prune(missing dir) = %v, %v, want no-op", pruned, err)
	}
	// Fresh logs and non-log directories are untouched.
	if err := os.MkdirAll(filepath.Join(dir, "plain"), 0o755); err != nil {
		t.Fatal(err)
	}
	if pruned, err := Prune(dir, 100*time.Hour, 0, nil); err != nil || len(pruned) != 0 {
		t.Fatalf("Prune(all fresh) = %v, %v, want nothing pruned", pruned, err)
	}
}

func TestPruneLeavesForeignFilesInSubdir(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "r1")
	makeLog(t, sub, 48*time.Hour)
	if err := os.WriteFile(filepath.Join(sub, "result.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	pruned, err := Prune(root, 24*time.Hour, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 1 || pruned[0] != "r1" {
		t.Fatalf("pruned %v, want [r1]", pruned)
	}
	if _, err := os.Stat(filepath.Join(sub, "result.json")); err != nil {
		t.Fatalf("foreign file removed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(sub, ManifestName)); !os.IsNotExist(err) {
		t.Fatalf("manifest survived prune (err=%v)", err)
	}
}

// TestPruneSkipExemptsLiveLogs: the skip hook protects named logs from the
// age sweep — the multi-process daemon passes a lease-liveness probe here so
// a slow run owned by another process keeps its resume state.
func TestPruneSkipExemptsLiveLogs(t *testing.T) {
	root := t.TempDir()
	makeLog(t, filepath.Join(root, "r1"), 48*time.Hour)
	makeLog(t, filepath.Join(root, "r2"), 48*time.Hour)

	pruned, err := Prune(root, 24*time.Hour, 0, func(rel string) bool { return rel == "r1" })
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 1 || pruned[0] != "r2" {
		t.Fatalf("pruned %v, want [r2] (r1 skipped)", pruned)
	}
	if _, err := os.Stat(filepath.Join(root, "r1", ManifestName)); err != nil {
		t.Fatalf("skipped log r1 was pruned: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "r2")); !os.IsNotExist(err) {
		t.Fatalf("unskipped log r2 still present (err=%v)", err)
	}
}

func TestPruneThenResumeStartsFresh(t *testing.T) {
	dir := t.TempDir()
	makeLog(t, dir, 48*time.Hour)
	if _, err := Prune(dir, 24*time.Hour, 0, nil); err != nil {
		t.Fatal(err)
	}
	// A pruned directory must look like "nothing to resume".
	if _, err := Open(dir, "fp"); !os.IsNotExist(err) {
		t.Fatalf("Open after prune = %v, want os.ErrNotExist", err)
	}
}

// TestDiscard: a discarded log is gone whether it was whole or had already
// lost its manifest (a Discard killed after its first step), Open then finds
// nothing to resume, and foreign files keep their directory.
func TestDiscard(t *testing.T) {
	root := t.TempDir()
	whole, orphans, foreign := filepath.Join(root, "whole"), filepath.Join(root, "orphans"), filepath.Join(root, "foreign")
	makeLog(t, whole, 0)
	makeLog(t, orphans, 0)
	if err := os.Remove(filepath.Join(orphans, ManifestName)); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{whole, orphans, filepath.Join(root, "never-existed")} {
		if err := Discard(dir); err != nil {
			t.Fatalf("Discard(%s): %v", dir, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%s still present after Discard (err=%v)", dir, err)
		}
		if _, err := Open(dir, "fp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Open(%s) after Discard = %v, want os.ErrNotExist", dir, err)
		}
	}
	makeLog(t, foreign, 0)
	if err := os.WriteFile(filepath.Join(foreign, "notes.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Discard(foreign); err != nil {
		t.Fatal(err)
	}
	if rest, err := os.ReadDir(foreign); err != nil || len(rest) != 1 || rest[0].Name() != "notes.txt" {
		t.Fatalf("Discard left %v (%v), want only notes.txt", rest, err)
	}
}
