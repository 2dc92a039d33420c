package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
)

// payload mirrors the shape core snapshots: a table plus scalar progress.
type payload struct {
	Work  *dataframe.Table
	Kept  []string
	Round int
}

func samplePayload(round int) payload {
	return payload{
		Work: dataframe.MustNewTable("work",
			dataframe.NewNumeric("x", []float64{1, 2, 3}),
			dataframe.NewCategorical("c", []string{"a", "b", "a"}),
		),
		Kept:  []string{"x", "cand.y"},
		Round: round,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, "run-1", "fp-abc", 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Save("prefilter", 0, samplePayload(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Save("join", 101, samplePayload(1)); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, "fp-abc")
	if err != nil {
		t.Fatal(err)
	}
	if re.RunID() != "run-1" || re.Seed() != 42 {
		t.Fatalf("identity lost: runID=%q seed=%d", re.RunID(), re.Seed())
	}
	last, ok := re.Latest()
	if !ok || last.Stage != "join" || last.Seq != 1 || last.StageSeed != 101 {
		t.Fatalf("latest entry = %+v", last)
	}
	var got payload
	if err := re.Load(1, &got); err != nil {
		t.Fatal(err)
	}
	if got.Round != 1 || len(got.Kept) != 2 || got.Work == nil {
		t.Fatalf("payload = %+v", got)
	}
	if got.Work.Digest() != samplePayload(1).Work.Digest() {
		t.Fatal("table changed across checkpoint round trip")
	}
}

func TestSaveResumeAppendContinues(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, "r", "fp", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Save("prefilter", 0, samplePayload(0)); err != nil {
		t.Fatal(err)
	}
	// A resumed process appends where the first left off.
	re, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Save("coreset", 7, samplePayload(1)); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	entries := re2.Entries()
	if len(entries) != 2 || entries[1].Stage != "coreset" || entries[1].Seq != 1 {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestOpenNoManifestIsNotExist(t *testing.T) {
	if _, err := Open(t.TempDir(), "fp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

func TestOpenFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, "r", "fp-old", 1); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, "fp-new")
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
	if !strings.Contains(err.Error(), "fp-old") || !strings.Contains(err.Error(), "fp-new") {
		t.Fatalf("mismatch error should show both fingerprints: %v", err)
	}
}

func TestCreateClearsStaleRun(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, "old", "fp", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Save("prefilter", 0, samplePayload(0)); err != nil {
		t.Fatal(err)
	}
	// A stray temp file from a crashed write must be swept too, and an
	// unrelated file must survive.
	if err := os.WriteFile(filepath.Join(dir, "000-x.shard.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, "new", "fp2", 2); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := map[string]bool{ManifestName: true, "notes.txt": true}
	if len(names) != 2 || !want[names[0]] || !want[names[1]] {
		t.Fatalf("dir after Create = %v", names)
	}
	re, err := Open(dir, "fp2")
	if err != nil {
		t.Fatal(err)
	}
	if re.RunID() != "new" || len(re.Entries()) != 0 {
		t.Fatalf("stale state leaked: runID=%q entries=%d", re.RunID(), len(re.Entries()))
	}
}

func TestTruncateRewindsAndDeletesShards(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, "r", "fp", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, stage := range []string{"prefilter", "coreset", "join"} {
		if err := l.Save(stage, int64(i), samplePayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := Truncate(dir, 1); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	entries := re.Entries()
	if len(entries) != 1 || entries[0].Stage != "prefilter" {
		t.Fatalf("entries after truncate = %+v", entries)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name(), shardSuffix) && f.Name() != entries[0].Shard {
			t.Fatalf("dropped shard %s not deleted", f.Name())
		}
	}
	// Truncate to 0 = run that crashed before its first checkpoint.
	if err := Truncate(dir, 0); err != nil {
		t.Fatal(err)
	}
	re0, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(re0.Entries()) != 0 {
		t.Fatal("truncate to 0 left entries")
	}
	if err := Truncate(dir, 5); err == nil {
		t.Fatal("truncate past end should error")
	}
}

func TestNilLogNoOps(t *testing.T) {
	var l *Log
	if err := l.Save("prefilter", 0, samplePayload(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Latest(); ok {
		t.Fatal("nil log has a latest entry")
	}
	if l.Entries() != nil || l.RunID() != "" || l.Seed() != 0 || l.Dir() != "" {
		t.Fatal("nil log accessors not zero")
	}
	if err := l.Load(0, &payload{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil log Load err = %v", err)
	}
}

func TestLoadOutOfRange(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, "r", "fp", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Load(0, &payload{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
