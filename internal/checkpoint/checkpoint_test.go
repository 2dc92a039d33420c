package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// payload mirrors the shape core snapshots: verdicts, never a table.
type payload struct {
	Kept  [][]string
	Score float64
	Round int
}

func samplePayload(round int) payload {
	return payload{Kept: [][]string{{"x"}, nil, {"y", "z"}}, Score: 0.75, Round: round}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, "fp-abc")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Save("screen", samplePayload(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Save("select", samplePayload(1)); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, "fp-abc")
	if err != nil {
		t.Fatal(err)
	}
	last, ok := re.Latest()
	if !ok || last.Stage != "select" || last.Seq != 1 {
		t.Fatalf("latest entry = %+v", last)
	}
	var got payload
	if err := re.Load(1, &got); err != nil {
		t.Fatal(err)
	}
	if want := samplePayload(1); got.Round != 1 || got.Score != want.Score || len(got.Kept) != 3 ||
		len(got.Kept[2]) != 2 || got.Kept[2][1] != "z" {
		t.Fatalf("payload = %+v, want %+v", got, want)
	}
}

func TestSaveResumeAppendContinues(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Save("prefilter", samplePayload(0)); err != nil {
		t.Fatal(err)
	}
	// A resumed process appends where the first left off.
	re, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Save("coreset", samplePayload(1)); err != nil {
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
	if _, err := Create(dir, "fp-old"); err != nil {
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
	l, err := Create(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Save("prefilter", samplePayload(0)); err != nil {
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
	if _, err := Create(dir, "fp2"); err != nil {
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
	if n := len(re.Entries()); n != 0 {
		t.Fatalf("stale state leaked: %d entries", n)
	}
}

func TestTruncateRewindsAndDeletesShards(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	for i, stage := range []string{"prefilter", "coreset", "join"} {
		if err := l.Save(stage, samplePayload(i)); err != nil {
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
	if err := l.Save("prefilter", samplePayload(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Latest(); ok {
		t.Fatal("nil log has a latest entry")
	}
	if l.Entries() != nil {
		t.Fatal("nil log has entries")
	}
	if err := l.Load(0, &payload{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil log Load err = %v", err)
	}
}

func TestLoadOutOfRange(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Load(0, &payload{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
