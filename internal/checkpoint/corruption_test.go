package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildRun lays down a three-stage checkpoint in dir and returns its files.
func buildRun(t *testing.T, dir string) []string {
	t.Helper()
	l, err := Create(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	for i, stage := range []string{"prefilter", "coreset", "join"} {
		if err := l.Save(stage, samplePayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// corrupt writes a mutated copy of the named file and reports whether Open
// (and, for surviving logs, Load of every entry) rejects the run with
// ErrCorrupt naming the file. Both truncation and single-bit flips must be
// caught — a checkpoint that resumes from mangled bytes is worse than no
// checkpoint at all.
func TestOpenRejectsEveryTruncationAndBitFlip(t *testing.T) {
	baseDir := t.TempDir()
	files := buildRun(t, baseDir)
	for _, name := range files {
		raw, err := os.ReadFile(filepath.Join(baseDir, name))
		if err != nil {
			t.Fatal(err)
		}
		// Truncations at several depths, including empty.
		for _, cut := range []int{0, 1, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
			if cut >= len(raw) {
				continue
			}
			assertRejected(t, baseDir, name, raw[:cut], "truncate@"+name)
		}
		// A bit flip in every region of the file: step through the bytes,
		// flipping one bit each time.
		step := len(raw)/64 + 1
		for off := 0; off < len(raw); off += step {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 0x40
			assertRejected(t, baseDir, name, mut, "bitflip@"+name)
		}
	}
}

// assertRejected clones the run, applies the mutation, and requires a typed
// ErrCorrupt that names the mangled file — never a panic, never a clean Open
// over bad bytes.
func assertRejected(t *testing.T, srcDir, victim string, mutated []byte, label string) {
	t.Helper()
	dir := t.TempDir()
	cloneRun(t, srcDir, dir)
	if err := os.WriteFile(filepath.Join(dir, victim), mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", label, r)
		}
	}()
	l, err := Open(dir, "fp")
	if err == nil {
		// Open passing is only acceptable if every Load still verifies; for a
		// CRC-covered format it should never happen, so treat it as silent
		// acceptance.
		for seq := range l.Entries() {
			if lerr := l.Load(seq, &payload{}); lerr != nil {
				err = lerr
				break
			}
		}
		if err == nil {
			t.Fatalf("%s: corruption accepted silently", label)
		}
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: err = %v, want ErrCorrupt", label, err)
	}
	if !strings.Contains(err.Error(), victim) {
		t.Fatalf("%s: error does not name the corrupt file: %v", label, err)
	}
}

func cloneRun(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A deleted shard with an intact manifest must also be rejected.
func TestOpenRejectsMissingShard(t *testing.T) {
	dir := t.TempDir()
	files := buildRun(t, dir)
	var shard string
	for _, f := range files {
		if strings.HasSuffix(f, shardSuffix) {
			shard = f
			break
		}
	}
	if shard == "" {
		t.Fatal("no shard written")
	}
	if err := os.Remove(filepath.Join(dir, shard)); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, "fp")
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), shard) {
		t.Fatalf("err = %v, want ErrCorrupt naming %s", err, shard)
	}
}

// FuzzParseManifest hammers the manifest parser with arbitrary bytes: it must
// return (typed) errors or a valid manifest, never panic.
func FuzzParseManifest(f *testing.F) {
	dir := f.TempDir()
	if _, err := Create(dir, "fp"); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(""))
	f.Add([]byte(manifestMagic + "00000000\n{}"))
	f.Add([]byte("arda-checkpoint v1 crc=zzzzzzzz\n{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		man, err := parseManifest(data)
		if err != nil && man != nil {
			t.Fatal("error with non-nil manifest")
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped parse error: %v", err)
		}
	})
}
