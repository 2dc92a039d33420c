package dataframe_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/synth"
	"github.com/arda-ml/arda/internal/testenv"
)

// writeFiles writes name → content under a fresh directory.
func writeFiles(t testing.TB, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// ReadCSVDir returns tables in file-name order, skips what is not a CSV
// file, and gives the same answer at any worker count.
func TestReadCSVDirNameOrderAtAnyWorkerCount(t *testing.T) {
	files := map[string]string{"notes.txt": "not,a,table\n", "UPPER.CSV": "k\n1\n"}
	for i := 0; i < 24; i++ {
		files[fmt.Sprintf("t%02d.csv", i)] = fmt.Sprintf("id,v\n%d,x\n%d,y\n", i, i+1)
	}
	dir := writeFiles(t, files)
	if err := os.Mkdir(filepath.Join(dir, "sub.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	defer parallel.SetMaxWorkers(0)
	var digests []uint64
	for _, workers := range []int{1, 8} {
		parallel.SetMaxWorkers(workers)
		tables, err := dataframe.ReadCSVDir(dir)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(tables) != 25 || tables[0].Name() != "UPPER" {
			t.Fatalf("workers=%d: %d tables, first %q; want 25 with UPPER first", workers, len(tables), tables[0].Name())
		}
		for i, tab := range tables[1:] {
			if want := fmt.Sprintf("t%02d", i); tab.Name() != want {
				t.Fatalf("workers=%d: table %d is %q, want %q", workers, i+1, tab.Name(), want)
			}
			if workers == 1 {
				digests = append(digests, tab.Digest())
			} else if tab.Digest() != digests[i] {
				t.Fatalf("table %q differs between 1 and 8 workers", tab.Name())
			}
		}
	}
}

// With several malformed files among many, the error is the one a serial
// loader would hit first — the lowest file name — at any worker count.
func TestReadCSVDirReportsLowestNameError(t *testing.T) {
	files := map[string]string{}
	for i := 0; i < 24; i++ {
		files[fmt.Sprintf("t%02d.csv", i)] = "id,v\n1,x\n"
	}
	files["t07.csv"] = "id,v\n1,Inf\n"    // non-finite cell
	files["t15.csv"] = "id,id\n1,2\n"     // duplicate header
	files["t21.csv"] = "id,v\n\"open,x\n" // unterminated quote
	dir := writeFiles(t, files)
	defer parallel.SetMaxWorkers(0)
	var first string
	for _, workers := range []int{1, 8} {
		parallel.SetMaxWorkers(workers)
		for rep := 0; rep < 5; rep++ {
			_, err := dataframe.ReadCSVDir(dir)
			if err == nil || !strings.Contains(err.Error(), "loading t07.csv") || !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("workers=%d: error = %v, want the t07.csv non-finite error", workers, err)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("workers=%d: error %q differs from %q", workers, err, first)
			}
		}
	}
	if _, err := dataframe.ReadCSVDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("a missing directory must be an error")
	}
}

// BenchmarkReadCSVDir times loading the wide-repo benchmark corpus (school-l
// ×1, 351 files) and reports speedup_x at 1 worker vs all cores.
func BenchmarkReadCSVDir(b *testing.B) {
	c := synth.SchoolL(synth.Config{Seed: 1, Scale: 1})
	dir := b.TempDir()
	var bytes int64
	for _, t := range append([]*dataframe.Table{c.Base}, c.Repo...) {
		path := filepath.Join(dir, t.Name()+".csv")
		if err := t.WriteCSVFile(path); err != nil {
			b.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		bytes += st.Size()
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	testenv.BenchSpeedup(b, func() {
		if _, err := dataframe.ReadCSVDir(dir); err != nil {
			b.Fatal(err)
		}
	})
}
