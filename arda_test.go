package arda

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/synth"
)

// TestPublicAPIEndToEnd exercises the facade exactly as the README does:
// write a corpus to CSV, load it back, discover, augment, write the result.
func TestPublicAPIEndToEnd(t *testing.T) {
	corpus := synth.Poverty(synth.Config{Seed: 21, Scale: 0.15})
	dir := t.TempDir()
	if err := corpus.Base.WriteCSVFile(filepath.Join(dir, corpus.Base.Name()+".csv")); err != nil {
		t.Fatal(err)
	}
	for _, tab := range corpus.Repo {
		if err := tab.WriteCSVFile(filepath.Join(dir, tab.Name()+".csv")); err != nil {
			t.Fatal(err)
		}
	}

	tables, err := LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(corpus.Repo)+1 {
		t.Fatalf("loaded %d tables, want %d", len(tables), len(corpus.Repo)+1)
	}
	var base *Table
	var repo []*Table
	for _, tab := range tables {
		if tab.Name() == corpus.Base.Name() {
			base = tab
		} else {
			repo = append(repo, tab)
		}
	}
	if base == nil {
		t.Fatal("base table lost in CSV round trip")
	}

	cands := Discover(base, repo, corpus.Target)
	if len(cands) == 0 {
		t.Fatal("no candidates discovered")
	}
	res, err := Augment(base, cands, Options{Target: corpus.Target, CoresetSize: 192, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != base.NumRows() {
		t.Fatal("augmented table changed row count")
	}
	if res.FinalScore <= res.BaseScore {
		t.Fatalf("no improvement through the public API: %.3f -> %.3f", res.BaseScore, res.FinalScore)
	}

	out := filepath.Join(dir, "augmented.csv")
	if err := res.Table.WriteCSVFile(out); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumCols() != res.Table.NumCols() {
		t.Fatalf("augmented CSV round trip lost columns: %d vs %d", back.NumCols(), res.Table.NumCols())
	}
}

func TestAugmentRepositoryConvenience(t *testing.T) {
	corpus := synth.SchoolS(synth.Config{Seed: 22, Scale: 0.15})
	res, err := AugmentRepository(corpus.Base, corpus.Repo, Options{
		Target:      corpus.Target,
		CoresetSize: 192,
		Seed:        22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KeptColumns) == 0 {
		t.Fatal("nothing kept on a signal-bearing corpus")
	}
}

func TestNewSelectorNames(t *testing.T) {
	for _, m := range []Method{RIFS, RandomForest, FTest, MutualInfo, LinearSVC, Relief, AllFeatures} {
		sel, err := NewSelector(m)
		if err != nil {
			t.Fatalf("NewSelector(%s): %v", m, err)
		}
		if sel.Name() != string(m) {
			t.Fatalf("name mismatch: %q vs %q", sel.Name(), m)
		}
	}
}

// The selectors an earlier version exposed through NewSelector and deleted
// since are refused, each with an error that names it.
func TestNewSelectorRejectsRemovedNames(t *testing.T) {
	for _, m := range []Method{
		"sparse regression", "lasso", "logistic reg",
		"forward selection", "backward selection", "rfe",
	} {
		t.Run(string(m), func(t *testing.T) {
			if _, err := NewSelector(m); err == nil || !strings.Contains(err.Error(), string(m)) {
				t.Fatalf("NewSelector(%q) error = %v, want one naming it", m, err)
			}
		})
	}
}

func TestDescribeFacade(t *testing.T) {
	corpus := synth.Poverty(synth.Config{Seed: 23, Scale: 0.1})
	out := Describe(corpus.Base)
	for _, want := range []string{"poverty:", "county_id", "poverty_rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe missing %q:\n%s", want, out)
		}
	}
}

func TestNewRIFSFacade(t *testing.T) {
	sel := NewRIFS(RIFSConfig{K: 2})
	if sel.Name() != "RIFS" {
		t.Fatalf("NewRIFS name = %q", sel.Name())
	}
}
