package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	arda "github.com/arda-ml/arda"
	"github.com/arda-ml/arda/internal/synth"
)

// corpusSpec says which synthetic corpus a workload runs on. The corpus is
// generated in this process from the benchmark seed; the program under test
// only ever sees the CSV files.
type corpusSpec struct {
	Name  string
	Scale float64
	gen   func(synth.Config) *synth.Corpus
}

var (
	wideRepoCorpus = corpusSpec{"school-l", 1.0, synth.SchoolL}
	tallBaseCorpus = corpusSpec{"poverty", 8, synth.Poverty}
	serviceCorpus  = corpusSpec{"poverty", 0.2, synth.Poverty}
)

// inputShape is the provenance of one generated input: enough to tell two
// result files were measured on the same amount of data.
type inputShape struct {
	Corpus   string  `json:"corpus"`
	Scale    float64 `json:"scale"`
	BaseRows int     `json:"base_rows"`
	Tables   int     `json:"tables"`
	CSVBytes int64   `json:"csv_bytes"`
}

// corpusOnDisk is what the benchmark keeps of a corpus once the CSVs are
// written: names to address it by and the planted ground truth to score
// against. The tables themselves are dropped so they do not count toward the
// measured process's memory.
type corpusOnDisk struct {
	Dir     string
	Base    string
	Target  string
	Planted map[string]bool
	Shape   inputShape
}

// writeCorpus generates the corpus for seed and writes one CSV per table
// into dir (created). It returns how long generation plus writing took.
func writeCorpus(spec corpusSpec, seed int64, dir string) (*corpusOnDisk, time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	c := spec.gen(synth.Config{Seed: seed, Scale: spec.Scale})
	out := &corpusOnDisk{
		Dir: dir, Base: c.Base.Name(), Target: c.Target, Planted: c.RelevantTables,
		Shape: inputShape{Corpus: spec.Name, Scale: spec.Scale, BaseRows: c.Base.NumRows(), Tables: len(c.Repo)},
	}
	for _, t := range append([]*arda.Table{c.Base}, c.Repo...) {
		path := filepath.Join(dir, t.Name()+".csv")
		if err := t.WriteCSVFile(path); err != nil {
			return nil, 0, fmt.Errorf("writing %s: %w", path, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, 0, err
		}
		out.Shape.CSVBytes += st.Size()
	}
	return out, time.Since(start), nil
}

// plantedHits counts how many of the kept tables carry planted signal.
func (c *corpusOnDisk) plantedHits(kept []string) int {
	hits := 0
	for _, k := range kept {
		if c.Planted[k] {
			hits++
		}
	}
	return hits
}

// quality accumulates the answer-quality metrics over runs. Each distinct
// pipeline seed is counted once, so the means do not depend on how many
// times the clock let a seed repeat.
type quality struct {
	seen                    map[int64]bool
	gain, recall, precision []float64
}

func (q *quality) add(c *corpusOnDisk, seed int64, baseScore, finalScore float64, kept []string) {
	if q.seen == nil {
		q.seen = map[int64]bool{}
	}
	if q.seen[seed] {
		return
	}
	q.seen[seed] = true
	hits := float64(c.plantedHits(kept))
	q.gain = append(q.gain, finalScore-baseScore)
	q.recall = append(q.recall, ratio(hits, float64(len(c.Planted))))
	q.precision = append(q.precision, ratio(hits, float64(len(kept))))
}

func (q *quality) into(m metricSet) {
	m["score_gain"] = mean(q.gain)
	m["table_recall"] = mean(q.recall)
	m["table_precision"] = mean(q.precision)
}
