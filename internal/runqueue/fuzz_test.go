package runqueue

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzReadRecord feeds arbitrary run IDs and run.json bytes to the read every
// Get, List, Cancel and reaper scan makes for a run this process does not
// hold: a record or ErrNotFound, never a panic, and never a path outside the
// runs directory.
func FuzzReadRecord(f *testing.F) {
	spec := Spec{Dir: "data", Base: "poverty", Target: "poverty_rate", Size: 128, Seed: 7}
	for _, rec := range []Record{
		{ID: "r000001", Seq: 1, Spec: spec, State: StateCompleted, Result: &RunResult{TableDigest: "cafe"}},
		{ID: "r000002", Seq: 2, Spec: spec, State: StateRunning, Fence: 3, Takeovers: 2, StartedAt: time.Unix(1700000000, 0)},
		{ID: "r000000", Spec: spec, Tenant: "acme", State: StateQueued, Fence: 1},
	} {
		raw, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec.ID, raw)
	}
	f.Add("r000003", []byte("{torn"))
	f.Add("r000004", []byte(""))
	f.Add("r000005", []byte(`{"state":7,"spec":[]}`))
	f.Add("../r000001", []byte("{}"))
	f.Add("r1/../../x", []byte("{}"))

	f.Fuzz(func(t *testing.T, id string, data []byte) {
		m := &Manager{cfg: Config{StateDir: t.TempDir()}}
		_, plain := parseSeq(id)
		if plain {
			if err := os.MkdirAll(m.runDir(id), 0o755); err != nil {
				t.Skip(err) // a name the filesystem refuses (too long)
			}
			if filepath.Dir(m.runDir(id)) != filepath.Join(m.cfg.StateDir, "runs") {
				t.Fatalf("run ID %q escapes the runs directory", id)
			}
			if err := os.WriteFile(filepath.Join(m.runDir(id), "run.json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := m.readRecord(id)
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("readRecord(%q) = %v, want a record or ErrNotFound", id, err)
		}
		if !plain && err == nil {
			t.Fatalf("readRecord(%q) served %+v for a name that is no run ID", id, rec)
		}
		if err == nil && !json.Valid(data) {
			t.Fatalf("readRecord(%q) served %+v from invalid JSON", id, rec)
		}
	})
}

// FuzzSpecJSON decodes arbitrary JSON into a Spec the way a record read from
// disk (or a submission) does: Validate never panics, and a spec that
// validates survives a marshal/unmarshal round-trip unchanged and still valid
// — what persist-before-ack and every later adoption rely on.
func FuzzSpecJSON(f *testing.F) {
	for _, spec := range []Spec{
		{Dir: "data", Base: "poverty", Target: "poverty_rate", Size: 128, Seed: 7},
		{Base: "taxi", Target: "collisions", Tenant: "acme", Plan: "table", Coreset: "leverage", Soft: "nearest",
			Selector: "rifs", Tau: 0.5, Timeout: "90s", KNNImpute: 3, Transitive: true, KeepTable: true},
		{Base: "no-such-table", Target: "y", Size: 64, Tenant: "Bad Tenant!"},
		{Target: "y", Plan: "bogus"},
	} {
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"base":"b","target":"t","timeout":"-1s"}`))
	f.Add([]byte(`{"base":"b","target":"t","tau":1e308,"size":-1}`))
	f.Add([]byte(`{"base":1}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		raw, err := json.Marshal(&spec)
		if err != nil {
			t.Fatalf("valid spec %+v does not marshal: %v", spec, err)
		}
		var back Spec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("valid spec does not re-read from %s: %v", raw, err)
		}
		if back != spec {
			t.Fatalf("spec changed across a round-trip:\n  before %+v\n  after  %+v", spec, back)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec no longer validates: %v", err)
		}
	})
}
