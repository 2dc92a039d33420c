// Package checkpoint is a crash-safe, stage-granular run log: the durability
// substrate behind core.Options.CheckpointDir. A Log owns one run directory
// holding a manifest plus one gob "shard" per checkpointed pipeline stage;
// every file is written with the temp-file + fsync + rename + dir-fsync
// discipline (internal/atomicio), so a process killed at any instant leaves
// the directory describing some prefix of completed stages — never a torn
// state.
//
// Integrity is layered: the manifest carries its own CRC-32 (any bit flip or
// truncation of the manifest is detected), and records a CRC-32 and byte size
// for every shard (any bit flip or truncation of a shard is detected before
// its gob payload is decoded). Stale or foreign checkpoints are fenced by a
// caller-supplied fingerprint — a digest of everything that determines the
// run's output — verified on Open. Violations surface as the typed
// ErrCorrupt and ErrMismatch; the package never panics on hostile input and
// never returns partially decoded state.
//
// The Log is nil-receiver safe: a nil *Log turns Save into a free no-op, so
// the pipeline's hot path pays nothing when checkpointing is disabled.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"github.com/arda-ml/arda/internal/atomicio"
)

// Typed failures; test with errors.Is. Wrapped errors name the offending
// file (manifest or shard).
var (
	// ErrCorrupt reports a checkpoint whose manifest or shard bytes fail
	// integrity verification (CRC mismatch, truncation, undecodable payload).
	ErrCorrupt = errors.New("checkpoint: corrupt")
	// ErrMismatch reports a structurally valid checkpoint recorded under a
	// different fingerprint — it belongs to different inputs or options and
	// must not seed a resume.
	ErrMismatch = errors.New("checkpoint: fingerprint mismatch")
)

// ManifestName is the manifest file inside a run directory.
const ManifestName = "MANIFEST.arda"

// manifestMagic heads the manifest file; the hex field is the CRC-32 (IEEE)
// of everything after the first newline.
const manifestMagic = "arda-checkpoint v1 crc="

// shardSuffix names shard files; Create removes stale ones.
const shardSuffix = ".shard"

// Entry records one completed stage in the manifest, in completion order.
type Entry struct {
	// Stage names the pipeline stage the shard was saved after ("screen",
	// "select" or "evaluate").
	Stage string
	// Seq is the entry's 0-based position in the stage sequence.
	Seq int
	// Shard is the payload file name within the run directory.
	Shard string
	// CRC is the IEEE CRC-32 of the shard file's bytes.
	CRC uint32
	// Bytes is the shard file's size.
	Bytes int64
}

// manifest is the JSON document inside ManifestName.
type manifest struct {
	Fingerprint string
	Entries     []Entry
}

// Log is one run's checkpoint directory. Methods are intended for the single
// goroutine driving the pipeline's stage sequence; a nil *Log no-ops Save
// and reports no entries.
type Log struct {
	dir string
	man manifest
}

// Create initializes dir as a fresh run log, creating the directory if
// needed and removing any previous run's manifest, shards, and stray temp
// files. Only files the checkpoint log owns are touched; anything else in
// dir is left alone.
func Create(dir, fingerprint string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := removeLogFiles(dir); err != nil {
		return nil, fmt.Errorf("checkpoint: clearing stale log: %w", err)
	}
	l := &Log{dir: dir, man: manifest{Fingerprint: fingerprint}}
	if err := l.writeManifest(); err != nil {
		return nil, err
	}
	return l, nil
}

// Open loads an existing run log for resume and verifies it: manifest CRC,
// per-entry invariants, shard presence, sizes, and CRCs, then the
// fingerprint. It returns ErrCorrupt or ErrMismatch (wrapped with the
// offending file name) on any violation, and os.ErrNotExist when dir holds
// no manifest at all — the caller may treat that as "nothing to resume".
func Open(dir, fingerprint string) (*Log, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	man, err := parseManifest(raw)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, man: *man}
	seen := make(map[string]bool, len(man.Entries))
	for i, e := range man.Entries {
		if e.Seq != i || e.Shard == "" || e.Shard != filepath.Base(e.Shard) || seen[e.Shard] {
			return nil, fmt.Errorf("checkpoint: %s: entry %d (%s) malformed: %w", ManifestName, i, e.Stage, ErrCorrupt)
		}
		seen[e.Shard] = true
		if err := l.verifyShard(e); err != nil {
			return nil, err
		}
	}
	if man.Fingerprint != fingerprint {
		return nil, fmt.Errorf("checkpoint: %s: recorded fingerprint %s does not match this run's %s: %w",
			ManifestName, man.Fingerprint, fingerprint, ErrMismatch)
	}
	return l, nil
}

// parseManifest checks the self-CRC header and decodes the JSON body.
func parseManifest(raw []byte) (*manifest, error) {
	nl := bytes.IndexByte(raw, '\n')
	header := ""
	if nl >= 0 {
		header = string(raw[:nl])
	}
	if nl < 0 || !strings.HasPrefix(header, manifestMagic) {
		return nil, fmt.Errorf("checkpoint: %s: missing or mangled header: %w", ManifestName, ErrCorrupt)
	}
	var want uint32
	if _, err := fmt.Sscanf(strings.TrimPrefix(header, manifestMagic), "%08x", &want); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: unreadable header CRC: %w", ManifestName, ErrCorrupt)
	}
	body := raw[nl+1:]
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("checkpoint: %s: CRC %08x, manifest records %08x: %w", ManifestName, got, want, ErrCorrupt)
	}
	var man manifest
	if err := json.Unmarshal(body, &man); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %v: %w", ManifestName, err, ErrCorrupt)
	}
	return &man, nil
}

// verifyShard checks one shard file's existence, size, and CRC against its
// manifest entry.
func (l *Log) verifyShard(e Entry) error {
	raw, err := os.ReadFile(filepath.Join(l.dir, e.Shard))
	if err != nil {
		return fmt.Errorf("checkpoint: shard %s: %v: %w", e.Shard, err, ErrCorrupt)
	}
	if int64(len(raw)) != e.Bytes {
		return fmt.Errorf("checkpoint: shard %s: %d bytes, manifest records %d: %w", e.Shard, len(raw), e.Bytes, ErrCorrupt)
	}
	if got := crc32.ChecksumIEEE(raw); got != e.CRC {
		return fmt.Errorf("checkpoint: shard %s: CRC %08x, manifest records %08x: %w", e.Shard, got, e.CRC, ErrCorrupt)
	}
	return nil
}

// Save appends one completed stage: the payload is gob-encoded, written
// crash-safely as a new shard, and then the manifest is rewritten (also
// crash-safely) to reference it — so a crash between the two writes leaves
// the previous manifest, which simply does not know about the new shard. A
// nil *Log returns nil immediately without allocating.
func (l *Log) Save(stage string, payload any) error {
	if l == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return fmt.Errorf("checkpoint: encoding %s stage: %w", stage, err)
	}
	seq := len(l.man.Entries)
	shard := shardName(seq, stage)
	data := buf.Bytes()
	if err := atomicio.WriteFileBytes(filepath.Join(l.dir, shard), data); err != nil {
		return fmt.Errorf("checkpoint: writing shard %s: %w", shard, err)
	}
	l.man.Entries = append(l.man.Entries, Entry{
		Stage: stage,
		Seq:   seq,
		Shard: shard,
		CRC:   crc32.ChecksumIEEE(data),
		Bytes: int64(len(data)),
	})
	if err := l.writeManifest(); err != nil {
		// Roll the in-memory view back so a later Save does not reference a
		// shard the on-disk manifest never acknowledged under a reused seq.
		l.man.Entries = l.man.Entries[:seq]
		return err
	}
	return nil
}

// Load decodes the shard of entry seq into target after re-verifying its
// size and CRC. Corruption (including undecodable gob) reports ErrCorrupt
// with the shard name.
func (l *Log) Load(seq int, target any) error {
	if l == nil || seq < 0 || seq >= len(l.man.Entries) {
		return fmt.Errorf("checkpoint: no entry %d: %w", seq, ErrCorrupt)
	}
	e := l.man.Entries[seq]
	if err := l.verifyShard(e); err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(l.dir, e.Shard))
	if err != nil {
		return fmt.Errorf("checkpoint: shard %s: %v: %w", e.Shard, err, ErrCorrupt)
	}
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(target); err != nil {
		return fmt.Errorf("checkpoint: shard %s: decoding: %v: %w", e.Shard, err, ErrCorrupt)
	}
	return nil
}

// Entries returns a copy of the completed-stage records in completion order.
func (l *Log) Entries() []Entry {
	if l == nil {
		return nil
	}
	out := make([]Entry, len(l.man.Entries))
	copy(out, l.man.Entries)
	return out
}

// Latest returns the last completed stage entry, if any.
func (l *Log) Latest() (Entry, bool) {
	if l == nil || len(l.man.Entries) == 0 {
		return Entry{}, false
	}
	return l.man.Entries[len(l.man.Entries)-1], true
}

// Truncate rewinds the log in dir to its first n entries, rewriting the
// manifest atomically and deleting the dropped shards. It is the "roll back
// to stage n" primitive — also exactly the on-disk state of a run killed
// right after its nth stage checkpoint, which the crash/resume suite uses to
// exercise every stage boundary from one completed run.
func Truncate(dir string, n int) error {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return err
	}
	man, err := parseManifest(raw)
	if err != nil {
		return err
	}
	if n < 0 || n > len(man.Entries) {
		return fmt.Errorf("checkpoint: truncate to %d of %d entries", n, len(man.Entries))
	}
	dropped := man.Entries[n:]
	man.Entries = man.Entries[:n]
	l := &Log{dir: dir, man: *man}
	if err := l.writeManifest(); err != nil {
		return err
	}
	for _, e := range dropped {
		if err := os.Remove(filepath.Join(dir, e.Shard)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return atomicio.SyncDir(dir)
}

// writeManifest rewrites the manifest crash-safely with a fresh self-CRC.
func (l *Log) writeManifest() error {
	body, err := json.MarshalIndent(&l.man, "", "  ")
	if err != nil {
		return err
	}
	head := fmt.Sprintf("%s%08x\n", manifestMagic, crc32.ChecksumIEEE(body))
	if err := atomicio.WriteFileBytes(filepath.Join(l.dir, ManifestName), append([]byte(head), body...)); err != nil {
		return fmt.Errorf("checkpoint: writing manifest: %w", err)
	}
	return nil
}

// shardName builds a shard file name from sequence and stage — e.g.
// "003-join.shard".
func shardName(seq int, stage string) string {
	return fmt.Sprintf("%03d-%s%s", seq, stage, shardSuffix)
}
