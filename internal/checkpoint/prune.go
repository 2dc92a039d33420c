package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/arda-ml/arda/internal/atomicio"
)

// Prune garbage-collects stale run logs so a long-running daemon's per-run
// checkpoint directories do not grow without bound. It recognizes two
// layouts: dir may itself be one run log (MANIFEST.arda at its top level —
// the `arda -checkpoint-dir` shape), and any immediate subdirectory of dir
// holding a manifest is an independent run log (the `ardad` per-run shape).
//
// A log is stale when its manifest was last written more than maxAge ago.
// Pruning a log removes only the files the checkpoint package owns —
// manifest, shards, stray temp files — and then the containing subdirectory
// if that leaves it empty; foreign files are never touched. dir itself is
// never removed, only emptied of checkpoint files when it is a stale log.
//
// Pruning is safe to race with future runs: a pruned directory is
// indistinguishable from one that never checkpointed, and resume treats
// "nothing to resume" as a fresh start — losing a checkpoint costs recompute
// time, never correctness. maxAge <= 0 disables pruning (no-op, nil error).
// The names of the pruned logs (relative to dir) are returned.
//
// skip, when non-nil, exempts logs by relative name ("" for dir itself)
// regardless of age. Multi-process daemons pass a liveness probe here so a
// slow-but-alive run owned by another process — whose checkpoint mtimes can
// legitimately be older than the TTL while it holds a live lease — cannot
// have its resume state pruned out from under it.
func Prune(dir string, maxAge time.Duration, skip func(rel string) bool) ([]string, error) {
	if maxAge <= 0 {
		return nil, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	rels := []string{""} // "" for dir itself
	for _, e := range entries {
		if e.IsDir() {
			rels = append(rels, e.Name())
		}
	}
	cutoff := time.Now().Add(-maxAge)
	var pruned []string
	for _, rel := range rels {
		path := filepath.Join(dir, rel)
		fi, err := os.Stat(filepath.Join(path, ManifestName))
		if err != nil || !fi.ModTime().Before(cutoff) {
			continue
		}
		if skip != nil && skip(rel) {
			continue
		}
		// dir itself is only emptied of checkpoint files; a per-run
		// subdirectory goes with them unless foreign files remain in it.
		rm, name := Discard, rel
		if rel == "" {
			rm, name = removeLogFiles, "."
		}
		if err := rm(path); err != nil {
			return pruned, err
		}
		pruned = append(pruned, name)
	}
	if len(pruned) > 0 {
		// Make the deletions durable the same way writes are.
		if err := atomicio.SyncDir(dir); err != nil {
			return pruned, err
		}
	}
	return pruned, nil
}

// Discard deletes the run log in dir: the manifest first (made durable
// before anything else goes), then every shard and stray temp file, then dir
// itself when that leaves it empty. A process killed mid-delete therefore
// leaves "no manifest" — which Open reports as os.ErrNotExist, nothing to
// resume — never a manifest naming shards that are gone. Foreign files, and
// a directory still holding them, are left in place; a missing dir is not an
// error.
func Discard(dir string) error {
	if err := removeLogFiles(dir); err != nil {
		return err
	}
	if err := os.Remove(dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		if rest, rerr := os.ReadDir(dir); rerr == nil && len(rest) > 0 {
			return nil
		}
		return err
	}
	return nil
}

// removeLogFiles is Discard without the final rmdir — the ownership rule
// Create applies when clearing a directory for reuse.
func removeLogFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	if err := os.Remove(filepath.Join(dir, ManifestName)); err == nil {
		if err := atomicio.SyncDir(dir); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, e := range entries {
		if name := e.Name(); name != ManifestName && ownedFile(name) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}

// ownedFile reports whether the checkpoint package owns a file of this name
// inside a run log directory.
func ownedFile(name string) bool {
	return name == ManifestName ||
		strings.HasSuffix(name, shardSuffix) ||
		strings.HasSuffix(name, shardSuffix+atomicio.TempSuffix) ||
		name == ManifestName+atomicio.TempSuffix
}
