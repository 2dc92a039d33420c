package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/arda-ml/arda/internal/atomicio"
	"github.com/arda-ml/arda/internal/lease"
)

// peakRSSMB reads VmHWM, the peak resident set size, of a live process from
// /proc/<pid>/status. It returns 0 where /proc does not offer it.
func peakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	return parseVmHWM(raw)
}

func selfPeakRSSMB() float64 { return peakRSSMB(os.Getpid()) }

// parseVmHWM extracts "VmHWM:   123456 kB" from a /proc status file, in MB.
func parseVmHWM(status []byte) float64 {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// diskProbes calibrates this sandbox's disk through the two durability
// primitives every service write goes through: an fsynced atomic file write
// and a lease acquire/renew/release cycle.
func (h *harness) diskProbes() error {
	dir := filepath.Join(h.root, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const writes = 100
	payload := bytes.Repeat([]byte{'x'}, 4096)
	durs := make([]float64, 0, writes)
	for i := 0; i < writes; i++ {
		t0 := time.Now()
		if err := atomicio.WriteFileBytes(filepath.Join(dir, "record.json"), payload); err != nil {
			return fmt.Errorf("atomicio probe: %w", err)
		}
		durs = append(durs, micros(time.Since(t0)))
	}
	h.m["atomicio.write_4k_us"] = median(durs)

	const cycles = 200
	path := filepath.Join(dir, lease.FileName)
	acquire := make([]float64, 0, cycles)
	renew := make([]float64, 0, cycles)
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		l, err := lease.Acquire(path, lease.Options{RunID: "probe", Owner: "bench", Token: int64(i + 1), TTL: time.Minute})
		if err != nil {
			return fmt.Errorf("lease probe: acquire: %w", err)
		}
		acquire = append(acquire, micros(time.Since(t0)))
		t0 = time.Now()
		if err := l.Renew(); err != nil {
			return fmt.Errorf("lease probe: renew: %w", err)
		}
		renew = append(renew, micros(time.Since(t0)))
		if err := l.Release(); err != nil {
			return fmt.Errorf("lease probe: release: %w", err)
		}
	}
	h.m["lease.acquire_us"] = median(acquire)
	h.m["lease.renew_us"] = median(renew)
	return nil
}

// countCodeLines walks the module rooted at root and counts the lines of
// non-test .go files: per tracked package under internal/, and in total.
// The benchmark's own directory is left out of the total so that editing
// the benchmark does not move it.
func countCodeLines(root string) (map[string]int, error) {
	counts := map[string]int{}
	tracked := map[string]bool{}
	for _, p := range layerPackages {
		tracked[p] = true
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		n, err := countLines(path)
		if err != nil {
			return err
		}
		counts["total"] += n
		parts := strings.Split(filepath.ToSlash(rel), "/")
		if len(parts) == 3 && parts[0] == "internal" && tracked[parts[1]] {
			counts[parts[1]] += n
		}
		return nil
	})
	return counts, err
}

func countLines(path string) (int, error) {
	raw, err := os.ReadFile(path)
	return bytes.Count(raw, []byte{'\n'}), err
}

func (h *harness) codeLines() error {
	counts, err := countCodeLines(h.moduleRoot)
	if err != nil {
		return err
	}
	for name, n := range counts {
		h.m["code.lines."+name] = float64(n)
	}
	return nil
}
