package testenv

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// fusedOp matches arm64's fused multiply-add family in a -S listing, with the
// source position the compiler attributes it to.
var fusedOp = regexp.MustCompile(`\(([^()]+\.go):(\d+)\)\s+(F(?:N?M(?:ADD|SUB))[DS])\s`)

// NoFusedMultiplyAdd fails t if an arm64 build of the package in the current
// directory (a test's package) fuses a multiply into an add in one of the
// package's own files.
//
// The Go spec lets a compiler fuse x*y + z into one rounding, and arm64 does;
// amd64 never does, and every golden and fingerprint of the pipeline was
// computed unfused. A gated package therefore wraps each product of its sums
// in an explicit float64(...), which the spec says rounds, so an arm64 build
// computes the amd64 bits. This cross-compiles the package for arm64 with
// -gcflags=-S and reports every fused instruction attributed to one of its
// own files, naming the file and line. (Code inlined from other packages is
// theirs to wrap.)
//
// math.Exp picks an FMA path by CPU on amd64 too; no pin depends on those
// bits today (tier 1 passes under GODEBUG=cpu.fma=off), so it is not gated.
func NoFusedMultiplyAdd(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("cross-compiles the package")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		t.Skipf("no go tool at %s", goTool)
	}
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goTool, "build", "-gcflags=-S", "-o", os.DevNull, ".")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "GOOS=linux", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cross-compiling for arm64: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "TEXT") {
		t.Fatal("the arm64 build printed no listing")
	}
	for _, f := range fusedIn(string(out), dir) {
		t.Errorf("%s fuses a multiply into an add; wrap the product in float64(...)", f)
	}
}

// fusedIn returns "file.go:line: OP" for each fused multiply-add of an -S
// listing that the compiler attributes to a file directly in dir.
func fusedIn(listing, dir string) []string {
	var found []string
	for _, m := range fusedOp.FindAllStringSubmatch(listing, -1) {
		if file := m[1]; filepath.Dir(file) == dir {
			found = append(found, filepath.Base(file)+":"+m[2]+": "+m[3])
		}
	}
	return found
}
