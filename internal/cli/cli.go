// Package cli centralizes diagnostics for the repo's commands (cmd/arda,
// cmd/ardad, cmd/datagen, cmd/tracecheck): one mutex-guarded stderr
// writer and one -v contract. Reports and data belong
// on stdout; every progress line, warning, and error flows through here, so
// verbose pipeline progress and failure output never interleave mid-line on
// stderr and quiet runs stay quiet.
package cli

import (
	"fmt"
	"io"
	"os"
	"sync"
)

var (
	mu      sync.Mutex
	name    = "arda"
	verbose bool
	stderr  io.Writer = os.Stderr
	exit              = os.Exit
)

// Setup names the tool (the prefix of every diagnostic line) and sets the
// verbosity. Call once from main after flag parsing.
func Setup(tool string, v bool) {
	mu.Lock()
	defer mu.Unlock()
	name, verbose = tool, v
}

// Progressf writes one progress line to stderr, only when verbose. Its
// signature matches core.Options.Logf, so commands pass it straight through.
func Progressf(format string, args ...any) {
	mu.Lock()
	defer mu.Unlock()
	if !verbose {
		return
	}
	fmt.Fprintf(stderr, "%s: %s\n", name, fmt.Sprintf(format, args...))
}

// Noticef writes one line to stderr regardless of verbosity — for
// operational facts the user asked for (listen addresses, output paths).
func Noticef(format string, args ...any) {
	mu.Lock()
	defer mu.Unlock()
	fmt.Fprintf(stderr, "%s: %s\n", name, fmt.Sprintf(format, args...))
}

// Errorf writes one error line to stderr regardless of verbosity.
func Errorf(format string, args ...any) {
	mu.Lock()
	defer mu.Unlock()
	fmt.Fprintf(stderr, "%s: error: %s\n", name, fmt.Sprintf(format, args...))
}

// Fatalf is Errorf followed by exit status 1.
func Fatalf(format string, args ...any) {
	Errorf(format, args...)
	exit(1)
}

// Dump writes a preformatted block (e.g. a rendered stage tree) to stderr
// under the shared lock, only when verbose.
func Dump(block string) {
	mu.Lock()
	defer mu.Unlock()
	if !verbose {
		return
	}
	io.WriteString(stderr, block)
}
