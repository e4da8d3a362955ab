// Package leakcheck is the TestMain end of the engine's lifetime rules
// (DESIGN.md §14). After a package's tests have passed it fails the
// test binary when
//
//   - a pager the tests opened, closed or not, still lends out a
//     reader, a view or a pool pin (pager.Outstanding); or
//   - a goroutine running this module's code is still alive once the
//     stragglers have had a moment to finish.
//
// Closing does not excuse a pin: a failed open closes the pager it
// opened, and a reader leaked on that error path still holds a pool pin.
//
// A test package wires it in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// It finds the pagers through pager.OpenHook, so it sees every pager
// newPager builds, however deep in the stack it was opened.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pager"
)

// drain is how long goroutines get to finish after the last test.
const drain = 3 * time.Second

type tracked struct {
	p   *pager.Pager
	pcs []uintptr // the stack that opened it
}

var (
	mu     sync.Mutex
	opened []tracked
	// prune is the length at which closed pagers that lend nothing out
	// are next forgotten, so a package that opens thousands of pagers
	// keeps only the open and the leaking ones.
	prune = 64
)

// Main runs m's tests and exits, with status 1 if they passed but left
// a leak behind.
func Main(m *testing.M) {
	pager.OpenHook = track
	code := m.Run()
	if code == 0 {
		if leaks := report(); len(leaks) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: the tests passed but left %d leak(s):\n\n%s\n", len(leaks), strings.Join(leaks, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

func track(p *pager.Pager) {
	pcs := make([]uintptr, 16)
	pcs = pcs[:runtime.Callers(3, pcs)]
	mu.Lock()
	defer mu.Unlock()
	if len(opened) >= prune {
		opened = slices.DeleteFunc(opened, func(t tracked) bool { return t.p.Closed() && !lending(t.p) })
		prune = max(64, 2*len(opened))
	}
	opened = append(opened, tracked{p, pcs})
}

// report describes the module goroutines still running after the drain,
// then the pagers still lending pages out. Goroutines come first
// because a straggler may hold a pin it is about to release.
func report() []string {
	leaks := goroutines()
	for deadline := time.Now().Add(drain); len(leaks) > 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		leaks = goroutines()
	}
	mu.Lock()
	defer mu.Unlock()
	for _, t := range opened {
		if readers, pins := t.p.Outstanding(); readers > 0 || pins > 0 {
			leaks = append(leaks, fmt.Sprintf("pager %s holds %d reader(s) or view(s) and %d pool pin(s); opened at\n%s",
				t.p.Path(), readers, pins, frames(t.pcs)))
		}
	}
	return leaks
}

func lending(p *pager.Pager) bool {
	readers, pins := p.Outstanding()
	return readers > 0 || pins > 0
}

// goroutines returns the stack of every goroutine, other than the
// caller's, with a frame of this module in it.
func goroutines() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // the caller's comes first
		for _, line := range strings.Split(g, "\n") {
			line = strings.TrimPrefix(line, "created by ")
			if strings.HasPrefix(line, "repro.") || strings.HasPrefix(line, "repro/") {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// frames formats the module's frames of a recorded stack.
func frames(pcs []uintptr) string {
	var b strings.Builder
	fs := runtime.CallersFrames(pcs)
	for {
		f, more := fs.Next()
		if strings.HasPrefix(f.Function, "repro") {
			fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
		}
		if !more {
			return b.String()
		}
	}
}
