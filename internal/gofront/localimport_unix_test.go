//go:build unix

package gofront

import (
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func childCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestLocalImportsSpawnNoChild pins that module-local imports resolve in
// process: loading every localmod package outside the fallback cases, on
// fresh importers, runs no `go list` child.
func TestLocalImportsSpawnNoChild(t *testing.T) {
	root := localmodDir(t)
	var dirs []string
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		dirs = append(dirs, filepath.Join(root, name))
	}
	before := childCPU(t)
	if _, _, err := Load(dirs, Options{FreshImporters: true}); err != nil {
		t.Fatal(err)
	}
	if spent := childCPU(t) - before; spent != 0 {
		t.Errorf("loading module-local imports spent %v in child processes, want none", spent)
	}
}
