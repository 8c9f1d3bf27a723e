package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A git checkout is stamped with its HEAD, marked dirty while it has
// uncommitted changes; a plain directory with a hash of its Go sources
// that does not depend on where the directory is.
func TestCommitStamp(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		out, err := exec.Command("git", append([]string{"-C", dir, "-c", "user.name=t", "-c", "user.email=t@t"}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	write := func(dir, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write(dir, "package a\n")
	git("add", "a.go")
	git("commit", "-q", "-m", "a")
	head := git("rev-parse", "HEAD")
	if got := commit(dir); got != head {
		t.Errorf("clean checkout stamped %q, want %q", got, head)
	}
	write(dir, "package a // changed\n")
	if got := commit(dir); got != head+"-dirty" {
		t.Errorf("dirty checkout stamped %q, want %q", got, head+"-dirty")
	}

	a, b := t.TempDir(), t.TempDir()
	write(a, "package a\n")
	write(b, "package a\n")
	if ha, hb := commit(a), commit(b); ha != hb || !strings.HasPrefix(ha, "tree-") {
		t.Errorf("same sources in two directories stamped %q and %q", ha, hb)
	}
}
