package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp identifies the code and the machine a result was measured on, so
// numbers from different commits and hosts can be told apart.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Clients    int    `json:"clients"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func newStamp(root, workload string, seed int64, workers int) stamp {
	return stamp{
		Commit:     commit(root),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Clients:    workers,
		Workload:   workload,
		Seed:       seed,
	}
}

// commit is the git HEAD of root when root is a git checkout's top
// level, with "-dirty" appended when the tree has uncommitted changes, or
// else a hash of the Go sources and module files under root.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	if f := strings.Fields(string(out)); err == nil && len(f) == 2 && f[0] == root {
		st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
		if err != nil || len(st) > 0 {
			return f[1] + "-dirty"
		}
		return f[1]
	}
	h := sha256.New()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path) // the hash must not depend on where the checkout is
		io.WriteString(h, rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
