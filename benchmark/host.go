package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostFacts says where the numbers were measured. Latencies are the
// sandbox's — page-cache reads, whatever fsync costs on the filesystem of
// -dir — not a device's.
type hostFacts struct {
	GitCommit  string `json:"git_commit"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
	DirFS      string `json:"dir_filesystem"`
}

func collectHostFacts(dir string) hostFacts {
	h := hostFacts{
		GitCommit:  "unknown",
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     "unknown",
		DirFS:      "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if fs := filesystemOf(dir); fs != "" {
		h.DirFS = fs
	}
	return h
}

// filesystemOf finds the type of the mount that holds dir: the longest
// mount point in /proc/mounts that is a prefix of it.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return ""
	}
	best, fs := "", ""
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
