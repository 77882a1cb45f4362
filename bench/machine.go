package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// machine is what a reader needs to compare two reports: numbers from
// different hardware or runtime settings are not comparable.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOGC       string `json:"gogc"`
	// ScratchFS is the filesystem payg_mixed's store fsyncs to.
	ScratchFS string `json:"scratch_fs"`
}

func thisMachine(scratch string) machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		GOGC: os.Getenv("GOGC"), CPU: "unknown", ScratchFS: "unknown"}
	if m.GOGC == "" {
		m.GOGC = "100 (default)"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The mount with the longest prefix of the scratch path holds it.
	abs, err := filepath.Abs(scratch)
	if data, rerr := os.ReadFile("/proc/mounts"); err == nil && rerr == nil {
		best := -1
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			if mp := f[1]; (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
				best, m.ScratchFS = len(mp), f[2]
			}
		}
	}
	return m
}
