package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// totalAllocMB is the cumulative heap allocation of the process.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// procField returns the first line of a /proc file that starts with
// prefix, without the prefix; "" when the file or the line is missing.
func procField(path, prefix string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM:"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// promCounters parses Prometheus text exposition into "name{labels}" →
// value. The benchmark reads counters only through this text, never
// through the program's Go types, so a renamed counter shows as missing
// instead of breaking the build.
func promCounters(r io.Reader) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// counterDelta is after−before for a counter, and whether it exists at all.
func counterDelta(before, after map[string]float64, name string) (float64, bool) {
	v, ok := after[name]
	return v - before[name], ok
}

// provenance records where and from what a result was measured.
type provenance struct {
	Commit     string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Time       string `json:"time"`
}

func collectProvenance(seed int64) provenance {
	// Only ask git when the working directory is a repository root: in a
	// plain checkout git would go looking through the parent directories.
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, gerr := exec.Command("git", "rev-parse", "HEAD").Output(); gerr == nil {
			commit = string(bytes.TrimSpace(out))
		}
	}
	return provenance{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}
