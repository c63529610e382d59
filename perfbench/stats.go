package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a snapshot of the process's resource counters.
type procSample struct {
	cpu        time.Duration // user + system CPU (getrusage)
	gcCPU      float64       // runtime-estimated GC CPU seconds
	totalCPU   float64       // runtime-estimated total CPU seconds
	allocs     uint64        // heap objects allocated
	allocBytes uint64        // heap bytes allocated
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := procSample{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	samples := make([]metrics.Sample, len(runtimeSamples))
	copy(samples, runtimeSamples)
	metrics.Read(samples)
	s.gcCPU = float64Of(samples[0].Value)
	s.totalCPU = float64Of(samples[1].Value)
	s.allocs = uint64Of(samples[2].Value)
	s.allocBytes = uint64Of(samples[3].Value)
	return s
}

func float64Of(v metrics.Value) float64 {
	if v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

func uint64Of(v metrics.Value) uint64 {
	if v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// statusMiB reads one kB field of /proc/self/status (VmRSS, VmHWM) in MiB,
// or 0 where the file does not exist.
func statusMiB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostTicks reads the machine-wide CPU time counters of /proc/stat: the
// ticks the hypervisor ran something else while this machine's CPUs wanted
// to run (steal), and all ticks. Both are 0 where the file does not exist.
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// residentMiB returns the process's current resident set in MiB.
func residentMiB() float64 { return statusMiB("VmRSS") }

// environment stamps a result with what makes numbers comparable: results
// from different machines, Go versions or sources must not be compared.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func stampEnvironment(root string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
		Source:     sourceDigest(root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build saw
// one; a source tree without version control reports "none" and is
// identified by its source digest alone.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "none", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root (build
// outputs excluded), identifying the measured code without version control.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
