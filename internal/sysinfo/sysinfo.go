// Package sysinfo collects the System Under Test metadata that SHARP embeds
// in every experiment record (§IV-d): hardware, OS, memory, and software
// versions. Complete SUT description is one of the paper's reproducibility
// criteria ("Process" facet, §III-A).
package sysinfo

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// SUT describes a System Under Test. For real runs it is collected from the
// host; for simulated runs it is synthesized from a machine model so that
// records always carry a complete description either way.
type SUT struct {
	Hostname  string `json:"hostname"`
	OS        string `json:"os"`
	Kernel    string `json:"kernel"`
	Arch      string `json:"arch"`
	CPUModel  string `json:"cpu_model"`
	CPUCores  int    `json:"cpu_cores"`
	MemoryMB  int64  `json:"memory_mb"`
	GPUModel  string `json:"gpu_model"`
	GoVersion string `json:"go_version"`
	// Simulated marks SUTs synthesized from a machine model rather than
	// probed from hardware.
	Simulated bool `json:"simulated"`
}

// Collect probes the local host. Failures to read optional sources (/proc
// files on non-Linux systems) degrade to empty fields, never errors: a
// partially described SUT is better than an aborted experiment.
func Collect() SUT {
	s := SUT{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUCores:  runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	if h, err := os.Hostname(); err == nil {
		s.Hostname = h
	}
	s.Kernel = readFirstLine("/proc/version")
	s.CPUModel = procCPUModel()
	s.MemoryMB = procMemTotalMB()
	return s
}

// Fields returns the SUT as ordered key/value pairs for the metadata file.
func (s SUT) Fields() [][2]string {
	return [][2]string{
		{"hostname", s.Hostname},
		{"os", s.OS},
		{"kernel", s.Kernel},
		{"arch", s.Arch},
		{"cpu_model", s.CPUModel},
		{"cpu_cores", strconv.Itoa(s.CPUCores)},
		{"memory_mb", strconv.FormatInt(s.MemoryMB, 10)},
		{"gpu_model", s.GPUModel},
		{"go_version", s.GoVersion},
		{"simulated", strconv.FormatBool(s.Simulated)},
	}
}

// FromFields reconstructs a SUT from metadata key/value pairs; unknown keys
// are ignored so newer files parse under older code and vice versa.
func FromFields(kv map[string]string) SUT {
	atoi := func(s string) int {
		n, _ := strconv.Atoi(s)
		return n
	}
	cores := atoi(kv["cpu_cores"])
	mem, _ := strconv.ParseInt(kv["memory_mb"], 10, 64)
	sim, _ := strconv.ParseBool(kv["simulated"])
	return SUT{
		Hostname:  kv["hostname"],
		OS:        kv["os"],
		Kernel:    kv["kernel"],
		Arch:      kv["arch"],
		CPUModel:  kv["cpu_model"],
		CPUCores:  cores,
		MemoryMB:  mem,
		GPUModel:  kv["gpu_model"],
		GoVersion: kv["go_version"],
		Simulated: sim,
	}
}

// String returns a one-line description.
func (s SUT) String() string {
	gpu := s.GPUModel
	if gpu == "" {
		gpu = "no GPU"
	}
	return fmt.Sprintf("%s: %s (%d cores), %d MB RAM, %s [%s/%s]",
		s.Hostname, s.CPUModel, s.CPUCores, s.MemoryMB, gpu, s.OS, s.Arch)
}

func readFirstLine(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if sc.Scan() {
		return strings.TrimSpace(sc.Text())
	}
	return ""
}

func procCPUModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return ""
}

func procMemTotalMB() int64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "MemTotal:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseInt(fields[1], 10, 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
