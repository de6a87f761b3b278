// Package rodinia assembles the paper's benchmark suite (Table II): the 20
// Rodinia benchmarks, each with its invocation parameters, a calibrated
// execution-time model (package perfmodel) for distribution-accurate
// simulation, and a real Go kernel implementation (package kernels) so the
// launcher can also execute genuine work.
package rodinia

import (
	"fmt"

	"sharp/internal/kernels"
	"sharp/internal/perfmodel"
)

// Benchmark is one Table II entry.
type Benchmark struct {
	// Name is the benchmark identifier (e.g. "hotspot-CUDA").
	Name string
	// Params is the parameter string from Table II.
	Params string
	// CUDA marks GPU benchmarks.
	CUDA bool
	// Model is the calibrated execution-time model for simulation.
	Model *perfmodel.Model
	// NewKernel constructs the real compute kernel for this benchmark.
	// CUDA variants run the same algorithm at reduced scale (standing in
	// for the device executing faster than the host).
	NewKernel func(seed uint64) kernels.Kernel
}

// kernelFor maps a benchmark base name to its kernel constructor; the cuda
// flag selects a smaller problem size.
func kernelFor(base string, cuda bool) func(uint64) kernels.Kernel {
	scale := 1
	if cuda {
		scale = 4 // CUDA variants: same algorithm, quarter-size stand-in
	}
	switch base {
	case "backprop":
		return func(s uint64) kernels.Kernel { return kernels.NewBackprop(64/scale, 16, 512/scale, s) }
	case "bfs":
		return func(s uint64) kernels.Kernel { return kernels.NewBFS(16384/scale, 6, s) }
	case "heartwall":
		return func(s uint64) kernels.Kernel { return kernels.NewHeartwall(20/scale+2, 20, 128, s) }
	case "hotspot":
		return func(s uint64) kernels.Kernel { return kernels.NewHotspot(256/scale, 20, s) }
	case "leukocyte":
		return func(s uint64) kernels.Kernel { return kernels.NewLeukocyte(5, 4, 96, s) }
	case "srad":
		return func(s uint64) kernels.Kernel { return kernels.NewSRAD(128/scale, 128/scale, 8, 0.5, s) }
	case "needle":
		return func(s uint64) kernels.Kernel { return kernels.NewNeedle(2048/scale, 10, s) }
	case "kmeans":
		return func(s uint64) kernels.Kernel { return kernels.NewKMeans(4096/scale, 8, 4, 10, s) }
	case "lavaMD":
		return func(s uint64) kernels.Kernel { return kernels.NewLavaMD(4, 32/scale, s) }
	case "lud":
		return func(s uint64) kernels.Kernel { return kernels.NewLUD(128/scale, s) }
	case "sc":
		return func(s uint64) kernels.Kernel { return kernels.NewStreamCluster(8192/scale, 16, 40, s) }
	default:
		return nil
	}
}

// Suite returns the 20 benchmarks in Table II order.
func Suite() []Benchmark {
	models := perfmodel.All()
	out := make([]Benchmark, 0, len(models))
	for _, m := range models {
		base := m.Bench
		cuda := m.CUDA
		if cuda {
			base = base[:len(base)-len("-CUDA")]
		}
		out = append(out, Benchmark{
			Name:      m.Bench,
			Params:    m.Params,
			CUDA:      cuda,
			Model:     m,
			NewKernel: kernelFor(base, cuda),
		})
	}
	return out
}

// ByName returns the benchmark with the given name.
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("rodinia: unknown benchmark %q", name)
}

// CPU returns the 11 CPU benchmarks.
func CPU() []Benchmark {
	var out []Benchmark
	for _, b := range Suite() {
		if !b.CUDA {
			out = append(out, b)
		}
	}
	return out
}

// CUDA returns the 9 GPU benchmarks.
func CUDA() []Benchmark {
	var out []Benchmark
	for _, b := range Suite() {
		if b.CUDA {
			out = append(out, b)
		}
	}
	return out
}
