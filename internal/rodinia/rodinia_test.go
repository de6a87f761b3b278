package rodinia

import (
	"testing"
)

func TestSuiteMatchesTableII(t *testing.T) {
	suite := Suite()
	if len(suite) != 20 {
		t.Fatalf("suite size = %d, want 20", len(suite))
	}
	if len(CPU()) != 11 || len(CUDA()) != 9 {
		t.Fatalf("CPU/CUDA split = %d/%d, want 11/9", len(CPU()), len(CUDA()))
	}
	// Spot-check Table II parameter strings.
	params := map[string]string{
		"backprop":     "6553600",
		"bfs":          "graph1MW_6.txt",
		"hotspot":      "1024, 1024, 2, 4, temp_1024, power_1024",
		"hotspot-CUDA": "1024, 2, 4, temp_512, power_512",
		"kmeans":       "4, kdd_cup",
		"lud":          "8000",
		"lud-CUDA":     "1024",
		"sc":           "10, 20, 256, 65536, 65536, 1000, none, 4",
	}
	for name, want := range params {
		b, err := ByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if b.Params != want {
			t.Errorf("%s params = %q, want %q", name, b.Params, want)
		}
	}
}

func TestEveryBenchmarkHasKernelAndModel(t *testing.T) {
	for _, b := range Suite() {
		if b.Model == nil {
			t.Errorf("%s: no perf model", b.Name)
		}
		if b.NewKernel == nil {
			t.Errorf("%s: no kernel", b.Name)
			continue
		}
		k := b.NewKernel(1)
		if k == nil {
			t.Errorf("%s: kernel constructor returned nil", b.Name)
		}
	}
}

func TestCUDAKernelsRun(t *testing.T) {
	// CUDA stand-ins are quarter scale; they must still run and verify.
	for _, b := range CUDA() {
		k := b.NewKernel(3)
		res, err := k.Run()
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		if err := k.Verify(res); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestNamesOrdered(t *testing.T) {
	names := Names()
	if len(names) != 20 || names[0] != "backprop" {
		t.Fatalf("names = %v", names)
	}
}

// Names returns all benchmark names in Table II order.
func Names() []string {
	suite := Suite()
	out := make([]string, len(suite))
	for i, b := range suite {
		out[i] = b.Name
	}
	return out
}
