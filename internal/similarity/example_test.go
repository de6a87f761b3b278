package similarity_test

import (
	"fmt"

	"sharp/internal/similarity"
)

// The paper's Takeaway 1 in miniature: two distributions with identical
// means — one unimodal, one bimodal. NAMD (point-summary) calls them the
// same; KS (distribution) does not.
func ExampleNAMD() {
	unimodal := []float64{9.99, 10.00, 10.01, 10.00, 9.99, 10.01, 10.00, 10.00}
	bimodal := []float64{9.80, 10.20, 9.80, 10.20, 9.80, 10.20, 9.80, 10.20}

	namd, _ := similarity.NAMDSorted(unimodal, bimodal)
	ks := similarity.KS(unimodal, bimodal)

	fmt.Printf("NAMD: %.2f (same mean => looks identical)\n", namd)
	fmt.Printf("KS:   %.2f (shape change => clearly different)\n", ks)
	// Output:
	// NAMD: 0.02 (same mean => looks identical)
	// KS:   0.50 (shape change => clearly different)
}

func ExampleKS() {
	a := []float64{1, 2, 3, 4}
	b := []float64{3, 4, 5, 6}
	fmt.Printf("%.2f\n", similarity.KS(a, b))
	// Output: 0.50
}

func ExampleComputeGroups() {
	a := similarity.NewGroup([]float64{1, 2, 3, 4, 5})
	b := similarity.NewGroup([]float64{1, 2, 3, 4, 5})
	v, _ := similarity.ComputeGroups(similarity.MetricWasserstein, a, b)
	fmt.Printf("W1 = %.1f\n", v)
	// Output: W1 = 0.0
}
