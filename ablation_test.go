// Ablation benchmarks for the reproduction's central design choices: each
// one compares the paper's mechanism against the obvious alternative and
// reports both sides as metrics. The bodies live in reproduction_test.go.
package repro_test

import "testing"

func BenchmarkAblation_PerNodeScheduling(b *testing.B) {
	benchExperiment(b, "Ablation_PerNodeScheduling")
}
func BenchmarkAblation_Backoff(b *testing.B)      { benchExperiment(b, "Ablation_Backoff") }
func BenchmarkAblation_MatrixRetry(b *testing.B)  { benchExperiment(b, "Ablation_MatrixRetry") }
func BenchmarkAblation_CancelPolicy(b *testing.B) { benchExperiment(b, "Ablation_CancelPolicy") }
