package core

import (
	"math"
	"testing"
)

func TestJitterFactorDeterministicAndBounded(t *testing.T) {
	const amp = 0.3
	var sum float64
	for proc := int32(0); proc < 512; proc++ {
		f1 := jitterFactor(proc, amp)
		if f1 < 1-amp || f1 >= 1+amp {
			t.Fatalf("factor %v outside [%v, %v)", f1, 1-amp, 1+amp)
		}
		sum += f1
	}
	// The mean over many tasks should be close to 1 (unbiased total work).
	if mean := sum / 512; math.Abs(mean-1) > 0.05 {
		t.Fatalf("mean factor %v deviates from 1", mean)
	}
	// Distinct tasks should not all share a factor.
	if jitterFactor(1, amp) == jitterFactor(2, amp) &&
		jitterFactor(2, amp) == jitterFactor(3, amp) {
		t.Fatal("jitter factors look constant across tasks")
	}
}

func TestJitterFactorDisabled(t *testing.T) {
	if jitterFactor(5, 0) != 1 || jitterFactor(5, -1) != 1 {
		t.Fatal("amp <= 0 must disable jitter")
	}
}
