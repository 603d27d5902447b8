package core_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the suite if a run leaves a sender, a receive loop or a
// control tick behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
