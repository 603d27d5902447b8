package fleet_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the suite if a fleet, a worker or the harness leaves a
// goroutine behind once closed.
func TestMain(m *testing.M) { leakcheck.Main(m) }
