package server_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the suite if a test leaves a manager's run slots, a fleet
// reader or an in-process worker behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
