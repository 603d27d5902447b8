package sim

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the suite if a run leaves a goroutine behind: the
// simulator's driver is stepped from the event loop and must start no
// sender or control tick, or a run would stop being a function of its seed.
func TestMain(m *testing.M) { leakcheck.Main(m) }
