package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/server"
)

var registry = server.NewRegistry()

// BuildProblem constructs the named kernel's problem at size n from seed
// through the job service's kernel table (server.Registry), so a scenario
// job computes the matrix the service and the CLI tools compute for the
// same (kernel, n, seed). It returns the kernel's plain sequential
// reference beside it: what the bit-identical-results half of the
// determinism contract is checked against.
func BuildProblem(kernel string, n int, seed int64) (core.Problem[int32], [][]int32, error) {
	p, _, err := registry.Build(server.JobSpec{Kernel: kernel, N: n, Seed: seed}, math.MaxInt64)
	if err != nil {
		return core.Problem[int32]{}, nil, fmt.Errorf("sim: %w", err)
	}
	return p, p.Kernel.(interface{ Sequential() [][]int32 }).Sequential(), nil
}
