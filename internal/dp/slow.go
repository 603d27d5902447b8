package dp

import (
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Slow returns p with its kernel slowed down: each row segment the runtime
// computes sleeps perCell a cell after the kernel has computed it. The
// answers are p's; only wall time changes. It is for the tests that need
// a block to take time — a member killed on its k-th task, a job
// cancelled or holding a run slot, a stale answer landing mid-run — since
// the runtime itself computes at the kernel's own speed.
func Slow[T any](p core.Problem[T], perCell time.Duration) core.Problem[T] {
	p.Kernel = slow[T]{Kernel: p.Kernel, perCell: perCell}
	return p
}

type slow[T any] struct {
	core.Kernel[T]
	perCell time.Duration
}

func (k slow[T]) Row(v *matrix.View[T], i, j0 int, out []T) {
	k.Kernel.Row(v, i, j0, out)
	time.Sleep(time.Duration(len(out)) * k.perCell)
}
