package cli

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/server"
	"repro/internal/sim"
)

func runApp(t *testing.T, app string, n int) string {
	t.Helper()
	prob, report, err := BuildSpec(server.JobSpec{Kernel: app, N: n, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square((n + 3) / 4),
		ThreadPartition: dag.Square((n + 15) / 16),
		RunTimeout:      2 * time.Minute,
	}
	res, err := core.RunContext(context.Background(), prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report(&buf, res.Matrix())
	return buf.String()
}

func TestBuildAllApps(t *testing.T) {
	wantWords := map[string]string{
		"swgg":      "alignment score",
		"nussinov":  "base pairs",
		"editdist":  "edit distance",
		"lcs":       "LCS length",
		"knapsack":  "best value",
		"needleman": "global alignment score",
	}
	for _, app := range Apps {
		out := runApp(t, app, 48)
		if !strings.Contains(out, wantWords[app]) {
			t.Errorf("%s report %q missing %q", app, out, wantWords[app])
		}
	}
}

func TestBuildUnknownApp(t *testing.T) {
	if _, _, err := BuildSpec(server.JobSpec{Kernel: "no-such-app", N: 10, Seed: 1}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	p1, _, err := BuildSpec(server.JobSpec{Kernel: "swgg", N: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := BuildSpec(server.JobSpec{Kernel: "swgg", N: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Same flags must produce the same problem (multi-process ranks rely
	// on it). Compare through a tiny run on each.
	cfg := core.Config{Slaves: 1, Threads: 1, ProcPartition: dag.Square(8), ThreadPartition: dag.Square(4), RunTimeout: time.Minute}
	r1, err := core.RunContext(context.Background(), p1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.RunContext(context.Background(), p2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := r1.Matrix(), r2.Matrix()
	for i := range m1 {
		for j := range m1[i] {
			if m1[i][j] != m2[i][j] {
				t.Fatalf("same flags produced different problems at (%d,%d)", i, j)
			}
		}
	}
}

// TestOneMatrixPerSpec: every tool builds a (kernel, n, seed) through the
// service's kernel table, so the CLI, the simulator and the job service
// compute one matrix for it — the same size and the same sequential
// reference — for every registered kernel.
func TestOneMatrixPerSpec(t *testing.T) {
	const n, seed = 24, 5
	reg := server.NewRegistry()
	sequential := func(p core.Problem[int32]) [][]int32 {
		return p.Kernel.(interface{ Sequential() [][]int32 }).Sequential()
	}
	for _, e := range reg.Names() {
		svc, _, err := reg.Build(server.JobSpec{Kernel: e.Name, N: n, Seed: seed}, math.MaxInt64)
		if err != nil {
			t.Fatalf("service %s: %v", e.Name, err)
		}
		cli, _, err := BuildSpec(server.JobSpec{Kernel: e.Name, N: n, Seed: seed})
		if err != nil {
			t.Fatalf("cli %s: %v", e.Name, err)
		}
		simulated, ref, err := sim.BuildProblem(e.Name, n, seed)
		if err != nil {
			t.Fatalf("sim %s: %v", e.Name, err)
		}
		want := sequential(svc)
		for tool, got := range map[string]core.Problem[int32]{"cli": cli, "sim": simulated} {
			if got.Size != svc.Size {
				t.Errorf("%s: %s builds a %v matrix, the service a %v one", e.Name, tool, got.Size, svc.Size)
			} else if !slices.EqualFunc(sequential(got), want, slices.Equal[[]int32]) {
				t.Errorf("%s: %s's matrix differs from the service's", e.Name, tool)
			}
		}
		if !slices.EqualFunc(ref, want, slices.Equal[[]int32]) {
			t.Errorf("%s: the simulator checks against another reference than the service computes", e.Name)
		}
	}
}
