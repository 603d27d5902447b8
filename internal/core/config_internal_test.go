package core

import (
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/matrix"
)

// zeroKernel is a kernel that computes nothing, for configuration tests.
type zeroKernel struct{}

func (zeroKernel) Pattern() dag.Pattern                       { return dag.Wavefront{} }
func (zeroKernel) Boundary(i, j int) int32                    { return 0 }
func (zeroKernel) Cell(v *matrix.View[int32], i, j int) int32 { return 0 }

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{Slaves: 2, Threads: 2}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ProcPartition.Valid() || cfg.ThreadPartition.Valid() {
		t.Fatal("withDefaults decided a partition: the job's and its runner's to decide")
	}
	if cfg.TaskTimeout <= 0 || cfg.CheckInterval != 2500*time.Millisecond {
		t.Fatalf("TaskTimeout %v, CheckInterval %v: want a default timeout and a 2.5 s tick", cfg.TaskTimeout, cfg.CheckInterval)
	}
	// The tick is a quarter of a timeout under 10 s, as it was when the
	// thread level's 10 s timeout bounded it too.
	if short, _ := (Config{Slaves: 1, Threads: 1, TaskTimeout: 200 * time.Millisecond}).withDefaults(); short.CheckInterval != 50*time.Millisecond {
		t.Fatalf("CheckInterval at TaskTimeout 200ms = %v, want 50ms", short.CheckInterval)
	}
	p := Problem[int32]{Name: "zero", Kernel: Cells[int32](zeroKernel{}), Codec: matrix.BinaryCodec[int32]{}, Size: dag.Square(64)}
	r, err := NewTaskRunner(p, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.ProcPartition != dag.DefaultPartition(p.Size) || !r.cfg.ThreadPartition.Valid() {
		t.Fatalf("runner partitions %v / %v not defaulted", r.cfg.ProcPartition, r.cfg.ThreadPartition)
	}
}

func TestConfigDefaultsExtensions(t *testing.T) {
	cfg, err := Config{Slaves: 1, Threads: 1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxAttempts != 4 {
		t.Fatalf("MaxAttempts default = %d", cfg.MaxAttempts)
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyAffinity.String() != "affinity" || Policy(99).String() == "" {
		t.Fatal("policy strings wrong")
	}
}

func TestFaultPlanEmpty(t *testing.T) {
	if !(FaultPlan{}).empty() {
		t.Fatal("zero plan should be empty")
	}
	if (FaultPlan{CrashOnTask: map[int]int{1: 1}}).empty() {
		t.Fatal("crash plan reported empty")
	}
	if newFaultState(FaultPlan{}) != nil {
		t.Fatal("empty plan should yield nil state")
	}
}
