package core

import (
	"testing"

	"repro/internal/dag"
)

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{Slaves: 2, Threads: 2}.withDefaults(dag.Square(64))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.ProcPartition.Valid() || !cfg.ThreadPartition.Valid() {
		t.Fatal("partitions not defaulted")
	}
	if cfg.TaskTimeout <= 0 || cfg.SubTaskTimeout <= 0 || cfg.CheckInterval <= 0 {
		t.Fatal("timeouts not defaulted")
	}
	if cfg.BCWBlockCols != 1 {
		t.Fatal("BCWBlockCols not defaulted")
	}
}

func TestConfigDefaultsExtensions(t *testing.T) {
	cfg, err := Config{Slaves: 1, Threads: 1}.withDefaults(dag.Square(16))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxAttempts != 4 {
		t.Fatalf("MaxAttempts default = %d", cfg.MaxAttempts)
	}
	cfg, err = Config{Slaves: 1, Threads: 1, Policy: PolicyAffinity}.withDefaults(dag.Square(16))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.DeltaShipping {
		t.Fatal("PolicyAffinity must imply DeltaShipping")
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
