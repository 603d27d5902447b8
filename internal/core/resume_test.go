package core_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// A crash can tear the checkpoint mid-record (the writer died inside an
// append). Replay must stop at the last intact record and the resumed
// run must recompute exactly the torn vertex — nothing more.
func TestRestoreTornFinalRecord(t *testing.T) {
	a := dp.RandomDNA(80, 86)
	b := dp.RandomDNA(80, 87)
	e := dp.NewEditDistance(a, b)
	base := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(10), // 8x8 grid, 64 tasks
		ThreadPartition: dag.Square(4),
		RunTimeout:      time.Minute,
	}

	var ck bytes.Buffer
	cfg := base
	cfg.Checkpoint = &ck
	res1, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Tasks != 64 {
		t.Fatalf("tasks = %d, want 64", res1.Stats.Tasks)
	}
	full := ck.Bytes()

	// Tear the final record: all 64 were appended, the last is missing
	// its trailing bytes (CRC and part of the payload).
	cfg = base
	cfg.Restore = bytes.NewReader(full[:len(full)-3])
	res2, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Restored != 63 {
		t.Fatalf("restored = %d, want 63 (all intact records)", res2.Stats.Restored)
	}
	if res2.Stats.Tasks != 1 {
		t.Fatalf("computed = %d, want exactly the torn vertex", res2.Stats.Tasks)
	}
	equalMatrices(t, "torn-final-record", res2.Matrix(), e.Sequential())
}
