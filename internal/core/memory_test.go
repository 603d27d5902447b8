package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
)

// With ReclaimBlocks the master must release consumed blocks and still
// produce a correct final corner; the peak block count stays well below
// the grid size.
func TestReclaimBlocksWavefront(t *testing.T) {
	a := dp.RandomDNA(120, 81)
	b := dp.RandomDNA(120, 82)
	e := dp.NewEditDistance(a, b)
	cfg := core.Config{
		Slaves: 3, Threads: 2,
		ProcPartition:   dag.Square(12), // 10x10 grid
		ThreadPartition: dag.Square(4),
		ReclaimBlocks:   true,
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BlocksReclaimed == 0 {
		t.Fatalf("nothing reclaimed: %+v", res.Stats)
	}
	if res.Stats.PeakBlocks >= 100 {
		t.Fatalf("peak blocks %d not below grid size 100", res.Stats.PeakBlocks)
	}
	// The bottom-right block is consumed by nobody and must survive with
	// the correct distance.
	if got, want := res.Store.Cell(119, 119), e.Sequential()[119][119]; got != want {
		t.Fatalf("final cell %d != %d", got, want)
	}
	if res.Store.Len() >= 100 {
		t.Fatalf("store still holds %d blocks", res.Store.Len())
	}
}

// Reclamation must also be correct for patterns with wide data regions
// (triangular): blocks stay alive exactly as long as a consumer remains.
func TestReclaimBlocksTriangular(t *testing.T) {
	nu := dp.NewNussinov(dp.RandomRNA(60, 83))
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(10),
		ThreadPartition: dag.Square(4),
		ReclaimBlocks:   true,
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), nu.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Store.Cell(0, 59), nu.Sequential()[0][59]; got != want {
		t.Fatalf("final cell %d != %d", got, want)
	}
	// 21 vertices on the 6x6 triangle: every block but the top-right
	// corner has a reader, so 20 are dropped and the corner alone stays,
	// and the store never held all 21 at once.
	if st := res.Stats; st.BlocksReclaimed != 20 || res.Store.Len() != 1 || st.PeakBlocks >= 21 {
		t.Fatalf("reclaimed %d, kept %d, peak %d: want 20, 1 and below 21", st.BlocksReclaimed, res.Store.Len(), st.PeakBlocks)
	}
}

func TestCheckpointRestoreFullCycle(t *testing.T) {
	a := dp.RandomDNA(80, 84)
	b := dp.RandomDNA(80, 85)
	e := dp.NewEditDistance(a, b)
	base := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(10), // 8x8 grid, 64 tasks
		ThreadPartition: dag.Square(4),
		RunTimeout:      time.Minute,
	}

	// First run: record a checkpoint.
	var ck bytes.Buffer
	cfg := base
	cfg.Checkpoint = &ck
	res1, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Tasks != 64 {
		t.Fatalf("tasks = %d", res1.Stats.Tasks)
	}
	full := ck.Bytes()

	// Simulate a crash partway: keep roughly half the checkpoint, torn
	// mid-record.
	cut := len(full) / 2
	partial := bytes.NewReader(full[:cut])

	cfg = base
	cfg.Restore = partial
	res2, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Restored == 0 {
		t.Fatal("nothing restored from checkpoint")
	}
	if res2.Stats.Restored+res2.Stats.Tasks != 64 {
		t.Fatalf("restored %d + computed %d != 64", res2.Stats.Restored, res2.Stats.Tasks)
	}
	if res2.Stats.Tasks >= 64 {
		t.Fatalf("restore saved no work: computed %d", res2.Stats.Tasks)
	}
	equalMatrices(t, "editdist-restore", res2.Matrix(), e.Sequential())
}

func TestRestoreCompleteCheckpointComputesNothing(t *testing.T) {
	nu := dp.NewNussinov(dp.RandomRNA(40, 86))
	base := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(10),
		ThreadPartition: dag.Square(5),
		RunTimeout:      time.Minute,
	}
	var ck bytes.Buffer
	cfg := base
	cfg.Checkpoint = &ck
	if _, err := core.RunContext(context.Background(), nu.Problem(), cfg); err != nil {
		t.Fatal(err)
	}

	cfg = base
	cfg.Restore = bytes.NewReader(ck.Bytes())
	res, err := core.RunContext(context.Background(), nu.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tasks != 0 {
		t.Fatalf("computed %d tasks despite complete checkpoint", res.Stats.Tasks)
	}
	equalMatrices(t, "nussinov-full-restore", res.Matrix(), nu.Sequential())
}

func TestCheckpointChaining(t *testing.T) {
	// A restored run with its own checkpoint must emit a self-contained
	// stream (restored records re-appended), so a second resume works.
	e := dp.NewEditDistance(dp.RandomDNA(60, 87), dp.RandomDNA(60, 88))
	base := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(10),
		ThreadPartition: dag.Square(5),
		RunTimeout:      time.Minute,
	}
	var ck1 bytes.Buffer
	cfg := base
	cfg.Checkpoint = &ck1
	if _, err := core.RunContext(context.Background(), e.Problem(), cfg); err != nil {
		t.Fatal(err)
	}
	half := ck1.Bytes()[:ck1.Len()/2]

	var ck2 bytes.Buffer
	cfg = base
	cfg.Restore = bytes.NewReader(half)
	cfg.Checkpoint = &ck2
	if _, err := core.RunContext(context.Background(), e.Problem(), cfg); err != nil {
		t.Fatal(err)
	}

	// Resume again from the second (complete) stream: zero computation.
	cfg = base
	cfg.Restore = bytes.NewReader(ck2.Bytes())
	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tasks != 0 {
		t.Fatalf("computed %d tasks after chained checkpoint", res.Stats.Tasks)
	}
	equalMatrices(t, "editdist-chained", res.Matrix(), e.Sequential())
}

func TestRestoreRejectsForeignCheckpoint(t *testing.T) {
	// A checkpoint from a different problem geometry must be rejected,
	// not silently applied.
	e1 := dp.NewEditDistance(dp.RandomDNA(60, 89), dp.RandomDNA(60, 90))
	var ck bytes.Buffer
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(10),
		ThreadPartition: dag.Square(5),
		Checkpoint:      &ck,
		RunTimeout:      time.Minute,
	}
	if _, err := core.RunContext(context.Background(), e1.Problem(), cfg); err != nil {
		t.Fatal(err)
	}

	e2 := dp.NewEditDistance(dp.RandomDNA(30, 91), dp.RandomDNA(30, 92))
	cfg2 := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(10), // 3x3 grid: vertex ids out of range
		ThreadPartition: dag.Square(5),
		Restore:         bytes.NewReader(ck.Bytes()),
		RunTimeout:      time.Minute,
	}
	if _, err := core.RunContext(context.Background(), e2.Problem(), cfg2); err == nil {
		t.Fatal("foreign checkpoint accepted")
	}
}

// The deterministic form of the foreign-checkpoint case: a record whose
// vertex id is in range and computable but whose block covers another
// vertex's region. It used to panic the master inside Store.Put; restore
// must refuse the log.
func TestRestoreRejectsWrongRectRecord(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(30, 91), dp.RandomDNA(30, 92))
	forged, err := matrix.EncodeBlocks(e.Problem().Codec,
		[]*matrix.Block[int32]{matrix.NewBlock[int32](dag.Rect{Row0: 0, Col0: 10, Rows: 10, Cols: 10})})
	if err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := checkpoint.NewWriter(&ck).Append(0, forged); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(10),
		ThreadPartition: dag.Square(5),
		Restore:         &ck,
		RunTimeout:      time.Minute,
	}
	_, err = core.RunContext(context.Background(), e.Problem(), cfg)
	if err == nil || !strings.Contains(err.Error(), "does not match geometry rect") {
		t.Fatalf("restore of a wrong-rect record: err = %v, want the rect mismatch", err)
	}
}

// oversizedBlockPayload is 20 bytes claiming one block of 2³⁰×2³⁰ cells:
// count, Row0, Col0, Rows, Cols. Decoding it used to panic in NewBlock
// (makeslice: len out of range).
func oversizedBlockPayload() []byte {
	var forged []byte
	for _, v := range []uint32{1, 0, 0, 1 << 30, 1 << 30} {
		forged = binary.LittleEndian.AppendUint32(forged, v)
	}
	return forged
}

// A checkpoint record is untrusted bytes: one holding the oversized block
// used to panic the master. Restore must refuse the log.
func TestRestoreRefusesOversizedBlockRecord(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(30, 91), dp.RandomDNA(30, 92))
	var ck bytes.Buffer
	if err := checkpoint.NewWriter(&ck).Append(0, oversizedBlockPayload()); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(10),
		ThreadPartition: dag.Square(5),
		Restore:         &ck,
		RunTimeout:      time.Minute,
	}
	_, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err == nil || !strings.Contains(err.Error(), "checkpoint payload for vertex 0") {
		t.Fatalf("restore of an oversized block record: err = %v, want the payload refused", err)
	}
}

func TestReclaimWithCheckpointAndFaults(t *testing.T) {
	// All three mechanisms together: reclamation, checkpointing and a
	// crashed slave.
	e := dp.NewEditDistance(dp.RandomDNA(60, 93), dp.RandomDNA(60, 94))
	var ck bytes.Buffer
	cfg := core.Config{
		Slaves: 3, Threads: 2,
		ProcPartition:   dag.Square(10),
		ThreadPartition: dag.Square(4),
		ReclaimBlocks:   true,
		Checkpoint:      &ck,
		TaskTimeout:     150 * time.Millisecond,
		CheckInterval:   20 * time.Millisecond,
		RunTimeout:      time.Minute,
		Faults:          core.FaultPlan{CrashOnTask: map[int]int{1: 2}},
	}
	res, err := core.RunContext(context.Background(), dp.Slow(e.Problem(), crashWork), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Store.Cell(59, 59), e.Sequential()[59][59]; got != want {
		t.Fatalf("final cell %d != %d", got, want)
	}
	if res.Stats.BlocksReclaimed == 0 || res.Stats.Redistributions == 0 {
		t.Fatalf("expected reclamation and redistribution: %+v", res.Stats)
	}
}
