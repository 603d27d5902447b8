package server_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/fleet"
	"repro/internal/server"
)

// TestMetricsTuneSeries: on a fleet that self-tunes, /metrics exports the
// easyhps_tune_* gauges its tuner reports, adjustments included; on one
// with static knobs, the series are absent.
func TestMetricsTuneSeries(t *testing.T) {
	run := fastRun()
	run.ProcPartition, run.ThreadPartition = dag.Square(4), dag.Square(4)
	run.Auto = true
	opts := server.FleetOptions(run)
	opts.CheckInterval = 2 * time.Millisecond // the tuner's tick
	f, err := fleet.New[int32](opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, stop := context.WithCancel(context.Background())
	var members sync.WaitGroup
	for i := range run.Slaves {
		w := f.Join(fmt.Sprintf("m%d", i), run)
		members.Add(1)
		go func() {
			defer members.Done()
			_ = w.Serve(ctx)
		}()
	}
	mgr := server.NewManager(server.ManagerConfig{Run: run, Fleet: f}, slowKernels())

	// Sixteen blocks of about 16ms each span many ticks. Their runtimes
	// are uniform, so once eight have finished and warmed the profile, each
	// tick relaxes the speculation thresholds a step.
	j, _, err := mgr.Submit(server.JobSpec{Kernel: "editdist", N: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if _, err := j.Result(); err != nil {
		t.Fatal(err)
	}
	_ = mgr.Shutdown(context.Background())
	stop()
	members.Wait()
	f.Close() // the tick loop stops, so the tuner's snapshot holds still
	s, ok := f.TuneSnapshot()
	if !ok {
		t.Fatal("a fleet with Auto reports no tuner")
	}
	if s.Adjustments == 0 {
		t.Fatal("the tuner made no adjustment over a whole job")
	}
	var b strings.Builder
	mgr.WriteMetrics(&b)
	text := b.String()
	for _, want := range []string{
		fmt.Sprintf("easyhps_tune_batch_cap %d\n", s.BatchCap),
		fmt.Sprintf("easyhps_tune_spec_quantile %.3f\n", s.SpecQuantile),
		fmt.Sprintf("easyhps_tune_spec_multiplier %.3f\n", s.SpecMultiplier),
		fmt.Sprintf("easyhps_tune_adjustments_total %d\n", s.Adjustments),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", strings.TrimSpace(want), text)
		}
	}

	static := server.NewManager(server.ManagerConfig{Run: fastRun(), MaxConcurrent: 1, QueueDepth: 2}, nil)
	defer func() { _ = static.Shutdown(context.Background()) }()
	b.Reset()
	static.WriteMetrics(&b)
	if strings.Contains(b.String(), "easyhps_tune_") {
		t.Error("easyhps_tune_ series exported while no tuner is active")
	}
}
