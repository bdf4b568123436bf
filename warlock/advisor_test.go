package warlock_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/warlock"
)

// TestAdvisorOptionsKeepOutput: the Advisor's cache, parallelism and
// sweep-worker options trade wall-clock time only — the rendered
// advisory and sweep bytes must not move.
func TestAdvisorOptionsKeepOutput(t *testing.T) {
	ctx := context.Background()
	res, err := warlock.New().Advise(ctx, smallInput(t))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := warlock.New(
		warlock.WithEvalCache(warlock.NewEvalCache()),
		warlock.WithParallelism(3),
	).Advise(ctx, smallInput(t))
	if err != nil {
		t.Fatal(err)
	}
	if warlock.Report(tuned) != warlock.Report(res) {
		t.Fatal("WithEvalCache/WithParallelism changed advisory output")
	}

	grid := &warlock.SweepGrid{Disks: []int{8, 16}, Parallelism: []int{1, 2}}
	sweepJSON := func(workers int) []byte {
		adv := warlock.New(warlock.WithSweepWorkers(workers))
		rep, err := adv.Sweep(ctx, smallInput(t), grid)
		if err != nil {
			t.Fatal(err)
		}
		scens, err := adv.Scenarios(smallInput(t), grid)
		if err != nil {
			t.Fatal(err)
		}
		if len(scens) != len(rep.Scenarios) {
			t.Fatalf("Scenarios expanded %d, Sweep ran %d", len(scens), len(rep.Scenarios))
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(sweepJSON(1), sweepJSON(2)) {
		t.Fatal("WithSweepWorkers changed the rendered sweep JSON")
	}
}

// TestAdvisorSweepWithOptionsMerging checks per-call options win over
// the Advisor's configuration and zero fields inherit it.
func TestAdvisorSweepWithOptionsMerging(t *testing.T) {
	adv := warlock.New(warlock.WithResponseTarget(time.Hour))
	rep, err := adv.SweepWithOptions(context.Background(), smallInput(t),
		&warlock.SweepGrid{Disks: []int{8}}, warlock.SweepOptions{ResponseTarget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Target != time.Nanosecond {
		t.Fatalf("per-call target overridden: %v", rep.Target)
	}
	rep, err = adv.Sweep(context.Background(), smallInput(t), &warlock.SweepGrid{Disks: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Target != time.Hour {
		t.Fatalf("advisor target not inherited: %v", rep.Target)
	}
}
