package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"dspatch/internal/trace"
)

func TestRunCtxMatchesRun(t *testing.T) {
	opt := fastOpts()
	opt.L2 = PFSPP
	want := RunSingle(wl("linpack"), opt)
	got, err := RunCtx(context.Background(), []trace.Workload{wl("linpack")}, opt)
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("RunCtx result differs from Run:\n%+v\n%+v", want, got)
	}
}

func TestRunCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := fastOpts()
	opt.Refs = 2_000_000 // would take seconds if the cancel hook failed
	start := time.Now()
	res, err := RunCtx(ctx, []trace.Workload{wl("linpack")}, opt)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.IPC) != 1 {
		t.Fatalf("canceled Result must keep one IPC slot per workload, got %v", res.IPC)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, hook not firing", elapsed)
	}
}

func TestRunCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opt := DefaultMP()
	opt.Refs = 1_000_000
	ws := []trace.Workload{wl("linpack"), wl("tpcc"), wl("linpack"), wl("tpcc")}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res, err := RunCtx(ctx, ws, opt)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.IPC) != len(ws) {
		t.Fatalf("canceled Result IPC len = %d, want %d", len(res.IPC), len(ws))
	}
}
