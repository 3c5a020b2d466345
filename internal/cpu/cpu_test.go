package cpu

import (
	"math/rand"
	"reflect"
	"testing"
)

func fixedLatency(lat uint64) LoadFunc {
	return func(issue uint64) uint64 { return issue + lat }
}

// Op dispatches one non-memory instruction (single-cycle execution). It is
// the oracle for Ops, which must leave the core exactly as n calls of Op do.
func (c *Core) Op() {
	slot := c.dispatchSlot()
	c.push(slot + 1)
}

// TestOpsMatchesOp drives two cores through the same random interleaving of
// loads, dependent loads, stores and runs of non-memory instructions, one
// core through Ops(n) and the other through n calls of Op, and requires
// every field of the two cores to agree after each step and at the end.
// Small ROBs and load buffers make the full-ROB and full-buffer paths common.
func TestOpsMatchesOp(t *testing.T) {
	cfgs := []Config{DefaultConfig(), {Width: 1, ROB: 1, LoadBuffer: 1}, {Width: 2, ROB: 5, LoadBuffer: 2}, {Width: 4, ROB: 16, LoadBuffer: 3}}
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range cfgs {
		for trial := 0; trial < 50; trial++ {
			batch, single := New(cfg), New(cfg)
			for step := 0; step < 200; step++ {
				lat := uint64(rng.Intn(400))
				switch rng.Intn(5) {
				case 0:
					batch.Load(fixedLatency(lat))
					single.Load(fixedLatency(lat))
				case 1:
					batch.LoadAfter(fixedLatency(lat))
					single.LoadAfter(fixedLatency(lat))
				case 2:
					batch.Store(fixedLatency(lat))
					single.Store(fixedLatency(lat))
				default:
					n := rng.Intn(3 * cfg.ROB)
					batch.Ops(n)
					for i := 0; i < n; i++ {
						single.Op()
					}
				}
				if !reflect.DeepEqual(batch, single) {
					t.Fatalf("%+v trial %d step %d: Ops core\n%+v\nOp core\n%+v", cfg, trial, step, *batch, *single)
				}
			}
			if b, s := batch.IPC(), single.IPC(); b != s || !reflect.DeepEqual(batch, single) {
				t.Fatalf("%+v trial %d: IPC %v (Ops) vs %v (Op), or the drained cores differ", cfg, trial, b, s)
			}
			if b, s := batch.Drain(), single.Drain(); b != s {
				t.Fatalf("%+v trial %d: Drain %d (Ops) vs %d (Op)", cfg, trial, b, s)
			}
		}
	}
}

func TestIdealIPCEqualsWidth(t *testing.T) {
	c := New(DefaultConfig())
	c.Ops(40000)
	ipc := c.IPC()
	if ipc < 3.9 || ipc > 4.01 {
		t.Errorf("all-ALU IPC = %.3f, want ≈4", ipc)
	}
}

func TestFastLoadsSustainWidth(t *testing.T) {
	c := New(DefaultConfig())
	for i := 0; i < 10000; i++ {
		c.Load(fixedLatency(5))
		c.Ops(3)
	}
	ipc := c.IPC()
	if ipc < 3.5 {
		t.Errorf("L1-hit workload IPC = %.3f, want near 4", ipc)
	}
}

func TestLongLatencySerialLoadsStall(t *testing.T) {
	// Dependent-like pattern: nothing but loads; the ROB (224) caps MLP, so
	// IPC ≈ ROB-limited. With 200-cycle loads and a 224-deep window of
	// loads all independent, throughput ≈ width until the load buffer (80)
	// binds... here every instruction is a load, so the load buffer is the
	// limit: 80 outstanding / 200 cycles = 0.4 loads/cycle.
	c := New(DefaultConfig())
	for i := 0; i < 20000; i++ {
		c.Load(fixedLatency(200))
	}
	ipc := c.IPC()
	if ipc > 0.45 || ipc < 0.3 {
		t.Errorf("load-buffer-bound IPC = %.3f, want ≈0.4", ipc)
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// One load every 8 instructions: the ROB fits 224/8 = 28 loads. With
	// 400-cycle misses, IPC ≈ 224 instrs per (400/28 per load × 28 loads)
	// ≈ 224/400 × ... — the key property is simply that halving the ROB
	// roughly halves throughput in this regime.
	run := func(rob int) float64 {
		c := New(Config{Width: 4, ROB: rob, LoadBuffer: 80})
		for i := 0; i < 4000; i++ {
			c.Load(fixedLatency(400))
			c.Ops(7)
		}
		return c.IPC()
	}
	big, small := run(224), run(112)
	ratio := big / small
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("ROB scaling ratio = %.2f, want ≈2", ratio)
	}
}

func TestPrefetchingImprovesIPC(t *testing.T) {
	// The point of the whole model: turning misses into hits must raise IPC.
	run := func(lat uint64) float64 {
		c := New(DefaultConfig())
		for i := 0; i < 5000; i++ {
			c.Load(fixedLatency(lat))
			c.Ops(9)
		}
		return c.IPC()
	}
	missIPC, hitIPC := run(300), run(13)
	if hitIPC <= missIPC*1.5 {
		t.Errorf("hit IPC %.3f should far exceed miss IPC %.3f", hitIPC, missIPC)
	}
}

func TestStoresDoNotStall(t *testing.T) {
	c := New(DefaultConfig())
	for i := 0; i < 5000; i++ {
		c.Store(fixedLatency(300)) // long-latency stores absorbed by write buffer
		c.Ops(3)
	}
	ipc := c.IPC()
	if ipc < 3.5 {
		t.Errorf("store workload IPC = %.3f, want near 4", ipc)
	}
}

func TestLoadIssueCycleMonotone(t *testing.T) {
	c := New(DefaultConfig())
	var last uint64
	for i := 0; i < 2000; i++ {
		c.Load(func(issue uint64) uint64 {
			if issue < last {
				t.Fatalf("issue cycle went backwards: %d < %d", issue, last)
			}
			last = issue
			return issue + 50
		})
	}
}

func TestInstructionsCounted(t *testing.T) {
	c := New(DefaultConfig())
	c.Ops(10)
	c.Load(fixedLatency(5))
	c.Store(fixedLatency(5))
	if c.instructions != 12 {
		t.Errorf("instructions = %d, want 12", c.instructions)
	}
}

func TestDrainEmpty(t *testing.T) {
	c := New(DefaultConfig())
	if c.Drain() != 0 {
		t.Error("draining an empty core should be cycle 0")
	}
	if c.IPC() != 0 {
		t.Error("IPC of empty core should be 0")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Width: 0, ROB: 10, LoadBuffer: 1})
}
