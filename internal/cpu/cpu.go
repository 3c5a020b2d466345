// Package cpu models the out-of-order core at the fidelity prefetcher
// studies need: a 224-entry reorder buffer bounding the instruction window,
// an 80-entry load buffer bounding memory-level parallelism, 4-wide dispatch
// and in-order retirement (paper Table 2, Skylake-class).
//
// The model is trace-driven: every instruction receives a dispatch cycle
// (bounded by width and ROB occupancy), completes after its latency (one
// cycle for non-memory work, the hierarchy's reply for loads), and retires
// in order at up to Width per cycle. A load miss at the ROB head therefore
// stalls retirement and eventually dispatch — exactly the first-order
// mechanism by which memory latency costs IPC and by which prefetching
// earns it back.
package cpu

// Config sizes the core.
type Config struct {
	Width      int // dispatch/retire width
	ROB        int // reorder buffer entries
	LoadBuffer int // outstanding loads
}

// DefaultConfig matches the paper's Table 2.
func DefaultConfig() Config { return Config{Width: 4, ROB: 224, LoadBuffer: 80} }

// LoadFunc asks the memory hierarchy to perform a demand access issued at
// the given cycle and returns its completion cycle.
type LoadFunc func(issueCycle uint64) (completeCycle uint64)

// Core simulates one hardware thread.
type Core struct {
	cfg Config

	// retire ring: completion cycles of in-flight instructions, in program
	// order. head is the oldest (next to retire).
	complete []uint64
	head     int
	count    int

	// loads ring: completion cycles of in-flight loads, oldest first.
	loadDone []uint64
	loadHead int
	loadCnt  int
	lastLoad uint64 // completion cycle of the most recent load

	dispatchCycle uint64 // cycle the next instruction can dispatch at
	dispatched    int    // instructions dispatched in dispatchCycle

	retireCycle uint64 // cycle of the most recent retirement
	retiredSlot int    // retirements already in retireCycle

	instructions uint64
	finish       uint64 // completion cycle of the last retired instruction
}

// New builds a core.
func New(cfg Config) *Core {
	if cfg.Width < 1 || cfg.ROB < cfg.Width || cfg.LoadBuffer < 1 {
		panic("cpu: nonsensical core configuration")
	}
	return &Core{
		cfg:      cfg,
		complete: make([]uint64, cfg.ROB),
		loadDone: make([]uint64, cfg.LoadBuffer),
	}
}

// Cycle returns the current simulated cycle (the dispatch frontier).
func (c *Core) Cycle() uint64 { return c.dispatchCycle }

// retireOne retires the oldest in-flight instruction and returns the cycle
// at which its ROB slot frees.
func (c *Core) retireOne() uint64 {
	done := c.complete[c.head]
	// In-order retirement at Width per cycle: this instruction retires no
	// earlier than it completes and no earlier than the retire port allows.
	when := done
	if when < c.retireCycle {
		when = c.retireCycle
	}
	if when == c.retireCycle {
		c.retiredSlot++
		if c.retiredSlot >= c.cfg.Width {
			c.retireCycle++
			c.retiredSlot = 0
		}
	} else {
		c.retireCycle = when
		c.retiredSlot = 1
	}
	c.head++
	if c.head == c.cfg.ROB {
		c.head = 0
	}
	c.count--
	if done > c.finish {
		c.finish = done
	}
	return when
}

// dispatchSlot reserves a dispatch slot and returns its cycle, honoring
// width and ROB occupancy.
func (c *Core) dispatchSlot() uint64 {
	if c.count == c.cfg.ROB {
		// ROB full: dispatch waits for the head to retire.
		freeAt := c.retireOne()
		if freeAt > c.dispatchCycle {
			c.dispatchCycle = freeAt
			c.dispatched = 0
		}
	}
	slot := c.dispatchCycle
	c.dispatched++
	if c.dispatched >= c.cfg.Width {
		c.dispatchCycle++
		c.dispatched = 0
	}
	return slot
}

func (c *Core) push(done uint64) {
	tail := c.head + c.count
	if tail >= c.cfg.ROB {
		tail -= c.cfg.ROB
	}
	c.complete[tail] = done
	c.count++
	c.instructions++
}

// Ops dispatches n non-memory instructions (single-cycle execution).
// Instruction gaps run it for every simulated reference, so the dispatch
// slot, retirement and ROB push work on locals for the whole batch (the
// compiler cannot cache pointer fields across the complete[] stores) and
// write back once. The state transitions are identical to n dispatches of
// one instruction each (TestOpsMatchesOp).
func (c *Core) Ops(n int) {
	rob, width := c.cfg.ROB, c.cfg.Width
	head, count := c.head, c.count
	dispatchCycle, dispatched := c.dispatchCycle, c.dispatched
	retireCycle, retiredSlot := c.retireCycle, c.retiredSlot
	finish := c.finish
	complete := c.complete
	for i := 0; i < n; i++ {
		if count == rob {
			// ROB full: dispatch waits for the head to retire (retireOne,
			// inlined on the batch locals).
			done := complete[head]
			when := done
			if when < retireCycle {
				when = retireCycle
			}
			if when == retireCycle {
				retiredSlot++
				if retiredSlot >= width {
					retireCycle++
					retiredSlot = 0
				}
			} else {
				retireCycle = when
				retiredSlot = 1
			}
			head++
			if head == rob {
				head = 0
			}
			count--
			if done > finish {
				finish = done
			}
			if when > dispatchCycle {
				dispatchCycle = when
				dispatched = 0
			}
		}
		slot := dispatchCycle
		dispatched++
		if dispatched >= width {
			dispatchCycle++
			dispatched = 0
		}
		tail := head + count
		if tail >= rob {
			tail -= rob
		}
		complete[tail] = slot + 1
		count++
	}
	c.head, c.count = head, count
	c.dispatchCycle, c.dispatched = dispatchCycle, dispatched
	c.retireCycle, c.retiredSlot = retireCycle, retiredSlot
	c.finish = finish
	c.instructions += uint64(n)
}

// Load dispatches an independent load (its address is ready at dispatch).
// The hierarchy callback receives the issue cycle and returns the completion
// cycle. The load buffer bounds outstanding loads: when full, the load's
// issue is delayed until the oldest load completes.
func (c *Core) Load(mem LoadFunc) { c.load(mem, false) }

// LoadAfter dispatches a load whose address depends on the most recent
// load's result (pointer chasing, loop-carried index chains): it cannot
// issue before that load completes. Dependence chains are what bound a real
// core's memory-level parallelism — and what give prefetchers their value.
func (c *Core) LoadAfter(mem LoadFunc) { c.load(mem, true) }

func (c *Core) load(mem LoadFunc, dependent bool) {
	slot := c.dispatchSlot()
	issue := slot
	if dependent && c.lastLoad > issue {
		issue = c.lastLoad
	}
	if c.loadCnt == c.cfg.LoadBuffer {
		oldest := c.loadDone[c.loadHead]
		c.loadHead++
		if c.loadHead == c.cfg.LoadBuffer {
			c.loadHead = 0
		}
		c.loadCnt--
		if oldest > issue {
			issue = oldest
		}
	}
	done := mem(issue)
	if done < slot+1 {
		done = slot + 1
	}
	tail := c.loadHead + c.loadCnt
	if tail >= c.cfg.LoadBuffer {
		tail -= c.cfg.LoadBuffer
	}
	c.loadDone[tail] = done
	c.loadCnt++
	c.lastLoad = done
	c.push(done)
}

// Store dispatches a store. Stores retire through a write buffer and do not
// stall the pipeline; the hierarchy callback is still invoked (at the
// dispatch cycle) so caches and prefetchers observe the access, but the
// instruction completes immediately.
func (c *Core) Store(mem LoadFunc) {
	slot := c.dispatchSlot()
	mem(slot)
	c.push(slot + 1)
}

// Drain retires everything still in flight and returns the cycle at which
// the final instruction retired — the denominator for IPC.
func (c *Core) Drain() uint64 {
	for c.count > 0 {
		c.retireOne()
	}
	end := c.retireCycle
	if c.finish > end {
		end = c.finish
	}
	return end
}

// IPC runs Drain and reports retired instructions per cycle.
func (c *Core) IPC() float64 {
	cycles := c.Drain()
	if cycles == 0 {
		return 0
	}
	return float64(c.instructions) / float64(cycles)
}
