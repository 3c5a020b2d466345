package trace

import (
	"bytes"
	"fmt"
	"sync"
)

// Workload sources.
const (
	// SourceBuiltin marks the compiled-in roster (the 75 paper workloads and
	// the Irregular family). Builtin streams are identified by name alone —
	// their fingerprint is empty, which keeps historical cache keys valid.
	SourceBuiltin = "builtin"
	// SourceSpec marks scenarios registered from a ScenarioSpec (campaign
	// inline blocks, -scenario files, POST /v1/scenarios).
	SourceSpec = "spec"
	// SourceImported marks streams ingested from DSPTRC01 trace files.
	SourceImported = "imported"
)

// Registry is an open roster of named scenarios. It starts from the builtin
// workloads and accepts registrations of declarative specs and imported
// traces at runtime; every lookup the experiment, sweep and service layers
// do resolves through it. Lookups are O(1) map reads (campaign validation
// of large grids resolves thousands of names); registration is rare.
type Registry struct {
	mu     sync.RWMutex
	list   []Workload
	byName map[string]int
	byCat  map[Category][]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}, byCat: map[Category][]int{}}
}

// DefaultRegistry is the process-wide roster every package-level lookup
// resolves through.
var DefaultRegistry = newBuiltinRegistry()

func newBuiltinRegistry() *Registry {
	r := NewRegistry()
	r.registerBuiltins()
	return r
}

func (r *Registry) registerBuiltins() {
	for _, s := range builtinSpecs() {
		s := s
		if err := s.Validate(); err != nil {
			panic(fmt.Sprintf("trace: builtin roster invalid: %v", err))
		}
		r.Register(Workload{
			Name:         s.Name,
			Category:     s.Category,
			MemIntensive: s.MemIntensive,
			Source:       SourceBuiltin,
			Build:        s.generator,
		})
	}
}

// Register installs w, replacing any existing entry of the same name (the
// replace semantics back explicit trace imports, which may deliberately
// override a stream). For conflict-checked spec registration use
// RegisterSpec.
func (r *Registry) Register(w Workload) {
	if w.Name == "" {
		panic("trace: registering unnamed workload")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[w.Name]; ok {
		r.list[i] = w
		r.reindexLocked()
		return
	}
	r.byName[w.Name] = len(r.list)
	r.byCat[w.Category] = append(r.byCat[w.Category], len(r.list))
	r.list = append(r.list, w)
}

// reindexLocked rebuilds the category index after an in-place replacement
// (the replaced entry may have changed category). Replacement is rare;
// lookups stay O(1).
func (r *Registry) reindexLocked() {
	r.byCat = map[Category][]int{}
	for i, w := range r.list {
		r.byCat[w.Category] = append(r.byCat[w.Category], i)
	}
}

// RegisterSpec validates s and registers it as a workload. Registration is
// strict and idempotent: a name collision with identical content (equal
// fingerprints) is a no-op returning the existing entry; a collision with
// different content — including any builtin name — is an error, never a
// silent redefinition.
func (r *Registry) RegisterSpec(s ScenarioSpec) (Workload, error) {
	if err := s.Validate(); err != nil {
		return Workload{}, err
	}
	if s.Kind == KindTrace {
		return r.registerTraceSpec(s)
	}
	if s.Category == "" {
		s.Category = Imported
	}
	w := Workload{
		Name:         s.Name,
		Category:     s.Category,
		MemIntensive: s.MemIntensive,
		Source:       SourceSpec,
		Fingerprint:  s.Fingerprint(),
		Build:        s.generator,
		spec:         &s,
	}
	return r.registerChecked(w)
}

func (r *Registry) registerChecked(w Workload) (Workload, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[w.Name]; ok {
		have := r.list[i]
		if have.Source == w.Source && have.Fingerprint == w.Fingerprint {
			return have, nil // same content re-registered: idempotent
		}
		return Workload{}, fmt.Errorf("trace: scenario %q conflicts with existing %s workload", w.Name, have.Source)
	}
	r.byName[w.Name] = len(r.list)
	r.byCat[w.Category] = append(r.byCat[w.Category], len(r.list))
	r.list = append(r.list, w)
	return w, nil
}

// ByName returns the named workload.
func (r *Registry) ByName(name string) (Workload, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.byName[name]
	if !ok {
		return Workload{}, false
	}
	return r.list[i], true
}

// ByCategory returns the workloads of one class, in registration order.
func (r *Registry) ByCategory(cat Category) []Workload {
	r.mu.RLock()
	defer r.mu.RUnlock()
	idx := r.byCat[cat]
	out := make([]Workload, len(idx))
	for k, i := range idx {
		out[k] = r.list[i]
	}
	return out
}

// MemIntensive returns the high-MPKI subset.
func (r *Registry) MemIntensive() []Workload {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Workload
	for _, w := range r.list {
		if w.MemIntensive {
			out = append(out, w)
		}
	}
	return out
}

// All returns a snapshot of the roster in registration order.
func (r *Registry) All() []Workload {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Workload, len(r.list))
	copy(out, r.list)
	return out
}

// Reset restores the registry to the builtin roster, dropping every spec
// and import registration.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.list = nil
	r.byName = map[string]int{}
	r.byCat = map[Category][]int{}
	r.mu.Unlock()
	r.registerBuiltins()
}

// Workloads returns a snapshot of the full process-wide roster: the 75
// builtin workloads, the Irregular family, and whatever scenarios this
// process has registered.
func Workloads() []Workload { return DefaultRegistry.All() }

// ByName returns the named workload from the process-wide roster.
func ByName(name string) (Workload, bool) { return DefaultRegistry.ByName(name) }

// ByCategory returns the process-wide roster's workloads of one class.
func ByCategory(cat Category) []Workload { return DefaultRegistry.ByCategory(cat) }

// MemIntensive returns the process-wide roster's high-MPKI subset.
func MemIntensive() []Workload { return DefaultRegistry.MemIntensive() }

// RegisterSpec validates and registers a scenario spec process-wide.
func RegisterSpec(s ScenarioSpec) (Workload, error) { return DefaultRegistry.RegisterSpec(s) }

// maxForwardTraceBytes bounds the export a SpecFor trace spec may inline:
// forwarded specs travel inside JSON run submissions to fleet workers.
const maxForwardTraceBytes = 32 << 20

// SpecFor returns a self-contained spec that reproduces the named workload
// in another process — the fleet coordinator attaches these to dispatched
// points so workers simulate the exact same stream. Builtin workloads need
// no spec (ok = false); spec-sourced workloads return their defining spec;
// imported or converted traces return a trace-kind spec carrying the
// stream's DSPTRC01 export bytes inline, whose content fingerprint — and
// therefore every cache key — matches the local registration.
func SpecFor(name string) (ScenarioSpec, bool, error) {
	w, ok := ByName(name)
	if !ok {
		return ScenarioSpec{}, false, fmt.Errorf("trace: unknown workload %q", name)
	}
	switch w.Source {
	case SourceSpec:
		if w.spec == nil {
			return ScenarioSpec{}, false, fmt.Errorf("trace: workload %q retained no spec", name)
		}
		return *w.spec, true, nil
	case SourceImported:
		if w.stream == nil {
			return ScenarioSpec{}, false, fmt.Errorf("trace: imported workload %q retained no stream", name)
		}
		var buf bytes.Buffer
		if err := w.stream.Export(&buf, 0); err != nil {
			return ScenarioSpec{}, false, fmt.Errorf("trace: exporting %q for forwarding: %w", name, err)
		}
		if buf.Len() > maxForwardTraceBytes {
			return ScenarioSpec{}, false, fmt.Errorf("trace: workload %q exports %d bytes, over the %d-byte forwarding limit",
				name, buf.Len(), maxForwardTraceBytes)
		}
		return ScenarioSpec{
			Name:         name,
			Category:     w.Category,
			MemIntensive: w.MemIntensive,
			Kind:         KindTrace,
			Trace:        &TraceSpec{Data: buf.Bytes()},
		}, true, nil
	default:
		return ScenarioSpec{}, false, nil
	}
}
