package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

func cacheTestJob(t *testing.T) Job {
	t.Helper()
	w, ok := trace.ByName("linpack")
	if !ok {
		t.Fatal("roster is missing linpack")
	}
	opt := sim.DefaultST()
	opt.Refs = 3_000
	opt.L2 = sim.PFDSPatchSPP
	return SingleJob(w, opt)
}

// entryFile returns the single cache entry in dir.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, EntryGlob))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one cache entry, got %v (err %v)", files, err)
	}
	return files[0]
}

// TestDiskCacheRoundTrip proves a second runner (a stand-in for a second
// process) serves the persisted result — by tampering with the stored entry
// and observing the tampered value come back, which only a disk hit can
// produce — and that results round-trip exactly when untampered.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	job := cacheTestJob(t)

	r1 := NewRunner(1)
	if err := r1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	fresh := runOne(r1, job)

	// A clean second runner must reproduce the result exactly from disk.
	r2 := NewRunner(1)
	if err := r2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := runOne(r2, job); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("cached result differs from fresh: %+v vs %+v", got, fresh)
	}

	// Tamper: bump Cycles in the stored entry. A runner that really reads
	// the disk returns the tampered value.
	path := entryFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	key := JobID(job).String()
	res, ok := decodeEntry(data, []byte(key))
	if !ok {
		t.Fatal("stored entry does not decode")
	}
	res.Cycles++
	if err := os.WriteFile(path, encodeEntry(key, res), 0o644); err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(1)
	r3.SetCacheDir(dir)
	if got := runOne(r3, job); got.Cycles != fresh.Cycles+1 {
		t.Fatalf("runner did not serve the disk entry: Cycles = %d, want %d", got.Cycles, fresh.Cycles+1)
	}
}

// TestDiskCacheCorruptFallback proves a corrupt entry silently falls back to
// simulation and is rewritten valid.
func TestDiskCacheCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	job := cacheTestJob(t)
	r1 := NewRunner(1)
	r1.SetCacheDir(dir)
	fresh := runOne(r1, job)

	path := entryFile(t, dir)
	if err := os.WriteFile(path, []byte("definitely not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(1)
	r2.SetCacheDir(dir)
	if got := runOne(r2, job); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("corrupt-entry fallback produced a different result")
	}
	// The entry was rewritten and now decodes at the current version.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := decodeEntry(data, []byte(JobID(job).String())); !ok || !reflect.DeepEqual(got, fresh) {
		t.Fatalf("entry not rewritten after corruption: ok=%t", ok)
	}
}

// TestDiskCacheVersionMismatch proves an entry stamped by a different
// sim.ResultVersion is ignored (re-simulated) and overwritten with the
// current stamp.
func TestDiskCacheVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	job := cacheTestJob(t)
	r1 := NewRunner(1)
	r1.SetCacheDir(dir)
	fresh := runOne(r1, job)

	path := entryFile(t, dir)
	key := JobID(job).String()
	stale := fresh
	stale.Cycles += 99 // would be visible if the stale entry were served
	os.WriteFile(path, stampEntry(encodeEntry(key, stale), sim.ResultVersion+1), 0o644)

	r2 := NewRunner(1)
	r2.SetCacheDir(dir)
	if got := runOne(r2, job); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("version-mismatched entry was served instead of re-simulated")
	}
	data, _ := os.ReadFile(path)
	if got, ok := decodeEntry(data, []byte(key)); !ok || !reflect.DeepEqual(got, fresh) {
		t.Fatalf("entry not restamped: ok=%t", ok)
	}
}

// TestDiskCacheDisabledIdentical proves cache-off and cache-on runs return
// identical results, and that no files appear when disabled.
func TestDiskCacheDisabledIdentical(t *testing.T) {
	dir := t.TempDir()
	job := cacheTestJob(t)
	off := runOne(NewRunner(1), job)
	r := NewRunner(1)
	r.SetCacheDir(dir)
	on := runOne(r, job)
	if !reflect.DeepEqual(off, on) {
		t.Fatal("cache-enabled result differs from cache-disabled result")
	}
	plain := NewRunner(1)
	plain.RunAllCtx(context.Background(), []Job{job}, 1)
	files, _ := filepath.Glob(filepath.Join(t.TempDir(), "*"))
	if len(files) != 0 {
		t.Fatalf("disabled cache wrote files: %v", files)
	}
}

// TestDiskCacheNoTornReads hammers one cache entry with concurrent
// rewriters (stand-ins for racing processes, whose cacheStore path — temp
// file + os.Rename — is exactly what separate processes execute) while
// readers re-read the entry file directly. Atomic rename means a reader must
// only ever observe a complete entry that decodes, never a prefix of an
// in-progress write.
func TestDiskCacheNoTornReads(t *testing.T) {
	dir := t.TempDir()
	job := cacheTestJob(t)
	key := memoizable(job)
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := st.PathOf(key.keyString())

	// Payloads of very different sizes, so a torn read of a long entry after
	// a short one (or mid-write) cannot parse by accident.
	mkRes := func(i int) sim.Result {
		return sim.Result{IPC: make([]float64, 1+(i%7)*40), Cycles: uint64(i)}
	}
	st.Put(key.keyString(), mkRes(0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += 4 {
				select {
				case <-stop:
					return
				default:
				}
				st.Put(key.keyString(), mkRes(i))
			}
		}(w)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	reads := 0
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("read during concurrent writes: %v", err)
			break
		}
		if _, ok := decodeEntry(data, []byte(key.keyString())); !ok {
			t.Errorf("torn or corrupt read after %d clean reads: %d bytes", reads, len(data))
			break
		}
		reads++
	}
	close(stop)
	wg.Wait()
	if reads == 0 {
		t.Fatal("reader never observed the entry")
	}
}

// TestDiskCacheUnwritableDegradesGracefully proves a failing cache backend
// never fails a run: the first write error is logged exactly once, further
// writes are disabled for the runner, simulation continues, and the read
// path keeps serving entries that were written while the backend was
// healthy.
func TestDiskCacheUnwritableDegradesGracefully(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "cache")
	job := cacheTestJob(t)

	// A healthy pass first, so the read path has an entry to prove itself on.
	r1 := NewRunner(1)
	if err := r1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	fresh := runOne(r1, job)

	// Second job: distinct config, so its entry is missing from the cache.
	job2 := cacheTestJob(t)
	job2.Opt.Refs = 3_100

	// Break the backend out from under the runner: replace the directory
	// with a regular file, so every CreateTemp inside it fails (ENOTDIR).
	// Unlike permission bits this breaks for root too.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logged []string
	old := logWarnf
	logWarnf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, format)
		mu.Unlock()
	}
	defer func() { logWarnf = old }()

	// Two cold runs against the broken backend: both must succeed, the
	// warning must fire exactly once, and writes must be off afterwards.
	got, _ := r1.RunAllCtx(context.Background(), []Job{job2, {Workloads: job2.Workloads, Opt: func() sim.Options {
		o := job2.Opt
		o.Refs = 3_200
		return o
	}()}}, 1)
	if len(got[0].IPC) == 0 || got[0].Cycles == 0 {
		t.Fatalf("run against unwritable cache produced a degenerate result: %+v", got[0])
	}
	if !r1.cacheWriteOff.Load() {
		t.Fatal("cache writes not disabled after a write failure")
	}
	mu.Lock()
	n := len(logged)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("write failure logged %d times, want exactly once: %v", n, logged)
	}

	// Read path unaffected: a fresh runner over a healthy copy of the cache
	// still serves the first job from disk, and the degraded runner keeps
	// simulating correctly (memo hit here, since r1 already ran job).
	if got := runOne(r1, job); !reflect.DeepEqual(got, fresh) {
		t.Fatal("degraded runner no longer reproduces earlier results")
	}

	// Re-arming: pointing the runner at a healthy store re-enables writes.
	good := filepath.Join(parent, "cache2")
	if err := r1.SetCacheDir(good); err != nil {
		t.Fatal(err)
	}
	if r1.cacheWriteOff.Load() {
		t.Fatal("SetCacheDir did not re-arm cache writes")
	}
}

// TestDirStoreAndJobKey covers the pluggable store seam the fleet layer
// builds on: the run key is stable and separates pollution tracking, DirStore
// round-trips results under it byte-compatibly with the engine's own cache
// files, and torn PutRaw entries read back as misses.
func TestDirStoreAndJobKey(t *testing.T) {
	job := cacheTestJob(t)
	key := JobID(job).String()
	if key == "" || JobID(job).String() != key {
		t.Fatalf("JobID(%+v).String() = %q, not stable", job, key)
	}
	polluted := job
	polluted.Opt.TrackPollution = true
	if JobID(polluted).String() == key {
		t.Fatal("pollution tracking on and off must not share a key")
	}

	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Result{IPC: []float64{1.25}, Cycles: 77}
	if err := st.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(key); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get = %+v, %t", got, ok)
	}

	// The engine reads the same entry: DirStore and -cache-dir share a
	// layout, so a fleet's shared store doubles as a worker's run cache.
	r := NewRunner(1)
	if err := r.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	c0 := r.Counters()
	if got := runOne(r, job); !reflect.DeepEqual(got, want) {
		t.Fatalf("engine did not serve the DirStore entry: %+v", got)
	}
	if c1 := r.Counters(); c1.DiskHits-c0.DiskHits != 1 || c1.Sims != c0.Sims {
		t.Fatalf("engine counters: %+v -> %+v, want one disk hit and no sims", c0, c1)
	}

	// A torn write (the fault-injection harness's PutRaw) is a miss, at
	// every length short of the whole entry.
	whole := encodeEntry(key, want)
	for cut := range len(whole) {
		if err := st.PutRaw(key, whole[:cut]); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get(key); ok {
			t.Fatalf("entry torn at %d of %d bytes served as a hit", cut, len(whole))
		}
	}
}

// TestKeyStringPinned pins the run keys of a builtin job and a fingerprinted
// scenario job to the exact strings earlier builds rendered, so a run
// store's content addresses stay put across builds. (Entries written before
// the binary entry encoding are misses all the same, and re-simulate once.)
// Pollution tracking renders only when on, leaving every other key
// unchanged.
func TestKeyStringPinned(t *testing.T) {
	builtin := cacheTestJob(t)
	if got, want := JobID(builtin).String(), `names="linpack" dram=1ch-DDR4-2133 llc=2097152 refs=3000 seed=1 l2=dspatch+spp nol1=false smspht=0 stats=false`; got != want {
		t.Errorf("builtin key:\n got %s\nwant %s", got, want)
	}
	polluted := builtin
	polluted.Opt.TrackPollution = true
	if got, want := JobID(polluted).String(), JobID(builtin).String()+" pollution=true"; got != want {
		t.Errorf("pollution key:\n got %s\nwant %s", got, want)
	}

	w, err := trace.NewRegistry().RegisterSpec(trace.ScenarioSpec{
		Name: "key-pin-chase", Kind: trace.KindPointer,
		Pointer: &trace.PointerChaseConfig{Style: "list", Nodes: 1024, NodesPerPage: 8, Depth: 64, MeanGap: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := sim.DefaultMP()
	opt.Refs = 5_000
	opt.Seed = 3
	opt.L2 = sim.PFSPP
	opt.CollectStats = true
	scenario := Job{Workloads: []trace.Workload{w, builtin.Workloads[0]}, Opt: opt}
	if got, want := JobID(scenario).String(), `names="key-pin-chase\x01spec-dd3b9a8b61322f57\x00linpack" dram=2ch-DDR4-2133 llc=8388608 refs=5000 seed=3 l2=spp nol1=false smspht=0 stats=true`; got != want {
		t.Errorf("scenario key:\n got %s\nwant %s", got, want)
	}
}

// TestRunKeyFitsAMapSlot: Go's maps store a key of at most 128 bytes in
// place; a larger key is copied to the heap on every insert, into the memo
// and into a campaign's run table. The L2 index is a uint8.
func TestRunKeyFitsAMapSlot(t *testing.T) {
	if n := unsafe.Sizeof(runKey{}); n > 128 {
		t.Errorf("runKey is %d bytes, over the 128 a map key can take in place", n)
	}
	if n := len(sim.AllPFs); n > 256 {
		t.Errorf("%d L2 prefetchers do not fit runKey's uint8 index", n)
	}
}

// TestEveryOptionIsKeyed changes each field of sim.Options, and each field
// of its dram.Config, one at a time and to two different values, and
// requires three different RunIDs and three different store keys: no
// option may reach a simulation without telling its runs apart in the memo
// and in the store. A field of a new kind fails the test until it gets its
// perturbations here.
func TestEveryOptionIsKeyed(t *testing.T) {
	base := cacheTestJob(t)
	base.Opt.L2 = sim.PFSMS // the one prefetcher whose SMSPHTEntries is keyed
	base.Opt.SMSPHTEntries = 1 << 10
	id, key := JobID(base), JobID(base).String()
	var check func(v reflect.Value, path string)
	check = func(v reflect.Value, path string) {
		for i := range v.NumField() {
			f, name := v.Field(i), path+"."+v.Type().Field(i).Name
			if f.Kind() == reflect.Struct {
				check(f, name)
				continue
			}
			old := reflect.ValueOf(f.Interface())
			ids := map[RunID]bool{id: true}
			keys := map[string]bool{key: true}
			for step := 1; step <= 2; step++ {
				switch f.Kind() {
				case reflect.Int, reflect.Int64:
					f.SetInt(old.Int() + int64(step))
				case reflect.Float64:
					f.SetFloat(old.Float() + float64(step)/4)
				case reflect.Bool:
					f.SetBool(!old.Bool()) // the one other value, twice
				case reflect.String:
					f.SetString(string([]sim.PF{sim.PFSPP, sim.PFBOP}[step-1]))
				default:
					t.Fatalf("%s: no perturbation for kind %s", name, f.Kind())
				}
				ids[JobID(base)] = true
				keys[JobID(base).String()] = true
			}
			f.Set(old)
			want := 3
			if f.Kind() == reflect.Bool {
				want = 2
			}
			if len(ids) != want || len(keys) != want {
				t.Errorf("%s: %d values made %d RunIDs and %d store keys", name, want, len(ids), len(keys))
			}
		}
	}
	check(reflect.ValueOf(&base.Opt).Elem(), "Options")
	if JobID(base) != id {
		t.Fatal("restoring every field did not restore the RunID")
	}
}

// TestPollutionRunRoundTripsStores proves a pollution-tracking run is an
// ordinary stored run: a second runner on the same DirStore serves it
// without simulating, Pollution fractions bit-identical.
func TestPollutionRunRoundTripsStores(t *testing.T) {
	job := tinyJob(t, "mcf", 10_000, sim.PFStreamer)
	job.Opt.TrackPollution = true
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(1)
	r1.SetResultStore(st)
	fresh := runOne(r1, job)
	if fresh.Pollution == ([3]float64{}) {
		t.Fatal("pollution-tracking run reported no pollution fractions")
	}
	r2 := NewRunner(1)
	r2.SetResultStore(st)
	got := runOne(r2, job)
	if c := r2.Counters(); c.Sims != 0 || c.DiskHits != 1 {
		t.Errorf("second runner counters %+v, want one store hit and no sims", c)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Errorf("stored pollution run differs:\n%+v\n%+v", got, fresh)
	}
}
