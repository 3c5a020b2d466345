package experiments

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dspatch/internal/sim"
)

// stampEntry returns a copy of an encoded entry restamped with version and
// re-checksummed, as a build at that ResultVersion would have written it.
func stampEntry(data []byte, version uint32) []byte {
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[8:12], version)
	return reseal(out)
}

// reseal rewrites an entry's length word and CRC trailer to match its
// bytes, so a test can plant an entry that fails only the check it targets.
func reseal(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[4:8], uint32(len(data)))
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
	return data
}

// bitEqual is reflect.DeepEqual with floats compared by Float64bits, so NaN
// equals itself and -0 differs from +0.
func bitEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice, reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		if a.Kind() == reflect.Map {
			for it := a.MapRange(); it.Next(); {
				bv := b.MapIndex(it.Key())
				if !bv.IsValid() || !bitEqual(it.Value(), bv) {
					return false
				}
			}
			return true
		}
		fallthrough
	case reflect.Array:
		for i := range a.Len() {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

func sameBits(a, b sim.Result) bool { return bitEqual(reflect.ValueOf(a), reflect.ValueOf(b)) }

// fillDistinct sets every exported leaf under v to a distinct non-zero
// value: two elements per slice, two entries per map. A kind it does not
// know fails the test, so a new kind of Result field needs a codec decision.
func fillDistinct(t testing.TB, v reflect.Value, path string, next *uint64) {
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(n)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.String:
		v.SetString("s" + strconv.FormatUint(n, 10))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Array:
		for i := range v.Len() {
			fillDistinct(t, v.Index(i), path+"["+strconv.Itoa(i)+"]", next)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := range 2 {
			fillDistinct(t, s.Index(i), path+"["+strconv.Itoa(i)+"]", next)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for range 2 {
			k := reflect.New(v.Type().Key()).Elem()
			fillDistinct(t, k, path+"{key}", next)
			e := reflect.New(v.Type().Elem()).Elem()
			fillDistinct(t, e, path+"{"+k.String()+"}", next)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported: the codec cannot see it", path, f.Name)
			}
			fillDistinct(t, v.Field(i), path+"."+f.Name, next)
		}
	default:
		t.Fatalf("%s: no fill for kind %s", path, v.Kind())
	}
}

// smallResult returns a one-lane Result told apart by its cycle count.
func smallResult(cycles uint64) sim.Result {
	return sim.Result{Cycles: cycles, IPC: []float64{1.5}, Coverage: 0.25}
}

// entryKey returns the run key an entry's header names, checking only the
// framing, so the fuzz target can ask decodeEntry for the key an arbitrary
// input claims.
func entryKey(data []byte) (string, bool) {
	if !entryFramed(data) {
		return "", false
	}
	k := int(binary.LittleEndian.Uint32(data[12:16]))
	if k > len(data)-entryHeaderLen-4 {
		return "", false
	}
	return string(data[entryHeaderLen : entryHeaderLen+k]), true
}

// everyField returns a Result whose every field holds a distinct non-zero
// value.
func everyField(t testing.TB) sim.Result {
	var res sim.Result
	var next uint64
	fillDistinct(t, reflect.ValueOf(&res).Elem(), "Result", &next)
	return res
}

// roundTripStore puts res under key into a DirStore and returns what Get
// served.
func roundTripStore(t *testing.T, key string, res sim.Result) sim.Result {
	t.Helper()
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(key, res); err != nil {
		t.Fatalf("Put: %v", err)
	}
	r, ok := ds.Get(key)
	if !ok {
		t.Fatal("Get missed a fresh Put")
	}
	return r
}

// TestEntryCodecCoversEveryField sets every field of sim.Result — through
// PortStats, CoverageStats and the Prefetchers maps — to a distinct value
// and requires a bit-exact round trip through the codec and a DirStore, so
// a field added to Result without a codec change fails here.
func TestEntryCodecCoversEveryField(t *testing.T) {
	want := everyField(t)
	const key = "every-field"
	got, ok := decodeEntry(encodeEntry(key, want), []byte(key))
	if !ok || !sameBits(got, want) {
		t.Fatalf("codec round trip lost fields (ok=%t):\n got %+v\nwant %+v", ok, got, want)
	}
	if r := roundTripStore(t, key, want); !sameBits(r, want) {
		t.Errorf("store round trip lost fields:\n got %+v\nwant %+v", r, want)
	}
}

// TestStoresKeepNonFiniteFloats: NaN, ±Inf and -0 are ordinary results.
// The store keeps and serves them bit for bit, and a runner writing one
// keeps its cache writes on.
func TestStoresKeepNonFiniteFloats(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_0000_0001) // a NaN with payload
	negZero := math.Copysign(0, -1)
	want := sim.Result{
		IPC:              []float64{nan, math.Inf(1), negZero},
		Cycles:           9,
		Coverage:         math.NaN(),
		MispredRate:      math.Inf(-1),
		Accuracy:         negZero,
		AvgBandwidthGBps: math.Inf(1),
		PeakBandwidth:    nan,
		Pollution:        [3]float64{negZero, math.NaN(), math.Inf(-1)},
	}
	if r := roundTripStore(t, "non-finite", want); !sameBits(r, want) {
		t.Errorf("store served %v, want %v bit for bit", r, want)
	}

	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(1)
	r.SetResultStore(ds)
	r.cachePut(ds, "non-finite", want)
	if r.cacheWriteOff.Load() {
		t.Fatal("a non-finite result disabled cache writes")
	}
	if got, ok := ds.Get("non-finite"); !ok || !sameBits(got, want) {
		t.Fatalf("runner-written entry: %v ok=%t", got, ok)
	}
}

// TestDecodeEntryRejects: anything but an intact entry for the requested
// key at the current ResultVersion is a miss.
func TestDecodeEntryRejects(t *testing.T) {
	const key = "k"
	res := everyField(t)
	good := encodeEntry(key, res)
	if _, ok := decodeEntry(good, []byte(key)); !ok {
		t.Fatal("intact entry rejected")
	}
	// Offset of the IPC count word: header, then the key.
	ipcCount := entryHeaderLen + len(key)
	withIPCCount := func(n uint32) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[ipcCount:], n)
		return reseal(b)
	}
	trailing := reseal(append(bytes.Clone(good[:len(good)-4]), 0, 0, 0, 0, 0))
	cases := map[string][]byte{
		"empty":           nil,
		"magic":           append([]byte("XSRE"), good[4:]...),
		"length word":     append(bytes.Clone(good), 0),
		"crc":             append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]^1),
		"version":         stampEntry(good, sim.ResultVersion+1),
		"count too large": withIPCCount(math.MaxUint32),
		"count short":     withIPCCount(1),
		"trailing bytes":  trailing,
		"json entry":      []byte(`{"result_version":4,"key":"k","result":{"Cycles":1}}`),
	}
	for name, data := range cases {
		if _, ok := decodeEntry(data, []byte(key)); ok {
			t.Errorf("%s: decoded as a hit", name)
		}
	}
	if _, ok := decodeEntry(good, []byte("other key")); ok {
		t.Error("entry served for a different key")
	}
	for cut := range len(good) {
		if _, ok := decodeEntry(good[:cut], []byte(key)); ok {
			t.Fatalf("entry truncated to %d bytes decoded as a hit", cut)
		}
	}
	for i := range good {
		b := bytes.Clone(good)
		b[i] ^= 0x10
		if _, ok := decodeEntry(b, []byte(key)); ok {
			t.Fatalf("entry with byte %d flipped decoded as a hit", i)
		}
	}
}

// TestPreBinaryEntriesMiss: a store written before the binary encoding
// serves none of its JSON entries, and accepts new ones.
func TestPreBinaryEntriesMiss(t *testing.T) {
	const key = "old"
	old := []byte(`{"result_version":4,"key":"old","result":{"IPC":[1.5],"Cycles":4}}`)

	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.TrimSuffix(ds.PathOf(key), entryExt) + ".json"
	if err := os.WriteFile(legacy, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Get(key); ok {
		t.Error("dir store served a JSON entry")
	}

	want := smallResult(5)
	if err := ds.Put(key, want); err != nil {
		t.Fatalf("Put over an old entry: %v", err)
	}
	if got, ok := ds.Get(key); !ok || !sameBits(got, want) {
		t.Errorf("re-simulated entry not served: %+v ok=%t", got, ok)
	}
}

// FuzzDecodeEntry feeds decodeEntry arbitrary bytes. It must never panic,
// must allocate at most linearly in the input's length, and any entry it
// accepts must re-encode to an entry that decodes to the same Result.
func FuzzDecodeEntry(f *testing.F) {
	full := everyField(f)
	for _, e := range [][]byte{
		encodeEntry("names=\"mcf\" refs=5000", smallResult(7)),
		encodeEntry("every-field", full),
		encodeEntry("", sim.Result{}),
	} {
		f.Add(e)
		f.Add(e[:len(e)/2])
		f.Add(e[:len(e)-1])
		flipped := bytes.Clone(e)
		flipped[len(e)/3] ^= 0xff
		f.Add(flipped)
		f.Add(append(bytes.Clone(e), 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		// The CRC rejects nearly every mutation; resealed, the mutated bytes
		// reach the field parser.
		if len(data) >= entryHeaderLen+4 {
			checkDecode(t, reseal(bytes.Clone(data)))
		}
	})
}

func checkDecode(t *testing.T, data []byte) {
	key, _ := entryKey(data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, ok := decodeEntry(data, []byte(key))
	runtime.ReadMemStats(&after)
	// The binary fields allocate at most the bytes they occupy; the
	// Prefetchers JSON allocates a bounded multiple of its length.
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, 128*uint64(len(data))+64<<10; alloc > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
	}
	if !ok {
		return
	}
	again, ok := decodeEntry(encodeEntry(key, res), []byte(key))
	if !ok || !sameBits(again, res) {
		t.Fatalf("re-encoded entry decodes differently (ok=%t):\n got %+v\nwant %+v", ok, again, res)
	}
}
