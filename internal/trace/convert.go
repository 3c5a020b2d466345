package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dspatch/internal/memaddr"
)

// ConvertOptions parameterizes external-trace conversion.
type ConvertOptions struct {
	// Name is the roster name the converted trace will carry.
	Name string
	// Seed is recorded in the DSPTRC01 header (external traces have no
	// generator seed; it only distinguishes store entries).
	Seed int64
	// MaxRefs bounds the conversion; 0 converts everything.
	MaxRefs int
	// Format selects the input layout: "text", "champsim", or ""/"auto" to
	// sniff. Gzip compression is detected independently of Format.
	Format string
}

// Convert ingests an external LLC access trace — ChampSim/gem5-style, text
// or binary, plain or gzipped — into a Materialized stream ready to Export
// as DSPTRC01 or register for simulation.
//
// The text form is one reference per line, whitespace- or comma-separated:
//
//	pc addr [r|w] [gap] [dep]
//
// pc and addr accept 0x-prefixed hex or decimal; the optional third field
// marks the access a read or write (default read); gap is the number of
// non-memory instructions preceding the reference (clamped to 65535); dep
// (0/1) marks an address dependence on the previous load. Blank lines and
// #-comments are skipped; anything else is an error naming the line.
//
// The binary form is ChampSim's 64-byte input_instr record: ip, branch
// flags, destination/source registers, and up to 2 destination + 4 source
// memory addresses per instruction. Instructions without memory operands
// accumulate into the next reference's gap; a source-register match against
// the previous memory instruction's destination registers marks dependent
// loads.
func Convert(r io.Reader, opt ConvertOptions) (*Materialized, error) {
	if opt.Name == "" {
		return nil, fmt.Errorf("trace: convert: missing name")
	}
	br := bufio.NewReaderSize(r, 1<<16)
	if hdr, err := br.Peek(2); err == nil && hdr[0] == 0x1f && hdr[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: convert: gzip: %w", err)
		}
		defer zr.Close()
		br = bufio.NewReaderSize(zr, 1<<16)
	}
	format := opt.Format
	if format == "" || format == "auto" {
		head, _ := br.Peek(512)
		if len(head) == 0 {
			return nil, fmt.Errorf("trace: convert: empty input")
		}
		if looksText(head) {
			format = "text"
		} else {
			format = "champsim"
		}
	}
	var refs []Ref
	var err error
	switch format {
	case "text":
		refs, err = parseTextTrace(br, opt.MaxRefs)
	case "champsim":
		refs, err = parseChampSimTrace(br, opt.MaxRefs)
	default:
		return nil, fmt.Errorf("trace: convert: unknown format %q (want auto, text or champsim)", format)
	}
	if err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("trace: convert: input holds no memory references")
	}
	return FromRefs(opt.Name, opt.Seed, refs)
}

// looksText reports whether the sniffed head is plausible trace text:
// entirely printable ASCII plus whitespace.
func looksText(head []byte) bool {
	for _, c := range head {
		if c >= 0x20 && c < 0x7f {
			continue
		}
		switch c {
		case '\t', '\n', '\r':
			continue
		}
		return false
	}
	return true
}

func parseTextTrace(r *bufio.Reader, maxRefs int) ([]Ref, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var refs []Ref
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.FieldsFunc(line, func(r rune) bool {
			return r == ' ' || r == '\t' || r == ','
		})
		if len(fields) < 2 || len(fields) > 5 {
			return nil, fmt.Errorf("trace: convert: line %d: want 2–5 fields (pc addr [r|w] [gap] [dep]), have %d", lineNo, len(fields))
		}
		pc, err := parseNum(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: convert: line %d: pc: %w", lineNo, err)
		}
		addr, err := parseNum(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: convert: line %d: addr: %w", lineNo, err)
		}
		ref := Ref{PC: memaddr.PC(pc), Line: memaddr.LineOf(memaddr.Addr(addr)), Gap: 1}
		if len(fields) >= 3 {
			switch fields[2] {
			case "r", "R", "0":
			case "w", "W", "1":
				ref.Write = true
			default:
				return nil, fmt.Errorf("trace: convert: line %d: read/write flag %q (want r or w)", lineNo, fields[2])
			}
		}
		if len(fields) >= 4 {
			gap, err := parseNum(fields[3])
			if err != nil {
				return nil, fmt.Errorf("trace: convert: line %d: gap: %w", lineNo, err)
			}
			ref.Gap = int(min64(gap, 65535))
		}
		if len(fields) == 5 {
			switch fields[4] {
			case "0":
			case "1":
				ref.Dep = true
			default:
				return nil, fmt.Errorf("trace: convert: line %d: dep flag %q (want 0 or 1)", lineNo, fields[4])
			}
		}
		refs = append(refs, ref)
		if maxRefs > 0 && len(refs) >= maxRefs {
			return refs, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: convert: line %d: %w", lineNo, err)
	}
	return refs, nil
}

func parseNum(s string) (uint64, error) {
	base := 10
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		s, base = s[2:], 16
	}
	v, err := strconv.ParseUint(s, base, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}

func min64(v uint64, lim uint64) uint64 {
	if v > lim {
		return lim
	}
	return v
}

// champsimRecordSize is ChampSim's input_instr: ip(8) is_branch(1)
// branch_taken(1) destination_registers(2) source_registers(4)
// destination_memory(2×8) source_memory(4×8).
const champsimRecordSize = 64

func parseChampSimTrace(r *bufio.Reader, maxRefs int) ([]Ref, error) {
	var refs []Ref
	var rec [champsimRecordSize]byte
	var lastLoadDest [2]byte
	gap := 0
	for instr := 0; ; instr++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			if err == io.EOF {
				return refs, nil
			}
			return nil, fmt.Errorf("trace: convert: truncated champsim record at instruction %d: %w", instr, err)
		}
		ip := binary.LittleEndian.Uint64(rec[0:8])
		srcReg := rec[12:16]

		dep := false
		for _, s := range srcReg {
			if s == 0 {
				continue
			}
			if s == lastLoadDest[0] || s == lastLoadDest[1] {
				dep = true
			}
		}

		emitted := 0
		emit := func(addr uint64, write bool) {
			if addr == 0 {
				return
			}
			g := 0
			if emitted == 0 {
				g = min(gap, 65535)
			}
			refs = append(refs, Ref{
				PC:    memaddr.PC(ip),
				Line:  memaddr.LineOf(memaddr.Addr(addr)),
				Write: write,
				Gap:   g,
				Dep:   dep && !write,
			})
			emitted++
		}
		for i := 0; i < 4; i++ {
			emit(binary.LittleEndian.Uint64(rec[32+8*i:40+8*i]), false)
		}
		for i := 0; i < 2; i++ {
			emit(binary.LittleEndian.Uint64(rec[16+8*i:24+8*i]), true)
		}
		if emitted == 0 {
			gap++
			continue
		}
		gap = 0
		// Loads feed later address computations through this instruction's
		// destination registers.
		lastLoadDest[0], lastLoadDest[1] = rec[10], rec[11]
		if maxRefs > 0 && len(refs) >= maxRefs {
			return refs[:maxRefs], nil
		}
	}
}

// FromRefs builds a Materialized stream from explicit references — the
// converter's constructor. The result is import-like: fixed length (it
// cannot extend), a content fingerprint, and like every finished stream it
// holds only its encoded bytes and PC dictionary, so it can Export,
// register and participate in cache keys exactly like a file import.
func FromRefs(name string, seed int64, refs []Ref) (*Materialized, error) {
	if name == "" {
		return nil, fmt.Errorf("trace: FromRefs: missing name")
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("trace: FromRefs: no references")
	}
	m := &Materialized{name: name, seed: seed}
	pcs := map[memaddr.PC]uint32{}
	m.mu.Lock()
	for i := range refs {
		if err := m.appendRefLocked(&refs[i], pcs); err != nil {
			m.mu.Unlock()
			return nil, err
		}
	}
	m.sealLocked()
	m.mu.Unlock()
	// Stamp the content fingerprint: the trailing CRC of the stream's own
	// export bytes, exactly what a file round-trip would carry.
	var tw tailWriter
	if err := m.Export(&tw, 0); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.fileCRC = binary.LittleEndian.Uint32(tw.tail[:])
	m.mu.Unlock()
	return m, nil
}

// tailWriter retains the last four bytes written through it — the CRC tail
// of an Export.
type tailWriter struct {
	tail [4]byte
}

func (w *tailWriter) Write(p []byte) (int, error) {
	switch {
	case len(p) >= 4:
		copy(w.tail[:], p[len(p)-4:])
	case len(p) > 0:
		var merged [8]byte
		n := copy(merged[:], w.tail[:])
		n += copy(merged[n:], p)
		copy(w.tail[:], merged[n-4:n])
	}
	return len(p), nil
}
