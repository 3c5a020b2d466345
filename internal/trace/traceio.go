package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"dspatch/internal/memaddr"
)

// traceMagic opens every trace file; the trailing digits version the layout.
const traceMagic = "DSPTRC01"

// Export writes the first n recorded refs of the stream (n <= 0, or n past
// the recording, means everything recorded) as a self-describing binary
// scenario file: the magic, the identifying header (name, seed, ref count),
// the five columns, and a trailing CRC-32 over everything after the magic.
// Files are loadable with Import in any later process — traces recorded
// from the synthetic generators and traces captured externally become the
// same kind of artifact.
func (m *Materialized) Export(w io.Writer, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.decodeIfNeededLocked(); err != nil {
		return err
	}
	if n <= 0 || n > m.n {
		n = m.n
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	writeUvarint(out, uint64(len(m.name)))
	io.WriteString(out, m.name)
	writeUvarint(out, zigzag(m.seed))
	writeUvarint(out, uint64(n))

	// The whole dictionary ships even for a prefix export: unreferenced
	// entries only cost a few bytes and keep the columns index-compatible.
	writeUvarint(out, uint64(len(m.pcDict)))
	for _, pc := range m.pcDict {
		writeUvarint(out, uint64(pc))
	}
	// The file holds the stream's fields as columns, each a pass over the
	// records. Lines travel as the same zigzag-varint deltas the stream
	// holds: most deltas are a few lines, so the dominant column compresses
	// to a byte or two per ref.
	each := func(f func(delta, idx, gf uint64)) {
		recs := m.recordsLocked()
		for i := 0; i < n; i++ {
			f(recs.next())
		}
	}
	var vbuf [binary.MaxVarintLen64]byte
	deltaLen := 0
	each(func(delta, _, _ uint64) { deltaLen += binary.PutUvarint(vbuf[:], delta) })
	writeUvarint(out, uint64(deltaLen))
	each(func(delta, _, _ uint64) { out.Write(vbuf[:binary.PutUvarint(vbuf[:], delta)]) })
	var buf [8]byte
	each(func(_, idx, _ uint64) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(idx))
		out.Write(buf[:4])
	})
	each(func(_, _, gf uint64) {
		binary.LittleEndian.PutUint16(buf[:2], uint16(gf>>gapShift))
		out.Write(buf[:2])
	})
	// The flag columns travel as ceil(n/64) little-endian words, the last
	// one zero past the n-th ref.
	writeFlagColumn := func(bit uint64) {
		var word uint64
		i := 0
		each(func(_, _, gf uint64) {
			if gf&bit != 0 {
				word |= 1 << uint(i%64)
			}
			if i++; i%64 == 0 || i == n {
				binary.LittleEndian.PutUint64(buf[:], word)
				out.Write(buf[:])
				word = 0
			}
		})
	}
	writeFlagColumn(writeBit)
	writeFlagColumn(depBit)

	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// Import reads a trace file written by Export, eagerly: the whole stream is
// read, checksummed and decoded before it returns. A truncated, corrupted or
// differently-versioned file returns an error rather than a partially-loaded
// trace, and so does one Export would not have written byte for byte
// (overlong varints, trailing bytes, flag bits past the last ref): an
// accepted file re-exports to the same bytes, so its content fingerprint is
// a function of its refs. For O(1)-startup loading of files on disk, see
// ImportFile.
func Import(r io.Reader) (*Materialized, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: import: %w", err)
	}
	m, err := importBytes(data, nil)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ImportFile opens a trace file written by Export with O(1) startup cost:
// only the header (magic, name, seed, ref count) is parsed up front — the
// column payload is memory-mapped where the platform supports it and
// checksummed + decoded on first replay, so importing a huge trace costs
// almost nothing until a simulation actually pulls refs. Corruption past the
// header is still rejected before the first ref replays: Validate surfaces
// the decode error eagerly, and Cursor panics with it otherwise.
func ImportFile(path string) (*Materialized, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: import %s: %w", path, err)
	}
	m, err := importBytes(data, unmap)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	return m, nil
}

// importBytes parses only the header of an exported trace — magic, name,
// seed, ref count — and returns a Materialized whose stream decodes lazily
// from the retained body on first use. unmap, when non-nil, releases data's
// backing mapping once the stream is decoded (or decoding fails).
func importBytes(data []byte, unmap func()) (*Materialized, error) {
	if len(data) < len(traceMagic)+4 {
		return nil, fmt.Errorf("trace: import: file too short (%d bytes)", len(data))
	}
	if string(data[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("trace: import: bad magic %q (want %q)", data[:len(traceMagic)], traceMagic)
	}
	body, tail := data[len(traceMagic):len(data)-4], data[len(data)-4:]

	d := &decoder{b: body}
	nameLen := d.uvarint()
	if d.err == nil && nameLen > uint64(len(body)) {
		return nil, fmt.Errorf("trace: import: implausible name length %d for a %d-byte body", nameLen, len(body))
	}
	name := string(d.take(int(nameLen)))
	seed := unzigzag(d.uvarint())
	n := int(d.uvarint())
	if d.err != nil {
		return nil, fmt.Errorf("trace: import: %w", d.err)
	}
	// Validate the declared count against the body size before allocating
	// anything from it: a hostile or hand-mangled file must be rejected, not
	// trusted into a huge or negative make(). Every ref costs at least 6
	// bytes across the fixed-width columns.
	if n < 0 || n > len(body)/6 {
		return nil, fmt.Errorf("trace: import: implausible ref count %d for a %d-byte body", n, len(body))
	}
	return &Materialized{
		name:    name,
		seed:    seed,
		n:       n,
		raw:     body,
		hdrOff:  len(body) - len(d.b),
		fileCRC: binary.LittleEndian.Uint32(tail),
		unmap:   unmap,
	}, nil
}

// decodeIfNeededLocked decodes a lazily-imported trace's stream on first
// use, releasing the raw body (and its file mapping) either way and latching
// a failure so every later caller sees the same rejection. Fully-decoded and
// generator-backed traces return nil immediately. Callers hold m.mu.
func (m *Materialized) decodeIfNeededLocked() error {
	if m.decodeErr != nil {
		return m.decodeErr
	}
	if m.raw == nil {
		return nil
	}
	err := m.decodeBodyLocked()
	m.raw = nil
	if m.unmap != nil {
		m.unmap()
		m.unmap = nil
	}
	if err != nil {
		m.decodeErr = err
	}
	return err
}

// decodeBodyLocked verifies the body checksum and every column, then
// encodes the refs into m's stream. The CRC is verified before any content
// is trusted, exactly as the eager import always did — lazy loading moves
// the verification to first replay, it never skips it — and the whole file
// is checked before the first record is written, so a failed decode leaves
// no partial stream behind.
func (m *Materialized) decodeBodyLocked() error {
	body := m.raw
	if got := crc32.ChecksumIEEE(body); got != m.fileCRC {
		return fmt.Errorf("trace: import: CRC mismatch (file %08x, computed %08x)", m.fileCRC, got)
	}
	n := m.n
	d := &decoder{b: body[m.hdrOff:]}
	dictLen := int(d.uvarint())
	if dictLen < 0 || dictLen > len(body) {
		return fmt.Errorf("trace: import: implausible PC dictionary size %d", dictLen)
	}
	pcDict := make([]memaddr.PC, dictLen)
	for i := range pcDict {
		pcDict[i] = memaddr.PC(d.uvarint())
	}
	deltas := d.take(int(d.uvarint()))
	pcIdx := d.take(4 * n)
	gaps := d.take(2 * n)
	words := (n + 63) / 64
	write := d.take(8 * words)
	dep := d.take(8 * words)
	if d.err != nil {
		return fmt.Errorf("trace: import: %w", d.err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("trace: import: %d trailing bytes after the columns", len(d.b))
	}
	rest := deltas
	for i := 0; i < n; i++ {
		_, w := canonicalUvarint(rest)
		if w <= 0 {
			return fmt.Errorf("trace: import: truncated or overlong delta at ref %d", i)
		}
		rest = rest[w:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("trace: import: %d bytes past the last delta", len(rest))
	}
	if n%64 != 0 {
		for _, col := range [][]byte{write, dep} {
			if binary.LittleEndian.Uint64(col[len(col)-8:])>>uint(n%64) != 0 {
				return fmt.Errorf("trace: import: flag bits set past ref %d", n)
			}
		}
	}
	for i := 0; i < n; i++ {
		if idx := binary.LittleEndian.Uint32(pcIdx[4*i:]); int(idx) >= dictLen {
			return fmt.Errorf("trace: import: PC index %d outside dictionary of %d", idx, dictLen)
		}
	}

	m.pcDict = pcDict
	flag := func(col []byte, i int) uint64 { return uint64(col[i/8]>>uint(i%8)) & 1 }
	for i := 0; i < n; i++ {
		delta, w := binary.Uvarint(deltas)
		deltas = deltas[w:]
		gf := uint64(binary.LittleEndian.Uint16(gaps[2*i:]))<<gapShift | flag(write, i)*writeBit | flag(dep, i)*depBit
		m.appendRecordLocked(delta, uint64(binary.LittleEndian.Uint32(pcIdx[4*i:])), gf)
	}
	m.sealLocked()
	return nil
}

// decoder walks the import body, latching the first structural error so the
// parse above stays linear.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.b) {
		if d.err == nil {
			d.err = fmt.Errorf("truncated body (need %d bytes, have %d)", n, len(d.b))
		}
		return make([]byte, max(n, 0))
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, w := canonicalUvarint(d.b)
	if w <= 0 {
		d.err = fmt.Errorf("truncated or overlong varint")
		return 0
	}
	d.b = d.b[w:]
	return u
}

// canonicalUvarint is binary.Uvarint that also refuses overlong encodings,
// which end in a 0x00 byte; PutUvarint never writes one.
func canonicalUvarint(b []byte) (uint64, int) {
	u, w := binary.Uvarint(b)
	if w > 1 && b[w-1] == 0 {
		return 0, 0
	}
	return u, w
}

// writeUvarint writes a varint to w; errors surface through the CRC check on
// the read side and the final Flush on the write side.
func writeUvarint(w io.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.Write(buf[:binary.PutUvarint(buf[:], v)])
}
