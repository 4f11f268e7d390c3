package colseg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/minidb"
)

// On-disk segment format, written through the minidb.VFS seam so the fault
// harness can crash any single I/O:
//
//	"CSG1"                                magic
//	uvarint version (1)
//	string  table
//	uvarint startRow, endRow, rewrites, epoch, nrows, ncols
//	per column:
//	  string name · byte type · byte encoding
//	  uvarint null-bitmap words · 8 bytes LE each
//	  byte zone flags (1 valid, 2 hasNull) · 8 bytes minF · 8 bytes maxF
//	  string minS · string maxS
//	  payload (encoding-specific, nrows values)
//	uint32 LE CRC-32 (IEEE) of everything above
//
// Payloads: encRaw is 8-byte LE float bits per value; encDelta is a varint
// first value then varint deltas; encDoD adds a second level of deltas for
// monotone sequences (event ids, timestamps — near-constant steps shrink
// to one byte); encDict is a uvarint dictionary length, the dictionary
// strings, then one uvarint code per value.
//
// A file that fails any check — magic, structure, bounds, CRC — decodes to
// an error and the store discards and rebuilds it; a torn write is never
// served.

var segMagic = []byte("CSG1")

const (
	segVersion = 1
	// Decode-side sanity bounds: a corrupt header must not drive
	// allocations, only errors.
	maxSegRows = 1 << 26
	maxSegCols = 1 << 12
)

// encodeSegment renders seg to its file bytes.
func encodeSegment(seg *Segment) []byte {
	var b bytes.Buffer
	b.Write(segMagic)
	minidb.WirePutUvarint(&b, segVersion)
	minidb.WirePutString(&b, seg.Table)
	minidb.WirePutUvarint(&b, uint64(seg.StartRow))
	minidb.WirePutUvarint(&b, uint64(seg.EndRow))
	minidb.WirePutUvarint(&b, seg.Rewrites)
	minidb.WirePutUvarint(&b, seg.Epoch)
	minidb.WirePutUvarint(&b, uint64(seg.NRows))
	minidb.WirePutUvarint(&b, uint64(len(seg.cols)))
	var scratch [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		b.Write(scratch[:])
	}
	for i := range seg.cols {
		c := &seg.cols[i]
		minidb.WirePutString(&b, c.name)
		b.WriteByte(byte(c.typ))
		b.WriteByte(c.enc)
		minidb.WirePutUvarint(&b, uint64(len(c.nulls)))
		for _, w := range c.nulls {
			put64(w)
		}
		var flags byte
		if c.zone.Valid {
			flags |= 1
		}
		if c.zone.HasNull {
			flags |= 2
		}
		b.WriteByte(flags)
		put64(math.Float64bits(c.zone.MinF))
		put64(math.Float64bits(c.zone.MaxF))
		minidb.WirePutString(&b, c.zone.MinS)
		minidb.WirePutString(&b, c.zone.MaxS)
		switch c.enc {
		case encRaw:
			for _, f := range c.floats {
				put64(math.Float64bits(f))
			}
		case encDelta:
			prev := int64(0)
			for j, v := range c.ints {
				if j == 0 {
					minidb.WirePutVarint(&b, v)
				} else {
					minidb.WirePutVarint(&b, v-prev)
				}
				prev = v
			}
		case encDoD:
			var prev, prevDelta int64
			for j, v := range c.ints {
				switch j {
				case 0:
					minidb.WirePutVarint(&b, v)
				case 1:
					prevDelta = v - prev
					minidb.WirePutVarint(&b, prevDelta)
				default:
					d := v - prev
					minidb.WirePutVarint(&b, d-prevDelta)
					prevDelta = d
				}
				prev = v
			}
		case encDict:
			minidb.WirePutUvarint(&b, uint64(len(c.dict)))
			for _, s := range c.dict {
				minidb.WirePutString(&b, s)
			}
			for _, code := range c.codes {
				minidb.WirePutUvarint(&b, uint64(code))
			}
		}
	}
	return minidb.WireSeal(&b)
}

// decodeSegment parses file bytes back into a segment, verifying structure
// and checksum. Any deviation is an error, never a partial segment.
func decodeSegment(data []byte) (*Segment, error) {
	r, err := minidb.WireUnseal(data, segMagic)
	if err != nil {
		return nil, fmt.Errorf("colseg: segment: %w", err)
	}
	version, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if version != segVersion {
		return nil, fmt.Errorf("colseg: segment version %d unsupported", version)
	}
	seg := &Segment{}
	if seg.Table, err = minidb.WireString(r); err != nil {
		return nil, err
	}
	hdr := make([]uint64, 6)
	for i := range hdr {
		if hdr[i], err = binary.ReadUvarint(r); err != nil {
			return nil, err
		}
	}
	nrows, ncols := hdr[4], hdr[5]
	if nrows > maxSegRows || ncols > maxSegCols {
		return nil, fmt.Errorf("colseg: segment dimensions %d×%d out of range", nrows, ncols)
	}
	seg.StartRow, seg.EndRow = int64(hdr[0]), int64(hdr[1])
	seg.Rewrites, seg.Epoch = hdr[2], hdr[3]
	seg.NRows = int(nrows)
	if seg.StartRow < 0 || seg.EndRow < seg.StartRow || int64(seg.NRows) > seg.EndRow-seg.StartRow {
		return nil, fmt.Errorf("colseg: segment row range [%d,%d) inconsistent with %d rows",
			seg.StartRow, seg.EndRow, seg.NRows)
	}
	seg.cols = make([]colVec, ncols)
	seg.colIdx = make(map[string]int, ncols)
	get64 := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, fmt.Errorf("colseg: truncated fixed64")
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	n := seg.NRows
	for i := range seg.cols {
		c := &seg.cols[i]
		if c.name, err = minidb.WireString(r); err != nil {
			return nil, err
		}
		if _, dup := seg.colIdx[c.name]; dup {
			return nil, fmt.Errorf("colseg: duplicate column %s", c.name)
		}
		seg.colIdx[c.name] = i
		typ, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		c.typ = minidb.Type(typ)
		if c.enc, err = r.ReadByte(); err != nil {
			return nil, err
		}
		nwords, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		switch nwords {
		case 0:
		case uint64((n + 63) / 64):
			if uint64(r.Len()) < nwords*8 {
				return nil, fmt.Errorf("colseg: truncated null bitmap for %s", c.name)
			}
			c.nulls = make([]uint64, nwords)
			for j := range c.nulls {
				if c.nulls[j], err = get64(); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("colseg: null bitmap has %d words for %d rows", nwords, n)
		}
		flags, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		c.zone.Valid, c.zone.HasNull = flags&1 != 0, flags&2 != 0
		minBits, err := get64()
		if err != nil {
			return nil, err
		}
		maxBits, err := get64()
		if err != nil {
			return nil, err
		}
		c.zone.MinF, c.zone.MaxF = math.Float64frombits(minBits), math.Float64frombits(maxBits)
		if c.zone.MinS, err = minidb.WireString(r); err != nil {
			return nil, err
		}
		if c.zone.MaxS, err = minidb.WireString(r); err != nil {
			return nil, err
		}
		switch c.enc {
		case encRaw:
			if c.typ != minidb.FloatType {
				return nil, fmt.Errorf("colseg: raw encoding on %s column %s", c.typ, c.name)
			}
			if r.Len() < 8*n {
				return nil, fmt.Errorf("colseg: truncated float payload for %s", c.name)
			}
			c.floats = make([]float64, n)
			for j := range c.floats {
				bits, err := get64()
				if err != nil {
					return nil, err
				}
				c.floats[j] = math.Float64frombits(bits)
			}
		case encDelta, encDoD:
			switch c.typ {
			case minidb.IntType, minidb.BoolType, minidb.TimeType:
			default:
				return nil, fmt.Errorf("colseg: delta encoding on %s column %s", c.typ, c.name)
			}
			if r.Len() < n { // every varint is at least one byte
				return nil, fmt.Errorf("colseg: truncated int payload for %s", c.name)
			}
			c.ints = make([]int64, n)
			var prev, prevDelta int64
			for j := range c.ints {
				raw, err := binary.ReadVarint(r)
				if err != nil {
					return nil, err
				}
				switch {
				case j == 0:
					c.ints[j] = raw
				case c.enc == encDelta:
					c.ints[j] = prev + raw
				case j == 1:
					prevDelta = raw
					c.ints[j] = prev + raw
				default:
					prevDelta += raw
					c.ints[j] = prev + prevDelta
				}
				prev = c.ints[j]
			}
		case encDict:
			switch c.typ {
			case minidb.StringType, minidb.BytesType:
			default:
				return nil, fmt.Errorf("colseg: dict encoding on %s column %s", c.typ, c.name)
			}
			dictLen, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			if dictLen > uint64(n) || dictLen > uint64(r.Len()) {
				return nil, fmt.Errorf("colseg: dictionary of %d entries for %d rows", dictLen, n)
			}
			c.dict = make([]string, dictLen)
			for j := range c.dict {
				if c.dict[j], err = minidb.WireString(r); err != nil {
					return nil, err
				}
			}
			if r.Len() < n { // every code is at least one byte
				return nil, fmt.Errorf("colseg: truncated code payload for %s", c.name)
			}
			c.codes = make([]uint32, n)
			for j := range c.codes {
				code, err := binary.ReadUvarint(r)
				if err != nil {
					return nil, err
				}
				// NULL rows carry placeholder code 0; every non-NULL row
				// must address a real dictionary entry.
				if code >= dictLen && !c.isNull(j) {
					return nil, fmt.Errorf("colseg: code %d out of dictionary range %d", code, dictLen)
				}
				c.codes[j] = uint32(code)
			}
		default:
			return nil, fmt.Errorf("colseg: unknown encoding %d", c.enc)
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("colseg: %d trailing bytes after segment", r.Len())
	}
	return seg, nil
}

// Manifest format ("CMF1"): the authoritative list of a table's segment
// files. The VFS has no directory listing, so the manifest is how a
// reopened store finds its segments; it is CRC'd and replaced atomically
// (tmp + rename) after the segment files it names are durable, which
// ordains crash safety: a crash before the rename leaves the old manifest
// naming old (intact) files.

var manMagic = []byte("CMF1")

type manifest struct {
	Table    string
	Rewrites uint64
	Covered  int64 // heap positions [0, Covered) are segmented
	Files    []string
}

func encodeManifest(m *manifest) []byte {
	var b bytes.Buffer
	b.Write(manMagic)
	minidb.WirePutUvarint(&b, segVersion)
	minidb.WirePutString(&b, m.Table)
	minidb.WirePutUvarint(&b, m.Rewrites)
	minidb.WirePutUvarint(&b, uint64(m.Covered))
	minidb.WirePutUvarint(&b, uint64(len(m.Files)))
	for _, f := range m.Files {
		minidb.WirePutString(&b, f)
	}
	return minidb.WireSeal(&b)
}

func decodeManifest(data []byte) (*manifest, error) {
	r, err := minidb.WireUnseal(data, manMagic)
	if err != nil {
		return nil, fmt.Errorf("colseg: manifest: %w", err)
	}
	version, err := binary.ReadUvarint(r)
	if err != nil || version != segVersion {
		return nil, fmt.Errorf("colseg: manifest version unsupported")
	}
	m := &manifest{}
	if m.Table, err = minidb.WireString(r); err != nil {
		return nil, err
	}
	if m.Rewrites, err = binary.ReadUvarint(r); err != nil {
		return nil, err
	}
	covered, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	m.Covered = int64(covered)
	nf, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if nf > uint64(r.Len()) {
		return nil, fmt.Errorf("colseg: manifest file count %d exceeds payload", nf)
	}
	m.Files = make([]string, nf)
	for i := range m.Files {
		if m.Files[i], err = minidb.WireString(r); err != nil {
			return nil, err
		}
	}
	return m, nil
}
