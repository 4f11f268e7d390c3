package minidb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Exported wire codec. The dbnet package serves a database over TCP so
// that N middle-tier replicas share one metadata DBMS (Figure 5); its
// frames reuse the compact binary encoding the WAL and snapshots already
// speak — varints, length-prefixed strings, and the tagged Value format —
// instead of inventing a second serialization.

// WirePutUvarint / WirePutVarint / WirePutString append primitives.
func WirePutUvarint(b *bytes.Buffer, v uint64) { putUvarint(b, v) }

// WirePutVarint appends a signed varint.
func WirePutVarint(b *bytes.Buffer, v int64) { putVarint(b, v) }

// WirePutString appends a length-prefixed string.
func WirePutString(b *bytes.Buffer, s string) { putString(b, s) }

// WireUvarint / WireVarint / WireString read primitives.
func WireUvarint(r *bytes.Reader) (uint64, error) { return binary.ReadUvarint(r) }

// WireVarint reads a signed varint.
func WireVarint(r *bytes.Reader) (int64, error) { return binary.ReadVarint(r) }

// WireString reads a length-prefixed string.
func WireString(r *bytes.Reader) (string, error) { return getString(r) }

// Sealed files (colseg's CSG1 segments and CMF1 manifests, the shard
// map's SMAP1) share one whole-file layout: magic | body |
// crc32-IEEE(magic+body) little-endian. A file is written whole and
// replaced atomically, so any damage is rot, never a torn tail: one check
// covers the file.

// WireSeal finishes a sealed file: b holds magic|body; WireSeal appends
// the checksum and returns the file bytes.
func WireSeal(b *bytes.Buffer) []byte {
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(b.Bytes()))
	b.Write(sum[:])
	return b.Bytes()
}

// WireUnseal verifies a sealed file's magic and checksum and returns a
// reader over the body between them.
func WireUnseal(data, magic []byte) (*bytes.Reader, error) {
	if len(data) < len(magic)+4 || !bytes.Equal(data[:len(magic)], magic) {
		return nil, errors.New("bad magic")
	}
	body, sum := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(sum) {
		return nil, errors.New("checksum mismatch")
	}
	return bytes.NewReader(body[len(magic):]), nil
}

// WirePutValue appends one tagged value.
func WirePutValue(b *bytes.Buffer, v Value) { encodeValue(b, v) }

// WireValue reads one tagged value.
func WireValue(r *bytes.Reader) (Value, error) { return decodeValue(r) }

// WirePutRow appends a row. A nil row (absent Get result) is
// distinguishable from an empty one.
func WirePutRow(b *bytes.Buffer, row Row) {
	if row == nil {
		b.WriteByte(0)
		return
	}
	b.WriteByte(1)
	putUvarint(b, uint64(len(row)))
	for _, v := range row {
		encodeValue(b, v)
	}
}

// WireRow reads a row written by WirePutRow.
func WireRow(r *bytes.Reader) (Row, error) {
	present, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("minidb: row length %d exceeds remaining payload", n)
	}
	row := make(Row, n)
	for i := range row {
		if row[i], err = decodeValue(r); err != nil {
			return nil, err
		}
	}
	return row, nil
}

func wirePutPreds(b *bytes.Buffer, preds []Pred) {
	putUvarint(b, uint64(len(preds)))
	for _, p := range preds {
		putString(b, p.Col)
		b.WriteByte(byte(p.Op))
		encodeValue(b, p.Val)
		encodeValue(b, p.Hi)
	}
}

func wirePreds(r *bytes.Reader) ([]Pred, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("minidb: predicate count %d exceeds remaining payload", n)
	}
	preds := make([]Pred, n)
	for i := range preds {
		if preds[i].Col, err = getString(r); err != nil {
			return nil, err
		}
		op, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		preds[i].Op = Op(op)
		if preds[i].Val, err = decodeValue(r); err != nil {
			return nil, err
		}
		if preds[i].Hi, err = decodeValue(r); err != nil {
			return nil, err
		}
	}
	return preds, nil
}

// WirePutQuery appends a structured query.
func WirePutQuery(b *bytes.Buffer, q Query) {
	putString(b, q.Table)
	wirePutPreds(b, q.Where)
	wirePutPreds(b, q.Or)
	putUvarint(b, uint64(len(q.OrderBy)))
	for _, o := range q.OrderBy {
		putString(b, o.Col)
		if o.Desc {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	}
	putVarint(b, int64(q.Offset))
	putVarint(b, int64(q.Limit))
	putUvarint(b, uint64(len(q.Project)))
	for _, c := range q.Project {
		putString(b, c)
	}
	if q.Count {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
}

// WireQuery reads a query written by WirePutQuery.
func WireQuery(r *bytes.Reader) (Query, error) {
	var q Query
	var err error
	if q.Table, err = getString(r); err != nil {
		return q, err
	}
	if q.Where, err = wirePreds(r); err != nil {
		return q, err
	}
	if q.Or, err = wirePreds(r); err != nil {
		return q, err
	}
	nOrd, err := binary.ReadUvarint(r)
	if err != nil {
		return q, err
	}
	if nOrd > uint64(r.Len()) {
		return q, fmt.Errorf("minidb: order count %d exceeds remaining payload", nOrd)
	}
	if nOrd > 0 {
		q.OrderBy = make([]Order, nOrd)
		for i := range q.OrderBy {
			if q.OrderBy[i].Col, err = getString(r); err != nil {
				return q, err
			}
			desc, err := r.ReadByte()
			if err != nil {
				return q, err
			}
			q.OrderBy[i].Desc = desc != 0
		}
	}
	off, err := binary.ReadVarint(r)
	if err != nil {
		return q, err
	}
	lim, err := binary.ReadVarint(r)
	if err != nil {
		return q, err
	}
	q.Offset, q.Limit = int(off), int(lim)
	nProj, err := binary.ReadUvarint(r)
	if err != nil {
		return q, err
	}
	if nProj > uint64(r.Len()) {
		return q, fmt.Errorf("minidb: projection count %d exceeds remaining payload", nProj)
	}
	if nProj > 0 {
		q.Project = make([]string, nProj)
		for i := range q.Project {
			if q.Project[i], err = getString(r); err != nil {
				return q, err
			}
		}
	}
	count, err := r.ReadByte()
	if err != nil {
		return q, err
	}
	q.Count = count != 0
	return q, nil
}

// WirePutResult appends a query result, plan info included.
func WirePutResult(b *bytes.Buffer, res *Result) {
	putUvarint(b, uint64(len(res.Cols)))
	for _, c := range res.Cols {
		putString(b, c)
	}
	putUvarint(b, uint64(len(res.Rows)))
	for _, row := range res.Rows {
		putUvarint(b, uint64(len(row)))
		for _, v := range row {
			encodeValue(b, v)
		}
	}
	putUvarint(b, uint64(len(res.RowIDs)))
	for _, id := range res.RowIDs {
		putVarint(b, id)
	}
	putVarint(b, int64(res.Count))
	b.WriteByte(byte(res.Plan.Kind))
	putString(b, res.Plan.Index)
	putVarint(b, int64(res.Plan.RowsScanned))
}

// WireResult reads a result written by WirePutResult.
func WireResult(r *bytes.Reader) (*Result, error) {
	res := &Result{}
	nCols, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if nCols > uint64(r.Len()) {
		return nil, fmt.Errorf("minidb: column count %d exceeds remaining payload", nCols)
	}
	if nCols > 0 {
		res.Cols = make([]string, nCols)
		for i := range res.Cols {
			if res.Cols[i], err = getString(r); err != nil {
				return nil, err
			}
		}
	}
	nRows, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if nRows > uint64(r.Len()) {
		return nil, fmt.Errorf("minidb: row count %d exceeds remaining payload", nRows)
	}
	if nRows > 0 {
		res.Rows = make([]Row, nRows)
		for i := range res.Rows {
			nv, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			if nv > uint64(r.Len()) {
				return nil, fmt.Errorf("minidb: row width %d exceeds remaining payload", nv)
			}
			row := make(Row, nv)
			for j := range row {
				if row[j], err = decodeValue(r); err != nil {
					return nil, err
				}
			}
			res.Rows[i] = row
		}
	}
	nIDs, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if nIDs > uint64(r.Len()) {
		return nil, fmt.Errorf("minidb: rowid count %d exceeds remaining payload", nIDs)
	}
	if nIDs > 0 {
		res.RowIDs = make([]int64, nIDs)
		for i := range res.RowIDs {
			if res.RowIDs[i], err = binary.ReadVarint(r); err != nil {
				return nil, err
			}
		}
	}
	count, err := binary.ReadVarint(r)
	if err != nil {
		return nil, err
	}
	res.Count = int(count)
	kind, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	res.Plan.Kind = PlanKind(kind)
	if res.Plan.Index, err = getString(r); err != nil {
		return nil, err
	}
	scanned, err := binary.ReadVarint(r)
	if err != nil {
		return nil, err
	}
	res.Plan.RowsScanned = int(scanned)
	return res, nil
}

// WirePutSchema appends a table schema (name, columns, key, indexes).
func WirePutSchema(b *bytes.Buffer, s *Schema) {
	if s == nil {
		b.WriteByte(0)
		return
	}
	b.WriteByte(1)
	putString(b, s.Name)
	putUvarint(b, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		putString(b, c.Name)
		b.WriteByte(byte(c.Type))
		if c.Nullable {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	}
	putString(b, s.PrimaryKey)
	putUvarint(b, uint64(len(s.Indexes)))
	for _, ix := range s.Indexes {
		putString(b, ix)
	}
}

// WireSchema reads a schema written by WirePutSchema (nil if absent).
func WireSchema(r *bytes.Reader) (*Schema, error) {
	present, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	s := &Schema{}
	if s.Name, err = getString(r); err != nil {
		return nil, err
	}
	nCols, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if nCols > uint64(r.Len()) {
		return nil, fmt.Errorf("minidb: schema column count %d exceeds remaining payload", nCols)
	}
	s.Columns = make([]Column, nCols)
	for i := range s.Columns {
		if s.Columns[i].Name, err = getString(r); err != nil {
			return nil, err
		}
		typ, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		s.Columns[i].Type = Type(typ)
		nullable, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		s.Columns[i].Nullable = nullable != 0
	}
	if s.PrimaryKey, err = getString(r); err != nil {
		return nil, err
	}
	nIdx, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if nIdx > uint64(r.Len()) {
		return nil, fmt.Errorf("minidb: schema index count %d exceeds remaining payload", nIdx)
	}
	if nIdx > 0 {
		s.Indexes = make([]string, nIdx)
		for i := range s.Indexes {
			if s.Indexes[i], err = getString(r); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// WirePutBatch appends a mutation batch: op count, then per op a kind byte
// (1 insert, 2 update, 3 delete — the WAL kinds), table, rowid and row.
func WirePutBatch(b *bytes.Buffer, batch *Batch) {
	putUvarint(b, uint64(len(batch.ops)))
	for _, op := range batch.ops {
		b.WriteByte(byte(op.kind))
		putString(b, op.table)
		putVarint(b, op.rowid)
		WirePutRow(b, op.row)
	}
}

// WireBatch reads a batch written by WirePutBatch.
func WireBatch(r *bytes.Reader) (*Batch, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("minidb: batch op count %d exceeds remaining payload", n)
	}
	batch := &Batch{ops: make([]batchOp, 0, n)}
	for i := uint64(0); i < n; i++ {
		kind, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		table, err := getString(r)
		if err != nil {
			return nil, err
		}
		rowid, err := binary.ReadVarint(r)
		if err != nil {
			return nil, err
		}
		row, err := WireRow(r)
		if err != nil {
			return nil, err
		}
		switch walOpKind(kind) {
		case walInsert:
			batch.Insert(table, row)
		case walUpdate:
			batch.Update(table, rowid, row)
		case walDelete:
			batch.Delete(table, rowid)
		default:
			return nil, fmt.Errorf("minidb: batch op kind %d unknown", kind)
		}
	}
	return batch, nil
}

// WirePutStats appends an engine counter snapshot.
func WirePutStats(b *bytes.Buffer, s StatsSnapshot) {
	for _, v := range []int64{
		s.Queries, s.CountQueries, s.FullScans, s.IndexEqScans, s.IndexRanges,
		s.FullIndexScans, s.RowsScanned, s.Inserts, s.Updates, s.Deletes,
		s.Commits, s.Rollbacks, s.Checkpoints, s.ViewRefreshes, s.SnapshotPublishes,
		s.GroupCommits, s.GroupedTxns,
	} {
		putVarint(b, v)
	}
}

// WireStats reads a counter snapshot written by WirePutStats.
func WireStats(r *bytes.Reader) (StatsSnapshot, error) {
	var s StatsSnapshot
	for _, p := range []*int64{
		&s.Queries, &s.CountQueries, &s.FullScans, &s.IndexEqScans, &s.IndexRanges,
		&s.FullIndexScans, &s.RowsScanned, &s.Inserts, &s.Updates, &s.Deletes,
		&s.Commits, &s.Rollbacks, &s.Checkpoints, &s.ViewRefreshes, &s.SnapshotPublishes,
		&s.GroupCommits, &s.GroupedTxns,
	} {
		v, err := binary.ReadVarint(r)
		if err != nil {
			return s, err
		}
		*p = v
	}
	return s, nil
}
