package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sort"

	"repro/internal/minidb"
)

// Phase is the stage of an in-flight slot move (split.go). The map only
// carries a Move while a split is running; a stable map has Move == nil.
type Phase uint8

const (
	// PhaseDualWrite: writes to moving slots go to both From and To;
	// reads still come from From. The To copies are invisible (partial
	// backfill must never be served).
	PhaseDualWrite Phase = iota + 1
	// PhaseCutover: backfill is complete and the slot table now names To
	// as owner; reads route to To. From still holds leftover copies that
	// the scatter path must filter until cleanup deletes them.
	PhaseCutover
)

func (p Phase) String() string {
	switch p {
	case PhaseDualWrite:
		return "dual-write"
	case PhaseCutover:
		return "cutover"
	}
	return "?"
}

// Move records an in-flight slot transfer.
type Move struct {
	From  int
	To    int
	Slots []int // sorted, unique
	Phase Phase
}

func (m *Move) moving(slot int) bool {
	i := sort.SearchInts(m.Slots, slot)
	return i < len(m.Slots) && m.Slots[i] == slot
}

// Map is one version of the shard layout: which shards exist, which shard
// owns each of the 64 hash slots, and at most one in-flight Move. Maps
// are immutable once installed in a Router — every change is a Clone,
// bump, persist, swap.
type Map struct {
	Version uint64
	Shards  []int // sorted shard ids
	Slots   [NumSlots]int
	Move    *Move
}

// NewMap lays shardIDs out over the slot table in contiguous runs —
// hash-partitioned keys, range-partitioned slot space — so a later split
// can hand a contiguous half of a shard's run to a new shard.
func NewMap(shardIDs []int) *Map {
	ids := append([]int(nil), shardIDs...)
	sort.Ints(ids)
	m := &Map{Version: 1, Shards: ids}
	n := len(ids)
	for s := 0; s < NumSlots; s++ {
		m.Slots[s] = ids[s*n/NumSlots]
	}
	return m
}

// Clone returns a deep copy ready for mutation.
func (m *Map) Clone() *Map {
	c := &Map{Version: m.Version, Shards: append([]int(nil), m.Shards...), Slots: m.Slots}
	if m.Move != nil {
		mv := *m.Move
		mv.Slots = append([]int(nil), m.Move.Slots...)
		c.Move = &mv
	}
	return c
}

// Home is the shard that owns every homed (unsharded) table: the lowest
// shard id, which a split never removes.
func (m *Map) Home() int { return m.Shards[0] }

// ReadOwner is the shard serving reads for a slot under the current map.
func (m *Map) ReadOwner(slot int) int { return m.Slots[slot] }

// WriteOwners is every shard a write to the slot must reach: just the
// owner, except during a dual-write window where the move's From and To
// both take the write.
func (m *Map) WriteOwners(slot int) (primary int, mirror int, dual bool) {
	if m.Move != nil && m.Move.Phase == PhaseDualWrite && m.Move.moving(slot) {
		return m.Move.From, m.Move.To, true
	}
	return m.Slots[slot], 0, false
}

// ReadShards is the scatter set: every shard owning at least one slot.
func (m *Map) ReadShards() []int {
	seen := make(map[int]bool, len(m.Shards))
	var out []int
	for s := 0; s < NumSlots; s++ {
		if !seen[m.Slots[s]] {
			seen[m.Slots[s]] = true
			out = append(out, m.Slots[s])
		}
	}
	sort.Ints(out)
	return out
}

// hasShard reports whether id is a registered shard.
func (m *Map) hasShard(id int) bool {
	i := sort.SearchInts(m.Shards, id)
	return i < len(m.Shards) && m.Shards[i] == id
}

// Validate checks internal consistency (used after decode and by fuzz).
func (m *Map) Validate() error {
	if m.Version == 0 {
		return errors.New("shard: map version 0")
	}
	if len(m.Shards) == 0 {
		return errors.New("shard: map has no shards")
	}
	if !sort.IntsAreSorted(m.Shards) {
		return errors.New("shard: shard ids not sorted")
	}
	for i := 1; i < len(m.Shards); i++ {
		if m.Shards[i] == m.Shards[i-1] {
			return errors.New("shard: duplicate shard id")
		}
	}
	for i, id := range m.Shards {
		if id < 0 || id > 1<<15 {
			return fmt.Errorf("shard: shard id %d out of range at %d", id, i)
		}
	}
	for s, owner := range m.Slots {
		if !m.hasShard(owner) {
			return fmt.Errorf("shard: slot %d owned by unknown shard %d", s, owner)
		}
	}
	if mv := m.Move; mv != nil {
		if mv.Phase != PhaseDualWrite && mv.Phase != PhaseCutover {
			return fmt.Errorf("shard: bad move phase %d", mv.Phase)
		}
		if !m.hasShard(mv.From) || !m.hasShard(mv.To) || mv.From == mv.To {
			return fmt.Errorf("shard: bad move %d->%d", mv.From, mv.To)
		}
		if len(mv.Slots) == 0 {
			return errors.New("shard: move with no slots")
		}
		if !sort.IntsAreSorted(mv.Slots) {
			return errors.New("shard: move slots not sorted")
		}
		for i, s := range mv.Slots {
			if s < 0 || s >= NumSlots {
				return fmt.Errorf("shard: move slot %d out of range", s)
			}
			if i > 0 && mv.Slots[i-1] == s {
				return errors.New("shard: duplicate move slot")
			}
			want := mv.From
			if mv.Phase == PhaseCutover {
				want = mv.To
			}
			if m.Slots[s] != want {
				return fmt.Errorf("shard: move slot %d owned by %d, want %d in phase %s",
					s, m.Slots[s], want, mv.Phase)
			}
		}
	}
	return nil
}

// On-disk format: magic "SMAP1", then a uvarint-coded body, then the
// IEEE CRC32 of magic+body as 4 little-endian bytes. The file is written
// tmp + sync + rename, so a reader sees the old file or the new file;
// the CRC rejects torn or bit-flipped content.
var mapMagic = []byte("SMAP1")

const mapFile = "SHARDMAP"

// EncodeMap renders m to its on-disk format.
func EncodeMap(m *Map) []byte {
	var b bytes.Buffer
	b.Write(mapMagic)
	minidb.WirePutUvarint(&b, m.Version)
	minidb.WirePutUvarint(&b, uint64(len(m.Shards)))
	for _, id := range m.Shards {
		minidb.WirePutUvarint(&b, uint64(id))
	}
	for _, owner := range m.Slots {
		minidb.WirePutUvarint(&b, uint64(owner))
	}
	if m.Move == nil {
		b.WriteByte(0)
	} else {
		b.WriteByte(1)
		minidb.WirePutUvarint(&b, uint64(m.Move.From))
		minidb.WirePutUvarint(&b, uint64(m.Move.To))
		minidb.WirePutUvarint(&b, uint64(m.Move.Phase))
		minidb.WirePutUvarint(&b, uint64(len(m.Move.Slots)))
		for _, s := range m.Move.Slots {
			minidb.WirePutUvarint(&b, uint64(s))
		}
	}
	return minidb.WireSeal(&b)
}

// DecodeMap parses and validates an on-disk shard map.
func DecodeMap(data []byte) (*Map, error) {
	r, err := minidb.WireUnseal(data, mapMagic)
	if err != nil {
		return nil, fmt.Errorf("shard: map: %w", err)
	}
	m := &Map{}
	if m.Version, err = minidb.WireUvarint(r); err != nil {
		return nil, fmt.Errorf("shard: map version: %w", err)
	}
	n, err := minidb.WireUvarint(r)
	if err != nil || n == 0 || n > 1<<15 {
		return nil, fmt.Errorf("shard: map shard count %d: %v", n, err)
	}
	m.Shards = make([]int, n)
	for i := range m.Shards {
		v, err := minidb.WireUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("shard: map shard id: %w", err)
		}
		m.Shards[i] = int(v)
	}
	for s := range m.Slots {
		v, err := minidb.WireUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("shard: map slot %d: %w", s, err)
		}
		m.Slots[s] = int(v)
	}
	flag, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("shard: map move flag: %w", err)
	}
	if flag == 1 {
		mv := &Move{}
		var v uint64
		if v, err = minidb.WireUvarint(r); err != nil {
			return nil, fmt.Errorf("shard: move from: %w", err)
		}
		mv.From = int(v)
		if v, err = minidb.WireUvarint(r); err != nil {
			return nil, fmt.Errorf("shard: move to: %w", err)
		}
		mv.To = int(v)
		if v, err = minidb.WireUvarint(r); err != nil {
			return nil, fmt.Errorf("shard: move phase: %w", err)
		}
		mv.Phase = Phase(v)
		if v, err = minidb.WireUvarint(r); err != nil || v > NumSlots {
			return nil, fmt.Errorf("shard: move slot count %d: %v", v, err)
		}
		mv.Slots = make([]int, v)
		for i := range mv.Slots {
			if v, err = minidb.WireUvarint(r); err != nil {
				return nil, fmt.Errorf("shard: move slot: %w", err)
			}
			mv.Slots[i] = int(v)
		}
		m.Move = mv
	} else if flag != 0 {
		return nil, fmt.Errorf("shard: bad move flag %d", flag)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("shard: %d trailing map bytes", r.Len())
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveMap persists m atomically: write SHARDMAP.tmp, sync, rename. A
// crash anywhere leaves either the previous map or the new one.
func SaveMap(vfs minidb.VFS, dir string, m *Map) error {
	if err := vfs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: map dir: %w", err)
	}
	if err := minidb.ReplaceFile(vfs, dir+"/"+mapFile, 0o644, minidb.WriteBytes(EncodeMap(m))); err != nil {
		return fmt.Errorf("shard: save map: %w", err)
	}
	return nil
}

// LoadMap reads the persisted map, returning (nil, nil) when none exists
// yet. A torn or corrupt file is an error, never a silently wrong map.
func LoadMap(vfs minidb.VFS, dir string) (*Map, error) {
	data, err := vfs.ReadFile(dir + "/" + mapFile)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("shard: map read: %w", err)
	}
	return DecodeMap(data)
}
