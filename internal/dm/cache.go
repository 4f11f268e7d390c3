package dm

import (
	"strconv"
	"strings"

	"repro/internal/minidb"
)

// Read-through query cache for the DM's semantic layer. HEDC's hot reads —
// catalog member counts, duplicate checks, dependency counts, member lists —
// repeat the same structured query many times between writes. Each cached
// entry is keyed by (canonical query fingerprint, table commit epoch): the
// engine bumps a table's epoch on every committed transaction touching it,
// so a cached result is valid exactly while the epoch it was computed
// against is still current. No timers, no explicit invalidation calls — a
// commit anywhere in the process makes the next lookup a miss.
//
// The epoch is read BEFORE the query runs. If a commit lands between the
// epoch read and the query, the entry is stored under the older epoch and
// the next lookup misses — conservative, never stale-serving.

// queryCacheSize bounds the query cache. Epoch churn retires entries
// anyway; the bound only guards against fingerprint cardinality blowup,
// and past it CLOCK eviction keeps the hot queries.
const queryCacheSize = 4096

// queryEpocher is the shard-aware refinement of TableEpoch: a sharded
// engine (internal/shard.Router) scopes the epoch to the shards the query
// can actually touch, so a commit on shard k stops invalidating cached
// results that only depend on other shards. Discovered structurally so the
// DM keeps zero compile-time knowledge of the sharding layer.
type queryEpocher interface {
	QueryEpoch(minidb.Query) uint64
}

// cachedQuery runs q through the cache. Results returned from the cache are
// SHARED between callers: treat them as immutable (read rows, never write).
// Only deterministic queries belong here — anything keyed on sessions is
// fine because the visibility OR-clause is part of the fingerprint.
func (d *DM) cachedQuery(q minidb.Query) (*minidb.Result, error) {
	db := d.routeDB(q.Table)
	// Epoch first, then lookup/query: a commit racing past this point makes
	// the stored entry a future miss rather than a stale hit.
	var epoch uint64
	if qe, ok := db.(queryEpocher); ok {
		epoch = qe.QueryEpoch(q)
	} else {
		epoch = db.TableEpoch(q.Table)
	}
	key := fingerprint(q)
	if v, cached, ok := d.cache.Get(key); ok {
		if cached == epoch {
			d.stats.QueryCacheHits.Add(1)
			return v.(*minidb.Result), nil
		}
		// Brownout rung 2: under sustained overload the ladder flips this
		// on, and a fresh-epoch miss falls back to whatever epoch the cache
		// still holds. Serving a commit-behind result costs staleness;
		// querying a drowning database tier costs everyone's latency.
		if d.serveStale.Load() {
			d.stats.StaleServes.Add(1)
			return v.(*minidb.Result), nil
		}
	}
	d.stats.QueryCacheMisses.Add(1)
	res, err := d.query(q)
	if err != nil {
		return nil, err
	}
	d.cache.Put(key, epoch, res)
	return res, nil
}

// DataEpoch renders the commit epochs of a set of tables into one opaque
// tag, for callers that cache derived results outside the DM (the PL's
// analysis memoization). The tag changes iff some listed table's epoch
// changes: per-table epochs are rendered individually (never folded), so
// distinct states cannot collide. Shard-aware engines contribute their
// query-scoped epoch through the same queryEpocher seam cachedQuery uses.
// Read the tag BEFORE computing the result being cached — a commit racing
// the computation then parks the entry under the older tag, conservative,
// never stale-serving.
func (d *DM) DataEpoch(tables ...string) string {
	var b strings.Builder
	for i, table := range tables {
		if i > 0 {
			b.WriteByte('.')
		}
		db := d.routeDB(table)
		var epoch uint64
		if qe, ok := db.(queryEpocher); ok {
			epoch = qe.QueryEpoch(minidb.Query{Table: table})
		} else {
			epoch = db.TableEpoch(table)
		}
		b.WriteString(strconv.FormatUint(epoch, 10))
	}
	return b.String()
}

// fingerprint renders a Query into a canonical string. Every field that
// affects the result set participates; values are length-prefixed so no
// string content can collide with the structure.
func fingerprint(q minidb.Query) string {
	var b strings.Builder
	b.Grow(64)
	fpStr(&b, q.Table)
	b.WriteByte('|')
	for _, p := range q.Where {
		fpPred(&b, p)
	}
	b.WriteByte('|')
	for _, p := range q.Or {
		fpPred(&b, p)
	}
	b.WriteByte('|')
	for _, o := range q.OrderBy {
		fpStr(&b, o.Col)
		if o.Desc {
			b.WriteByte('-')
		} else {
			b.WriteByte('+')
		}
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(q.Offset))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(q.Limit))
	b.WriteByte('|')
	for _, c := range q.Project {
		fpStr(&b, c)
	}
	if q.Count {
		b.WriteString("|#")
	}
	return b.String()
}

func fpPred(b *strings.Builder, p minidb.Pred) {
	fpStr(b, p.Col)
	b.WriteString(p.Op.String())
	fpVal(b, p.Val)
	if p.Op == minidb.OpBetween {
		b.WriteByte('~')
		fpVal(b, p.Hi)
	}
	b.WriteByte(';')
}

func fpVal(b *strings.Builder, v minidb.Value) {
	b.WriteString(strconv.Itoa(int(v.T)))
	b.WriteByte(':')
	fpStr(b, v.String())
}

func fpStr(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}
