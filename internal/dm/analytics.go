package dm

import (
	"repro/internal/colseg"
)

// Analytics serves a catalog-wide aggregate query through the read-optimized
// path. Resolution order for the runner:
//
//  1. Options.Analytics — a colseg.Store maintained next to the database
//     (or any other Runner, e.g. a networked client shipping the query to
//     the node that holds the segments).
//  2. The routed engine itself, when it implements colseg.Runner (a
//     dbnet.Client forwards the query over the wire to the server's store).
//  3. colseg.RunRows over the routed engine — always correct, never fast.
//
// Results are cached under (query fingerprint, table commit epoch), the same
// discipline as cachedQuery: the epoch is read BEFORE the query runs, so a
// commit racing the execution turns the stored entry into a future miss
// rather than a stale hit. Cached *colseg.Result values are shared between
// callers and must be treated as immutable.
func (d *DM) Analytics(q colseg.Query) (*colseg.Result, error) {
	d.stats.Requests.Add(1)
	d.stats.AnalyticsQueries.Add(1)
	db := d.routeDB(q.Table)
	epoch := db.TableEpoch(q.Table)
	key := "ana|" + colseg.Fingerprint(q)
	if v, cached, ok := d.cache.Get(key); ok && cached == epoch {
		d.stats.AnalyticsCacheHits.Add(1)
		return v.(*colseg.Result), nil
	}
	var res *colseg.Result
	var err error
	switch {
	case d.analytics != nil:
		res, err = d.analytics.RunAnalytics(q)
	default:
		if r, ok := db.(colseg.Runner); ok {
			res, err = r.RunAnalytics(q)
		} else {
			res, err = colseg.RunRows(db, q)
		}
	}
	if err != nil {
		return nil, err
	}
	if res.Stats.Vectorized {
		d.stats.AnalyticsVector.Add(1)
	} else {
		d.stats.AnalyticsRowFall.Add(1)
	}
	d.cache.Put(key, epoch, res)
	return res, nil
}

// AnalyticsRunner exposes the resolved runner for diagnostics (the web tier
// type-asserts it to surface segment-store statistics on /stats).
func (d *DM) AnalyticsRunner() colseg.Runner {
	if d.analytics != nil {
		return d.analytics
	}
	if r, ok := d.domain.(colseg.Runner); ok {
		return r
	}
	return nil
}
