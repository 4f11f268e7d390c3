package main

import (
	"context"
	"net/http"
	"sync/atomic"

	"repro/internal/colseg"
	"repro/internal/dm"
	"repro/internal/idl"
	"repro/internal/minidb"
	"repro/internal/pl"
	"repro/internal/schema"
)

// The wrappers below time each layer from outside, through the public
// interfaces the layers already share. Each forwards every optional
// interface the program discovers on the wrapped value by type
// assertion — dm's QueryEpoch seam, colseg.Runner on engines, pl's
// CacheKeyer on strategies — because a wrapper that hid one would change
// what the program does (GetHLE, for one, is cached only when the engine
// has QueryEpoch).

// tracedHandler records a span around an http.Handler.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
	l  layer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := t.tr.begin()
	t.h.ServeHTTP(w, r)
	t.tr.end(t.l, s, r.URL.Path, "")
}

// tracedAPI records a span around every dm.API call.
type tracedAPI struct {
	api dm.API
	tr  *tracer
	l   layer
}

var _ dm.API = tracedAPI{}

func (t tracedAPI) Authenticate(user, password, ip, kind string) (*dm.SessionInfo, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "Authenticate", "")
	return t.api.Authenticate(user, password, ip, kind)
}

func (t tracedAPI) Logout(token string) error {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "Logout", "")
	return t.api.Logout(token)
}

func (t tracedAPI) QueryHLEs(token, ip string, f dm.HLEFilter) ([]*schema.HLE, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "QueryHLEs", "")
	return t.api.QueryHLEs(token, ip, f)
}

func (t tracedAPI) CountHLEs(token, ip string, f dm.HLEFilter) (int, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "CountHLEs", "")
	return t.api.CountHLEs(token, ip, f)
}

func (t tracedAPI) GetHLE(token, ip, id string) (*schema.HLE, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "GetHLE", "")
	return t.api.GetHLE(token, ip, id)
}

func (t tracedAPI) AnalysesForHLE(token, ip, hleID string) ([]*schema.ANA, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "AnalysesForHLE", "")
	return t.api.AnalysesForHLE(token, ip, hleID)
}

func (t tracedAPI) GetANA(token, ip, id string) (*schema.ANA, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "GetANA", "")
	return t.api.GetANA(token, ip, id)
}

func (t tracedAPI) ListCatalogs(token, ip string) ([]*dm.Catalog, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "ListCatalogs", "")
	return t.api.ListCatalogs(token, ip)
}

func (t tracedAPI) CreateHLE(token, ip string, h *schema.HLE) (string, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "CreateHLE", "")
	return t.api.CreateHLE(token, ip, h)
}

func (t tracedAPI) ImportAnalysis(token, ip string, a *schema.ANA, files []dm.StoredFile) (string, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "ImportAnalysis", "")
	return t.api.ImportAnalysis(token, ip, a, files)
}

func (t tracedAPI) FindExistingAnalysis(token, ip string, spec *schema.ANA) (*schema.ANA, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "FindExistingAnalysis", "")
	return t.api.FindExistingAnalysis(token, ip, spec)
}

func (t tracedAPI) Publish(token, ip, kind, id string) error {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "Publish", "")
	return t.api.Publish(token, ip, kind, id)
}

func (t tracedAPI) ReadItem(token, ip, itemID string) (*dm.ItemData, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "ReadItem", "")
	return t.api.ReadItem(token, ip, itemID)
}

func (t tracedAPI) UnitsInRange(token, ip string, t0, t1 float64) ([]*dm.UnitInfo, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "UnitsInRange", "")
	return t.api.UnitsInRange(token, ip, t0, t1)
}

// Ping forwards the liveness probe the gateway discovers on dm.Remote
// members (cluster.Pinger). Probes come from the gateway's health loop,
// so they are left untimed.
func (t tracedAPI) Ping() error {
	if p, ok := t.api.(interface{ Ping() error }); ok {
		return p.Ping()
	}
	return nil
}

// rowCounter counts rows engines return, for rows scanned per row
// returned (the engines count the rows they scan themselves).
type rowCounter struct{ rows atomic.Int64 }

// tracedEngine records a span around every minidb.Engine call.
type tracedEngine struct {
	e    minidb.Engine
	tr   *tracer
	l    layer
	rows *rowCounter
}

// wrapEngine wraps e, keeping exactly the optional interfaces e has.
func wrapEngine(e minidb.Engine, tr *tracer, l layer, rows *rowCounter) minidb.Engine {
	base := tracedEngine{e: e, tr: tr, l: l, rows: rows}
	_, isRunner := e.(colseg.Runner)
	_, isEpocher := e.(queryEpocher)
	switch {
	case isRunner && isEpocher:
		return tracedEpochRunner{tracedRunner{base}}
	case isRunner:
		return tracedRunner{base}
	case isEpocher:
		return tracedEpocher{base}
	}
	return base
}

// queryEpocher mirrors the seam dm discovers on sharded engines.
type queryEpocher interface {
	QueryEpoch(minidb.Query) uint64
}

func (t tracedEngine) countRows(res *minidb.Result) {
	if t.rows != nil && res != nil {
		t.rows.rows.Add(int64(len(res.Rows)))
	}
}

func (t tracedEngine) Query(q minidb.Query) (*minidb.Result, error) {
	s := t.tr.begin()
	res, err := t.e.Query(q)
	t.tr.end(t.l, s, "Query", "")
	t.countRows(res)
	return res, err
}

func (t tracedEngine) Get(table string, rowid int64) (minidb.Row, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "Get", "")
	return t.e.Get(table, rowid)
}

func (t tracedEngine) Insert(table string, r minidb.Row) (int64, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "Insert", "")
	return t.e.Insert(table, r)
}

func (t tracedEngine) Update(table string, rowid int64, r minidb.Row) error {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "Update", "")
	return t.e.Update(table, rowid, r)
}

func (t tracedEngine) Delete(table string, rowid int64) error {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "Delete", "")
	return t.e.Delete(table, rowid)
}

func (t tracedEngine) Apply(b *minidb.Batch) ([]int64, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "Apply", "")
	return t.e.Apply(b)
}

func (t tracedEngine) BeginTx() minidb.Tx {
	s := t.tr.begin()
	tx := t.e.BeginTx()
	t.tr.end(t.l, s, "BeginTx", "")
	return tracedTx{tx: tx, eng: t}
}

func (t tracedEngine) TableNames() []string              { return t.e.TableNames() }
func (t tracedEngine) TableLen(name string) int          { return t.e.TableLen(name) }
func (t tracedEngine) Schema(name string) *minidb.Schema { return t.e.Schema(name) }
func (t tracedEngine) Stats() minidb.StatsSnapshot       { return t.e.Stats() }
func (t tracedEngine) Close() error                      { return t.e.Close() }

func (t tracedEngine) TableEpoch(name string) uint64 {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "TableEpoch", "")
	return t.e.TableEpoch(name)
}

func (t tracedEngine) CreateCountView(name, table, groupBy string) error {
	return t.e.CreateCountView(name, table, groupBy)
}

func (t tracedEngine) ViewCount(name string, key minidb.Value) (int, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "ViewCount", "")
	return t.e.ViewCount(name, key)
}

type tracedRunner struct{ tracedEngine }

func (t tracedRunner) RunAnalytics(q colseg.Query) (*colseg.Result, error) {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "RunAnalytics", "")
	return t.e.(colseg.Runner).RunAnalytics(q)
}

type tracedEpocher struct{ tracedEngine }

func (t tracedEpocher) QueryEpoch(q minidb.Query) uint64 {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "QueryEpoch", "")
	return t.e.(queryEpocher).QueryEpoch(q)
}

type tracedEpochRunner struct{ tracedRunner }

func (t tracedEpochRunner) QueryEpoch(q minidb.Query) uint64 {
	s := t.tr.begin()
	defer t.tr.end(t.l, s, "QueryEpoch", "")
	return t.e.(queryEpocher).QueryEpoch(q)
}

// tracedTx times the statements of an interactive transaction.
type tracedTx struct {
	tx  minidb.Tx
	eng tracedEngine
}

func (t tracedTx) Insert(table string, r minidb.Row) (int64, error) {
	s := t.eng.tr.begin()
	defer t.eng.tr.end(t.eng.l, s, "Tx.Insert", "")
	return t.tx.Insert(table, r)
}

func (t tracedTx) Update(table string, rowid int64, r minidb.Row) error {
	s := t.eng.tr.begin()
	defer t.eng.tr.end(t.eng.l, s, "Tx.Update", "")
	return t.tx.Update(table, rowid, r)
}

func (t tracedTx) Delete(table string, rowid int64) error {
	s := t.eng.tr.begin()
	defer t.eng.tr.end(t.eng.l, s, "Tx.Delete", "")
	return t.tx.Delete(table, rowid)
}

func (t tracedTx) Query(q minidb.Query) (*minidb.Result, error) {
	s := t.eng.tr.begin()
	res, err := t.tx.Query(q)
	t.eng.tr.end(t.eng.l, s, "Tx.Query", "")
	t.eng.countRows(res)
	return res, err
}

func (t tracedTx) Get(table string, rowid int64) (minidb.Row, error) {
	s := t.eng.tr.begin()
	defer t.eng.tr.end(t.eng.l, s, "Tx.Get", "")
	return t.tx.Get(table, rowid)
}

func (t tracedTx) Commit() error {
	s := t.eng.tr.begin()
	defer t.eng.tr.end(t.eng.l, s, "Tx.Commit", "")
	return t.tx.Commit()
}

func (t tracedTx) Rollback() { t.tx.Rollback() }

// causeKey carries pl.Request.ID from Prepare into the routine's
// arguments, linking the idl span to the analysis that caused it.
const causeKey = "perfbench_request"

// tracedStrategy records a span around each pl.Strategy phase.
type tracedStrategy struct {
	s  pl.Strategy
	tr *tracer
}

// wrapStrategy keeps CacheKeyer when s has it: without it the frontend
// would silently stop memoizing.
func wrapStrategy(s pl.Strategy, tr *tracer) pl.Strategy {
	t := tracedStrategy{s: s, tr: tr}
	if _, ok := s.(pl.CacheKeyer); ok {
		return tracedKeyedStrategy{t}
	}
	return t
}

func (t tracedStrategy) Type() string { return t.s.Type() }

func (t tracedStrategy) Estimate(req *pl.Request) (*pl.Estimate, error) {
	s := t.tr.begin()
	defer t.tr.end(plLayer, s, "estimate", req.ID)
	return t.s.Estimate(req)
}

func (t tracedStrategy) Prepare(req *pl.Request) (string, idl.Args, error) {
	s := t.tr.begin()
	defer t.tr.end(plLayer, s, "prepare", req.ID)
	routine, args, err := t.s.Prepare(req)
	if err == nil && args != nil {
		args[causeKey] = req.ID
	}
	return routine, args, err
}

func (t tracedStrategy) Deliver(req *pl.Request, out idl.Args) (*pl.Delivery, error) {
	s := t.tr.begin()
	defer t.tr.end(plLayer, s, "deliver", req.ID)
	return t.s.Deliver(req, out)
}

func (t tracedStrategy) Commit(req *pl.Request, del *pl.Delivery) (string, error) {
	s := t.tr.begin()
	defer t.tr.end(plLayer, s, "commit", req.ID)
	return t.s.Commit(req, del)
}

type tracedKeyedStrategy struct{ tracedStrategy }

func (t tracedKeyedStrategy) CacheKey(req *pl.Request) (string, string, bool) {
	return t.s.(pl.CacheKeyer).CacheKey(req)
}

// wrapRoutines records an idl span around every routine invocation.
func wrapRoutines(rs map[string]idl.Routine, tr *tracer) map[string]idl.Routine {
	out := make(map[string]idl.Routine, len(rs))
	for name, r := range rs {
		name, r := name, r
		out[name] = func(ctx context.Context, args idl.Args) (idl.Args, error) {
			cause, _ := args[causeKey].(string)
			s := tr.begin()
			defer tr.end(idlLayer, s, name, cause)
			return r(ctx, args)
		}
	}
	return out
}
