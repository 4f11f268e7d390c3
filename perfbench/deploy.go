package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/pl"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/web"
)

var quiet = log.New(io.Discard, "", 0)

// importPassword is the system import account's password in every
// deployment the benchmark starts.
const importPassword = "import"

// stack is one serving path the load generator drives: where pages are
// fetched, which DM ingests, which frontend runs analyses, and the
// components whose counters the report reads.
type stack struct {
	url      string
	token    string // the reader's session on this front (browse_cell)
	web      *web.Server
	ingest   *dm.DM
	fe       *pl.Frontend
	mgrs     []*pl.Manager
	dms      []*dm.DM // DMs serving pages (the replicas, in a cell)
	gw       *cluster.Gateway
	routers  []*shard.Router
	servers  []*dbnet.Server
	dbs      []*minidb.DB
	rows     *rowCounter
	closeFns []func()
}

func (s *stack) close() {
	for i := len(s.closeFns) - 1; i >= 0; i-- {
		s.closeFns[i]()
	}
	s.closeFns = nil
}

// serve starts an HTTP server for h on a loopback port.
func (s *stack) serve(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	s.url = "http://" + ln.Addr().String()
	s.closeFns = append(s.closeFns, func() {
		srv.Close()
		<-done
	})
	return nil
}

// newFarm builds a processing tier over d exactly as core.Start does:
// one manager with two interpreters, the four analysis strategies. With
// a tracer, strategies and routines are wrapped.
func newFarm(name string, d *dm.DM, tr *tracer) (*pl.Frontend, *pl.Manager, error) {
	routines := pl.Routines()
	if tr != nil {
		routines = wrapRoutines(routines, tr)
	}
	dir := pl.NewDirectory()
	mgr, err := pl.NewManager(name+"/mgr", "server", 2, routines, 0)
	if err != nil {
		return nil, nil, err
	}
	dir.RegisterManager(mgr, "server")
	fe := pl.NewFrontend(dir, 0, 0)
	for _, s := range pl.NewAnalysisStrategies(d) {
		if tr != nil {
			fe.RegisterStrategy(wrapStrategy(s, tr))
		} else {
			fe.RegisterStrategy(s)
		}
	}
	return fe, mgr, nil
}

// localNodeName names the node; pages carry it in their footer.
const localNodeName = "hedc-0"

// localNode is one hedc.Open node served over HTTP.
type localNode struct {
	repo *hedc.Repository
	node *core.Node
	stack
}

func openLocal(dir string) (*localNode, error) {
	repo, err := hedc.Open(hedc.Config{DataDir: dir, Node: localNodeName, ImportPassword: importPassword})
	if err != nil {
		return nil, err
	}
	n := repo.Node()
	l := &localNode{repo: repo, node: n}
	l.web, l.ingest, l.fe = n.Web, n.DM, n.Frontend
	l.mgrs = []*pl.Manager{n.Manager}
	l.dms = []*dm.DM{n.DM}
	l.dbs = []*minidb.DB{n.MetaDB}
	l.closeFns = append(l.closeFns, func() { _ = repo.Close() })
	if err := l.serve(repo.Handler()); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// twin builds a traced serving path over the node's own databases and
// archives: a second DM over the wrapped engine, a farm with wrapped
// strategies and routines, and the web tier over the wrapped dm.API,
// wired as core.Start wires the node's own. The node's components stay
// up, so its maintenance loop keeps running against the same storage.
func (l *localNode) twin(tr *tracer) (*stack, error) {
	s := &stack{rows: &rowCounter{}}
	d, err := dm.Open(dm.Options{
		Node:           "twin/dm",
		MetaDB:         wrapEngine(l.node.MetaDB, tr, minidbLayer, s.rows),
		Archives:       l.node.DM.Archives(),
		DefaultArchive: "disk-0",
		Analytics:      l.node.Segments,
		Logger:         quiet,
	})
	if err != nil {
		return nil, err
	}
	fe, mgr, err := newFarm("twin", d, tr)
	if err != nil {
		return nil, err
	}
	s.closeFns = append(s.closeFns, fe.Close)
	s.web = web.New(web.Config{
		API: tracedAPI{api: dm.Local{DM: d}, tr: tr, l: dmLayer}, Frontend: fe, LocalDM: d, Node: localNodeName,
	})
	s.ingest, s.fe, s.mgrs, s.dms, s.dbs = d, fe, []*pl.Manager{mgr}, []*dm.DM{d}, l.dbs
	if err := s.serve(tracedHandler{h: s.web.Handler(), tr: tr, l: webLayer}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// capacity holds every modelled capacity the deployments could switch
// on. All stay zero: the benchmark measures the program, not the sleeps
// that model the paper's 2003 hardware (dbnet's ~120 ops/s station, the
// replicas' CPU model, a fixed gateway semaphore).
var capacity struct {
	dbnetMaxOpsPerSec  float64
	replica            cluster.Capacity
	gatewayMaxInflight int
}

// noCapacityModel asserts that no capacity model is active.
func noCapacityModel() error {
	if capacity.dbnetMaxOpsPerSec != 0 || capacity.replica != (cluster.Capacity{}) || capacity.gatewayMaxInflight != 0 {
		return errors.New("a modelled capacity is switched on")
	}
	return nil
}

// cellShards is the number of shard databases behind every router, and
// cellReplicas the number of middle-tier DM nodes behind the gateway.
const (
	cellShards   = 2
	cellReplicas = 2
)

// cell is the browse_cell deployment: durable shard databases behind
// dbnet servers, an ingest node (a DM with an archive and a farm, over a
// router of its own) that populates them through dm.LoadUnits, and a
// gateway over replicas as cluster.StartShardCell wires them, with the
// web tier on top as hedc-server's gateway mode serves it.
type cell struct {
	addrs []string
	stack
}

// openCell starts the shard tier and the ingest node. With a tracer the
// shard engines are wrapped at the minidb layer, and the ingest node's
// dbnet clients, router and farm at theirs.
func openCell(dir string, tr *tracer) (c *cell, err error) {
	c = &cell{}
	c.rows = &rowCounter{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	for i := 0; i < cellShards; i++ {
		db, err := minidb.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), schema.AllSchemas()...)
		if err != nil {
			return nil, err
		}
		c.closeFns = append(c.closeFns, func() { _ = db.Close() })
		c.dbs = append(c.dbs, db)
		var eng minidb.Engine = db
		if tr != nil {
			eng = wrapEngine(db, tr, minidbLayer, c.rows)
		}
		srv, err := dbnet.Listen("127.0.0.1:0", dbnet.Options{DB: eng, MaxOpsPerSec: capacity.dbnetMaxOpsPerSec, Logger: quiet})
		if err != nil {
			return nil, err
		}
		c.closeFns = append(c.closeFns, func() { _ = srv.Close() })
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, srv.Addr())
	}
	router, err := c.dialRouter(tr)
	if err != nil {
		return nil, err
	}
	var meta minidb.Engine = router
	if tr != nil {
		meta = wrapEngine(router, tr, shardLayer, nil)
	}
	d, err := dm.Open(dm.Options{Node: "ingest", MetaDB: meta, DefaultArchive: "disk-0", Logger: quiet})
	if err != nil {
		return nil, err
	}
	arch, err := archive.NewLake("disk-0", archive.Disk, filepath.Join(dir, "archive"), 0)
	if err != nil {
		return nil, err
	}
	if err := d.RegisterArchive(arch, "/archives/disk-0"); err != nil {
		return nil, err
	}
	if err := d.Bootstrap(importPassword); err != nil {
		return nil, err
	}
	fe, mgr, err := newFarm("ingest", d, tr)
	if err != nil {
		return nil, err
	}
	c.closeFns = append(c.closeFns, fe.Close)
	c.ingest, c.fe, c.mgrs = d, fe, []*pl.Manager{mgr}
	return c, nil
}

// dialRouter dials every shard and routes over them; closing the router
// closes its clients.
func (c *cell) dialRouter(tr *tracer) (*shard.Router, error) {
	engines := make(map[int]minidb.Engine, len(c.addrs))
	for sid, addr := range c.addrs {
		cl, err := dbnet.Dial(dbnet.ClientOptions{Addr: addr})
		if err != nil {
			for _, e := range engines {
				_ = e.Close()
			}
			return nil, err
		}
		engines[sid] = cl
		if tr != nil {
			engines[sid] = wrapEngine(cl, tr, dbnetLayer, nil)
		}
	}
	r, err := shard.NewRouter(shard.Options{Shards: engines, Logger: quiet})
	if err != nil {
		for _, e := range engines {
			_ = e.Close()
		}
		return nil, err
	}
	c.closeFns = append(c.closeFns, func() { _ = r.Close() })
	c.routers = append(c.routers, r)
	return r, nil
}

// startFront brings up the deployed front: cluster.StartShardCell's
// replicas and gateway, and the web tier over the gateway.
func (c *cell) startFront() (*stack, error) {
	sc, err := cluster.StartShardCell(cluster.ShardCellOptions{
		ShardAddrs: c.addrs, Replicas: cellReplicas, Capacity: capacity.replica,
		Gateway: cluster.GatewayOptions{MaxInflight: capacity.gatewayMaxInflight, Logger: quiet},
		Logger:  quiet,
	})
	if err != nil {
		return nil, err
	}
	s := &stack{ingest: c.ingest, fe: c.fe, mgrs: c.mgrs, gw: sc.GW, routers: sc.Routers(), servers: c.servers, dbs: c.dbs, rows: c.rows}
	s.closeFns = append(s.closeFns, sc.Close)
	for _, r := range sc.Replicas {
		s.dms = append(s.dms, r.DM())
	}
	s.web = web.New(web.Config{API: sc.GW, Cluster: sc.GW, Node: "gateway"})
	if err := s.serve(s.web.Handler()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startTracedFront builds the same front with every hop wrapped: dbnet
// clients, each replica's router (shard), the replica's DM on both sides
// of its RPC hop (dm), the gateway as the web tier's dm.API (cluster)
// and the web handler (web).
func (c *cell) startTracedFront(tr *tracer) (*stack, error) {
	s := &stack{ingest: c.ingest, fe: c.fe, mgrs: c.mgrs, servers: c.servers, dbs: c.dbs, rows: c.rows}
	s.gw = cluster.NewGateway(cluster.GatewayOptions{MaxInflight: capacity.gatewayMaxInflight, Logger: quiet})
	s.closeFns = append(s.closeFns, s.gw.Close)
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}
	for i := 0; i < cellReplicas; i++ {
		sub := &cell{addrs: c.addrs}
		router, err := sub.dialRouter(tr)
		s.closeFns = append(s.closeFns, sub.closeFns...)
		if err != nil {
			return fail(err)
		}
		s.routers = append(s.routers, router)
		d, err := dm.Open(dm.Options{
			Node: fmt.Sprintf("twinrep-%d", i), MetaDB: wrapEngine(router, tr, shardLayer, nil), Logger: quiet,
		})
		if err != nil {
			return fail(err)
		}
		s.dms = append(s.dms, d)
		rep := &stack{}
		if err := rep.serve(dm.NewServer(tracedAPI{api: dm.Local{DM: d}, tr: tr, l: dmLayer}, "/dm/").Mux()); err != nil {
			return fail(err)
		}
		s.closeFns = append(s.closeFns, rep.close)
		s.gw.AddReplica(fmt.Sprintf("twinrep-%d", i), tracedAPI{api: dm.NewRemote(rep.url+"/dm/", nil), tr: tr, l: dmLayer})
	}
	s.web = web.New(web.Config{API: tracedAPI{api: s.gw, tr: tr, l: clusterLayer}, Cluster: s.gw, Node: "gateway"})
	if err := s.serve(tracedHandler{h: s.web.Handler(), tr: tr, l: webLayer}); err != nil {
		return fail(err)
	}
	return s, nil
}

// waitHealthy waits until the gateway sees every replica healthy.
func waitHealthy(gw *cluster.Gateway, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		healthy := 0
		for _, m := range gw.Members() {
			if m.Healthy {
				healthy++
			}
		}
		if healthy == n {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("gateway: replicas not healthy")
}
