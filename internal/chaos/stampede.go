// Flare-alert stampede harness. The paper's load model is a quiet
// archive that occasionally catches fire: a gamma-ray burst alert goes
// out and the anonymous browse rate multiplies within seconds while the
// scientists who were already working expect their sessions to stay
// interactive. This file drives that scenario open-loop — arrivals keep
// coming at the scheduled rate whether or not earlier requests have
// finished, the regime where a closed-loop benchmark lies — against a
// live cell, under either admission policy:
//
//   - Fixed: the pre-overload gateway (a fixed admission semaphore, no
//     database queue bound) fronted by naive clients that retry every
//     shed after a fixed short pause.
//   - Adaptive: the latency-gradient limiter + brownout ladder, a
//     queue-bounded database tier that refuses doomed work at the
//     socket, and well-behaved clients that honor retry-after hints.
//
// The harness asserts the stampede contract rather than raw throughput:
// every failure is typed, no request outlives the hard wall, a goodput
// floor holds through the spike, interactive p99 stays bounded, clients
// never retried into a tier before its hint elapsed, and after the
// crowd leaves the brownout ladder walks back to normal and the cell
// serves at baseline again.
package chaos

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/fault"
	"repro/internal/minidb"
	"repro/internal/overload"
	"repro/internal/schema"
	"repro/internal/stats"
)

// StampedeSchedule is one stampede scenario.
type StampedeSchedule struct {
	// Name identifies the schedule in subtests and JSON.
	Name string
	// SlowReplica wraps replica-0's HTTP hop in an injected-latency rig
	// for the duration of the spike: the stampede arrives while half the
	// serving capacity is limping.
	SlowReplica bool
	// RecoveryFocus shortens the spike and stretches the recovery phase;
	// the schedule exists to prove the ladder walks DOWN.
	RecoveryFocus bool
}

// StampedeSchedules enumerates the scenarios: the plain 10x spike, the
// spike landing on a cell with one slow replica, and the post-spike
// recovery walk-down.
func StampedeSchedules() []StampedeSchedule {
	return []StampedeSchedule{
		{Name: "spike10x"},
		{Name: "spike-slow-replica", SlowReplica: true},
		{Name: "post-spike-recovery", RecoveryFocus: true},
	}
}

// StampedeConfig tunes a run.
type StampedeConfig struct {
	// Adaptive selects the admission policy (the A/B axis): false is the
	// fixed semaphore + naive-retry baseline, true is the limiter +
	// brownout + hint-honoring stack.
	Adaptive bool
	// InteractiveRPS is the authenticated scientists' arrival rate,
	// constant through every phase (default 8).
	InteractiveRPS float64
	// BrowseRPS is the anonymous crowd's baseline rate (default 30); the
	// spike multiplies it by SpikeFactor (default 10).
	BrowseRPS   float64
	SpikeFactor float64
	// Warm, Spike, Recover are the phase durations (defaults 600ms, 2s,
	// 1.5s; RecoveryFocus schedules override Spike/Recover).
	Warm, Spike, Recover time.Duration
	// SLO is the goodput bound: a request answered within SLO of its
	// arrival counts as good (default 2s).
	SLO time.Duration
	// Logger receives cell noise. Nil discards it.
	Logger *log.Logger
}

func (c *StampedeConfig) defaults(s StampedeSchedule) {
	if c.InteractiveRPS <= 0 {
		c.InteractiveRPS = 8
	}
	if c.BrowseRPS <= 0 {
		c.BrowseRPS = 40
	}
	if c.SpikeFactor <= 0 {
		c.SpikeFactor = 10
	}
	if c.Warm <= 0 {
		c.Warm = 600 * time.Millisecond
	}
	if c.Spike <= 0 {
		c.Spike = 2 * time.Second
	}
	if c.Recover <= 0 {
		c.Recover = 1500 * time.Millisecond
	}
	if s.RecoveryFocus {
		c.Spike = c.Spike / 2
		c.Recover = c.Recover * 2
	}
	if c.SLO <= 0 {
		c.SLO = 2 * time.Second
	}
}

// StampedeResult is one run's record. Latency percentiles and goodput
// are measured over requests that ARRIVED during the spike phase — the
// only phase where the two policies can differ.
type StampedeResult struct {
	Schedule string `json:"schedule"`
	Policy   string `json:"policy"` // "fixed" or "adaptive"

	Arrivals int `json:"arrivals"` // spike-phase arrivals, both classes
	Served   int `json:"served"`   // answered live
	Degraded int `json:"degraded"` // answered from the stale cache, tagged
	Shed     int `json:"shed"`     // typed overload after client retry policy
	TypedErr int `json:"typed_errors"`

	GoodputRPS       float64       `json:"goodput_rps"` // answered within SLO / spike seconds
	InteractiveP99   time.Duration `json:"interactive_p99_ns"`
	InteractiveP50   time.Duration `json:"interactive_p50_ns"`
	BrowseP99        time.Duration `json:"browse_p99_ns"`
	Retries          int64         `json:"retries"`
	PrematureRetries int64         `json:"premature_retries"` // fired before the hint elapsed
	DBRefusals       int64         `json:"db_refusals"`       // statusOverload frames from the DB tier
	StaleServes      int64         `json:"stale_serves"`      // brownout commit-behind answers

	MaxStage    string `json:"max_stage"` // deepest brownout rung reached
	Transitions int64  `json:"ladder_transitions"`

	// Recovery: measured after the crowd leaves.
	RecoveredStage string        `json:"recovered_stage"`
	RecoverTime    time.Duration `json:"recover_time_ns"` // spike end -> normal stage + clean round
	BaselineP99    time.Duration `json:"baseline_p99_ns"` // post-recovery probe p99
}

// Goodput fraction of spike arrivals answered within the SLO.
func (r *StampedeResult) GoodFraction() float64 {
	if r.Arrivals == 0 {
		return 1
	}
	return float64(r.Served+r.Degraded) / float64(r.Arrivals)
}

// Harness bounds. The stampede wall is looser than the fault-matrix
// reqDeadline: a naive fixed-mode client may legitimately burn several
// HTTP timeouts before giving up, and the harness only insists that
// nothing hangs past the wall.
const (
	stampedeWall        = 8 * time.Second
	stampedeHTTPTimeout = time.Second
	stampedeMaxTries    = 3
	naiveRetryPause     = 10 * time.Millisecond
	recoverWall         = 6 * time.Second
	probeCount          = 20
)

// stampedeCell is a live deployment under stampede: one queue-bounded
// shared database, two replicas, a gateway under the selected policy.
type stampedeCell struct {
	db       *minidb.DB
	dbSrv    *dbnet.Server
	rig      *fault.Net
	clients  []*dbnet.Client
	replicas []*cluster.Replica
	gw       *cluster.Gateway
	token    string
	ip       string

	maxStage atomic.Int32
}

func (c *stampedeCell) close() {
	if c.gw != nil {
		c.gw.Close()
	}
	for _, r := range c.replicas {
		r.Stop()
	}
	for _, cl := range c.clients {
		cl.Close()
	}
	if c.dbSrv != nil {
		c.dbSrv.Close()
	}
	if c.db != nil {
		c.db.Close()
	}
}

// newStampedeCell builds the deployment. The replica capacity model is
// the Figure 4 node (2 workers, thrash past the knee) scaled so the
// 10x browse spike lands well past aggregate capacity — the regime the
// policies must be told apart in.
func newStampedeCell(s StampedeSchedule, cfg StampedeConfig) (*stampedeCell, error) {
	c := &stampedeCell{rig: fault.NewNet(), ip: "10.9.1.1"}
	c.rig.Delay = 120 * time.Millisecond
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()

	var err error
	c.db, err = minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		return nil, err
	}
	srvOpts := dbnet.Options{DB: c.db, MaxOpsPerSec: 400}
	if cfg.Adaptive {
		// The adaptive stack bounds the database queue: work whose
		// projected wait exceeds the bound is refused at the socket with
		// a retry-after hint instead of rotting in line.
		srvOpts.MaxQueueDelay = 50 * time.Millisecond
	}
	c.dbSrv, err = dbnet.Listen("127.0.0.1:0", srvOpts)
	if err != nil {
		return nil, err
	}

	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	boot, err := dm.Open(dm.Options{Node: "boot", MetaDB: c.db, Logger: logger})
	if err != nil {
		return nil, err
	}
	if err := boot.Bootstrap("secret"); err != nil {
		return nil, err
	}
	if err := boot.CreateUser("sci", "pw", dm.GroupScientist,
		dm.RightBrowse, dm.RightDownload, dm.RightAnalyze, dm.RightUpload); err != nil {
		return nil, err
	}
	for i := 0; i < 16; i++ {
		h := &schema.HLE{
			ID: fmt.Sprintf("hle-stamp-%04d", i), Version: 1, Owner: "sci", Public: true,
			KindHint: []string{"flare", "burst"}[i%2], TStart: float64(i), TStop: float64(i + 1),
			Day: int64(i % 8), CalibVersion: 1,
		}
		if _, err := c.db.Insert(schema.TableHLE, h.ToRow()); err != nil {
			return nil, err
		}
	}

	gopts := cluster.GatewayOptions{
		HealthInterval:   25 * time.Millisecond,
		RetryBackoff:     2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		Logger:           logger,
	}
	if cfg.Adaptive {
		gopts.AdaptiveLimit = &overload.Config{
			Initial: 24, Min: 4, Max: 64,
			MaxWait:       100 * time.Millisecond,
			QueueInterval: 100 * time.Millisecond,
		}
		gopts.Brownout = &overload.LadderConfig{Dwell: 200 * time.Millisecond}
		gopts.BrownoutTick = 25 * time.Millisecond
	} else {
		// The pre-overload configuration: a generous fixed semaphore.
		gopts.MaxInflight = 64
	}
	c.gw = cluster.NewGateway(gopts)

	for i := 0; i < 2; i++ {
		cl, err := dbnet.Dial(dbnet.ClientOptions{
			Addr:        c.dbSrv.Addr(),
			DialTimeout: 300 * time.Millisecond,
			CallTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cl)
		rep, err := cluster.StartReplica(cluster.ReplicaOptions{
			Name: fmt.Sprintf("replica-%d", i), DB: cl,
			Capacity: cluster.Capacity{
				Workers: 2, CPUPerCall: 20 * time.Millisecond,
				ThrashThreshold: 6, ThrashFactor: 0.2,
			},
		})
		if err != nil {
			return nil, err
		}
		c.replicas = append(c.replicas, rep)

		remote := dm.NewRemote(rep.URL(), nil)
		remote.Client = &http.Client{Timeout: stampedeHTTPTimeout}
		if i == 0 && s.SlowReplica {
			remote.Client.Transport = &http.Transport{DialContext: c.rig.DialContext}
		}
		c.gw.AddReplica(rep.Name(), remote)
	}

	if cfg.Adaptive {
		// Brownout wiring: stale-read rungs flip every replica's DM to
		// commit-behind serving. The hedge/bulk rungs have no farm in
		// this cell; reaching them is still recorded via maxStage.
		reps := c.replicas
		c.gw.SetBrownoutHook(overload.StageActions{
			SetStale: func(on bool) {
				for _, r := range reps {
					r.DM().SetServeStale(on)
				}
			},
		})
	}
	ok = true
	return c, nil
}

// recorder collects per-class latencies for requests that arrived
// during the spike, and the outcome tallies.
type recorder struct {
	mu          sync.Mutex
	interactive []time.Duration
	browse      []time.Duration

	arrivals atomic.Int64
	served   atomic.Int64
	degraded atomic.Int64
	shed     atomic.Int64
	typed    atomic.Int64

	retries   atomic.Int64
	premature atomic.Int64

	violation atomic.Pointer[string]
}

func (r *recorder) fail(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	r.violation.CompareAndSwap(nil, &s)
}

func (r *recorder) record(interactive bool, d time.Duration) {
	r.mu.Lock()
	if interactive {
		r.interactive = append(r.interactive, d)
	} else {
		r.browse = append(r.browse, d)
	}
	r.mu.Unlock()
}

// request runs one arrival to completion under the client retry policy.
// inSpike marks arrivals whose outcome scores the spike phase.
func (c *stampedeCell) request(rec *recorder, cfg StampedeConfig, interactive, inSpike bool, seq int) {
	start := time.Now()
	if inSpike {
		rec.arrivals.Add(1)
	}
	do := func() error {
		if interactive {
			_, err := c.gw.CountHLEs(c.token, c.ip, filterFor(seq))
			return err
		}
		_, err := c.gw.QueryHLEs("", c.ip, filterFor(seq))
		return err
	}
	var err error
	for try := 1; ; try++ {
		err = do()
		if err == nil || cluster.IsDegraded(err) {
			break
		}
		ra, hinted := overload.RetryAfterOf(err)
		if !hinted || try >= stampedeMaxTries {
			break
		}
		// Client retry policy — the half of the A/B that lives outside
		// the cell. A well-behaved client sleeps the hinted interval; a
		// naive one hammers back after a fixed pause, the retry storm
		// the hint exists to prevent.
		pause := ra
		if !cfg.Adaptive {
			pause = naiveRetryPause
			if pause < ra {
				rec.premature.Add(1)
			}
		}
		rec.retries.Add(1)
		time.Sleep(pause)
		if time.Since(start) > cfg.SLO {
			// Past the SLO the answer is worthless either way; one more
			// try at most keeps naive clients from looping forever.
			try = stampedeMaxTries
		}
	}
	wall := time.Since(start)
	if wall > stampedeWall {
		rec.fail("%s request hung %v, past the %v wall (err=%v)",
			map[bool]string{true: "interactive", false: "browse"}[interactive], wall, stampedeWall, err)
		return
	}
	if !inSpike {
		return
	}
	switch outcome(err) {
	case "ok":
		rec.served.Add(1)
		rec.record(interactive, wall)
	case "degraded":
		rec.degraded.Add(1)
		rec.record(interactive, wall)
	case "typed":
		if overload.IsOverload(err) {
			rec.shed.Add(1)
		} else {
			rec.typed.Add(1)
		}
		// A fast typed refusal is the design working; it still scores
		// the latency distribution (the client got its answer).
		rec.record(interactive, wall)
	default:
		rec.fail("error outside the failure model: %v", err)
	}
}

// generate runs one arrival class open-loop for d at rate rps: arrivals
// are spawned on a 10ms metronome regardless of completions.
func (c *stampedeCell) generate(rec *recorder, cfg StampedeConfig, interactive, inSpike bool, rps float64, d time.Duration, wg *sync.WaitGroup) {
	const tick = 10 * time.Millisecond
	perTick := rps * tick.Seconds()
	end := time.Now().Add(d)
	var carry float64
	var seq int
	for time.Now().Before(end) {
		carry += perTick
		for ; carry >= 1; carry-- {
			seq++
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				c.request(rec, cfg, interactive, inSpike, n)
			}(seq)
		}
		time.Sleep(tick)
	}
}

// trackStage samples the brownout ladder, keeping the deepest rung seen.
func (c *stampedeCell) trackStage(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(10 * time.Millisecond):
			if s := int32(c.gw.BrownoutStage()); s > c.maxStage.Load() {
				c.maxStage.Store(s)
			}
		}
	}
}

// RunStampede executes one schedule under one policy and checks the
// harness invariants (typed failures, bounded wall). The policy-level
// assertions — goodput floor, p99 bound, zero premature retries,
// recovery — belong to the caller: the chaos test asserts them for the
// adaptive policy, the bench records both sides of the A/B.
func RunStampede(s StampedeSchedule, cfg StampedeConfig) (*StampedeResult, error) {
	cfg.defaults(s)
	c, err := newStampedeCell(s, cfg)
	if err != nil {
		return nil, fmt.Errorf("stampede cell: %w", err)
	}
	defer c.close()

	// Warm: session, caches, baseline load.
	si, err := c.gw.Authenticate("sci", "pw", c.ip, dm.SessionHLE)
	if err != nil {
		return nil, fmt.Errorf("auth: %w", err)
	}
	c.token = si.Token
	for i := 0; i < 8; i++ {
		if _, err := c.gw.QueryHLEs("", c.ip, filterFor(i)); err != nil {
			return nil, fmt.Errorf("warm query %d: %w", i, err)
		}
	}

	rec := &recorder{}
	stopTrack := make(chan struct{})
	go c.trackStage(stopTrack)

	var wg sync.WaitGroup
	phase := func(inSpike bool, browseRPS float64, d time.Duration) {
		var pw sync.WaitGroup
		pw.Add(2)
		go func() { defer pw.Done(); c.generate(rec, cfg, true, inSpike, cfg.InteractiveRPS, d, &wg) }()
		go func() { defer pw.Done(); c.generate(rec, cfg, false, inSpike, browseRPS, d, &wg) }()
		pw.Wait()
	}

	phase(false, cfg.BrowseRPS, cfg.Warm)

	if s.SlowReplica {
		c.rig.SetFault(c.rig.OpCount()+1, fault.NetLatency)
	}
	db0 := c.dbSrv.OverloadRefusals()
	phase(true, cfg.BrowseRPS*cfg.SpikeFactor, cfg.Spike)
	spikeEnd := time.Now()
	if s.SlowReplica {
		c.rig.ClearFault()
	}

	// Recovery phase: the crowd leaves, baseline load continues.
	phase(false, cfg.BrowseRPS, cfg.Recover)
	wg.Wait()
	close(stopTrack)
	if v := rec.violation.Load(); v != nil {
		return nil, fmt.Errorf("invariant violated: %s", *v)
	}

	res := &StampedeResult{
		Schedule:         s.Name,
		Policy:           map[bool]string{true: "adaptive", false: "fixed"}[cfg.Adaptive],
		Arrivals:         int(rec.arrivals.Load()),
		Served:           int(rec.served.Load()),
		Degraded:         int(rec.degraded.Load()),
		Shed:             int(rec.shed.Load()),
		TypedErr:         int(rec.typed.Load()),
		Retries:          rec.retries.Load(),
		PrematureRetries: rec.premature.Load(),
		DBRefusals:       int64(c.dbSrv.OverloadRefusals() - db0),
		MaxStage:         overload.Stage(c.maxStage.Load()).String(),
	}
	rec.mu.Lock()
	res.InteractiveP99 = stats.Percentile(rec.interactive, 0.99)
	res.InteractiveP50 = stats.Percentile(rec.interactive, 0.50)
	res.BrowseP99 = stats.Percentile(rec.browse, 0.99)
	rec.mu.Unlock()
	res.GoodputRPS = float64(res.Served+res.Degraded) / cfg.Spike.Seconds()
	for _, r := range c.replicas {
		res.StaleServes += r.DM().Stats().StaleServes.Load()
	}
	if st := c.gw.Status().Overload; st.Adaptive {
		res.Transitions = st.Transitions
	}

	// Recovery: wait for the ladder to stand down, then probe a quiet
	// baseline round and score its tail.
	deadline := time.Now().Add(recoverWall)
	for c.gw.BrownoutStage() != overload.StageNormal {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("brownout ladder stuck at %v %v after the spike",
				c.gw.BrownoutStage(), recoverWall)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var probes []time.Duration
	for i := 0; i < probeCount; i++ {
		t0 := time.Now()
		if _, err := c.gw.CountHLEs(c.token, c.ip, filterFor(i)); err != nil {
			if time.Now().Before(deadline) {
				i-- // breaker cooldowns may still be draining; retry the probe
				time.Sleep(25 * time.Millisecond)
				continue
			}
			return res, fmt.Errorf("post-spike probe %d still failing: %w", i, err)
		}
		probes = append(probes, time.Since(t0))
	}
	res.RecoveredStage = c.gw.BrownoutStage().String()
	res.RecoverTime = time.Since(spikeEnd) - cfg.Recover // probe time beyond the scripted phase
	if res.RecoverTime < 0 {
		res.RecoverTime = 0
	}
	res.BaselineP99 = stats.Percentile(probes, 0.99)
	return res, nil
}
