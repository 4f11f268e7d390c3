package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// opResult is one operation as the load generator saw it. Times are
// offsets from the schedule's origin. from is when the operation was due,
// or, when the generator had to sleep for it and woke late, when it woke:
// an operation held up by busy connections is timed from its due time, so
// a stall also charges the wait it imposes on the operations queued
// behind it, but the host's timer overshoot is not charged to the
// program (it is reported as generator lateness instead).
type opResult struct {
	from, start, end time.Duration
	err              error
}

func (r opResult) latencyMS() float64 { return ms(r.end - r.from) }

// openLoop issues do(i) at origin+dues[i] on at most conns workers,
// whether or not earlier operations have finished. late collects how far
// past its due time the generator itself woke for each operation it had
// to wait for.
func openLoop(origin time.Time, dues []time.Duration, conns int, do func(i int) error) (res []opResult, late []float64) {
	res = make([]opResult, len(dues))
	type job struct {
		i    int
		from time.Duration
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				st := time.Since(origin)
				err := do(j.i)
				res[j.i] = opResult{from: j.from, start: st, end: time.Since(origin), err: err}
			}
		}()
	}
	for i, d := range dues {
		from := d
		if wait := time.Until(origin.Add(d)); wait > 0 {
			time.Sleep(wait)
			from = time.Since(origin)
			late = append(late, ms(from-d))
		}
		jobs <- job{i, from}
	}
	close(jobs)
	wg.Wait()
	return res, late
}

// closedLoop runs n clients, each calling do until it reports stop or
// the deadline passes.
func closedLoop(n int, deadline time.Time, do func() (stop bool)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if do() {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// evenly spaces n operations at rate per second.
func evenly(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// webClient fetches pages over at most conns keep-alive connections.
// token is the session a page marked for one carries.
type webClient struct {
	base  string
	token string
	c     *http.Client
}

func newWebClient(st *stack, conns int) *webClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &webClient{base: st.url, token: st.token, c: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// sessionCookie is the cookie the web tier reads the session token from.
const sessionCookie = "hedc_token"

// get fetches path, with the client's session if session is set; a
// non-200 status is an error.
func (w *webClient) get(path string, session bool) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, w.base+path, nil)
	if err != nil {
		return nil, err
	}
	if session && w.token != "" {
		req.AddCookie(&http.Cookie{Name: sessionCookie, Value: w.token})
	}
	resp, err := w.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func (w *webClient) close() { w.c.CloseIdleConnections() }

// degradedMarker is the banner the web tier puts on pages served from a
// stale cache; the benchmark counts such a page as a failure.
var degradedMarker = []byte(`<div class="degraded">`)

func isDegraded(body []byte) bool { return bytes.Contains(body, degradedMarker) }

// stampPrefix precedes the page footer's render time (RFC 3339, UTC, to
// the second: 20 bytes), the one part of a page that legitimately
// differs between two renders of the same data.
var stampPrefix = []byte("generated ")

const stampLen = len("2006-01-02T15:04:05Z")

// samePage compares two renders byte for byte, footer time aside.
func samePage(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	i := bytes.LastIndex(a, stampPrefix)
	if i < 0 {
		return bytes.Equal(a, b)
	}
	j := i + len(stampPrefix) + stampLen
	return j <= len(a) && bytes.Equal(a[:i+len(stampPrefix)], b[:i+len(stampPrefix)]) && bytes.Equal(a[j:], b[j:])
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
