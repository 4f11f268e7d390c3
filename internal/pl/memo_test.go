package pl

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/schema"
)

// waitDelivery submits and waits, returning the delivery.
func waitDelivery(t *testing.T, r *hedcRig, req *Request) *Delivery {
	t.Helper()
	tk, err := r.frontend.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	del := tk.Delivery()
	if del == nil {
		t.Fatal("no delivery")
	}
	return del
}

// sameBytes compares two deliveries file by file, bit for bit.
func sameBytes(a, b *Delivery) error {
	if len(a.Files) != len(b.Files) {
		return fmt.Errorf("file count %d != %d", len(a.Files), len(b.Files))
	}
	for i := range a.Files {
		if a.Files[i].Suffix != b.Files[i].Suffix {
			return fmt.Errorf("file %d suffix %q != %q", i, a.Files[i].Suffix, b.Files[i].Suffix)
		}
		if !bytes.Equal(a.Files[i].Data, b.Files[i].Data) {
			return fmt.Errorf("file %s differs (%d vs %d bytes)",
				a.Files[i].Suffix, len(a.Files[i].Data), len(b.Files[i].Data))
		}
	}
	return nil
}

// Property: over randomized parameters, a memoized delivery is bit-identical
// to an uncached recomputation of the same request (the NoMemo oracle).
func TestMemoBitIdenticalToRecomputation(t *testing.T) {
	r := newHEDCRig(t)
	rng := rand.New(rand.NewSource(1))
	types := []string{schema.AnaHistogram, schema.AnaLightcurve, schema.AnaSpectrogram}
	for trial := 0; trial < 6; trial++ {
		anaType := types[trial%len(types)]
		t0 := rng.Float64() * r.unitLen / 2
		params := map[string]interface{}{
			"tstart": t0, "tstop": t0 + 100 + rng.Float64()*(r.unitLen/2),
			"time_bins":   16 + rng.Intn(64),
			"energy_bins": 8 + rng.Intn(16),
		}
		req := func(noMemo bool) *Request {
			return &Request{
				ID: fmt.Sprintf("memo-%d", trial), Type: anaType, Session: r.session,
				Params: params, NoCommit: true, NoMemo: noMemo,
			}
		}
		warmup := waitDelivery(t, r, req(false)) // computes and caches
		cached := waitDelivery(t, r, req(false)) // must be served from cache
		oracle := waitDelivery(t, r, req(true))  // recomputed, cache bypassed
		if err := sameBytes(cached, oracle); err != nil {
			t.Fatalf("trial %d (%s): cached delivery drifted from oracle: %v", trial, anaType, err)
		}
		if err := sameBytes(warmup, cached); err != nil {
			t.Fatalf("trial %d (%s): cache round-trip drifted: %v", trial, anaType, err)
		}
	}
	memo := r.frontend.FarmStats().Memo
	if memo.Hits < 6 {
		t.Fatalf("expected a hit per trial, got %+v", memo)
	}
}

// An epoch bump on an input table (recalibration commits to raw_units)
// invalidates the affected entries; the recomputation is still bit-identical
// because recalibration never rewrites item bytes.
func TestMemoEpochInvalidation(t *testing.T) {
	r := newHEDCRig(t)
	params := map[string]interface{}{"tstart": 0.0, "tstop": r.unitLen, "time_bins": 32}
	req := func() *Request {
		return &Request{
			ID: "inv", Type: schema.AnaHistogram, Session: r.session,
			Params: params, NoCommit: true,
		}
	}
	first := waitDelivery(t, r, req())
	waitDelivery(t, r, req())
	before := r.frontend.FarmStats().Memo
	if before.Hits != 1 {
		t.Fatalf("warm lookup missed: %+v", before)
	}

	units, err := r.dm.UnitsInRange(0, r.unitLen)
	if err != nil || len(units) == 0 {
		t.Fatalf("units: %v %v", units, err)
	}
	if _, err := r.dm.Recalibrate(units[0].UnitID, "test recalibration"); err != nil {
		t.Fatal(err)
	}
	recomputed := waitDelivery(t, r, req())
	after := r.frontend.FarmStats().Memo
	if after.Hits != before.Hits {
		t.Fatalf("epoch bump served a stale hit: before %+v after %+v", before, after)
	}
	if after.Misses <= before.Misses {
		t.Fatalf("epoch bump did not force a miss: before %+v after %+v", before, after)
	}
	if err := sameBytes(first, recomputed); err != nil {
		t.Fatalf("recalibration changed a pure re-read: %v", err)
	}
	// The fresh entry is warm again under the new epoch.
	waitDelivery(t, r, req())
	if final := r.frontend.FarmStats().Memo; final.Hits != after.Hits+1 {
		t.Fatalf("cache not rewarmed: %+v", final)
	}
}

// Commits of analysis RESULTS (ana/hle/loc tables) must not invalidate:
// they cannot change what a re-run computes. Only input tables participate
// in the epoch tag.
func TestMemoUnrelatedCommitKeepsEntries(t *testing.T) {
	r := newHEDCRig(t)
	params := map[string]interface{}{"tstart": 0.0, "tstop": r.unitLen, "time_bins": 32}
	preview := &Request{
		ID: "warm", Type: schema.AnaHistogram, Session: r.session,
		Params: params, NoCommit: true,
	}
	waitDelivery(t, r, preview)

	// A full committed analysis writes ana + loc_items + hle bookkeeping.
	commit := &Request{
		ID: "commit", Type: schema.AnaLightcurve, Session: r.session,
		Params: map[string]interface{}{
			"tstart": 0.0, "tstop": r.unitLen, "time_bins": 16, "hle_id": r.hleID,
		},
	}
	tk, err := r.frontend.Submit(commit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	before := r.frontend.FarmStats().Memo
	waitDelivery(t, r, preview)
	after := r.frontend.FarmStats().Memo
	if after.Hits != before.Hits+1 {
		t.Fatalf("result commit invalidated an input-keyed entry: before %+v after %+v", before, after)
	}
}

// Memoized and non-memoized committed requests both produce their own ANA
// entity: the cache shares deliveries, never commits.
func TestMemoCommitPerRequest(t *testing.T) {
	r := newHEDCRig(t)
	submit := func(id string) string {
		tk, err := r.frontend.Submit(&Request{
			ID: id, Type: schema.AnaHistogram, Session: r.session,
			Params: map[string]interface{}{
				"tstart": 0.0, "tstop": r.unitLen, "time_bins": 32, "hle_id": r.hleID,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		anaID, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return anaID
	}
	a := submit("c1")
	b := submit("c2")
	if a == "" || b == "" || a == b {
		t.Fatalf("commits collided: %q %q", a, b)
	}
	if memo := r.frontend.FarmStats().Memo; memo.Hits == 0 {
		t.Fatalf("second commit did not reuse the cached delivery: %+v", memo)
	}
	if ana, err := r.dm.GetANA(r.session, b); err != nil || ana.ItemID == "" {
		t.Fatalf("memoized commit has no stored files: %+v %v", ana, err)
	}
}

func TestMemoDisabledBypassesCache(t *testing.T) {
	r := newHEDCRig(t)
	r.frontend.SetMemoize(false)
	params := map[string]interface{}{"tstart": 0.0, "tstop": r.unitLen, "time_bins": 32}
	req := func() *Request {
		return &Request{
			ID: "off", Type: schema.AnaHistogram, Session: r.session,
			Params: params, NoCommit: true,
		}
	}
	waitDelivery(t, r, req())
	waitDelivery(t, r, req())
	if memo := r.frontend.FarmStats().Memo; memo.Hits != 0 || memo.Entries != 0 {
		t.Fatalf("disabled cache still used: %+v", memo)
	}
}

func TestMemoStatsHitRate(t *testing.T) {
	var m MemoStats
	if m.HitRate() != 0 {
		t.Fatal("empty hit rate != 0")
	}
	m = MemoStats{Hits: 3, Misses: 1}
	if m.HitRate() != 0.75 {
		t.Fatalf("hit rate = %v", m.HitRate())
	}
}
