package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"

	"repro/internal/telemetry"
)

// genUnits generates mission days first..first+days-1 from the seed and
// cuts them into downlink units. The generator starts every day's clock at
// zero; the days are laid end to end here, so an event's window overlaps
// only its own day's units and ingesting a later day does not change what
// analyses of earlier events read.
func genUnits(seed int64, first, days int, dayLength float64, flares int, unitSeconds float64) []*telemetry.Unit {
	return genUnitsBg(seed, first, days, dayLength, flares, unitSeconds, backgroundRate)
}

func genUnitsBg(seed int64, first, days int, dayLength float64, flares int, unitSeconds, bg float64) []*telemetry.Unit {
	var out []*telemetry.Unit
	for d := first; d < first+days; d++ {
		day := telemetry.GenerateDay(d, telemetry.Config{
			Seed: seed, DayLength: dayLength, Flares: flares, Bursts: 1, BackgroundRate: bg,
		})
		offset := float64(d-1) * dayLength
		for _, u := range telemetry.SegmentDay(day, unitSeconds) {
			for i := range u.Photons {
				u.Photons[i].Time += offset
			}
			u.TStart += offset
			u.TStop += offset
			out = append(out, u)
		}
	}
	return out
}

// backgroundRate is the photon background in photons per second. Flare
// peaks scale with it: a tenth of the generator's default keeps each
// flare small, so a run affords hundreds of them. Per-flare sizes vary
// tenfold; only many flares per run make two seeds' datasets alike.
const backgroundRate = 2.0

// hleRef is what the schedules need to know about one event.
type hleRef struct {
	id           string
	day          int64
	tstart, stop float64
	kind         string
}

// anaRef is one committed analysis.
type anaRef struct {
	id, item string
}

// anaWindow caps an analysis's time window at the event's first seconds,
// as an analyst zooming in on a flare's rise does. An event can last 16
// minutes; a capped window reads one or two units whatever its length.
const anaWindow = 30.0

// anaSpec is one analysis request: a type over an event's window.
type anaSpec struct {
	typ string
	hle hleRef
}

var anaTypes = []string{"imaging", "lightcurve", "spectrogram", "histogram"}

// anaSpecs draws n analysis requests over hles, the four types in turn. A
// share of them re-asks a small popular set of (event, type) pairs, as
// analysts revisiting the same flare do.
func anaSpecs(rng *rand.Rand, hles []hleRef, n int, popularShare float64) []anaSpec {
	popular := make([]anaSpec, 4)
	for i := range popular {
		popular[i] = anaSpec{typ: anaTypes[i%len(anaTypes)], hle: hles[rng.Intn(len(hles))]}
	}
	out := make([]anaSpec, n)
	for i := range out {
		if rng.Float64() < popularShare {
			out[i] = popular[rng.Intn(len(popular))]
			continue
		}
		out[i] = anaSpec{typ: anaTypes[i%len(anaTypes)], hle: hles[rng.Intn(len(hles))]}
	}
	return out
}

// popularity orders events from most to least viewed: a seeded
// permutation of the events sorted by id.
func popularity(rng *rand.Rand, hles []hleRef) []hleRef {
	out := append([]hleRef(nil), hles...)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coverSpecs gives the most viewed events one analysis of each type, in
// popularity order, until n analyses. Every popular event page then
// lists the same analyses, whatever the seed: the pages' cost depends on
// the program, not on where random analyses happened to fall.
func coverSpecs(popular []hleRef, n int) []anaSpec {
	out := make([]anaSpec, n)
	for i := range out {
		out[i] = anaSpec{typ: anaTypes[i%len(anaTypes)], hle: popular[(i/len(anaTypes))%len(popular)]}
	}
	return out
}

// page is one scheduled page request.
type page struct {
	path    string
	session bool // carries the set-up login's session cookie
}

// pageMix is a weighted page class.
type pageMix struct {
	class  string
	weight float64
}

// browsePages draws n page requests. Event and analysis choice is
// Zipf-skewed over popular, most viewed first; browse pages take a kind,
// a day, or — with windows > 0 — one of that many time windows.
func browsePages(rng *rand.Rand, n int, mix []pageMix, popular []hleRef, anas []anaRef, windows int, sessionShare float64) []page {
	sorted := popular
	zh := rand.NewZipf(rng, 1.1, 1, uint64(len(sorted)-1))
	var za *rand.Zipf
	if len(anas) > 1 {
		za = rand.NewZipf(rng, 1.1, 1, uint64(len(anas)-1))
	}
	var days []int64
	seen := map[int64]bool{}
	var t0, t1 float64
	for i, h := range sorted {
		if !seen[h.day] {
			seen[h.day] = true
			days = append(days, h.day)
		}
		if i == 0 || h.tstart < t0 {
			t0 = h.tstart
		}
		if h.stop > t1 {
			t1 = h.stop
		}
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	total := 0.0
	for _, m := range mix {
		total += m.weight
	}
	out := make([]page, n)
	for i := range out {
		x := rng.Float64() * total
		class := mix[len(mix)-1].class
		for _, m := range mix {
			if x < m.weight {
				class = m.class
				break
			}
			x -= m.weight
		}
		var p string
		switch class {
		case "index":
			p = "/"
		case "catalog":
			p = "/catalog?id=" + []string{"cat-standard", "cat-extended"}[rng.Intn(2)]
		case "hle":
			p = "/hle?id=" + url.QueryEscape(sorted[zh.Uint64()].id)
		case "ana":
			p = "/ana?id=" + url.QueryEscape(anas[za.Uint64()].id)
		case "img":
			p = "/img/" + anas[za.Uint64()].item
		case "browse":
			switch k := rng.Intn(3); {
			case k == 0:
				p = "/browse?kind=" + []string{"flare", "gamma-ray-burst"}[rng.Intn(2)]
			case k == 1 || windows == 0:
				p = fmt.Sprintf("/browse?day=%d", days[rng.Intn(len(days))])
			default:
				span := (t1 - t0) / float64(windows)
				w := rng.Intn(windows)
				from := t0 + float64(w)*span
				p = fmt.Sprintf("/browse?from=%.0f&to=%.0f", from, from+span)
			}
		}
		out[i] = page{path: p, session: rng.Float64() < sessionShare}
	}
	return out
}
