package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"opportunet/internal/analysis"
	"opportunet/internal/stats"
	"opportunet/internal/trace"
)

// verifier recomputes every answer from an independent study.
type verifier struct {
	ref  *analysis.Study
	grid []float64
	memo map[string]any
}

func newVerifier(ref *analysis.Study) *verifier {
	// The daemon's documented grid: log-spaced from 2 minutes (1% of
	// the window for short traces) to the full window.
	hi := ref.View.Duration()
	lo := 120.0
	if lo >= hi/2 {
		lo = hi / 100
	}
	return &verifier{ref: ref, grid: stats.LogSpace(lo, hi, servePoints), memo: map[string]any{}}
}

type pathAnswer struct {
	Delivered    bool    `json:"delivered"`
	DeliveryTime float64 `json:"delivery_time"`
	Delay        float64 `json:"delay"`
	MinHops      int     `json:"min_hops"`
}

type diameterAnswer struct {
	Diameter   int     `json:"diameter"`
	WorstRatio float64 `json:"worst_ratio"`
	Degraded   string  `json:"degraded"`
}

type cdfAnswer struct {
	Grid     []float64 `json:"grid"`
	Degraded string    `json:"degraded"`
	Curves   []struct {
		HopBound int       `json:"hop_bound"`
		Success  []float64 `json:"success"`
	} `json:"curves"`
}

// verify checks one response against the reference.
func (v *verifier) verify(raw string, r reqRecord) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d", r.status)
	}
	u, err := url.Parse(raw)
	if err != nil {
		return err
	}
	q := u.Query()
	switch u.Path {
	case "/v1/path":
		return v.verifyPath(q, r.body)
	case "/v1/diameter":
		return v.verifyDiameter(q, r.body)
	case "/v1/delaycdf":
		return v.verifyCDF(q, r.body)
	}
	return fmt.Errorf("unexpected endpoint %s", u.Path)
}

func (v *verifier) verifyPath(q url.Values, body []byte) error {
	src, err1 := strconv.Atoi(q.Get("src"))
	dst, err2 := strconv.Atoi(q.Get("dst"))
	t, err3 := strconv.ParseFloat(q.Get("t"), 64)
	maxHops := 0
	var err4 error
	if s := q.Get("maxhops"); s != "" {
		maxHops, err4 = strconv.Atoi(s)
	}
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return err
	}
	var got pathAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	s, d := trace.NodeID(src), trace.NodeID(dst)
	del := v.ref.Result.Frontier(s, d, maxHops).Del(t)
	want := pathAnswer{MinHops: v.ref.Result.MinHops(s, d)}
	if !math.IsInf(del, 1) {
		want.Delivered, want.DeliveryTime, want.Delay = true, del, del-t
	}
	if got != want {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

func (v *verifier) verifyDiameter(q url.Values, body []byte) error {
	eps := serveEps
	if s := q.Get("eps"); s != "" {
		var err error
		if eps, err = strconv.ParseFloat(s, 64); err != nil {
			return err
		}
	}
	key := "diameter " + strconv.FormatFloat(eps, 'g', -1, 64)
	want, ok := v.memo[key].(diameterAnswer)
	if !ok {
		want.Diameter, want.WorstRatio = v.ref.Diameter(eps, v.grid)
		v.memo[key] = want
	}
	var got diameterAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

func (v *verifier) verifyCDF(q url.Values, body []byte) error {
	hopsRaw := q.Get("hops")
	if hopsRaw == "" {
		hopsRaw = "1,2,3,0" // the daemon's default
	}
	key := "delaycdf " + hopsRaw
	want, ok := v.memo[key].([]analysis.DelayCDF)
	if !ok {
		var hops []int
		for _, s := range strings.Split(hopsRaw, ",") {
			k, err := strconv.Atoi(s)
			if err != nil {
				return err
			}
			hops = append(hops, k)
		}
		want = v.ref.DelayCDFs(hops, v.grid)
		v.memo[key] = want
	}
	var got cdfAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Degraded != "" || !equalFloats(got.Grid, v.grid) || len(got.Curves) != len(want) {
		return fmt.Errorf("degraded %q, %d grid points, %d curves", got.Degraded, len(got.Grid), len(got.Curves))
	}
	for i, c := range got.Curves {
		if c.HopBound != want[i].HopBound || !equalFloats(c.Success, want[i].Success) {
			return fmt.Errorf("curve %d (hop bound %d) differs", i, c.HopBound)
		}
	}
	return nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
