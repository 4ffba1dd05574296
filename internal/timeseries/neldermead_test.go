package timeseries

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"botscope/internal/stats"
)

func TestNelderMeadQuadratic(t *testing.T) {
	// f(x) = (x0-3)^2 + (x1+2)^2 has its minimum at (3, -2).
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+2)*(x[1]+2)
	}
	got, val, err := NelderMead(f, []float64{0, 0}, NelderMeadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-3) > 1e-4 || math.Abs(got[1]+2) > 1e-4 {
		t.Errorf("minimum at %v, want (3, -2)", got)
	}
	if val > 1e-6 {
		t.Errorf("objective = %v, want about 0", val)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	// The banana function: minimum at (1, 1), famously hard for simplex
	// methods started far away.
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	got, val, err := NelderMead(f, []float64{-1.2, 1}, NelderMeadConfig{MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if val > 1e-4 {
		t.Errorf("Rosenbrock objective = %v at %v, want near 0", val, got)
	}
}

func TestNelderMeadOneDimension(t *testing.T) {
	f := func(x []float64) float64 { return math.Abs(x[0] - 7) }
	got, _, err := NelderMead(f, []float64{0}, NelderMeadConfig{MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-7) > 1e-3 {
		t.Errorf("minimum at %v, want 7", got[0])
	}
}

func TestNelderMeadInfeasibleRegion(t *testing.T) {
	// Objective is +Inf left of x=5, quadratic right of it: the optimizer
	// must escape the infeasible start and converge near the boundary
	// minimum at x=5.
	f := func(x []float64) float64 {
		if x[0] < 5 {
			return math.Inf(1)
		}
		return (x[0] - 5) * (x[0] - 5)
	}
	got, val, err := NelderMead(f, []float64{6}, NelderMeadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if val > 1e-6 || got[0] < 5 {
		t.Errorf("minimum %v at %v, want 0 at >= 5", val, got)
	}
}

func TestNelderMeadAllInfeasible(t *testing.T) {
	f := func(x []float64) float64 { return math.Inf(1) }
	if _, _, err := NelderMead(f, []float64{0}, NelderMeadConfig{MaxIter: 50}); err == nil {
		t.Error("fully infeasible objective succeeded, want error")
	}
}

func TestNelderMeadEmptyDimension(t *testing.T) {
	f := func(x []float64) float64 { return 0 }
	if _, _, err := NelderMead(f, nil, NelderMeadConfig{}); err == nil {
		t.Error("zero-dimensional optimization succeeded, want error")
	}
}

// referenceNelderMead is NelderMead as it stood before the fixed-point
// exit: a verbatim copy of the loop that always re-evaluates every
// shrunk vertex and runs on to MaxIter when a shrink moves nothing. It is
// the differential oracle for the real optimizer, which must return the
// same point, value and error bit for bit.
func referenceNelderMead(f Objective, x0 []float64, cfg NelderMeadConfig) ([]float64, float64, error) {
	n := len(x0)
	if n == 0 {
		return nil, 0, fmt.Errorf("timeseries: nelder-mead needs at least one dimension")
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 2000
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-10
	}
	if cfg.Step <= 0 {
		cfg.Step = 0.1
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	type vertex struct {
		x []float64
		f float64
	}
	simplex := make([]vertex, n+1)
	for i := range simplex {
		x := make([]float64, n)
		copy(x, x0)
		if i > 0 {
			if x[i-1] != 0 {
				x[i-1] += cfg.Step * math.Abs(x[i-1])
			} else {
				x[i-1] = cfg.Step
			}
		}
		simplex[i] = vertex{x: x, f: f(x)}
	}

	centroid := make([]float64, n)
	reflected := make([]float64, n)
	expanded := make([]float64, n)
	contracted := make([]float64, n)

	sortSimplex := func() {
		for i := 1; i < len(simplex); i++ {
			v := simplex[i]
			j := i - 1
			for j >= 0 && simplex[j].f > v.f {
				simplex[j+1] = simplex[j]
				j--
			}
			simplex[j+1] = v
		}
	}

	for iter := 0; iter < cfg.MaxIter; iter++ {
		sortSimplex()
		best, worst := simplex[0], simplex[n]
		if spread := math.Abs(worst.f - best.f); spread < cfg.Tol && !math.IsInf(best.f, 1) {
			diam := 0.0
			for i := 1; i <= n; i++ {
				for j := 0; j < n; j++ {
					if d := math.Abs(simplex[i].x[j] - best.x[j]); d > diam {
						diam = d
					}
				}
			}
			if diam < 1e-8 {
				break
			}
		}

		for j := 0; j < n; j++ {
			centroid[j] = 0
			for i := 0; i < n; i++ {
				centroid[j] += simplex[i].x[j]
			}
			centroid[j] /= float64(n)
		}

		for j := 0; j < n; j++ {
			reflected[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		fr := f(reflected)

		switch {
		case fr < best.f:
			for j := 0; j < n; j++ {
				expanded[j] = centroid[j] + gamma*(reflected[j]-centroid[j])
			}
			fe := f(expanded)
			if fe < fr {
				copy(simplex[n].x, expanded)
				simplex[n].f = fe
			} else {
				copy(simplex[n].x, reflected)
				simplex[n].f = fr
			}
		case fr < simplex[n-1].f:
			copy(simplex[n].x, reflected)
			simplex[n].f = fr
		default:
			for j := 0; j < n; j++ {
				contracted[j] = centroid[j] + rho*(worst.x[j]-centroid[j])
			}
			fc := f(contracted)
			if fc < worst.f {
				copy(simplex[n].x, contracted)
				simplex[n].f = fc
			} else {
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = best.x[j] + sigma*(simplex[i].x[j]-best.x[j])
					}
					simplex[i].f = f(simplex[i].x)
				}
			}
		}
	}

	sortSimplex()
	out := make([]float64, n)
	copy(out, simplex[0].x)
	if math.IsInf(simplex[0].f, 1) {
		return out, simplex[0].f, fmt.Errorf("timeseries: nelder-mead found no feasible point")
	}
	return out, simplex[0].f, nil
}

type optimizer func(Objective, []float64, NelderMeadConfig) ([]float64, float64, error)

// cssRun is one optimizer run on the CSS problem a fit poses.
type cssRun struct {
	x     []float64
	val   float64
	err   error
	evals int
}

// optimizeCSS runs opt on the problem fitDiffed poses for order (p, 0, q)
// on w: the CSS objective, the start (warm if given, else the mean plus
// Yule-Walker AR estimates) and the fitter's configuration.
func optimizeCSS(opt optimizer, w []float64, p, q int, warm []float64) cssRun {
	x0 := make([]float64, 1+p+q)
	if len(warm) == len(x0) {
		copy(x0, warm)
	} else {
		x0[0] = stats.Mean(w)
		if p > 0 {
			if phi, err := yuleWalker(w, p); err == nil {
				copy(x0[1:1+p], phi)
			}
		}
	}
	resid := make([]float64, len(w))
	var r cssRun
	css := func(params []float64) float64 {
		r.evals++
		return cssObjective(w, p, q, params, resid)
	}
	r.x, r.val, r.err = opt(css, x0, NelderMeadConfig{MaxIter: 4000, Tol: 1e-12, Step: 0.2})
	return r
}

// autoFitGrid replays AutoFit's (p, q) grid over w with d = 0, warm
// starts included, running every cell through opt. Cells that fail leave
// no warm start for their neighbors, as in AutoFit.
func autoFitGrid(opt optimizer, w []float64, maxP, maxQ int) [][]cssRun {
	grid := make([][]cssRun, maxP+1)
	for p := range grid {
		grid[p] = make([]cssRun, maxQ+1)
		var left []float64
		for q := range grid[p] {
			if p == 0 && q == 0 {
				continue
			}
			var up []float64
			if p > 0 && grid[p-1][q].err == nil {
				up = grid[p-1][q].x
			}
			r := optimizeCSS(opt, w, p, q, warmStart(left, up, p, q))
			grid[p][q] = r
			left = nil
			if r.err == nil {
				left = r.x
			}
		}
	}
	return grid
}

// genLevelARMA is genARMA around level mu with innovations of standard
// deviation sd, the scale of the dispersion series the fitter sees.
func genLevelARMA(phi, theta []float64, mu, sd float64, n int, seed int64) []float64 {
	xs := genARMA(phi, theta, 0, n, seed)
	for i := range xs {
		xs[i] = mu + sd*xs[i]
	}
	return xs
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameRun reports whether two runs returned bit-identical points and
// values and the same error.
func sameRun(a, b cssRun) bool {
	return sameBits(a.x, b.x) && math.Float64bits(a.val) == math.Float64bits(b.val) &&
		fmt.Sprint(a.err) == fmt.Sprint(b.err)
}

// sameParams reports whether m carries exactly the parameter vector x.
func sameParams(m *Model, x []float64) bool {
	return sameBits(append(append([]float64{m.Mu}, m.AR...), m.MA...), x)
}

// stallSeed generates a series whose AR(1) fit, under the reference
// optimizer, collapses the simplex onto adjacent floats: the vertices'
// SSEs then differ by rounding noise only, Tol is never met, and every
// remaining iteration is a shrink that moves nothing.
const stallSeed = 2

func TestNelderMeadStopsAtFixedPoint(t *testing.T) {
	w := genLevelARMA([]float64{0.7}, nil, 950, 200, 1500, stallSeed)
	got := optimizeCSS(NelderMead, w, 1, 0, nil)
	want := optimizeCSS(referenceNelderMead, w, 1, 0, nil)
	if !sameRun(got, want) {
		t.Fatalf("fixed-point exit changed the result: got %v %v %v, reference %v %v %v",
			got.x, got.val, got.err, want.x, want.val, want.err)
	}
	if want.evals <= 15000 {
		t.Fatalf("reference used %d evaluations; the input no longer stalls", want.evals)
	}
	if got.evals >= 1000 {
		t.Errorf("NelderMead used %d evaluations on a stalled simplex, want < 1000 (reference %d)", got.evals, want.evals)
	}
	t.Logf("evaluations: NelderMead %d, reference %d", got.evals, want.evals)
}

// TestNelderMeadMatchesReference is the differential oracle: on seeded
// random AR(1) and ARMA(1,1) series at dispersion-like levels, Fit and
// every cell of the AutoFit(…, 0, 2, 1) grid return bit-identical
// parameters, objective values and errors under NelderMead and the
// reference. The optimizeCSS replay is tied to the real fitter by
// requiring Fit's and AutoFit's parameters to equal it. Grid series stay
// at n <= 1000 because stalled reference cells cost ~23k evaluations each.
func TestNelderMeadMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	series := func(maxN int) []float64 {
		mu := 100 + 900*rng.Float64()
		sd := mu * (0.1 + 0.5*rng.Float64())
		phi := []float64{0.2 + 0.75*rng.Float64()}
		var theta []float64
		if rng.Intn(3) == 0 {
			theta = []float64{0.6*rng.Float64() - 0.3}
		}
		return genLevelARMA(phi, theta, mu, sd, 200+rng.Intn(maxN-199), rng.Int63())
	}

	stalls := 0
	for i := 0; i < 12; i++ {
		xs := series(20000)
		got := optimizeCSS(NelderMead, xs, 1, 0, nil)
		want := optimizeCSS(referenceNelderMead, xs, 1, 0, nil)
		if !sameRun(got, want) {
			t.Fatalf("fit %d (n=%d): NelderMead %v %v %v, reference %v %v %v",
				i, len(xs), got.x, got.val, got.err, want.x, want.val, want.err)
		}
		if want.evals > 15000 {
			stalls++
		}
		m, err := Fit(xs, Order{P: 1})
		if err != nil || !sameParams(m, got.x) {
			t.Fatalf("fit %d: Fit = %+v, %v; replayed optimizer found %v", i, m, err, got.x)
		}
	}

	for i := 0; i < 16; i++ {
		xs := series(1000)
		gotGrid := autoFitGrid(NelderMead, xs, 2, 1)
		wantGrid := autoFitGrid(referenceNelderMead, xs, 2, 1)
		for p := range gotGrid {
			for q := range gotGrid[p] {
				got, want := gotGrid[p][q], wantGrid[p][q]
				if !sameRun(got, want) {
					t.Fatalf("grid %d (n=%d) cell (%d,%d): NelderMead %v %v %v, reference %v %v %v",
						i, len(xs), p, q, got.x, got.val, got.err, want.x, want.val, want.err)
				}
				if want.evals > 15000 {
					stalls++
				}
			}
		}
		m, err := AutoFit(xs, 0, 2, 1)
		if err != nil || !sameParams(m, gotGrid[m.Order.P][m.Order.Q].x) {
			t.Fatalf("grid %d: AutoFit = %+v, %v; replayed grid disagrees", i, m, err)
		}
	}
	t.Logf("%d of 92 reference fits ran past 15000 evaluations", stalls)
}
