package timeseries

import (
	"fmt"
	"math"
)

// Objective is a function to minimize. It may return +Inf to mark an
// infeasible point. It must be pure: the same x, bit for bit, always
// yields the same value. NelderMead relies on this to skip re-evaluating
// vertices a shrink leaves in place and to stop at a fixed point.
type Objective func(x []float64) float64

// NelderMeadConfig tunes the downhill-simplex optimizer.
type NelderMeadConfig struct {
	// MaxIter bounds the number of simplex iterations; default 2000.
	MaxIter int
	// Tol is the convergence tolerance on the objective spread; default 1e-10.
	Tol float64
	// Step is the initial simplex edge length; default 0.1.
	Step float64
}

// NelderMead minimizes f starting from x0 using the Nelder-Mead downhill
// simplex method (reflection, expansion, contraction, shrink). It returns
// the best point found and its objective value. The ARIMA fitter uses it
// because CSS is non-differentiable at stability boundaries, where
// gradient methods misbehave.
//
// It stops at the first of: the objective spread falls below Tol while
// the simplex diameter falls below 1e-8; MaxIter iterations; or a shrink
// that moves no vertex by a single bit. The last is exact, not a
// tolerance: with a pure objective the simplex is then at a fixed point
// and running on to MaxIter would return the same point and value.
func NelderMead(f Objective, x0 []float64, cfg NelderMeadConfig) ([]float64, float64, error) {
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

	// sortSimplex orders the n+1 vertices by objective value. Insertion
	// sort: the simplex is nearly sorted between iterations (at most one
	// vertex moved), and unlike sort.Slice it allocates nothing — this
	// runs once per iteration on the fitter's hottest path.
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

iterate:
	for iter := 0; iter < cfg.MaxIter; iter++ {
		sortSimplex()
		best, worst := simplex[0], simplex[n]
		if spread := math.Abs(worst.f - best.f); spread < cfg.Tol && !math.IsInf(best.f, 1) {
			// Equal objective values can still mean a wide simplex (e.g.
			// symmetric points around a V-shaped minimum); require the
			// simplex itself to have collapsed too.
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

		// Centroid of all but the worst vertex.
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
			// Try to expand further in the same direction.
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
			// Contract toward the centroid.
			for j := 0; j < n; j++ {
				contracted[j] = centroid[j] + rho*(worst.x[j]-centroid[j])
			}
			fc := f(contracted)
			if fc < worst.f {
				copy(simplex[n].x, contracted)
				simplex[n].f = fc
			} else {
				// Shrink everything toward the best vertex. A vertex the
				// shrink rounds back onto itself keeps its value; if none
				// moves, the simplex is at a fixed point (see above).
				moved := false
				for i := 1; i <= n; i++ {
					vertexMoved := false
					for j := 0; j < n; j++ {
						x := best.x[j] + sigma*(simplex[i].x[j]-best.x[j])
						if math.Float64bits(x) != math.Float64bits(simplex[i].x[j]) {
							simplex[i].x[j] = x
							vertexMoved = true
						}
					}
					if vertexMoved {
						simplex[i].f = f(simplex[i].x)
						moved = true
					}
				}
				if !moved {
					break iterate
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
