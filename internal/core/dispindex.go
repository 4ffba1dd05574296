package core

import (
	"fmt"
	"sync"

	"botscope/internal/dataset"
	"botscope/internal/par"
	"botscope/internal/stats"
	"botscope/internal/timeseries"
)

// DispersionIndex memoizes per-family dispersion series over one store.
// Computing a family's series walks every attack's bot formation, and the
// figures, Table IV prediction, and the transfer matrix all re-derive the
// same series — roughly thirty recomputations per full report before this
// index existed. The index computes each family's series at most once and
// serves the shared immutable slice afterwards.
//
// It is safe for concurrent use: the family map is guarded by mu, while
// each entry carries its own sync.Once so a slow series computation never
// holds the map lock and two families can be computed concurrently.
type DispersionIndex struct {
	store *dataset.Store

	mu    sync.Mutex
	byFam map[dataset.Family]*dispEntry // guarded by mu
}

type dispEntry struct {
	once   sync.Once
	series []DispersionPoint // written once inside once.Do; immutable after
}

// NewDispersionIndex creates an empty index over s. Series are computed
// lazily on first access; use Precompute to fill the index eagerly.
func NewDispersionIndex(s *dataset.Store) *DispersionIndex {
	return &DispersionIndex{
		store: s,
		byFam: make(map[dataset.Family]*dispEntry),
	}
}

var (
	dispMemoMu    sync.Mutex
	dispMemoStore *dataset.Store   // guarded by dispMemoMu
	dispMemoIx    *DispersionIndex // guarded by dispMemoMu
)

// IndexFor returns a memoized DispersionIndex for s, so package-level
// entry points that don't thread a Workloads value (ActiveDispersion-
// Families, TransferPredict) still share series across calls. Exactly one
// store is cached — the one most recently asked about — which covers the
// realistic access pattern (one store per process) with a bounded
// footprint; switching stores just drops the previous index.
func IndexFor(s *dataset.Store) *DispersionIndex {
	dispMemoMu.Lock()
	defer dispMemoMu.Unlock()
	if dispMemoStore != s {
		dispMemoStore = s
		dispMemoIx = NewDispersionIndex(s)
	}
	return dispMemoIx
}

// Store returns the underlying store.
func (ix *DispersionIndex) Store() *dataset.Store { return ix.store }

// Series returns the family's chronological dispersion series, computing
// it on first call. The returned slice is shared and must not be modified.
//
//botscope:shared
func (ix *DispersionIndex) Series(f dataset.Family) []DispersionPoint {
	ix.mu.Lock()
	e, ok := ix.byFam[f]
	if !ok {
		e = &dispEntry{}
		ix.byFam[f] = e
	}
	ix.mu.Unlock()
	e.once.Do(func() {
		e.series = DispersionSeries(ix.store, f)
	})
	return e.series
}

// Precompute fills the index for every family in the store, sharded by
// family across workers (0 = all cores). Calling it is optional — it only
// moves the work earlier and spreads it over cores.
func (ix *DispersionIndex) Precompute(workers int) {
	fams := ix.store.Families()
	par.Map(workers, len(fams), func(i int) struct{} {
		ix.Series(fams[i])
		return struct{}{}
	})
}

// Profile is ProfileDispersion served from the index.
func (ix *DispersionIndex) Profile(f dataset.Family) (DispersionProfile, error) {
	return profileFromSeries(f, ix.Series(f))
}

// CDF is DispersionCDF served from the index.
func (ix *DispersionIndex) CDF(f dataset.Family) (*stats.ECDF, error) {
	return cdfFromSeries(f, ix.Series(f))
}

// Histogram is DispersionHistogram served from the index.
func (ix *DispersionIndex) Histogram(f dataset.Family, bins int) (*stats.Histogram, error) {
	return histogramFromSeries(f, ix.Series(f), bins)
}

// ActiveFamilies is ActiveDispersionFamilies served from the index.
func (ix *DispersionIndex) ActiveFamilies(minPoints int) []dataset.Family {
	return activeFamiliesFrom(ix.store.Families(), ix.Series, minPoints)
}

// Predict is PredictDispersion served from the index.
func (ix *DispersionIndex) Predict(f dataset.Family, cfg PredictConfig) (*PredictionResult, error) {
	return PredictSeries(f, DispersionValues(ix.Series(f)), cfg)
}

// PredictAll is PredictAllFamilies served from the index, with the
// per-family fits sharded across workers (0 = all cores). Families are
// evaluated independently and results are kept in the canonical
// ActiveFamilies order, so the output matches the sequential loop.
func (ix *DispersionIndex) PredictAll(cfg PredictConfig, workers int) []*PredictionResult {
	fams := ix.ActiveFamilies(1)
	results := par.Map(workers, len(fams), func(i int) *PredictionResult {
		res, err := ix.Predict(fams[i], cfg)
		if err != nil {
			return nil
		}
		return res
	})
	out := make([]*PredictionResult, 0, len(results))
	for _, r := range results {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// TransferMatrix scores TransferPredict for every ordered pair of the
// given families and returns the successful results in canonical pair
// order, skipping pairs whose series are too short or whose fits fail.
// Work is sharded across all cores.
func (ix *DispersionIndex) TransferMatrix(families []dataset.Family, order timeseries.Order, minSeries int) []*TransferResult {
	return ix.TransferMatrixWorkers(families, order, minSeries, 0)
}

// TransferMatrixWorkers is TransferMatrix with an explicit worker count.
//
// An n-family matrix has n(n-1) ordered pairs but only 2n distinct ARIMA
// fits — the source-role model depends only on the source series and the
// native-role score only on the target series — so both are computed once
// per family (in parallel) and shared across every pair. Pair scoring
// reuses them and only runs the cheap transfer forecast.
func (ix *DispersionIndex) TransferMatrixWorkers(families []dataset.Family, order timeseries.Order, minSeries int, workers int) []*TransferResult {
	if minSeries <= 0 {
		minSeries = 60
	}
	vals := par.Map(workers, len(families), func(i int) []float64 {
		return DispersionValues(ix.Series(families[i]))
	})
	type famFit struct {
		srcModel  *timeseries.Model
		srcErr    error
		muTrain   float64
		nativeSim float64
		nativeErr error
	}
	fits := par.Map(workers, len(families), func(i int) *famFit {
		v := vals[i]
		if len(v) < minSeries {
			err := fmt.Errorf("core: %s has %d dispersion points, need %d", families[i], len(v), minSeries)
			return &famFit{srcErr: err, nativeErr: err}
		}
		f := &famFit{}
		f.srcModel, f.srcErr = timeseries.Fit(v, order)
		f.muTrain, f.nativeSim, f.nativeErr = nativeFit(families[i], v, order)
		return f
	})
	type pair struct{ src, tgt int }
	var pairs []pair
	for si := range families {
		for ti := range families {
			if si != ti {
				pairs = append(pairs, pair{si, ti})
			}
		}
	}
	results := par.Map(workers, len(pairs), func(i int) *TransferResult {
		src, tgt := fits[pairs[i].src], fits[pairs[i].tgt]
		if src.srcErr != nil || tgt.nativeErr != nil {
			return nil
		}
		res, err := transferScore(families[pairs[i].src], families[pairs[i].tgt],
			src.srcModel, vals[pairs[i].tgt], tgt.muTrain, tgt.nativeSim)
		if err != nil {
			return nil
		}
		return res
	})
	out := make([]*TransferResult, 0, len(results))
	for _, r := range results {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}
