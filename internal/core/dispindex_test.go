package core

import (
	"sync"
	"testing"

	"botscope/internal/timeseries"
)

// TestDispersionIndexMatchesDirect checks the index serves exactly what
// the direct per-call computation produces, for every family.
func TestDispersionIndexMatchesDirect(t *testing.T) {
	s := synthWorkload(t)
	ix := NewDispersionIndex(s)
	for _, f := range s.Families() {
		want := DispersionSeries(s, f)
		got := ix.Series(f)
		if len(got) != len(want) {
			t.Fatalf("%s: index series has %d points, direct %d", f, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: point %d differs: %+v vs %+v", f, i, got[i], want[i])
			}
		}
	}
	// The memoized slice must be the same allocation on repeat calls.
	f := s.Families()[0]
	a, b := ix.Series(f), ix.Series(f)
	if len(a) > 0 && &a[0] != &b[0] {
		t.Error("repeated Series calls returned different backing arrays; memoization is not working")
	}
}

// TestDispersionIndexDerived checks the derived accessors agree with their
// package-level counterparts.
func TestDispersionIndexDerived(t *testing.T) {
	s := synthWorkload(t)
	ix := NewDispersionIndex(s)

	wantFams := ActiveDispersionFamilies(s, 10)
	gotFams := ix.ActiveFamilies(10)
	if len(wantFams) != len(gotFams) {
		t.Fatalf("ActiveFamilies: %v vs %v", gotFams, wantFams)
	}
	for i := range wantFams {
		if wantFams[i] != gotFams[i] {
			t.Fatalf("ActiveFamilies order differs: %v vs %v", gotFams, wantFams)
		}
	}
	if len(wantFams) == 0 {
		t.Fatal("no active families; comparisons below are vacuous")
	}
	f := wantFams[0]

	wantProf, err1 := ProfileDispersion(s, f)
	gotProf, err2 := ix.Profile(f)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("Profile error mismatch: %v vs %v", err2, err1)
	}
	if wantProf != gotProf {
		t.Errorf("Profile(%s): %+v vs %+v", f, gotProf, wantProf)
	}

	cfg := PredictConfig{Order: timeseries.Order{P: 1}}
	wantPred, err1 := PredictDispersion(s, f, cfg)
	gotPred, err2 := ix.Predict(f, cfg)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("Predict error mismatch: %v vs %v", err2, err1)
	}
	if err1 == nil && (wantPred.Similarity != gotPred.Similarity || wantPred.MeanPred != gotPred.MeanPred) {
		t.Errorf("Predict(%s): similarity %v vs %v", f, gotPred.Similarity, wantPred.Similarity)
	}

	wantAll := PredictAllFamilies(s, cfg)
	gotAll := ix.PredictAll(cfg, 4)
	if len(wantAll) != len(gotAll) {
		t.Fatalf("PredictAll: %d results vs %d", len(gotAll), len(wantAll))
	}
	for i := range wantAll {
		if wantAll[i].Family != gotAll[i].Family || wantAll[i].Similarity != gotAll[i].Similarity {
			t.Errorf("PredictAll[%d]: %s/%v vs %s/%v", i,
				gotAll[i].Family, gotAll[i].Similarity, wantAll[i].Family, wantAll[i].Similarity)
		}
	}

	if len(wantFams) >= 2 {
		order := timeseries.Order{P: 1}
		wantTM := naiveTransferMatrix(s, wantFams[:2], order, 10)
		gotTM := ix.TransferMatrixWorkers(wantFams[:2], order, 10, 4)
		if len(wantTM) != len(gotTM) {
			t.Fatalf("TransferMatrix: %d results vs %d", len(gotTM), len(wantTM))
		}
		for i := range wantTM {
			if *wantTM[i] != *gotTM[i] {
				t.Errorf("TransferMatrix[%d]: %+v vs %+v", i, gotTM[i], wantTM[i])
			}
		}
	}
}

// TestDispersionIndexConcurrent hammers the index from many goroutines
// under -race: concurrent first computations, repeat reads, and a
// Precompute all racing on the same index.
func TestDispersionIndexConcurrent(t *testing.T) {
	s := synthWorkload(t)
	ix := NewDispersionIndex(s)
	fams := s.Families()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 0 {
				ix.Precompute(4)
				return
			}
			for r := 0; r < 3; r++ {
				for _, f := range fams {
					_ = ix.Series(f)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, f := range fams {
		want := DispersionSeries(s, f)
		if got := ix.Series(f); len(got) != len(want) {
			t.Fatalf("%s: concurrent fill produced %d points, want %d", f, len(got), len(want))
		}
	}
}
