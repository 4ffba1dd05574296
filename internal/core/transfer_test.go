package core

import (
	"testing"

	"botscope/internal/dataset"
	"botscope/internal/timeseries"
)

func TestTransferPredictValidation(t *testing.T) {
	s := synthWorkload(t)
	// Aldibot has far fewer than 60 dispersion points at this scale.
	if _, err := TransferPredict(s, dataset.Aldibot, dataset.Dirtjumper, timeseries.Order{P: 1}, 60); err == nil {
		t.Error("short source series accepted")
	}
	if _, err := TransferPredict(s, dataset.Dirtjumper, dataset.Aldibot, timeseries.Order{P: 1}, 60); err == nil {
		t.Error("short target series accepted")
	}
}

func TestTransferPredictAcrossFamilies(t *testing.T) {
	s := synthWorkload(t)
	res, err := TransferPredict(s, dataset.Dirtjumper, dataset.Pandora, timeseries.Order{P: 1}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != dataset.Dirtjumper || res.Target != dataset.Pandora {
		t.Errorf("pair = %s->%s", res.Source, res.Target)
	}
	// The paper's cross-family claim: behavior learned on one family
	// carries to others. The transferred model must retain most of the
	// native model's predictive power.
	if res.NativeSimilarity <= 0 {
		t.Fatalf("native similarity = %v", res.NativeSimilarity)
	}
	if res.Retention < 0.5 {
		t.Errorf("retention = %v (transfer %v vs native %v), want >= 0.5",
			res.Retention, res.TransferSimilarity, res.NativeSimilarity)
	}
}

func TestTransferMatrix(t *testing.T) {
	s := synthWorkload(t)
	fams := []dataset.Family{dataset.Dirtjumper, dataset.Pandora, dataset.Blackenergy}
	results := NewDispersionIndex(s).TransferMatrix(fams, timeseries.Order{P: 1}, 60)
	if len(results) == 0 {
		t.Fatal("no transfer results")
	}
	if len(results) > 6 {
		t.Fatalf("results = %d, want at most 6 ordered pairs", len(results))
	}
	seen := make(map[string]bool)
	for _, r := range results {
		key := string(r.Source) + "->" + string(r.Target)
		if r.Source == r.Target {
			t.Errorf("self pair %s", key)
		}
		if seen[key] {
			t.Errorf("duplicate pair %s", key)
		}
		seen[key] = true
	}
}

// naiveTransferMatrix is the reference for DispersionIndex.TransferMatrix:
// it runs TransferPredict on every ordered pair, refitting both models
// each time (2·n(n-1) fits where the index needs 2n).
func naiveTransferMatrix(s *dataset.Store, families []dataset.Family, order timeseries.Order, minSeries int) []*TransferResult {
	var out []*TransferResult
	for _, src := range families {
		for _, tgt := range families {
			if src == tgt {
				continue
			}
			res, err := TransferPredict(s, src, tgt, order, minSeries)
			if err != nil {
				continue
			}
			out = append(out, res)
		}
	}
	return out
}
