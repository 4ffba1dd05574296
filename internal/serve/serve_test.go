package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/synth"
)

var (
	srvOnce  sync.Once
	srvValue *Server
	srvErr   error
)

// testServer shares one small workload across all handler tests.
func testServer(t *testing.T) *Server {
	t.Helper()
	srvOnce.Do(func() {
		var store *dataset.Store
		store, srvErr = synth.GenerateStore(synth.Config{Seed: 6, Scale: 0.03})
		if srvErr == nil {
			srvValue = New(store, 0.03)
		}
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srvValue
}

// get performs a request and decodes the JSON body into out.
func get(t *testing.T, s *Server, path string, wantStatus int, out any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body: %.200s)", path, rec.Code, wantStatus, rec.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s returned invalid JSON: %v", path, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.String() != "ok" {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

func TestSummaryEndpoint(t *testing.T) {
	s := testServer(t)
	var out struct {
		Attacks      int `json:"Attacks"`
		TrafficTypes int `json:"TrafficTypes"`
	}
	get(t, s, "/api/summary", http.StatusOK, &out)
	if out.Attacks == 0 || out.TrafficTypes != 7 {
		t.Errorf("summary = %+v", out)
	}
}

func TestProtocolsEndpoint(t *testing.T) {
	s := testServer(t)
	var out []struct {
		Protocol string `json:"protocol"`
		Count    int    `json:"count"`
	}
	get(t, s, "/api/protocols", http.StatusOK, &out)
	if len(out) == 0 || out[0].Protocol != "HTTP" {
		t.Errorf("protocols = %+v, want HTTP first", out)
	}
}

func TestDailyEndpoint(t *testing.T) {
	s := testServer(t)
	var out struct {
		Average float64 `json:"average"`
		Max     int     `json:"max"`
		Days    []struct {
			Day   string `json:"day"`
			Count int    `json:"count"`
		} `json:"days"`
	}
	get(t, s, "/api/daily", http.StatusOK, &out)
	if out.Max == 0 || len(out.Days) == 0 {
		t.Errorf("daily = %+v", out)
	}
}

func TestIntervalsEndpoint(t *testing.T) {
	s := testServer(t)
	var out struct {
		SimultaneousFrac float64 `json:"SimultaneousFrac"`
		N                int     `json:"N"`
	}
	get(t, s, "/api/intervals", http.StatusOK, &out)
	if out.N == 0 {
		t.Errorf("intervals = %+v", out)
	}
	get(t, s, "/api/intervals?family=dirtjumper", http.StatusOK, &out)
	if out.N == 0 {
		t.Errorf("family intervals = %+v", out)
	}
	get(t, s, "/api/intervals?family=mirai", http.StatusNotFound, nil)
}

func TestFamilyEndpoints(t *testing.T) {
	s := testServer(t)

	var fams []struct {
		Family  string `json:"family"`
		Attacks int    `json:"attacks"`
	}
	get(t, s, "/api/families", http.StatusOK, &fams)
	if len(fams) != 10 {
		t.Errorf("families = %d, want 10", len(fams))
	}

	var disp struct {
		SymmetricFrac float64 `json:"SymmetricFrac"`
		N             int     `json:"N"`
	}
	get(t, s, "/api/family/pandora/dispersion", http.StatusOK, &disp)
	if disp.N == 0 {
		t.Errorf("dispersion = %+v", disp)
	}
	get(t, s, "/api/family/mirai/dispersion", http.StatusNotFound, nil)

	var pred struct {
		Family     string    `json:"family"`
		Similarity float64   `json:"similarity"`
		TruthTail  []float64 `json:"truth_tail"`
	}
	get(t, s, "/api/family/dirtjumper/predict", http.StatusOK, &pred)
	if pred.Family != "dirtjumper" || len(pred.TruthTail) == 0 {
		t.Errorf("predict = %+v", pred)
	}
	if len(pred.TruthTail) > 50 {
		t.Errorf("truth tail = %d values, want trimmed to 50", len(pred.TruthTail))
	}
	get(t, s, "/api/family/dirtjumper/predict?test_points=oops", http.StatusBadRequest, nil)
	// Aldibot has too little dispersion data to fit at this scale.
	get(t, s, "/api/family/aldibot/predict", http.StatusUnprocessableEntity, nil)

	var targets struct {
		Countries int `json:"Countries"`
	}
	get(t, s, "/api/family/darkshell/targets", http.StatusOK, &targets)
	if targets.Countries == 0 {
		t.Errorf("targets = %+v", targets)
	}
}

func TestCollaborationsAndChainsEndpoints(t *testing.T) {
	s := testServer(t)
	var collab struct {
		TotalIntra int `json:"total_intra"`
	}
	get(t, s, "/api/collaborations", http.StatusOK, &collab)
	if collab.TotalIntra == 0 {
		t.Errorf("collaborations = %+v", collab)
	}
	var chains struct {
		Chains        int    `json:"chains"`
		LongestFamily string `json:"longest_family"`
	}
	get(t, s, "/api/chains", http.StatusOK, &chains)
	if chains.Chains == 0 || chains.LongestFamily == "" {
		t.Errorf("chains = %+v", chains)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	s := testServer(t)
	var ids []string
	get(t, s, "/api/experiments", http.StatusOK, &ids)
	if len(ids) < 25 {
		t.Errorf("experiment IDs = %d, want the full catalog", len(ids))
	}
	var res struct {
		ID      string `json:"ID"`
		Text    string `json:"Text"`
		Metrics []struct {
			Name     string  `json:"Name"`
			Measured float64 `json:"Measured"`
		} `json:"Metrics"`
	}
	get(t, s, "/api/experiments/Table%20II", http.StatusOK, &res)
	if res.ID != "Table II" || res.Text == "" || len(res.Metrics) == 0 {
		t.Errorf("experiment result = %+v", res)
	}
	get(t, s, "/api/experiments/Table%20XL", http.StatusNotFound, nil)
}

// liveServer builds an unshared server: ingest tests mutate live state, so
// they must not reuse the sync.Once instance the read-only tests share.
func liveServer(t *testing.T) (*Server, []*dataset.Attack) {
	t.Helper()
	store, err := synth.GenerateStore(synth.Config{Seed: 6, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return New(store, 0.02), store.Attacks()
}

// post performs a POST request and decodes the JSON body into out.
func post(t *testing.T, s *Server, path, body string, wantStatus int, out any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("POST %s = %d, want %d (body: %.200s)", path, rec.Code, wantStatus, rec.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s returned invalid JSON: %v", path, err)
		}
	}
}

func TestIngestAndLiveEndpoints(t *testing.T) {
	s, attacks := liveServer(t)

	// Before any ingest: summary reports zero, analysis sections 422.
	var summary struct {
		Ingested      int `json:"ingested"`
		ActiveAttacks int `json:"active_attacks"`
		PeakActive    int `json:"peak_active"`
	}
	get(t, s, "/api/live/summary", http.StatusOK, &summary)
	if summary.Ingested != 0 {
		t.Fatalf("pre-ingest summary = %+v, want empty", summary)
	}
	for _, path := range []string{
		"/api/live/daily", "/api/live/intervals", "/api/live/durations",
		"/api/live/load", "/api/live/collaborations",
	} {
		get(t, s, path, http.StatusUnprocessableEntity, nil)
	}

	// Ingest the full workload as JSONL in two batches.
	var buf bytes.Buffer
	half := len(attacks) / 2
	if err := dataset.WriteJSONL(&buf, attacks[:half]); err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Ingested int `json:"ingested"`
		Total    int `json:"total"`
	}
	post(t, s, "/api/ingest", buf.String(), http.StatusOK, &resp)
	if resp.Ingested != half || resp.Total != half {
		t.Fatalf("first batch = %+v, want ingested=total=%d", resp, half)
	}
	buf.Reset()
	if err := dataset.WriteJSONL(&buf, attacks[half:]); err != nil {
		t.Fatal(err)
	}
	post(t, s, "/api/ingest", buf.String(), http.StatusOK, &resp)
	if resp.Total != len(attacks) {
		t.Fatalf("second batch total = %d, want %d", resp.Total, len(attacks))
	}

	// Live sections now match the batch endpoints over the same store.
	get(t, s, "/api/live/summary", http.StatusOK, &summary)
	if summary.Ingested != len(attacks) || summary.PeakActive == 0 {
		t.Errorf("post-ingest summary = %+v", summary)
	}
	var daily struct {
		Max  int `json:"max"`
		Days []struct {
			Day   string `json:"day"`
			Count int    `json:"count"`
		} `json:"days"`
	}
	get(t, s, "/api/live/daily", http.StatusOK, &daily)
	if daily.Max == 0 || len(daily.Days) == 0 {
		t.Errorf("live daily = %+v", daily)
	}
	var intervals struct {
		N int `json:"N"`
	}
	get(t, s, "/api/live/intervals", http.StatusOK, &intervals)
	if intervals.N != len(attacks)-1 {
		t.Errorf("live intervals N = %d, want %d", intervals.N, len(attacks)-1)
	}
	var load struct {
		Peak     int    `json:"peak"`
		PeakTime string `json:"peak_time"`
	}
	get(t, s, "/api/live/load", http.StatusOK, &load)
	if load.Peak == 0 || load.PeakTime == "" {
		t.Errorf("live load = %+v", load)
	}
	var collab struct {
		TotalIntra int `json:"total_intra"`
		TotalInter int `json:"total_inter"`
	}
	get(t, s, "/api/live/collaborations", http.StatusOK, &collab)
	if collab.TotalIntra == 0 {
		t.Errorf("live collaborations = %+v", collab)
	}
	get(t, s, "/api/live/durations", http.StatusOK, nil)
}

func TestIngestRejectsBadPayload(t *testing.T) {
	s, attacks := liveServer(t)

	var resp struct {
		Error    string `json:"error"`
		Ingested int    `json:"ingested"`
	}
	post(t, s, "/api/ingest", "{not json}\n", http.StatusUnprocessableEntity, &resp)
	if resp.Error == "" || resp.Ingested != 0 {
		t.Errorf("malformed payload response = %+v", resp)
	}

	// Out-of-order: ingest a later attack, then replay an earlier one.
	var buf bytes.Buffer
	if err := dataset.WriteJSONL(&buf, []*dataset.Attack{attacks[10]}); err != nil {
		t.Fatal(err)
	}
	post(t, s, "/api/ingest", buf.String(), http.StatusOK, nil)
	buf.Reset()
	if err := dataset.WriteJSONL(&buf, []*dataset.Attack{attacks[0]}); err != nil {
		t.Fatal(err)
	}
	post(t, s, "/api/ingest", buf.String(), http.StatusUnprocessableEntity, &resp)
	if resp.Error == "" {
		t.Errorf("out-of-order response = %+v, want error", resp)
	}
}

// TestLiveIngestTotalMatchesSnapshot pins that the running total
// LiveIngest reports equals the live snapshot's Ingested count, both after
// a clean batch and after a batch rejected mid-way (the records before the
// bad one stay applied).
func TestLiveIngestTotalMatchesSnapshot(t *testing.T) {
	s, attacks := liveServer(t)
	ctx := context.Background()

	var buf bytes.Buffer
	if err := dataset.WriteJSONL(&buf, attacks[:20]); err != nil {
		t.Fatal(err)
	}
	n, total, err := s.LiveIngest(ctx, &buf)
	if err != nil || n != 20 {
		t.Fatalf("clean batch = (%d, %v), want 20 ingested", n, err)
	}
	if want := s.Live().Snapshot().Ingested; total != want || total != 20 {
		t.Fatalf("clean batch total = %d, snapshot says %d, want 20", total, want)
	}

	// Five in-order records, then one that starts before them.
	buf.Reset()
	batch := append(append([]*dataset.Attack{}, attacks[20:25]...), attacks[0])
	if err := dataset.WriteJSONL(&buf, batch); err != nil {
		t.Fatal(err)
	}
	n, total, err = s.LiveIngest(ctx, &buf)
	if err == nil || n != 5 {
		t.Fatalf("rejected batch = (%d, %v), want 5 ingested and an error", n, err)
	}
	if want := s.Live().Snapshot().Ingested; total != want || total != 25 {
		t.Fatalf("rejected batch total = %d, snapshot says %d, want 25", total, want)
	}
}

// oversizedIngestBody is a JSONL body just over maxIngestBytes: in-order
// records, each followed by 1 MiB of whitespace, so the decoder applies
// records until the cap while holding no more than one gap in memory.
func oversizedIngestBody(t *testing.T, attacks []*dataset.Attack) io.Reader {
	t.Helper()
	gap := bytes.Repeat([]byte{' '}, 1<<20)
	var parts []io.Reader
	for i := 0; i <= maxIngestBytes>>20; i++ {
		var line bytes.Buffer
		if err := dataset.WriteJSONL(&line, attacks[i:i+1]); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, &line, bytes.NewReader(gap))
	}
	return io.MultiReader(parts...)
}

// TestIngestBodyCapped drives both server shapes with a body over the
// cap: each answers 413 and still reports the records applied before it.
func TestIngestBodyCapped(t *testing.T) {
	single, attacks := liveServer(t)
	fronted, _ := liveServer(t)
	for name, h := range map[string]http.Handler{"Server": single, "LiveServer": NewLiveServer(fronted)} {
		t.Run(name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/api/ingest", oversizedIngestBody(t, attacks))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var resp struct {
				Error    string `json:"error"`
				Ingested int    `json:"ingested"`
				Total    int    `json:"total"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("invalid JSON %q: %v", rec.Body.String(), err)
			}
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("status = %d, want 413 (%+v)", rec.Code, resp)
			}
			if resp.Error == "" || resp.Ingested == 0 || resp.Total != resp.Ingested {
				t.Errorf("response = %+v, want an error and the applied count", resp)
			}
		})
	}
}

func TestListenAndServeContextShutdown(t *testing.T) {
	s, _ := liveServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServeContext(ctx, "127.0.0.1:0") }()
	// Give the listener a moment to come up, then trigger shutdown.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down after context cancellation")
	}
}

func TestListenAndServeContextBadAddr(t *testing.T) {
	s, _ := liveServer(t)
	if err := s.ListenAndServeContext(context.Background(), "256.0.0.1:bogus"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/api/summary", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/summary = %d, want 405", rec.Code)
	}
}

func TestIngestStatsEndpoint(t *testing.T) {
	s, attacks := liveServer(t)

	var st struct {
		Requests   int    `json:"requests"`
		Records    int    `json:"records"`
		Rejected   int    `json:"rejected"`
		LastIngest string `json:"last_ingest"`
	}
	get(t, s, "/api/live/ingeststats", http.StatusOK, &st)
	if st.Requests != 0 || st.Records != 0 || st.LastIngest != "" {
		t.Fatalf("pre-ingest stats = %+v, want zeros", st)
	}

	var buf bytes.Buffer
	if err := dataset.WriteJSONL(&buf, attacks[:3]); err != nil {
		t.Fatal(err)
	}
	post(t, s, "/api/ingest", buf.String(), http.StatusOK, nil)
	post(t, s, "/api/ingest", "not json\n", http.StatusUnprocessableEntity, nil)

	get(t, s, "/api/live/ingeststats", http.StatusOK, &st)
	if st.Requests != 2 || st.Records != 3 || st.Rejected != 1 {
		t.Fatalf("post-ingest stats = %+v, want requests=2 records=3 rejected=1", st)
	}
	if _, err := time.Parse(time.RFC3339, st.LastIngest); err != nil {
		t.Fatalf("last_ingest %q not RFC3339: %v", st.LastIngest, err)
	}
}
