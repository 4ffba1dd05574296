package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// wireSeed is one named, fully framed BSCW message.
type wireSeed struct {
	name string
	data []byte
}

// wireGoldenSeeds encodes one message of each payload-bearing kind the
// shards and the frontend exchange. The committed copies under
// testdata/fuzz/FuzzDecodeWire pin the BSCW bytes (TestWireGoldenCorpus)
// and seed FuzzDecodeWire with well-formed payloads.
func wireGoldenSeeds(t testing.TB) []wireSeed {
	t.Helper()
	frame := func(kind FrameKind, reqID uint32, payload []byte) []byte {
		return AppendFrame(nil, &Frame{Type: kind, ReqID: reqID, Payload: payload})
	}

	start := time.Date(2012, 8, 1, 12, 0, 0, 0, time.UTC)
	entries := []IngestEntry{
		{Seq: 1, ID: 5, Start: start, End: start.Add(time.Hour)},
		{Seq: 2, Record: testAttack(6, "198.51.100.9", start.Add(time.Minute)),
			ID: 6, Start: start.Add(time.Minute), End: start.Add(91 * time.Minute)},
	}
	ingest := frame(msgIngest, 11, toWire(walkIngest, &entries))

	snaps, _ := mergeFixture(t)
	snap := frame(msgSnapResp, 12, toWire(walkSnapshot, snaps[0]))

	hello := frame(msgHelloAck, 13, toWire(walkHelloAck, &helloAck{ShardID: 3, Applied: 1 << 33}))
	ack := frame(msgIngestAck, 14, toWire(walkIngestAck, &ingestAck{Applied: 2025}))

	return []wireSeed{
		{"golden-ingest", ingest},
		{"golden-snap-resp", snap},
		{"golden-hello-ack", hello},
		{"golden-ingest-ack", ack},
	}
}

// wireSeedBody renders a seed in the go-fuzz corpus file format.
func wireSeedBody(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

// TestRegenWireCorpus rewrites the golden seeds under
// testdata/fuzz/FuzzDecodeWire. Gated behind BOTSCOPE_REGEN_CORPUS=1 so a
// protocol change regenerates them deliberately, never as a side effect.
func TestRegenWireCorpus(t *testing.T) {
	if os.Getenv("BOTSCOPE_REGEN_CORPUS") == "" {
		t.Skip("set BOTSCOPE_REGEN_CORPUS=1 to rewrite the golden seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeWire")
	for _, seed := range wireGoldenSeeds(t) {
		if err := os.WriteFile(filepath.Join(dir, seed.name), wireSeedBody(seed.data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireGoldenCorpus pins the BSCW encoding byte for byte: every golden
// seed the current encoder produces must equal its committed file.
func TestWireGoldenCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeWire")
	for _, seed := range wireGoldenSeeds(t) {
		got, err := os.ReadFile(filepath.Join(dir, seed.name))
		if err != nil {
			t.Fatalf("golden seed missing (run BOTSCOPE_REGEN_CORPUS=1 go test): %v", err)
		}
		if !bytes.Equal(got, wireSeedBody(seed.data)) {
			t.Errorf("%s: encoding differs from the committed bytes", seed.name)
		}
	}
}
