package cluster

import (
	"reflect"
	"testing"
	"time"
)

// FuzzDecodeWire throws arbitrary bytes at the frame parser and, for
// frames that parse, at the payload decoders behind each message type. The
// invariants: never panic, never allocate unboundedly, and any frame that
// decodes re-encodes into bytes that decode to the same frame.
func FuzzDecodeWire(f *testing.F) {
	f.Add(AppendFrame(nil, &Frame{Type: msgHello, ReqID: 1}))
	f.Add(AppendFrame(nil, &Frame{Type: msgPing, ReqID: 2}))
	f.Add([]byte("BSCW\x01"))
	f.Add([]byte("XXXX\x01\x01\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00"))

	{
		start := time.Date(2012, 8, 1, 12, 0, 0, 0, time.UTC)
		entries := []IngestEntry{
			{Seq: 1, ID: 5, Start: start, End: start.Add(time.Hour)},
			{Seq: 2, Record: testAttack(6, "198.51.100.9", start.Add(time.Minute)),
				ID: 6, Start: start.Add(time.Minute), End: start.Add(91 * time.Minute)},
		}
		f.Add(AppendFrame(nil, &Frame{Type: msgIngest, ReqID: 3, Payload: toWire(walkIngest, &entries)}))
	}
	{
		ack := ingestAck{Applied: 10000}
		f.Add(AppendFrame(nil, &Frame{Type: msgIngestAck, ReqID: 4, Payload: toWire(walkIngestAck, &ack)}))
	}
	{
		ack := helloAck{ShardID: 2, Applied: 7}
		f.Add(AppendFrame(nil, &Frame{Type: msgHelloAck, ReqID: 5, Payload: toWire(walkHelloAck, &ack)}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		re := AppendFrame(nil, &fr)
		fr2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if fr.Type != fr2.Type || fr.Flags != fr2.Flags || fr.ReqID != fr2.ReqID ||
			!reflect.DeepEqual(fr.Payload, fr2.Payload) {
			t.Fatalf("frame round trip: %+v != %+v", fr, fr2)
		}

		switch fr.Type {
		case msgIngest:
			entries, err := fromWire(walkIngest, fr.Payload)
			if err != nil {
				return
			}
			// A decoded batch always re-encodes into a decodable payload.
			if _, err := fromWire(walkIngest, toWire(walkIngest, &entries)); err != nil {
				t.Fatalf("re-encoded ingest does not decode: %v", err)
			}
		case msgSnapResp:
			if s, err := fromWire(walkSnapshot, fr.Payload); err == nil {
				if _, err := fromWire(walkSnapshot, toWire(walkSnapshot, &s)); err != nil {
					t.Fatalf("re-encoded snapshot does not decode: %v", err)
				}
			}
		case msgHelloAck:
			_, _ = fromWire(walkHelloAck, fr.Payload)
		case msgIngestAck:
			_, _ = fromWire(walkIngestAck, fr.Payload)
		}
	})
}
