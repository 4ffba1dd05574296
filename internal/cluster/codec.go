package cluster

import (
	"fmt"
	"time"

	"botscope/internal/bincodec"
	"botscope/internal/dataset"
)

// IngestEntry is one element of an msgIngest payload: either a full attack
// record (the shard owns this attack's target partition) or a lightweight
// (id, start, end) tick (the attack is homed elsewhere; the shard folds it
// into its replicated scalar state only). Entries arrive in global stream
// order; Seq is the record's 1-based position in the global stream.
type IngestEntry struct {
	Seq    uint64
	Record *dataset.Attack // nil for a tick
	ID     dataset.DDoSID
	Start  time.Time
	End    time.Time
}

// Tick reports whether the entry is a scalar tick rather than a record.
func (e *IngestEntry) Tick() bool { return e.Record == nil }

const (
	entryTick   byte = 0
	entryRecord byte = 1
)

// toWire encodes v with its walker into a fresh payload.
func toWire[T any](walk func(*bincodec.Coder, *T), v *T) []byte {
	c := bincodec.NewEncoder(nil)
	walk(c, v)
	return c.Bytes()
}

// fromWire decodes a payload with the walker of its message type.
func fromWire[T any](walk func(*bincodec.Coder, *T), payload []byte) (T, error) {
	var v T
	c := bincodec.NewDecoder(payload, ErrTruncated)
	walk(c, &v)
	return v, c.Err()
}

// walkIngest walks an msgIngest payload: the entry count, then per entry
// its kind byte, its sequence number and either the tick's (id, start,
// end) or the full record.
func walkIngest(c *bincodec.Coder, entries *[]IngestEntry) {
	// A tick costs at least 5 bytes (kind + 4 varints).
	n := bincodec.Slice(c, entries, 5)
	for i := 0; i < n && c.Err() == nil; i++ {
		e := &(*entries)[i]
		kind := entryTick
		if e.Record != nil {
			kind = entryRecord
		}
		c.Byte(&kind)
		c.Uvarint(&e.Seq)
		switch kind {
		case entryTick:
			bincodec.Uint(c, &e.ID)
			c.Time(&e.Start)
			c.Time(&e.End)
		case entryRecord:
			if c.Decoding() {
				e.Record = new(dataset.Attack)
			}
			walkAttack(c, e.Record)
			if c.Decoding() {
				e.ID, e.Start, e.End = e.Record.ID, e.Record.Start, e.Record.End
			}
		default:
			c.Fail(fmt.Errorf("cluster: unknown ingest entry kind %d", kind))
		}
	}
}

// walkAttack walks one full dataset.Attack. Every string and address
// round-trips verbatim so the shard's analyzer sees exactly the record
// the frontend validated.
func walkAttack(c *bincodec.Coder, a *dataset.Attack) {
	bincodec.Uint(c, &a.ID)
	bincodec.Uint(c, &a.BotnetID)
	bincodec.String(c, &a.Family)
	bincodec.Int(c, &a.Category)
	c.Addr(&a.TargetIP)
	c.Time(&a.Start)
	c.Time(&a.End)
	// Bot IPs on the wire are parsed addresses: at least 5 bytes each.
	n := bincodec.Slice(c, &a.BotIPs, 5)
	for i := 0; i < n && c.Err() == nil; i++ {
		c.Addr(&a.BotIPs[i])
	}
	bincodec.Int(c, &a.TargetASN)
	c.Str(&a.TargetCountry)
	c.Str(&a.TargetCity)
	c.Str(&a.TargetOrg)
	c.F64(&a.TargetLat)
	c.F64(&a.TargetLon)
}

// helloAck is the shard's session greeting: its identity and how many
// ingest entries it has applied (the frontend uses the latter to spot a
// lagging or freshly reset shard).
type helloAck struct {
	ShardID int
	Applied uint64
}

func walkHelloAck(c *bincodec.Coder, h *helloAck) {
	bincodec.Int(c, &h.ShardID)
	c.Uvarint(&h.Applied)
}

// ingestAck reports how many entries the shard has applied in total after
// this batch.
type ingestAck struct {
	Applied uint64
}

func walkIngestAck(c *bincodec.Coder, a *ingestAck) {
	c.Uvarint(&a.Applied)
}
