package dataset

// snapshot.go is the versioned binary columnar snapshot codec ("BSCS").
// A snapshot serializes the columnar core (columns.go) — interned string
// table, attack/bot/botnet columns, and the dense source-IP layer — so a
// generated workload reloads in seconds instead of being regenerated and
// re-indexed. Each section is written once, as a walker over a
// bincodec.Coder: EncodeSnapshot runs the six walkers with an encoder,
// the decoder runs the same six with a decoder, so the two directions
// cannot drift apart. The value rules (varints, IEEE-754 floats, tagged
// addresses, the sticky error and the count guard) live in
// internal/bincodec, shared with the cluster wire protocol.
//
// Format versioning rules: the magic never changes; the version byte
// bumps on any layout change (there is no in-place migration — a
// snapshot is a cache of a reproducible workload, so "regenerate and
// re-snapshot" is always safe); decoders reject every version but the
// current one rather than guessing. Decode is strict: every interned-id
// and row reference is bounds-checked, attack rows must arrive sorted by
// (Start, ID) with unique ids, dense ids must be numbered in
// first-appearance order, and trailing bytes (in the stream, and inside
// each section frame) are an error. A decoded store therefore satisfies
// exactly the invariants NewStore enforces.
//
// Layout (version 2):
//
//	"BSCS" | version uvarint
//	6 section frames, in fixed order (strings, targets, botnets, bots,
//	attacks, dense), each:
//	    section id byte (1..6) |
//	    payload length uint64 BE |
//	    payload crc32 (Castagnoli) uint32 BE |
//	    payload
//
// The fixed-width frame header lets the encoder emit each payload
// straight into the output buffer and backfill length + checksum, and
// lets a reader verify or skip a section without parsing it. Payloads:
//
//	strings:  count | (len | bytes)*
//	targets:  count | addr*
//	botnets:  count | id* | fam* | hash* | ctrl* | first* | last*
//	bots:     count | ip* | asn* | cc* | city* | org* | lat* | lon* | lastΔ*
//	attacks:  count | nRefs | id* | botnet* | fam* | cat* | tgt* |
//	          startΔ* | endΔ* | asn* | cc* | city* | org* | lat* | lon* | span*
//	dense:    count | ip* | ref* | rec*
//
// Sections are column-major: each column is one contiguous run, which
// keeps related varints adjacent and lets the decoder choose its
// direction once per column. Attack starts are deltas from the previous
// row (the sort makes them small and non-negative), ends are deltas from
// their own start, bot LastActive values are zigzag deltas from the
// previous row (clustered inside the paper window).
//
// The per-section checksums also feed a process-local validation cache:
// when a snapshot whose six (length, crc) pairs were already fully
// validated by an earlier load is decoded again, the structural parse
// still runs (it is what builds the columns) but the semantic
// re-validation (validateColumns) is skipped.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"botscope/internal/bincodec"
)

// Snapshot codec constants.
const (
	snapMagic   = "BSCS"
	snapVersion = 2
)

// snapSections are the section walkers in stream order: section id i+1
// is snapSections[i], named snapSectionName[i+1].
var snapSections = [...]func(*bincodec.Coder, *Columns){
	walkStrings, walkTargets, walkBotnets, walkBots, walkAttacks, walkDense,
}

// snapSectionName names each section for typed decode errors; index 0 is
// the pre-section header.
var snapSectionName = [...]string{"header", "strings", "targets", "botnets", "bots", "attacks", "dense"}

// castagnoli is the CRC-32C table used for section checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot codec errors.
var (
	ErrSnapshotMagic     = errors.New("dataset: bad snapshot magic")
	ErrSnapshotVersion   = errors.New("dataset: unsupported snapshot version")
	ErrSnapshotTruncated = errors.New("dataset: truncated snapshot")
	ErrSnapshotCorrupt   = errors.New("dataset: corrupt snapshot")
)

// SnapshotError locates a decode failure: which section the reader was
// in and the absolute byte offset (from the start of the snapshot) where
// it gave up. It wraps the underlying cause, so
// errors.Is(err, ErrSnapshotTruncated) and friends keep working.
type SnapshotError struct {
	Section string // section being parsed ("header", "strings", ..., "dense")
	Offset  int64  // absolute offset into the snapshot bytes
	Err     error
}

func (e *SnapshotError) Error() string {
	return fmt.Sprintf("%v (in %s section at offset %d)", e.Err, e.Section, e.Offset)
}

func (e *SnapshotError) Unwrap() error { return e.Err }

// validatedSnapshots caches the (length, crc) frame headers of
// snapshots that fully passed validateColumns in this process, so
// re-loading a byte-identical snapshot skips semantic re-validation.
var validatedSnapshots sync.Map // string (concatenated frame headers) -> struct{}

// SnapshotInfo describes how a store's snapshot was loaded.
type SnapshotInfo struct {
	Version int   // snapshot format version (0 for stores not loaded from a snapshot)
	Bytes   int64 // encoded size in bytes
	Mapped  bool  // true when the columns alias a memory-mapped file
}

// SnapshotInfo reports how this store was loaded. The zero value means
// the store was built from records, not a snapshot.
func (s *Store) SnapshotInfo() SnapshotInfo { return s.snapInfo }

// WriteSnapshot writes the store's BSCS snapshot to w. It returns
// ErrStoreClosed for a closed store: encoding reads the columns, and on
// a mapped store those bytes were released by Close.
func WriteSnapshot(w io.Writer, s *Store) error {
	if s.Closed() {
		return ErrStoreClosed
	}
	_, err := w.Write(EncodeSnapshot(s))
	return err
}

// ReadSnapshot reads one BSCS snapshot from r and returns a lazy store
// over the decoded columns. When r is a regular file (and mmap is
// supported and not disabled via BOTSCOPE_NO_MMAP), the snapshot bytes
// are memory-mapped rather than read into the heap, and the columns that
// the codec stores as raw bytes decode zero-copy over the mapping; any
// mmap failure falls back to the plain read path. The record views of
// the returned store are materialized on demand (see Store.records); a
// column-native analysis run never builds them.
func ReadSnapshot(r io.Reader) (*Store, error) {
	if f, ok := r.(*os.File); ok && os.Getenv("BOTSCOPE_NO_MMAP") == "" {
		if s, err, done := readSnapshotMapped(f); done {
			return s, err
		}
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// The buffer is private to this call, so columns may alias it.
	return decodeSnapshot(data, true, false)
}

// readSnapshotMapped maps the rest of f and decodes over the mapping.
// done is false when the mapped path is unavailable (not a regular file,
// empty remainder, mmap failure) and the caller should fall back to the
// read path; when done is true the decode outcome — success or a decode
// error identical to the one the read path would produce — is final.
func readSnapshotMapped(f *os.File) (s *Store, err error, done bool) {
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil || pos < 0 {
		return nil, nil, false
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return nil, nil, false
	}
	size := fi.Size()
	if size <= pos {
		return nil, nil, false
	}
	m, err := mmapFile(f, size)
	if err != nil {
		return nil, nil, false
	}
	s, err = decodeSnapshot(m.data[pos:], true, true)
	if err != nil {
		m.close()
		return nil, err, true
	}
	// Consume the reader like io.ReadAll would, so callers that share the
	// file handle see the same position either way.
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		m.close()
		return nil, err, true
	}
	s.cols.mmap = m
	return s, nil, true
}

// EncodeSnapshot serializes the store's columnar form (deriving it from
// the records first if this store was never columnized).
func EncodeSnapshot(s *Store) []byte {
	c := s.Cols()
	d := s.denseBots()
	strBytes := 0
	for _, str := range c.strs {
		strBytes += len(str) + 2
	}
	hint := 160 + strBytes +
		21*(len(c.targets)+len(d.ips)+len(c.nID)) +
		64*len(c.bIP) + 80*len(c.aID) + 5*c.NumRefs() + 2*len(d.rec)
	buf := append(make([]byte, 0, hint), snapMagic...)
	buf = binary.AppendUvarint(buf, snapVersion)
	return appendSections(buf, c, len(snapSections))
}

// appendSections appends the frames of the first n sections of c to buf:
// each walker encodes its payload straight into buf behind a placeholder
// header, which is then backfilled with the payload length and checksum.
func appendSections(buf []byte, c *Columns, n int) []byte {
	for i, walk := range snapSections[:n] {
		buf = append(buf, byte(i+1))
		hdr := len(buf)
		enc := bincodec.NewEncoder(append(buf, make([]byte, 12)...))
		walk(enc, c)
		buf = enc.Bytes()
		payload := buf[hdr+12:]
		binary.BigEndian.PutUint64(buf[hdr:], uint64(len(payload)))
		binary.BigEndian.PutUint32(buf[hdr+8:], crc32.Checksum(payload, castagnoli))
	}
	return buf
}

// DecodeSnapshot parses a BSCS snapshot and returns a lazy store over
// the decoded columns, validating every column invariant, so a corrupt
// or hostile snapshot yields an error rather than a malformed store.
// This is the fuzzer's entry point. The caller keeps ownership of data:
// nothing in the returned store aliases it.
func DecodeSnapshot(data []byte) (*Store, error) {
	return decodeSnapshot(data, false, false)
}

// decodeSnapshot is the shared decode core. alias permits columns to
// reference data directly (the caller guarantees data is immutable and
// outlives the store); mapped records provenance in SnapshotInfo.
func decodeSnapshot(data []byte, alias, mapped bool) (*Store, error) {
	c, crcKey, err := decodeColumns(data)
	if err != nil {
		return nil, err
	}
	if !alias {
		c.aCat = bytes.Clone(c.aCat)
	}
	_, validated := validatedSnapshots.Load(crcKey)
	s, err := newLazyStore(c, !validated)
	if err != nil {
		return nil, err
	}
	if !validated {
		validatedSnapshots.Store(crcKey, struct{}{})
	}
	s.snapInfo = SnapshotInfo{Version: snapVersion, Bytes: int64(len(data)), Mapped: mapped}
	return s, nil
}

// snapErr locates a section walker's decode error in the snapshot: base
// is the absolute offset of the walker's input.
func snapErr(c *bincodec.Coder, section string, base int) error {
	if c.Err() == nil {
		return nil
	}
	return &SnapshotError{Section: section, Offset: int64(base + c.ErrOff()), Err: c.Err()}
}

// corrupt records a decode-side validation failure on c.
func corrupt(c *bincodec.Coder, format string, args ...any) {
	c.Fail(fmt.Errorf("%w: "+format, append([]any{ErrSnapshotCorrupt}, args...)...))
}

// decodeColumns parses a snapshot into columns, returning the
// concatenated frame headers as the validation-cache key. The raw
// category column aliases data.
func decodeColumns(data []byte) (*Columns, string, error) {
	if len(data) < len(snapMagic) {
		return nil, "", ErrSnapshotTruncated
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, "", ErrSnapshotMagic
	}
	off := len(snapMagic)
	hdr := bincodec.NewDecoder(data[off:], ErrSnapshotTruncated)
	var v uint64
	hdr.Uvarint(&v)
	if err := snapErr(hdr, "header", off); err != nil {
		return nil, "", err
	}
	if v != snapVersion {
		return nil, "", fmt.Errorf("%w: got %d, want %d", ErrSnapshotVersion, v, snapVersion)
	}
	off += hdr.Off()

	c := &Columns{}
	key := make([]byte, 0, 13*len(snapSections))
	for i, walk := range snapSections {
		id, name := byte(i+1), snapSectionName[i+1]
		rest := data[off:]
		if len(rest) < 13 {
			return nil, "", &SnapshotError{Section: name, Offset: int64(off), Err: ErrSnapshotTruncated}
		}
		if rest[0] != id {
			return nil, "", &SnapshotError{Section: name, Offset: int64(off),
				Err: fmt.Errorf("%w: section id %d, want %d (%s)", ErrSnapshotCorrupt, rest[0], id, name)}
		}
		plen := binary.BigEndian.Uint64(rest[1:9])
		sum := binary.BigEndian.Uint32(rest[9:13])
		key = append(key, rest[:13]...)
		off += 13
		if uint64(len(data)-off) < plen {
			return nil, "", &SnapshotError{Section: name, Offset: int64(off), Err: ErrSnapshotTruncated}
		}
		payload := data[off : off+int(plen)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return nil, "", &SnapshotError{Section: name, Offset: int64(off),
				Err: fmt.Errorf("%w: %s section checksum mismatch", ErrSnapshotCorrupt, name)}
		}
		dec := bincodec.NewDecoder(payload, ErrSnapshotTruncated)
		walk(dec, c)
		if left := len(dec.Bytes()); dec.Err() == nil && left != 0 {
			corrupt(dec, "%d trailing bytes in %s section", left, name)
		}
		if err := snapErr(dec, name, off); err != nil {
			return nil, "", err
		}
		off += int(plen)
	}
	if off != len(data) {
		return nil, "", &SnapshotError{Section: "trailer", Offset: int64(off),
			Err: fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(data)-off)}
	}
	return c, string(key), nil
}

// strIDs walks a column of interned-string ids; decoding rejects any id
// past the string table.
func strIDs(c *bincodec.Coder, col *[]int32, n int, cols *Columns) {
	ids(c, col, n, uint64(len(cols.strs)), "string id")
}

// ids walks a column of row ids into a table of limit rows; decoding
// rejects any id outside it (for a uint32 column, limit 1<<32 rejects
// overflow).
func ids[T ~int32 | ~uint32](c *bincodec.Coder, col *[]T, n int, limit uint64, what string) {
	if hi := bincodec.Uvarints(c, col, n); c.Decoding() && n > 0 && hi >= limit {
		corrupt(c, "%s %d out of range (limit %d)", what, hi, limit)
	}
}

func walkStrings(c *bincodec.Coder, cols *Columns) {
	n := len(cols.strs)
	c.Count(&n, 1)
	bincodec.Strs(c, &cols.strs, n)
	if c.Decoding() && c.Err() == nil && (n == 0 || cols.strs[0] != "") {
		corrupt(c, "string table must start with the empty string")
	}
}

func walkTargets(c *bincodec.Coder, cols *Columns) {
	n := len(cols.targets)
	c.Count(&n, 1)
	bincodec.Addrs(c, &cols.targets, n)
}

func walkBotnets(c *bincodec.Coder, cols *Columns) {
	// Botnet rows cost at least 1 byte in each of 6 columns.
	n := len(cols.nID)
	c.Count(&n, 6)
	ids(c, &cols.nID, n, 1<<32, "botnet id")
	strIDs(c, &cols.nFam, n, cols)
	strIDs(c, &cols.nHash, n, cols)
	bincodec.Addrs(c, &cols.nCtrl, n)
	bincodec.Varints(c, &cols.nFirst, n)
	bincodec.Varints(c, &cols.nLast, n)
}

func walkBots(c *bincodec.Coder, cols *Columns) {
	// Bot rows cost at least 1+1+1+1+1+8+8+1 = 22 bytes across columns.
	n := len(cols.bIP)
	c.Count(&n, 22)
	bincodec.Addrs(c, &cols.bIP, n)
	bincodec.Varints(c, &cols.bASN, n)
	strIDs(c, &cols.bCC, n, cols)
	strIDs(c, &cols.bCity, n, cols)
	strIDs(c, &cols.bOrg, n, cols)
	bincodec.F64s(c, &cols.bLat, n)
	bincodec.F64s(c, &cols.bLon, n)
	bincodec.Deltas(c, &cols.bLast, n)
}

func walkAttacks(c *bincodec.Coder, cols *Columns) {
	// Attack rows cost at least 1 byte in each of 12 varint/byte columns
	// plus 8 each for the two float columns: 28 bytes.
	n := len(cols.aID)
	c.Count(&n, 28)
	// The references themselves live in the dense section, so nRefs is
	// only sanity-bounded here: the span sum must hit it exactly below,
	// and the dense walker re-bounds it against its own payload before
	// allocating.
	nRefs := uint64(cols.NumRefs())
	c.Uvarint(&nRefs)
	if c.Decoding() && nRefs > math.MaxInt64/4 {
		corrupt(c, "reference count %d implausibly large", nRefs)
	}
	bincodec.Uvarints(c, &cols.aID, n)
	ids(c, &cols.aBotnet, n, 1<<32, "attack botnet id")
	strIDs(c, &cols.aFam, n, cols)
	c.Raw(&cols.aCat, n)
	ids(c, &cols.aTgt, n, uint64(len(cols.targets)), "attack target id")
	bincodec.Ascending(c, &cols.aStart, n)
	bincodec.After(c, &cols.aEnd, cols.aStart)
	bincodec.Varints(c, &cols.aASN, n)
	strIDs(c, &cols.aCC, n, cols)
	strIDs(c, &cols.aCity, n, cols)
	strIDs(c, &cols.aOrg, n, cols)
	bincodec.F64s(c, &cols.aLat, n)
	bincodec.F64s(c, &cols.aLon, n)
	if !bincodec.Spans(c, &cols.aOff, n, int64(nRefs)) {
		corrupt(c, "attack spans exceed declared reference count %d", nRefs)
	}
	if c.Decoding() && c.Err() == nil && cols.aOff[n] != int64(nRefs) {
		corrupt(c, "attack spans cover %d references, header declares %d", cols.aOff[n], nRefs)
	}
}

func walkDense(c *bincodec.Coder, cols *Columns) {
	if c.Decoding() {
		cols.dense = &denseBots{}
	}
	d := cols.dense
	n := len(d.ips)
	c.Count(&n, 2)
	bincodec.Addrs(c, &d.ips, n)
	hi := bincodec.Uvarints(c, &d.refs, cols.NumRefs())
	if c.Decoding() && c.Err() == nil {
		if len(d.refs) > 0 && hi >= uint64(n) {
			corrupt(c, "dense ref %d out of range (%d ids)", hi, n)
		}
		// Dense ids are canonical: id k must first appear only after ids
		// 0..k-1 have, which pins the numbering to first appearance in
		// attack order — the same numbering the record path derives.
		next := int32(0)
		for _, id := range d.refs {
			if id > next {
				corrupt(c, "dense id %d appears before id %d", id, next)
				break
			}
			if id == next {
				next++
			}
		}
		if next != int32(n) {
			corrupt(c, "dense table has %d ids but only %d are referenced", n, next)
		}
	}
	if hi := bincodec.OptIndexes(c, &d.rec, n); c.Decoding() && hi > uint64(len(cols.bIP)) {
		corrupt(c, "dense record row %d out of range (%d bots)", hi-1, len(cols.bIP))
	}
}
