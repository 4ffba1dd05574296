package bincodec

import (
	"errors"
	"math"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

var errShort = errors.New("short")

type kind uint32

type record struct {
	U     uint64
	I     int64
	N     int
	K     kind
	F     float64
	B     byte
	Ok    bool
	S     string
	Name  kindName
	A, Z  netip.Addr
	T, T0 time.Time
	List  []string
	Empty []string

	Col   []uint32
	Opt   []int32
	Vals  []int64
	Delta []int64
	Asc   []int64
	Ends  []int64
	Off   []int64
	Fs    []float64
	Ips   []netip.Addr
	Strs  []string
	Raw   []byte
}

type kindName string

// walkRecord exercises every field method and column helper in one
// layout, the way a format walker would.
func walkRecord(c *Coder, r *record) {
	c.Uvarint(&r.U)
	c.Varint(&r.I)
	Int(c, &r.N)
	Uint(c, &r.K)
	c.F64(&r.F)
	c.Byte(&r.B)
	c.Bool(&r.Ok)
	c.Str(&r.S)
	String(c, &r.Name)
	c.Addr(&r.A)
	c.Addr(&r.Z)
	c.Time(&r.T)
	c.Time(&r.T0)
	for _, list := range []*[]string{&r.List, &r.Empty} {
		n := Slice(c, list, 1)
		for i := 0; i < n && c.Err() == nil; i++ {
			c.Str(&(*list)[i])
		}
	}

	n := len(r.Col)
	c.Count(&n, 1)
	Uvarints(c, &r.Col, n)
	OptIndexes(c, &r.Opt, n)
	Varints(c, &r.Vals, n)
	Deltas(c, &r.Delta, n)
	Ascending(c, &r.Asc, n)
	After(c, &r.Ends, r.Asc)
	Spans(c, &r.Off, n, math.MaxInt64)
	F64s(c, &r.Fs, n)
	Addrs(c, &r.Ips, n)
	Strs(c, &r.Strs, n)
	c.Raw(&r.Raw, n)
}

func sample() record {
	return record{
		U: math.MaxUint64, I: math.MinInt64, N: -42, K: 513, F: -0.1, B: 0xAB, Ok: true,
		S: "héllo", Name: "dirtjumper",
		A:     netip.MustParseAddr("2001:db8::7"),
		T:     time.Date(2012, 8, 30, 12, 0, 0, 5, time.UTC),
		List:  []string{"a", ""},
		Col:   []uint32{0, 7, math.MaxUint32},
		Opt:   []int32{-1, 0, 41},
		Vals:  []int64{-1, 0, math.MaxInt64},
		Delta: []int64{100, 90, 1 << 40},
		Asc:   []int64{-5, -5, 1 << 50},
		Ends:  []int64{-5, 0, 1<<50 + 1},
		Off:   []int64{0, 2, 2, 9},
		Fs:    []float64{math.Inf(-1), 0, math.SmallestNonzeroFloat64},
		Ips:   []netip.Addr{{}, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("::1")},
		Strs:  []string{"", "x", "yz"},
		Raw:   []byte{1, 2, 3},
	}
}

func TestWalkRoundTrip(t *testing.T) {
	in := sample()
	enc := NewEncoder(nil)
	walkRecord(enc, &in)
	data := enc.Bytes()

	var out record
	dec := NewDecoder(data, errShort)
	walkRecord(dec, &out)
	if dec.Err() != nil {
		t.Fatalf("decode: %v", dec.Err())
	}
	if len(dec.Bytes()) != 0 || dec.Off() != len(data) {
		t.Fatalf("decode left %d bytes", len(dec.Bytes()))
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
	if !out.T0.IsZero() || out.Z.IsValid() || out.Empty != nil {
		t.Fatalf("zero values did not survive: %v %v %v", out.T0, out.Z, out.Empty)
	}

	// Re-encoding the decoded value reproduces the bytes.
	again := NewEncoder(nil)
	walkRecord(again, &out)
	if !reflect.DeepEqual(again.Bytes(), data) {
		t.Fatal("encode(decode(x)) != x")
	}
}

// TestWalkTruncated pins the sticky error: every strict prefix of a valid
// encoding fails with the decoder's short error, at an offset inside the
// prefix, without panicking.
func TestWalkTruncated(t *testing.T) {
	in := sample()
	enc := NewEncoder(nil)
	walkRecord(enc, &in)
	data := enc.Bytes()
	for cut := 0; cut < len(data); cut++ {
		var out record
		dec := NewDecoder(data[:cut], errShort)
		walkRecord(dec, &out)
		if !errors.Is(dec.Err(), errShort) {
			t.Fatalf("cut %d: err = %v, want short", cut, dec.Err())
		}
		if dec.ErrOff() > cut {
			t.Fatalf("cut %d: error offset %d past the input", cut, dec.ErrOff())
		}
	}
}

func TestCountGuard(t *testing.T) {
	enc := NewEncoder(nil)
	huge := 1 << 40
	enc.Count(&huge, 1)
	dec := NewDecoder(append(enc.Bytes(), 0, 0, 0), errShort)
	n := -1
	dec.Count(&n, 1)
	if n != 0 || !errors.Is(dec.Err(), errShort) {
		t.Fatalf("implausible count: n = %d, err = %v", n, dec.Err())
	}

	var col []int64
	dec = NewDecoder([]byte{1, 2}, errShort)
	if Varints(dec, &col, 3); col != nil || !errors.Is(dec.Err(), errShort) {
		t.Fatalf("column longer than its input allocated %d, err = %v", len(col), dec.Err())
	}
}

func TestAddrTags(t *testing.T) {
	for _, tc := range []struct {
		data []byte
		ok   bool
	}{
		{[]byte{0}, true},
		{[]byte{4, 192, 0, 2, 1}, true},
		{[]byte{4, 192, 0}, false},
		{[]byte{6, 1, 2, 3, 4, 5, 6}, false},
		{nil, false},
	} {
		var a netip.Addr
		dec := NewDecoder(tc.data, errShort)
		dec.Addr(&a)
		if (dec.Err() == nil) != tc.ok {
			t.Errorf("% x: err = %v, want ok = %v", tc.data, dec.Err(), tc.ok)
		}
	}
}

// TestColumnChecks pins the values column helpers hand back for the
// caller's decode-side checks.
func TestColumnChecks(t *testing.T) {
	enc := NewEncoder(nil)
	ids := []uint32{3, 9, 1}
	Uvarints(enc, &ids, 3)
	opt := []int32{-1, 4}
	OptIndexes(enc, &opt, 2)
	off := []int64{0, 3, 10}
	Spans(enc, &off, 2, 10)

	var gotIDs []uint32
	var gotOpt []int32
	var gotOff []int64
	dec := NewDecoder(enc.Bytes(), errShort)
	if hi := Uvarints(dec, &gotIDs, 3); hi != 9 {
		t.Errorf("Uvarints hi = %d, want 9", hi)
	}
	if hi := OptIndexes(dec, &gotOpt, 2); hi != 5 {
		t.Errorf("OptIndexes hi = %d, want 5", hi)
	}
	if Spans(dec, &gotOff, 2, 9) {
		t.Error("Spans accepted spans summing past the limit")
	}
	if dec.Err() != nil {
		t.Errorf("limit violation recorded an error itself: %v", dec.Err())
	}
}
