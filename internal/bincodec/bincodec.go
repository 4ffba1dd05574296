// Package bincodec holds the value rules shared by botscope's two binary
// formats: the BSCS snapshot (internal/dataset) and the BSCW wire
// protocol (internal/cluster). Each format layout is written once, as a
// walker: a function that visits every field of a value in layout order
// through a *Coder. The same walker encodes (an encoder appends each
// field) and decodes (a decoder overwrites each field from its input), so
// the two directions cannot drift apart.
//
// Value rules:
//
//   - unsigned integers are uvarints, signed integers zigzag varints;
//   - floats are their IEEE-754 bits, big-endian, so they round-trip
//     bit-exactly;
//   - strings are a uvarint length plus the bytes;
//   - an address is a tag byte (0 for the zero Addr, 4, or 16) plus the
//     raw address bytes;
//   - a time is its unix-nanosecond varint, decoded in UTC; the zero time
//     round-trips as itself.
//
// Decoding never panics on malformed input. The first missing or bad
// field records a sticky error together with the offset it occurred at,
// and every later field becomes a no-op, so walkers read linearly and
// check once. Collection lengths go through Count, which bounds them by
// the bytes left, so a corrupt length cannot force a huge allocation.
//
// Scalar fields choose their direction per call. The column helpers in
// columns.go choose it once per column and then run a tight loop, which
// is what keeps the snapshot decoder fast.
package bincodec

import (
	"encoding/binary"
	"math"
	"net/netip"
	"time"
)

// Coder walks one value in one direction.
type Coder struct {
	buf    []byte // encoding: the output so far; decoding: the unread input
	dec    bool
	size   int   // decoding: the input length, so offsets are size - len(buf)
	short  error // the error a decoder records when its input runs out
	err    error
	errOff int
}

// NewEncoder returns a Coder that appends to buf.
func NewEncoder(buf []byte) *Coder { return &Coder{buf: buf} }

// NewDecoder returns a Coder that reads data. short is the error it
// records when a field runs past the end of data.
func NewDecoder(data []byte, short error) *Coder {
	return &Coder{buf: data, dec: true, size: len(data), short: short}
}

// Decoding reports whether c reads rather than writes.
func (c *Coder) Decoding() bool { return c.dec }

// Bytes returns the output of an encoder, or the unread input of a
// decoder.
func (c *Coder) Bytes() []byte { return c.buf }

// Err returns the first decode error, or nil.
func (c *Coder) Err() error { return c.err }

// Off returns the number of bytes written (encoding) or consumed
// (decoding) so far.
func (c *Coder) Off() int {
	if c.dec {
		return c.size - len(c.buf)
	}
	return len(c.buf)
}

// ErrOff returns the offset at which Err was recorded.
func (c *Coder) ErrOff() int { return c.errOff }

// Fail records err at the current offset unless an earlier error stands.
// Walkers use it for decode-side checks the value rules cannot express.
func (c *Coder) Fail(err error) {
	if c.err == nil {
		c.err = err
		c.errOff = c.Off()
	}
}

// need reports whether a decoder still has n bytes, recording the short
// error when it does not (or when an earlier error stands).
func (c *Coder) need(n int) bool {
	if c.err != nil {
		return false
	}
	if len(c.buf) < n {
		c.Fail(c.short)
		return false
	}
	return true
}

func (c *Coder) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.Fail(c.short)
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

func (c *Coder) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.buf)
	if n <= 0 {
		c.Fail(c.short)
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

// Uvarint walks an unsigned varint.
//
//botscope:hotpath
func (c *Coder) Uvarint(v *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	*v = c.uvarint()
}

// Varint walks a zigzag varint.
//
//botscope:hotpath
func (c *Coder) Varint(v *int64) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	*v = c.varint()
}

// Count walks a collection length. Decoding bounds it by the input left,
// given that every element costs at least minBytes later in the input; a
// larger length fails as truncated and reads as 0.
//
//botscope:hotpath
func (c *Coder) Count(n *int, minBytes int) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(*n))
		return
	}
	v := c.uvarint()
	if c.err == nil && v > uint64(len(c.buf)/max(minBytes, 1)) {
		c.Fail(c.short)
	}
	if c.err != nil {
		v = 0
	}
	*n = int(v)
}

// Slice walks a collection length like Count and returns it; decoding
// also sizes *s to it, leaving *s nil for an empty collection. The caller
// then walks the elements.
func Slice[T any](c *Coder, s *[]T, minBytes int) int {
	n := len(*s)
	c.Count(&n, minBytes)
	if c.dec {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	return n
}

// F64 walks a float64 as its IEEE-754 bits.
//
//botscope:hotpath
func (c *Coder) F64(v *float64) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint64(c.buf, math.Float64bits(*v))
		return
	}
	*v = 0
	if c.need(8) {
		*v = math.Float64frombits(binary.BigEndian.Uint64(c.buf))
		c.buf = c.buf[8:]
	}
}

// Byte walks one raw byte.
//
//botscope:hotpath
func (c *Coder) Byte(v *byte) {
	if !c.dec {
		c.buf = append(c.buf, *v)
		return
	}
	*v = 0
	if c.need(1) {
		*v = c.buf[0]
		c.buf = c.buf[1:]
	}
}

// Bool walks a bool as one byte; any non-zero byte decodes as true.
//
//botscope:hotpath
func (c *Coder) Bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.Byte(&b)
	if c.dec {
		*v = b != 0
	}
}

// Str walks a length-prefixed string.
//
//botscope:hotpath
func (c *Coder) Str(s *string) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*s)))
		c.buf = append(c.buf, *s...)
		return
	}
	*s = c.str()
}

func (c *Coder) str() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if uint64(len(c.buf)) < n {
		c.Fail(c.short)
		return ""
	}
	s := string(c.buf[:n])
	c.buf = c.buf[n:]
	return s
}

// Addr walks a tagged address: 0 for the zero Addr, else 4 or 16
// followed by the address bytes.
//
//botscope:hotpath
func (c *Coder) Addr(a *netip.Addr) {
	if !c.dec {
		c.buf = appendAddr(c.buf, *a)
		return
	}
	*a = c.addr()
}

func appendAddr(buf []byte, a netip.Addr) []byte {
	switch {
	case !a.IsValid():
		return append(buf, 0)
	case a.Is4():
		b := a.As4()
		return append(append(buf, 4), b[:]...)
	default:
		b := a.As16()
		return append(append(buf, 16), b[:]...)
	}
}

func (c *Coder) addr() netip.Addr {
	if !c.need(1) {
		return netip.Addr{}
	}
	tag := int(c.buf[0])
	if tag == 0 {
		c.buf = c.buf[1:]
		return netip.Addr{}
	}
	if (tag != 4 && tag != 16) || !c.need(1+tag) {
		c.Fail(c.short)
		return netip.Addr{}
	}
	var a netip.Addr
	if tag == 4 {
		a = netip.AddrFrom4([4]byte(c.buf[1:5]))
	} else {
		a = netip.AddrFrom16([16]byte(c.buf[1:17]))
	}
	c.buf = c.buf[1+tag:]
	return a
}

// zeroNanos is the unix-nanosecond value the zero time encodes as.
var zeroNanos = time.Time{}.UnixNano()

// Time walks a time as its unix-nanosecond varint; the zero time decodes
// as itself and every other value in UTC.
//
//botscope:hotpath
func (c *Coder) Time(t *time.Time) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, t.UnixNano())
		return
	}
	if ns := c.varint(); ns == zeroNanos {
		*t = time.Time{}
	} else {
		*t = time.Unix(0, ns).UTC()
	}
}

// Uint walks an unsigned-integer field as a uvarint. Decoding truncates
// to the field's width.
//
//botscope:hotpath
func Uint[T ~uint32 | ~uint64](c *Coder, v *T) {
	x := uint64(*v)
	c.Uvarint(&x)
	if c.dec {
		*v = T(x)
	}
}

// Int walks an int-typed field as a zigzag varint.
//
//botscope:hotpath
func Int[T ~int](c *Coder, v *T) {
	x := int64(*v)
	c.Varint(&x)
	if c.dec {
		*v = T(x)
	}
}

// String walks a string-typed field.
//
//botscope:hotpath
func String[T ~string](c *Coder, v *T) {
	s := string(*v)
	c.Str(&s)
	if c.dec {
		*v = T(s)
	}
}
