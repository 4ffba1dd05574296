package bincodec

import (
	"encoding/binary"
	"math"
	"net/netip"
)

// The column helpers walk an n-element column, choosing the direction
// once and then running a tight loop. Encoding writes (*col)[:n].
// Decoding first checks that the input left can hold n elements of the
// smallest encoded size, failing as truncated if not, and only then
// allocates *col.

// alloc sizes a decoded column to n elements of at least minBytes each,
// reporting false (with the error recorded) when it cannot.
func alloc[T any](c *Coder, col *[]T, n, minBytes int) bool {
	if c.err == nil && n > len(c.buf)/minBytes {
		c.Fail(c.short)
	}
	if c.err != nil {
		return false
	}
	*col = make([]T, n)
	return true
}

// Uvarints walks a column of unsigned varints. Decoding returns the
// largest value read, before any truncation to T, so the caller can
// bound-check the whole column once; encoding returns 0.
func Uvarints[T ~int32 | ~uint32 | ~int64 | ~uint64](c *Coder, col *[]T, n int) (hi uint64) {
	if !c.dec {
		for _, v := range (*col)[:n] {
			c.buf = binary.AppendUvarint(c.buf, uint64(v))
		}
		return 0
	}
	if !alloc(c, col, n, 1) {
		return 0
	}
	out, buf := *col, c.buf
	for i := range out {
		v, k := binary.Uvarint(buf)
		if k <= 0 {
			c.buf = buf
			c.Fail(c.short)
			return hi
		}
		buf = buf[k:]
		out[i] = T(v)
		hi = max(hi, v)
	}
	c.buf = buf
	return hi
}

// OptIndexes walks a column of row indexes in which -1 means "no row",
// each stored as the uvarint of index+1. Decoding returns the largest
// stored value, so the caller checks every index against a table of m
// rows with hi <= m; encoding returns 0.
func OptIndexes(c *Coder, col *[]int32, n int) (hi uint64) {
	if !c.dec {
		for _, v := range (*col)[:n] {
			c.buf = binary.AppendUvarint(c.buf, uint64(v+1))
		}
		return 0
	}
	hi = Uvarints(c, col, n)
	for i, v := range *col {
		(*col)[i] = v - 1
	}
	return hi
}

// Varints walks a column of zigzag varints.
func Varints(c *Coder, col *[]int64, n int) {
	if !c.dec {
		for _, v := range (*col)[:n] {
			c.buf = binary.AppendVarint(c.buf, v)
		}
		return
	}
	if !alloc(c, col, n, 1) {
		return
	}
	out, buf := *col, c.buf
	for i := range out {
		v, k := binary.Varint(buf)
		if k <= 0 {
			c.buf = buf
			c.Fail(c.short)
			return
		}
		buf = buf[k:]
		out[i] = v
	}
	c.buf = buf
}

// Deltas walks a column as zigzag varint differences from the previous
// value (the first from 0), which keeps clustered values short.
func Deltas(c *Coder, col *[]int64, n int) {
	if !c.dec {
		prev := int64(0)
		for _, v := range (*col)[:n] {
			c.buf = binary.AppendVarint(c.buf, v-prev)
			prev = v
		}
		return
	}
	Varints(c, col, n)
	prev := int64(0)
	for i, d := range *col {
		prev += d
		(*col)[i] = prev
	}
}

// Ascending walks a sorted column: the first value as a zigzag varint,
// every later one as the uvarint step from its predecessor.
func Ascending(c *Coder, col *[]int64, n int) {
	if !c.dec {
		prev := int64(0)
		for i, v := range (*col)[:n] {
			if i == 0 {
				c.buf = binary.AppendVarint(c.buf, v)
			} else {
				c.buf = binary.AppendUvarint(c.buf, uint64(v-prev))
			}
			prev = v
		}
		return
	}
	if !alloc(c, col, n, 1) || n == 0 {
		return
	}
	out := *col
	out[0] = c.varint()
	buf := c.buf
	for i := 1; i < n && c.err == nil; i++ {
		v, k := binary.Uvarint(buf)
		if k <= 0 {
			c.buf = buf
			c.Fail(c.short)
			return
		}
		buf = buf[k:]
		out[i] = out[i-1] + int64(v)
	}
	c.buf = buf
}

// After walks a column whose values are at or after base's, row by row,
// as the uvarint distance col[i] - base[i].
func After(c *Coder, col *[]int64, base []int64) {
	n := len(base)
	if !c.dec {
		for i, v := range (*col)[:n] {
			c.buf = binary.AppendUvarint(c.buf, uint64(v-base[i]))
		}
		return
	}
	Uvarints(c, col, n)
	for i := range *col {
		(*col)[i] += base[i]
	}
}

// Spans walks a CSR offset column — n+1 offsets from 0 — as its n span
// lengths. Decoding stops at the first span that would carry the running
// total past limit and reports false; the caller records why.
func Spans(c *Coder, off *[]int64, n int, limit int64) bool {
	if !c.dec {
		for i := 0; i < n; i++ {
			c.buf = binary.AppendUvarint(c.buf, uint64((*off)[i+1]-(*off)[i]))
		}
		return true
	}
	if c.err == nil && n > len(c.buf) {
		c.Fail(c.short)
	}
	if c.err != nil {
		return false
	}
	out, buf := make([]int64, n+1), c.buf
	*off = out
	for i := 0; i < n; i++ {
		v, k := binary.Uvarint(buf)
		if k <= 0 {
			c.buf = buf
			c.Fail(c.short)
			return false
		}
		buf = buf[k:]
		if v > uint64(limit-out[i]) {
			c.buf = buf
			return false
		}
		out[i+1] = out[i] + int64(v)
	}
	c.buf = buf
	return true
}

// F64s walks a column of float64 bit patterns.
func F64s(c *Coder, col *[]float64, n int) {
	if !c.dec {
		for _, v := range (*col)[:n] {
			c.buf = binary.BigEndian.AppendUint64(c.buf, math.Float64bits(v))
		}
		return
	}
	if !alloc(c, col, n, 8) {
		return
	}
	out, buf := *col, c.buf
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[8*i:]))
	}
	c.buf = buf[8*n:]
}

// Addrs walks a column of tagged addresses.
func Addrs(c *Coder, col *[]netip.Addr, n int) {
	if !c.dec {
		for _, a := range (*col)[:n] {
			c.buf = appendAddr(c.buf, a)
		}
		return
	}
	if !alloc(c, col, n, 1) {
		return
	}
	out := *col
	for i := 0; i < n && c.err == nil; i++ {
		out[i] = c.addr()
	}
}

// Strs walks a column of length-prefixed strings.
func Strs(c *Coder, col *[]string, n int) {
	if !c.dec {
		for _, s := range (*col)[:n] {
			c.buf = binary.AppendUvarint(c.buf, uint64(len(s)))
			c.buf = append(c.buf, s...)
		}
		return
	}
	if !alloc(c, col, n, 1) {
		return
	}
	out := *col
	for i := 0; i < n && c.err == nil; i++ {
		out[i] = c.str()
	}
}

// Raw walks n raw bytes. The decoded column aliases the decoder's input.
func (c *Coder) Raw(col *[]byte, n int) {
	if !c.dec {
		c.buf = append(c.buf, (*col)[:n]...)
		return
	}
	if c.need(n) {
		*col = c.buf[:n:n]
		c.buf = c.buf[n:]
	}
}
