package packet

import "encoding/binary"

// sumWords adds data's 16-bit big-endian words (paired starting at offset
// 0) to an unfolded partial sum, eight bytes per step. Splitting each
// 64-bit load into four words and adding them is bit-identical to the
// byte-pair loop — one's-complement addition is commutative and the
// 32-bit accumulator cannot overflow (≤ 32 Ki words per datagram, so the
// unfolded sum stays below 2^31). A trailing odd byte is NOT consumed
// here; the caller pairs or pads it.
func sumWords(sum uint32, data []byte) uint32 {
	i, n := 0, len(data)
	for ; i+8 <= n; i += 8 {
		v := binary.BigEndian.Uint64(data[i:])
		sum += uint32(v>>48) + uint32(v>>32&0xffff) + uint32(v>>16&0xffff) + uint32(v&0xffff)
	}
	for ; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	return sum
}

// internetChecksum computes the RFC 1071 Internet checksum over data,
// starting from an initial partial sum. The result is the one's-complement
// of the one's-complement sum.
func internetChecksum(initial uint32, data []byte) uint16 {
	sum := sumWords(initial, data)
	if n := len(data); n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// PayloadSum returns the unfolded RFC 1071 partial sum of b with a
// trailing odd byte padded as its own high-order word — exactly the value
// the per-packet checksum cache stores, so builders can be seeded with it
// (Arena.NewTCPSummed) and never re-sum a precomputed payload.
func PayloadSum(b []byte) uint32 {
	sum := sumWords(0, b)
	if n := len(b); n%2 == 1 {
		sum += uint32(b[n-1]) << 8
	}
	return sum
}

// pseudoHeaderSum returns the partial checksum of the TCP/UDP pseudo-header.
func pseudoHeaderSum(src, dst Addr, proto uint8, length uint16) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// ckSum accumulates an Internet checksum over a sequence of byte chunks as
// if they were one concatenated buffer, without materializing that buffer.
// A trailing odd byte of one chunk pairs with the first byte of the next,
// so checksumming marshal output piecewise gives bit-identical results to
// marshal-then-sum — which matters because parse-time verification must
// agree exactly with Finalize for deliberately malformed packets.
//
// A 32-bit accumulator cannot overflow here: an IPv4 datagram holds at most
// 32 Ki 16-bit words, bounding the unfolded sum below 2^31.
type ckSum struct {
	sum     uint32
	odd     bool
	oddByte byte
}

// add appends data to the running sum. The loop accumulates into a local
// so the compiler keeps it in a register instead of spilling through the
// receiver pointer each iteration.
func (c *ckSum) add(data []byte) {
	n := len(data)
	if c.odd && n > 0 {
		c.sum += uint32(c.oddByte)<<8 | uint32(data[0])
		c.odd = false
		data = data[1:]
		n--
	}
	c.sum = sumWords(c.sum, data)
	if n%2 == 1 {
		c.odd, c.oddByte = true, data[n-1]
	}
}

// addPayload appends the application payload, consulting cache for a
// previously computed partial sum of the identical slice. The cache is
// only usable when the payload starts 16-bit aligned in the checksummed
// stream (always true after Finalize pads options, and for the fixed-size
// UDP/ICMP headers).
func (c *ckSum) addPayload(payload []byte, cache *paySumCache) {
	if c.odd || cache == nil {
		c.add(payload)
		return
	}
	c.sum += cache.sumOf(payload)
}

// finish folds the accumulator and returns the one's-complement checksum.
func (c *ckSum) finish() uint16 {
	sum := c.sum
	if c.odd {
		sum += uint32(c.oddByte) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// paySumCache memoizes the unfolded checksum partial sum of one payload
// slice, keyed by slice identity (base pointer + length). Techniques edit
// single header fields between checksum fix-ups but never mutate payload
// bytes in place — payload changes always rebind the Payload field to a
// fresh slice (Clone, dummyBytes), which misses the identity check and
// recomputes. That makes identity a sound cache key.
//
// stable marks a sum a summed builder seeded (Arena.NewTCPSummed): its
// caller keeps the payload unmodified until the arena's next Reset, so
// FrameOf may alias it. A recomputed sum is never stable.
type paySumCache struct {
	ptr    *byte
	n      int
	val    uint32
	stable bool
}

// sumOf returns the unfolded partial sum of payload, cached.
func (pc *paySumCache) sumOf(payload []byte) uint32 {
	if len(payload) == 0 {
		return 0
	}
	if pc.ptr == &payload[0] && pc.n == len(payload) {
		return pc.val
	}
	var c ckSum
	c.add(payload)
	v := c.sum
	if c.odd {
		v += uint32(c.oddByte) << 8
	}
	*pc = paySumCache{ptr: &payload[0], n: len(payload), val: v}
	return v
}
