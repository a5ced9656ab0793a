package mpc

import "sync"

// Word-packed bit-sharing: the batched comparison protocol keeps one bit of
// every batch instance in the same machine-word lane, so a 64-lane XOR, AND
// or Beaver masking step costs one uint64 operation instead of 64 byte
// operations, and a frame carries each gate's masked bits as a dense
// bit-vector. The dealer deals randomness in the same lanes (see Slab), so
// the packed protocol reads it without any transpose.
//
// Lane layout: instance i of a k-batch lives in bit i%64 of word i/64. A
// "vector" is one logical bit per instance — []uint64 of wordsFor(k) words —
// and travels on the wire as packedVecBytes(k) = ⌈k/8⌉ bytes (little-endian
// words truncated to the lane count, padding bits zeroed).

// WordTriple is one party's share of 64 Beaver bit triples packed into word
// lanes: lane i of (A, B, C) is the party's share of triple i's (a, b, c).
type WordTriple struct {
	A, B, C uint64
}

// wordsFor returns the number of 64-bit words holding k lanes.
func wordsFor(k int) int { return (k + 63) / 64 }

// packedVecBytes returns the wire size of one k-lane bit vector.
func packedVecBytes(k int) int { return (k + 7) / 8 }

// packWordVec serializes the low k lanes of src into dst (little-endian,
// ⌈k/8⌉ bytes, padding bits of the last byte zeroed). dst must have length ≥
// packedVecBytes(k).
func packWordVec(dst []byte, src []uint64, k int) {
	nb := packedVecBytes(k)
	for bi := 0; bi < nb; bi++ {
		dst[bi] = byte(src[bi>>3] >> (8 * (bi & 7)))
	}
	if k&7 != 0 {
		dst[nb-1] &= byte(0xff) >> (8 - k&7)
	}
}

// unpackWordVec deserializes a k-lane bit vector into dst (wordsFor(k)
// words), zeroing lanes ≥ k.
func unpackWordVec(dst []uint64, src []byte, k int) {
	nw := wordsFor(k)
	for w := 0; w < nw; w++ {
		dst[w] = 0
	}
	for bi := 0; bi < packedVecBytes(k) && bi < len(src); bi++ {
		dst[bi>>3] |= uint64(src[bi]) << (8 * (bi & 7))
	}
	if k&63 != 0 {
		dst[nw-1] &= ^uint64(0) >> (64 - k&63)
	}
}

// xorWordVec XOR-accumulates a serialized k-lane vector into dst without
// materializing the intermediate words.
func xorWordVec(dst []uint64, src []byte, k int) {
	for bi := 0; bi < packedVecBytes(k) && bi < len(src); bi++ {
		dst[bi>>3] ^= uint64(src[bi]) << (8 * (bi & 7))
	}
}

// framePool recycles wire-frame buffers across protocol rounds: the batched
// circuit allocates one frame per level per party, and without pooling those
// short-lived buffers dominated the allocation profile of index builds
// (fedbench -profile).
var framePool = sync.Pool{New: func() any { return []byte(nil) }}

// getFrame returns a zeroed frame of length n from the pool.
func getFrame(n int) []byte {
	buf := framePool.Get().([]byte)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// putFrame returns a frame to the pool. Callers must not retain the slice.
// Frames handed to transport.Conn.Send are safe to recycle immediately: Send
// copies (Mem) or fully writes (TCP) before returning.
func putFrame(buf []byte) { framePool.Put(buf[:0]) } //nolint:staticcheck // slice header boxing is fine here

// wordPool recycles []uint64 scratch slabs of the packed circuit.
var wordPool = sync.Pool{New: func() any { return []uint64(nil) }}

// getWords returns a zeroed word slab of length n from the pool.
func getWords(n int) []uint64 {
	buf := wordPool.Get().([]uint64)
	if cap(buf) < n {
		buf = make([]uint64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// putWords returns a word slab to the pool.
func putWords(buf []uint64) { wordPool.Put(buf[:0]) } //nolint:staticcheck
