package quant

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
)

// HuffmanTable maps symbols to canonical Huffman code lengths. Together
// with the packed bitstream it is sufficient to reconstruct the symbols
// exactly (lossless), which is how Deep-Compression-style pipelines squeeze
// quantization codes further without accuracy impact.
type HuffmanTable struct {
	// Lengths[sym] is the code length in bits for each symbol that occurs;
	// absent symbols have length 0.
	Lengths map[uint16]int
	// codes is derived canonically from Lengths.
	codes map[uint16]huffCode
}

type huffCode struct {
	bits uint32
	len  int
}

type huffNode struct {
	freq        int
	sym         uint16
	leaf        bool
	left, right *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].sym < h[j].sym // deterministic tie-break
}
func (h huffHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x any)   { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() any     { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }

// BuildHuffman computes canonical code lengths for the symbol distribution
// of codes. It panics on empty input.
func BuildHuffman(codes []uint16) *HuffmanTable {
	if len(codes) == 0 {
		panic("quant: BuildHuffman on empty input")
	}
	freq := map[uint16]int{}
	for _, c := range codes {
		freq[c]++
	}
	h := make(huffHeap, 0, len(freq))
	for sym, f := range freq {
		h = append(h, &huffNode{freq: f, sym: sym, leaf: true})
	}
	heap.Init(&h)
	if h.Len() == 1 {
		// Single distinct symbol: assign it a 1-bit code.
		t := &HuffmanTable{Lengths: map[uint16]int{h[0].sym: 1}}
		t.assignCanonical()
		return t
	}
	for h.Len() > 1 {
		a := heap.Pop(&h).(*huffNode)
		b := heap.Pop(&h).(*huffNode)
		heap.Push(&h, &huffNode{freq: a.freq + b.freq, sym: minSym(a, b), left: a, right: b})
	}
	t := &HuffmanTable{Lengths: map[uint16]int{}}
	var walk func(n *huffNode, depth int)
	walk = func(n *huffNode, depth int) {
		if n.leaf {
			t.Lengths[n.sym] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(h[0], 0)
	t.assignCanonical()
	return t
}

func minSym(a, b *huffNode) uint16 {
	if a.sym < b.sym {
		return a.sym
	}
	return b.sym
}

// assignCanonical derives canonical codes from the length table: symbols
// sorted by (length, symbol) receive consecutive code values.
func (t *HuffmanTable) assignCanonical() {
	type entry struct {
		sym uint16
		len int
	}
	entries := make([]entry, 0, len(t.Lengths))
	for sym, l := range t.Lengths {
		entries = append(entries, entry{sym, l})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].len != entries[j].len {
			return entries[i].len < entries[j].len
		}
		return entries[i].sym < entries[j].sym
	})
	t.codes = make(map[uint16]huffCode, len(entries))
	var code uint32
	prevLen := 0
	for _, e := range entries {
		code <<= uint(e.len - prevLen)
		t.codes[e.sym] = huffCode{bits: code, len: e.len}
		code++
		prevLen = e.len
	}
}

// Encode packs codes into a Huffman bitstream. Returns the packed bytes and
// the exact bit count (the final byte may be partially used).
func (t *HuffmanTable) Encode(codes []uint16) (packed []byte, bitLen int) {
	var buf []byte
	var acc uint64
	var nbits int
	for _, sym := range codes {
		hc, ok := t.codes[sym]
		if !ok {
			panic(fmt.Sprintf("quant: symbol %d not in Huffman table", sym))
		}
		acc = acc<<uint(hc.len) | uint64(hc.bits)
		nbits += hc.len
		bitLen += hc.len
		for nbits >= 8 {
			nbits -= 8
			buf = append(buf, byte(acc>>uint(nbits)))
		}
	}
	if nbits > 0 {
		buf = append(buf, byte(acc<<(8-uint(nbits))))
	}
	return buf, bitLen
}

// ErrHuffmanTruncated and ErrHuffmanInvalid classify a HuffmanError.
var (
	ErrHuffmanTruncated = errors.New("bitstream exhausted")
	ErrHuffmanInvalid   = errors.New("invalid code")
)

// HuffmanError reports where Decode stopped on a bitstream it could not
// turn into the requested symbols. errors.Is matches it against
// ErrHuffmanTruncated (the stream ended before n symbols, possibly
// mid-code) or ErrHuffmanInvalid (a bit sequence matches no code).
type HuffmanError struct {
	Err     error
	Bit     int // bit offset at which decoding stopped
	Decoded int // symbols decoded before the failure
}

func (e *HuffmanError) Error() string {
	return fmt.Sprintf("quant: Huffman decode: %v at bit %d after %d symbols", e.Err, e.Bit, e.Decoded)
}

func (e *HuffmanError) Unwrap() error { return e.Err }

// Decode reconstructs exactly n symbols from a packed bitstream. A
// bitstream that ends early or holds a bit sequence no code matches
// yields a *HuffmanError; Decode never reads past packed.
func (t *HuffmanTable) Decode(packed []byte, n int) ([]uint16, error) {
	if n < 0 {
		return nil, fmt.Errorf("quant: Huffman decode of %d symbols", n)
	}
	// Build a reverse map from (len, bits) to symbol.
	rev := make(map[huffCode]uint16, len(t.codes))
	maxLen := 0
	for sym, hc := range t.codes {
		rev[hc] = sym
		if hc.len > maxLen {
			maxLen = hc.len
		}
	}
	// Every code is at least one bit long, so the stream bounds the output.
	out := make([]uint16, 0, min(n, 8*len(packed)))
	var acc uint32
	var accLen int
	for bit := 0; len(out) < n; bit++ {
		if bit >= 8*len(packed) {
			return nil, &HuffmanError{Err: ErrHuffmanTruncated, Bit: bit, Decoded: len(out)}
		}
		acc = acc<<1 | uint32(packed[bit/8]>>(7-uint(bit%8))&1)
		accLen++
		if sym, ok := rev[huffCode{bits: acc, len: accLen}]; ok {
			out = append(out, sym)
			acc, accLen = 0, 0
		} else if accLen >= maxLen {
			return nil, &HuffmanError{Err: ErrHuffmanInvalid, Bit: bit, Decoded: len(out)}
		}
	}
	return out, nil
}

// HuffmanBytes returns the compressed size in bytes for codes: the packed
// bitstream plus a 4-byte-per-entry length table.
func HuffmanBytes(codes []uint16) int64 {
	t := BuildHuffman(codes)
	_, bits := t.Encode(codes)
	return int64((bits+7)/8) + int64(len(t.Lengths))*4
}
