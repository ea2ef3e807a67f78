package quant

import (
	"errors"
	"testing"
)

// skewedTable has the canonical codes 0→"0", 1→"10", 2→"110", 3→"111".
func skewedTable() *HuffmanTable {
	return BuildHuffman([]uint16{0, 0, 0, 0, 1, 1, 2, 3})
}

func TestHuffmanDecodeErrors(t *testing.T) {
	threes, _ := skewedTable().Encode([]uint16{3, 3, 3})  // 111111111: 2 bytes
	ones, _ := skewedTable().Encode([]uint16{1, 1, 1, 1}) // 10101010: 1 byte
	cases := []struct {
		name         string
		table        *HuffmanTable
		packed       []byte
		n            int
		want         error
		bit, decoded int
	}{
		{"truncated mid-code", skewedTable(), threes[:1], 3, ErrHuffmanTruncated, 8, 2},
		{"truncated at a code boundary", skewedTable(), ones, 5, ErrHuffmanTruncated, 8, 4},
		{"empty input", skewedTable(), nil, 3, ErrHuffmanTruncated, 0, 0},
		{"invalid code", BuildHuffman([]uint16{7}), []byte{0x80}, 1, ErrHuffmanInvalid, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := c.table.Decode(c.packed, c.n)
			var he *HuffmanError
			if !errors.As(err, &he) || !errors.Is(err, c.want) {
				t.Fatalf("Decode = %v, %v; want a HuffmanError matching %v", out, err, c.want)
			}
			if he.Bit != c.bit || he.Decoded != c.decoded {
				t.Fatalf("stopped at bit %d after %d symbols, want bit %d after %d", he.Bit, he.Decoded, c.bit, c.decoded)
			}
		})
	}
	if out, err := skewedTable().Decode(nil, 0); err != nil || len(out) != 0 {
		t.Fatalf("zero symbols from empty input: %v, %v", out, err)
	}
	if _, err := skewedTable().Decode(ones, -1); err == nil {
		t.Fatal("negative symbol count accepted")
	}
}

// FuzzHuffmanDecode decodes arbitrary bytes against tables of several
// shapes. Decode must never panic: it either fails with a HuffmanError or
// returns n symbols whose encoding is a prefix of the input bitstream.
func FuzzHuffmanDecode(f *testing.F) {
	deep := make([]uint16, 0, 1<<12)
	for sym := uint16(0); sym < 12; sym++ {
		for i := 0; i < 1<<(11-sym); i++ {
			deep = append(deep, sym)
		}
	}
	tables := []*HuffmanTable{
		BuildHuffman([]uint16{7}),
		skewedTable(),
		BuildHuffman([]uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}),
		BuildHuffman(deep),
	}
	f.Add([]byte{0xff, 0x80}, uint16(3), uint8(1))
	f.Add([]byte{0xff}, uint16(3), uint8(1))
	f.Add([]byte{0x80}, uint16(1), uint8(0))
	f.Add([]byte{0x5a, 0xc3, 0x0f}, uint16(13), uint8(2))
	f.Add([]byte{0xfe, 0xff, 0x01}, uint16(4), uint8(3))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, packed []byte, n uint16, which uint8) {
		table := tables[int(which)%len(tables)]
		out, err := table.Decode(packed, int(n))
		if err != nil {
			var he *HuffmanError
			if !errors.As(err, &he) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if len(out) != int(n) {
			t.Fatalf("decoded %d symbols, want %d", len(out), n)
		}
		re, bits := table.Encode(out)
		for i := 0; i < bits; i++ {
			if (re[i/8]^packed[i/8])>>(7-uint(i%8))&1 != 0 {
				t.Fatalf("re-encoding differs from the input at bit %d", i)
			}
		}
	})
}
