package rtl

import "testing"

func TestStrobeValid(t *testing.T) {
	valid := []Strobe{StrobeByte0, StrobeByte1, StrobeByte2, StrobeByte3, StrobeHalf0, StrobeHalf1, StrobeWord}
	for _, s := range valid {
		if !s.Valid() {
			t.Errorf("strobe %04b should be valid", s)
		}
	}
	for _, s := range []Strobe{0, 0b0101, 0b0110, 0b1010, 0b0111, 0b1110, 0b1001, 0b1011, 0b1101} {
		if s.Valid() {
			t.Errorf("strobe %04b should be invalid", s)
		}
	}
}

func TestStrobeGeometry(t *testing.T) {
	cases := []struct {
		s     Strobe
		bytes int
	}{
		{StrobeByte0, 1},
		{StrobeByte1, 1},
		{StrobeByte2, 1},
		{StrobeByte3, 1},
		{StrobeHalf0, 2},
		{StrobeHalf1, 2},
		{StrobeWord, 4},
	}
	for _, tc := range cases {
		if got := tc.s.Bytes(); got != tc.bytes {
			t.Errorf("%04b Bytes = %d, want %d", tc.s, got, tc.bytes)
		}
	}
}

func TestAddressToStrobe(t *testing.T) {
	for lo, want := range map[uint32]Strobe{0: StrobeByte0, 1: StrobeByte1, 2: StrobeByte2, 3: StrobeByte3} {
		if got := ByteStrobe(lo); got != want {
			t.Errorf("ByteStrobe(%d) = %04b, want %04b", lo, got, want)
		}
		// Upper address bits must be ignored.
		if got := ByteStrobe(lo + 0x1000); got != want {
			t.Errorf("ByteStrobe(%d+0x1000) = %04b, want %04b", lo, got, want)
		}
	}
	if HalfStrobe(0) != StrobeHalf0 || HalfStrobe(2) != StrobeHalf1 {
		t.Error("HalfStrobe misroutes aligned half accesses")
	}
}
