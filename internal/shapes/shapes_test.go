package shapes

import (
	"fmt"
	"testing"
	"testing/quick"
)

func validShape() ConvShape {
	return ConvShape{Batch: 1, Cin: 256, Hin: 56, Win: 56, Cout: 128, Hker: 3, Wker: 3, Strid: 1, Pad: 0}
}

func TestValidate(t *testing.T) {
	s := validShape()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid shape rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*ConvShape)
	}{
		{"batch", func(s *ConvShape) { s.Batch = 0 }},
		{"cin", func(s *ConvShape) { s.Cin = 0 }},
		{"cout", func(s *ConvShape) { s.Cout = -1 }},
		{"hin", func(s *ConvShape) { s.Hin = 0 }},
		{"win", func(s *ConvShape) { s.Win = 0 }},
		{"hker", func(s *ConvShape) { s.Hker = 0 }},
		{"wker", func(s *ConvShape) { s.Wker = 0 }},
		{"stride", func(s *ConvShape) { s.Strid = 0 }},
		{"pad", func(s *ConvShape) { s.Pad = -1 }},
		{"kernel too big", func(s *ConvShape) { s.Hker = 100 }},
	}
	for _, c := range cases {
		bad := validShape()
		c.mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid shape accepted: %+v", c.name, bad)
		}
	}
}

func TestOutputDims(t *testing.T) {
	cases := []struct {
		s          ConvShape
		hout, wout int
	}{
		{ConvShape{Batch: 1, Cin: 1, Hin: 5, Win: 5, Cout: 1, Hker: 3, Wker: 3, Strid: 1}, 3, 3},
		{ConvShape{Batch: 1, Cin: 1, Hin: 5, Win: 5, Cout: 1, Hker: 3, Wker: 3, Strid: 1, Pad: 1}, 5, 5},
		{ConvShape{Batch: 1, Cin: 1, Hin: 7, Win: 9, Cout: 1, Hker: 3, Wker: 3, Strid: 2}, 3, 4},
		{ConvShape{Batch: 1, Cin: 3, Hin: 227, Win: 227, Cout: 96, Hker: 11, Wker: 11, Strid: 4}, 55, 55},
	}
	for _, c := range cases {
		if got := c.s.Hout(); got != c.hout {
			t.Errorf("%v Hout=%d want %d", c.s, got, c.hout)
		}
		if got := c.s.Wout(); got != c.wout {
			t.Errorf("%v Wout=%d want %d", c.s, got, c.wout)
		}
	}
}

func TestVolumesAndFLOPs(t *testing.T) {
	s := ConvShape{Batch: 2, Cin: 4, Hin: 6, Win: 6, Cout: 8, Hker: 3, Wker: 3, Strid: 1}
	if got, want := s.InputVolume(), 4*6*6; got != want {
		t.Errorf("InputVolume=%d want %d", got, want)
	}
	if got, want := s.OutputVolume(), 8*4*4; got != want {
		t.Errorf("OutputVolume=%d want %d", got, want)
	}
	if got, want := s.KernelVolume(), 3*3*4*8; got != want {
		t.Errorf("KernelVolume=%d want %d", got, want)
	}
	if got, want := s.KernelSize(), 3*3*4; got != want {
		t.Errorf("KernelSize=%d want %d", got, want)
	}
	// 2 flops per product term, per output, per image.
	want := int64(2*3*3*4) * int64(8*4*4) * 2
	if got := s.FLOPs(); got != want {
		t.Errorf("FLOPs=%d want %d", got, want)
	}
}

func TestR(t *testing.T) {
	s := validShape()
	if got := s.R(); got != 9 {
		t.Errorf("R=%v want 9", got)
	}
	s.Strid = 2
	if got := s.R(); got != 2.25 {
		t.Errorf("R=%v want 2.25", got)
	}
	s.Strid = 3
	if got := s.R(); got != 1 {
		t.Errorf("R=%v want 1", got)
	}
}

func TestWinogradOK(t *testing.T) {
	s := validShape()
	if !s.WinogradOK() {
		t.Error("3x3 stride-1 should allow Winograd")
	}
	s.Strid = 2
	if s.WinogradOK() {
		t.Error("stride 2 must not allow Winograd")
	}
	s = validShape()
	s.Wker = 5
	if s.WinogradOK() {
		t.Error("non-square kernel must not allow Winograd")
	}
}

func TestWithBatch(t *testing.T) {
	s := validShape()
	b := s.WithBatch(32)
	if b.Batch != 32 || s.Batch != 1 {
		t.Errorf("WithBatch mutated receiver or failed: %+v / %+v", s, b)
	}
}

// Property: output dims are always positive for valid shapes, and output
// volume scales linearly in Cout.
func TestOutputDimsProperty(t *testing.T) {
	f := func(hin, win, k, mu, pad uint8) bool {
		s := ConvShape{
			Batch: 1, Cin: 3, Cout: 7,
			Hin: int(hin%64) + 8, Win: int(win%64) + 8,
			Hker: int(k%5) + 1, Wker: int(k%5) + 1,
			Strid: int(mu%3) + 1, Pad: int(pad % 3),
		}
		if err := s.Validate(); err != nil {
			return true // skip impossible combinations
		}
		if s.Hout() < 1 || s.Wout() < 1 {
			return false
		}
		doubled := s
		doubled.Cout *= 2
		return doubled.OutputVolume() == 2*s.OutputVolume()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	s := validShape()
	got := s.String()
	if got == "" {
		t.Fatal("empty String()")
	}
}

// Property: AppendString writes what String's fmt form wrote, on random
// shapes with and without groups, after any prefix.
func TestAppendStringMatchesFmt(t *testing.T) {
	fmtString := func(s ConvShape) string {
		group := ""
		if s.G() > 1 {
			group = fmt.Sprintf(" g=%d", s.G())
		}
		return fmt.Sprintf("conv[N=%d Cin=%d %dx%d k=%dx%d Cout=%d mu=%d pad=%d%s -> %dx%d]",
			s.Batch, s.Cin, s.Hin, s.Win, s.Hker, s.Wker, s.Cout, s.Strid, s.Pad, group, s.Hout(), s.Wout())
	}
	f := func(n, cin, hin, win, hker, wker, cout, mu, pad uint16, groups int8) bool {
		s := ConvShape{Batch: int(n), Cin: int(cin), Hin: int(hin), Win: int(win), Hker: int(hker),
			Wker: int(wker), Cout: int(cout), Strid: int(mu%7) + 1, Pad: int(pad), Groups: int(groups)}
		want := fmtString(s)
		return s.String() == want && string(s.AppendString([]byte("k|"))) == "k|"+want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
