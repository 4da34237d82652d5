package bitflip

import (
	"errors"
	"flag"
	"strings"
	"testing"
)

func TestParseModelRoundTrip(t *testing.T) {
	for _, m := range []Model{Transient, Burst, StuckAt, Intermittent} {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseModel("cosmic-ray"); err == nil {
		t.Error("ParseModel accepted an unknown model")
	}
	if got := Model(99).String(); got != "Model(99)" {
		t.Errorf("unknown model String() = %q", got)
	}
}

func TestModelIsFlagValue(t *testing.T) {
	var m Model
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{})
	fs.Var(&m, "fault-model", "")
	if err := fs.Parse([]string{"-fault-model", "stuckat"}); err != nil || m != StuckAt {
		t.Fatalf("flag parse: model=%v err=%v", m, err)
	}
	if err := fs.Parse([]string{"-fault-model", "bogus"}); err == nil {
		t.Error("flag parse accepted an unknown model")
	}
}

func TestFaultValidate(t *testing.T) {
	good := []Fault{
		{},
		{Model: Transient},
		{Model: Burst, Width: 8},
		{Model: Burst}, // width defaults to 1
		{Model: StuckAt},
		{Model: Intermittent, Persist: 5},
	}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", f, err)
		}
	}
	bad := []Fault{
		{Model: Model(42)},
		{Width: -1},
		{Model: Transient, Width: 2}, // width needs burst
		{Model: StuckAt, Width: 3},   // width needs burst
		{Model: Burst, Width: 65},    // wider than any kind
		{Persist: -1},
		{Model: Burst, Persist: 2},     // persist needs intermittent
		{Model: StuckAt, Persist: 2},   // persist needs intermittent
		{Model: Transient, Persist: 3}, // persist needs intermittent
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", f)
		}
	}
}

func TestFaultNormalizedAndString(t *testing.T) {
	n := Fault{}.Normalized()
	if n.Width != 1 || n.Persist != 1 {
		t.Fatalf("Normalized zero value: %+v, want width/persist 1", n)
	}
	if !(Fault{}).IsTransient() || !(Fault{Model: Transient, Width: 1, Persist: 1}).IsTransient() {
		t.Error("default configurations must be transient")
	}
	for _, f := range []Fault{{Model: Burst, Width: 2}, {Model: StuckAt}, {Model: Intermittent, Persist: 2}} {
		if f.IsTransient() {
			t.Errorf("%+v claims to be transient", f)
		}
	}
	if (Fault{Model: Burst}).Persistent() || !(Fault{Model: StuckAt}).Persistent() || !(Fault{Model: Intermittent}).Persistent() {
		t.Error("Persistent() misclassifies models")
	}
	cases := map[string]Fault{
		"transient":               {},
		"burst(width=3)":          {Model: Burst, Width: 3},
		"burst":                   {Model: Burst},
		"stuckat":                 {Model: StuckAt},
		"intermittent(persist=4)": {Model: Intermittent, Persist: 4},
		"intermittent":            {Model: Intermittent},
	}
	for want, f := range cases {
		if got := f.String(); got != want {
			t.Errorf("String(%+v) = %q, want %q", f, got, want)
		}
	}
}

func TestFaultMask(t *testing.T) {
	cases := []struct {
		f    Fault
		kind Kind
		bit  int
		want uint64
	}{
		{Fault{}, Float64, 0, 1},
		{Fault{}, Float64, 63, 1 << 63},
		{Fault{Model: Burst, Width: 3}, Int64, 4, 0b111 << 4},
		{Fault{Model: Burst, Width: 64}, Uint64, 0, ^uint64(0)},
		{Fault{Model: StuckAt}, Bool, 0, 1},
		{Fault{Model: Intermittent, Persist: 9}, Int32, 31, 1 << 31},
	}
	for _, c := range cases {
		got, err := c.f.Mask(c.kind, c.bit)
		if err != nil || got != c.want {
			t.Errorf("Mask(%+v, %v, %d) = %#x, %v; want %#x", c.f, c.kind, c.bit, got, err, c.want)
		}
	}

	// Out-of-range bit positions are BadBitError, like FlipBit.
	var bbe *BadBitError
	if _, err := (Fault{}).Mask(Bool, 1); !errors.As(err, &bbe) {
		t.Errorf("Mask(bool, bit 1) = %v, want BadBitError", err)
	}
	if _, err := (Fault{Model: StuckAt}).Mask(Float32, -1); !errors.As(err, &bbe) {
		t.Errorf("Mask(float32, bit -1) = %v, want BadBitError", err)
	}
	// A burst spilling past the variable's width is an apply-time error,
	// not a silent truncation.
	if _, err := (Fault{Model: Burst, Width: 2}).Mask(Bool, 0); err == nil {
		t.Error("burst wider than bool masked without error")
	}
	if _, err := (Fault{Model: Burst, Width: 8}).Mask(Int32, 30); err == nil {
		t.Error("burst past the top of int32 masked without error")
	}
}
