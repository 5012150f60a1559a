package main

import (
	"math"
	"testing"

	"sdcgmres/internal/fault"
)

func TestParseModel(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"large", fault.ClassLarge.String()},
		{"slight", fault.ClassSlight.String()},
		{"tiny", fault.ClassTiny.String()},
		{"bitflip:63", "bitflip(63)"},
		{"set:10", "set(10)"},
		{"scale:0.5", "scale(×0.5)"},
	}
	for _, c := range cases {
		m, err := fault.ParseModel(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if m.String() != c.want {
			t.Fatalf("%s parsed to %s, want %s", c.spec, m.String(), c.want)
		}
	}
}

func TestParseModelErrors(t *testing.T) {
	for _, spec := range []string{"", "huge", "bitflip:64", "bitflip:x", "set:abc", "scale:"} {
		if _, err := fault.ParseModel(spec); err == nil {
			t.Fatalf("%q should fail", spec)
		}
	}
}

func TestParseModelSemantics(t *testing.T) {
	m, err := fault.ParseModel("set:nan")
	if err != nil {
		t.Fatalf("set:nan should parse (strconv accepts NaN): %v", err)
	}
	if !math.IsNaN(m.Corrupt(5)) {
		t.Fatal("set:nan should corrupt to NaN")
	}
	s, _ := fault.ParseModel("scale:2")
	if s.Corrupt(3) != 6 {
		t.Fatal("scale:2 semantics")
	}
}

func TestParseStep(t *testing.T) {
	for spec, want := range map[string]fault.StepSelector{
		"first": fault.FirstMGS,
		"last":  fault.LastMGS,
		"norm":  fault.NormStep,
	} {
		got, err := fault.ParseStepSelector(spec)
		if err != nil || got != want {
			t.Fatalf("%s -> %v, %v", spec, got, err)
		}
	}
	if _, err := fault.ParseStepSelector("middle"); err == nil {
		t.Fatal("bad step should fail")
	}
}

func TestBuildMatrixGenerators(t *testing.T) {
	for gen, wantRows := range map[string]int{
		"poisson":  16,
		"convdiff": 16,
		"circuit":  4,
	} {
		n := 4
		a, name := buildMatrix(gen, "", n)
		if a.Rows() != wantRows {
			t.Fatalf("%s: %d rows, want %d", gen, a.Rows(), wantRows)
		}
		if name == "" {
			t.Fatalf("%s: empty name", gen)
		}
	}
}
