package region

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetSizes(t *testing.T) {
	for _, tc := range []struct {
		size SetSize
		want int
	}{
		{Small, 9},
		{Default, 20},
		{Large, 42},
	} {
		rs, err := Set(tc.size)
		if err != nil {
			t.Fatalf("Set(%d): %v", tc.size, err)
		}
		if len(rs) != tc.want {
			t.Errorf("Set(%d) has %d regions, want %d", tc.size, len(rs), tc.want)
		}
	}
}

func TestSetUnknownSize(t *testing.T) {
	if _, err := Set(7); err == nil {
		t.Fatalf("expected error for unknown size")
	}
}

func TestMustSetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustSet(3)
}

func TestAllRegionsValid(t *testing.T) {
	for _, size := range []SetSize{Small, Default, Large} {
		for _, r := range MustSet(size) {
			// Non-empty and inside the unit square.
			if !(0 <= r.X0 && r.X0 < r.X1 && r.X1 <= 1 && 0 <= r.Y0 && r.Y0 < r.Y1 && r.Y1 <= 1) {
				t.Errorf("invalid region %v in set %d", r, size)
			}
		}
	}
}

func TestNamesUniqueWithinSet(t *testing.T) {
	for _, size := range []SetSize{Small, Default, Large} {
		seen := map[string]bool{}
		for _, r := range MustSet(size) {
			if seen[r.Name] {
				t.Errorf("duplicate region name %q in set %d", r.Name, size)
			}
			seen[r.Name] = true
		}
	}
}

func TestSetsAreNested(t *testing.T) {
	names := func(size SetSize) map[string]bool {
		m := map[string]bool{}
		for _, r := range MustSet(size) {
			m[r.Name] = true
		}
		return m
	}
	small, def, large := names(Small), names(Default), names(Large)
	for n := range small {
		if !def[n] {
			t.Errorf("small region %q missing from default set", n)
		}
	}
	for n := range def {
		if !large[n] {
			t.Errorf("default region %q missing from large set", n)
		}
	}
}

func TestWholeImageRegionPresent(t *testing.T) {
	for _, size := range []SetSize{Small, Default, Large} {
		found := false
		for _, r := range MustSet(size) {
			if r.X0 == 0 && r.Y0 == 0 && r.X1 == 1 && r.Y1 == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("set %d lacks the whole-image region", size)
		}
	}
}

func TestSetDeterministicOrder(t *testing.T) {
	a := MustSet(Default)
	b := MustSet(Default)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Set is not deterministic at index %d", i)
		}
	}
}

func TestPixelsBasic(t *testing.T) {
	r := Rect{0, 0, 0.5, 0.5, "q"}
	x0, y0, x1, y1 := r.Pixels(100, 60)
	if x0 != 0 || y0 != 0 || x1 != 50 || y1 != 30 {
		t.Fatalf("Pixels = %d,%d,%d,%d", x0, y0, x1, y1)
	}
}

func TestPixelsNeverEmpty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		w, h := 1+rr.Intn(64), 1+rr.Intn(64)
		x0 := rr.Float64() * 0.9
		y0 := rr.Float64() * 0.9
		r := Rect{x0, y0, x0 + 0.05 + rr.Float64()*(1-x0-0.05), y0 + 0.05 + rr.Float64()*(1-y0-0.05), "t"}
		if r.X1 > 1 || r.Y1 > 1 {
			return true
		}
		px0, py0, px1, py1 := r.Pixels(w, h)
		return px0 >= 0 && py0 >= 0 && px1 <= w && py1 <= h && px1 > px0 && py1 > py0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPixelsTinyImage(t *testing.T) {
	r := Rect{0.9, 0.9, 1, 1, "corner"}
	x0, y0, x1, y1 := r.Pixels(1, 1)
	if x0 != 0 || y0 != 0 || x1 != 1 || y1 != 1 {
		t.Fatalf("tiny image pixels = %d,%d,%d,%d", x0, y0, x1, y1)
	}
}

func TestStringIncludesName(t *testing.T) {
	s := Rect{0, 0, 1, 1, "whole"}.String()
	if s == "" || s[0:5] != "whole" {
		t.Fatalf("String() = %q", s)
	}
}
