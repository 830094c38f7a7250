package bitset_test

import (
	"testing"
	"testing/quick"

	"regalloc/internal/bitset"
)

func TestBasicOps(t *testing.T) {
	s := bitset.New(200)
	if !s.Empty() || s.Count() != 0 || s.Cap() != 200 {
		t.Fatal("fresh set not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(199)
	if s.Count() != 4 {
		t.Fatalf("count = %d", s.Count())
	}
	for _, i := range []int{0, 63, 64, 199} {
		if !s.Has(i) {
			t.Fatalf("missing %d", i)
		}
	}
	if s.Has(1) || s.Has(-1) || s.Has(200) {
		t.Fatal("spurious membership")
	}
	s.Remove(63)
	if s.Has(63) || s.Count() != 3 {
		t.Fatal("remove failed")
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("clear failed")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := bitset.New(130)
	b := bitset.New(130)
	for i := 0; i < 130; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 130; i += 3 {
		b.Add(i)
	}
	u := a.Copy()
	if changed := u.Union(b); !changed {
		t.Fatal("union should change")
	}
	if u.Union(b) {
		t.Fatal("second union should be a no-op")
	}
	diff := a.Copy()
	diff.Subtract(b)
	for i := 0; i < 130; i++ {
		if diff.Has(i) != (i%2 == 0 && i%3 != 0) {
			t.Fatalf("subtract wrong at %d", i)
		}
	}
	// SetUnionMinus is Copy(b), Subtract(c), Union(a) in one pass.
	c := bitset.New(130)
	for i := 0; i < 130; i += 5 {
		c.Add(i)
	}
	want := b.Copy()
	want.Subtract(c)
	want.Union(a)
	got := bitset.New(130)
	if !got.SetUnionMinus(a, b, c) || !got.Equal(want) {
		t.Fatalf("SetUnionMinus = %v, want %v", got, want)
	}
	if got.SetUnionMinus(a, b, c) {
		t.Fatal("repeating SetUnionMinus should report no change")
	}
}

// TestNewMany: sets carved from one backing array are independent,
// even across a word boundary, and each has the requested capacity.
func TestNewMany(t *testing.T) {
	sets := bitset.NewMany(3, 70)
	for i, s := range sets {
		if s.Cap() != 70 || !s.Empty() {
			t.Fatalf("set %d: cap %d, empty %v", i, s.Cap(), s.Empty())
		}
	}
	sets[1].Add(0)
	sets[1].Add(69)
	sets[0].Union(sets[1])
	sets[0].Add(63)
	sets[0].Add(64)
	if got := sets[1].String(); got != "{0, 69}" {
		t.Fatalf("middle set = %s", got)
	}
	if !sets[2].Empty() {
		t.Fatalf("last set = %s", sets[2])
	}
	if got := sets[0].String(); got != "{0, 63, 64, 69}" {
		t.Fatalf("first set = %s", got)
	}
}

func TestForEachAndNext(t *testing.T) {
	s := bitset.New(300)
	want := []int{3, 64, 65, 127, 128, 256, 299}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: %v", got)
		}
	}
	// Next walks the same sequence.
	var via []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		via = append(via, i)
	}
	if len(via) != len(want) {
		t.Fatalf("Next walk: %v", via)
	}
	if s.Next(300) != -1 || s.Next(-5) != 3 {
		t.Fatal("Next boundary behaviour")
	}
}

func TestEqualCopyFrom(t *testing.T) {
	a := bitset.New(70)
	a.Add(1)
	a.Add(69)
	b := bitset.New(70)
	if a.Equal(b) {
		t.Fatal("unequal sets compare equal")
	}
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Fatal("CopyFrom failed")
	}
}

func TestString(t *testing.T) {
	s := bitset.New(10)
	s.Add(1)
	s.Add(7)
	if got := s.String(); got != "{1, 7}" {
		t.Fatalf("String() = %q", got)
	}
}

// TestAgainstMap drives the bitset against a map-based model with
// random operation sequences.
func TestAgainstMap(t *testing.T) {
	prop := func(ops []uint16) bool {
		const n = 257
		s := bitset.New(n)
		m := make(map[int]bool)
		for _, op := range ops {
			i := int(op) % n
			switch (op / 257) % 3 {
			case 0:
				s.Add(i)
				m[i] = true
			case 1:
				s.Remove(i)
				delete(m, i)
			case 2:
				if s.Has(i) != m[i] {
					return false
				}
			}
		}
		if s.Count() != len(m) {
			return false
		}
		ok := true
		s.ForEach(func(i int) {
			if !m[i] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	bitset.New(10).Union(bitset.New(20))
}
