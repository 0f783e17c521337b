package roofline

import "testing"

func TestDefaultCacheSane(t *testing.T) {
	c := DefaultCache()
	if c.L1D <= 0 || c.L2 <= c.L1D || c.Line <= 0 {
		t.Fatalf("implausible default cache %+v", c)
	}
}

func TestGemvPanelCols(t *testing.T) {
	c := DefaultCache()
	cases := []struct {
		rows, elemBytes int
		check           func(cols int) bool
	}{
		// short columns: wide panels, but capped and quad-aligned
		{10, 8, func(cols int) bool { return cols >= 4 && cols%4 == 0 && cols <= 4096 }},
		// paper-scale nb=70 split planes (8 B combined per element)
		{70, 8, func(cols int) bool { return cols >= 4 && cols%4 == 0 && cols*70*8 <= c.L2 }},
		// very long columns: degrade to the unroll width, never zero
		{1 << 20, 8, func(cols int) bool { return cols == 4 }},
	}
	for _, tc := range cases {
		cols := c.GemvPanelCols(tc.rows, tc.elemBytes)
		if !tc.check(cols) {
			t.Errorf("GemvPanelCols(%d, %d) = %d fails invariant", tc.rows, tc.elemBytes, cols)
		}
	}
	// maximal: the widest quad-aligned panel that fits half the L2 — one
	// quad more would not — unless the 4096-column cap binds first
	for _, rows := range []int{4, 10, 70, 1000} {
		cols := c.GemvPanelCols(rows, 8)
		if cols*rows*8 > c.L2/2 {
			t.Errorf("GemvPanelCols(%d, 8) = %d overflows half the L2", rows, cols)
		}
		if cols < 4096 && (cols+4)*rows*8 <= c.L2/2 {
			t.Errorf("GemvPanelCols(%d, 8) = %d leaves room for another quad", rows, cols)
		}
	}
	// monotone: longer columns never widen the panel
	if a, b := c.GemvPanelCols(16, 8), c.GemvPanelCols(64, 8); a < b {
		t.Errorf("panel widened with column length: rows=16 -> %d, rows=64 -> %d", a, b)
	}
}

func TestGemvPanelColsZeroCacheFallsBack(t *testing.T) {
	var c Cache // all zero: must fall back to the default budget
	if cols := c.GemvPanelCols(10, 8); cols < 4 || cols%4 != 0 {
		t.Errorf("zero cache produced panel width %d", cols)
	}
}

func TestGemvPanelColsPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nonpositive rows")
		}
	}()
	DefaultCache().GemvPanelCols(0, 8)
}
